"""The benchmark's golden bytes, checked in the suite.

Every CLI invocation of the benchmark corpus runs in process twice, a
cache miss and then a cache hit, and each must give the exit code and
stdout bytes recorded in ``perfbench/golden.json``.  The ut2-x pipeline
report at the FAST configuration must equal its recorded JSON.  A
refactor that keeps these bytes keeps the CLI's behaviour on the corpus.
"""

import sys
from pathlib import Path

import pytest

import gkgrowth
from gkgrowth.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

GOLDEN = workloads.load_golden()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


INVOCATIONS = workloads.cli_invocations()


@pytest.mark.parametrize("name, argv", INVOCATIONS, ids=[name for name, _ in INVOCATIONS])
def test_cli_output_is_the_golden_bytes_on_a_miss_and_a_hit(cache_dir, name, argv):
    want = GOLDEN["cli"][name]
    argv = [str(ROOT / a) if a.startswith(str(workloads.DEMOS)) else a for a in argv]
    for _ in ("miss", "hit"):
        rc, out = workloads.call_cli(main, argv + ["--cache-dir", cache_dir])
        assert rc == want["rc"]
        assert out.encode() == want["stdout"].encode()


def test_the_ut2x_fast_pipeline_report_is_the_golden_record():
    gens = workloads.ut2x_generators(gkgrowth)
    pres = gkgrowth.AlgebraPresentation(gens[0].ring, 2, gens, "ut2-x")
    report = gkgrowth.run_pipeline(pres, workloads.fast_pipeline_config(gkgrowth))
    assert workloads.pipeline_record_text(report) == GOLDEN["ut2x_fast"]
