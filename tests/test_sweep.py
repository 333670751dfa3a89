"""The parent-equality sweep, ``tools/sweep.py``, on a few fast cases."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUBSET = (
    "gkdim two-variables --window 1:4",
    "gkdim laurent-pair --format json",
    "gkdim mat2 --max-n 9 --window 1:9 --out {out}",
    "growth mat2 --cap 5",
    "compare mat2 two-variables",
    "cayley mat2",
    "exbig 2",
    "growth missing",
    "pipeline --help",
)


def test_case_names_are_unique_and_cover_every_subcommand():
    sweep = load_sweep()
    names = [name for name, _ in sweep.cases()]
    assert len(names) == len(set(names))
    from gkgrowth.cli import _COMMANDS

    assert {name.split()[0] for name in names} >= set(_COMMANDS)
    assert set(SUBSET) <= set(names)


def test_a_subset_sweeps_to_the_same_sorted_lines_twice(tmp_path, deadline):
    deadline(5)
    sweep = load_sweep()
    selected = [case for case in sweep.cases() if case[0] in SUBSET]
    lines = sweep.sweep(selected)
    assert lines == sorted(lines) == sweep.sweep(selected)
    assert sorted(line.split("  ", 1)[1] for line in lines) == sorted(SUBSET)
    assert all(re.fullmatch(r"[0-9a-f]{64}  .+", line) for line in lines)
    from gkgrowth.cli import main

    for name, argv in selected:
        runs = sweep.run_case(main, argv, tmp_path)
        # The cache miss and the hit print what the uncached run prints.
        assert runs[0] == runs[1] == runs[2], name
        assert not any(str(ROOT) in (text or "") for text in runs[0])
    missing = dict(selected)["growth missing"]
    code, stdout, stderr, written = sweep.run_case(main, missing, tmp_path)[0]
    assert (code, stdout, written) == ("2", "", None)
    assert stderr.startswith("input error: cannot read <root>/demos/presentations/missing.alg")
