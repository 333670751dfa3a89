"""Self-tests of the benchmark harness: span self times, the tail-percentile
rule, failure counting, and that a traced run leaves no wrapper behind.

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import MARK, Tracer, wrapped_names  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_over_nested_spans():
    clock = FakeClock()
    tr = Tracer(targets=[], clock=clock)

    inner = tr.wrap(lambda: clock.advance(2.0), "lib.inner")

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(3.0)

    outer = tr.wrap(outer_body, "lib.outer")
    top = tr.wrap(lambda: (clock.advance(0.5), outer()), "lib.top")
    top()
    calls, self_s, incl_s = tr.stats["lib.inner"]
    assert (calls, self_s, incl_s) == (2, 4.0, 4.0)
    assert tr.stats["lib.outer"] == [1, 4.0, 8.0]
    assert tr.stats["lib.top"] == [1, 0.5, 8.5]
    assert sum(s[1] for s in tr.stats.values()) == pytest.approx(8.5)


def test_inclusive_time_counts_the_outermost_recursive_call_once():
    clock = FakeClock()
    tr = Tracer(targets=[], clock=clock)

    def body(n):
        clock.advance(1.0)
        if n:
            rec(n - 1)

    rec = tr.wrap(body, "lib.rec", inclusive=True)
    rec(2)
    calls, self_s, incl_s = tr.stats["lib.rec"]
    assert (calls, self_s, incl_s) == (3, 3.0, 3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(targets=[], clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("refused")

    failing = tr.wrap(boom, "lib.boom")
    outer = tr.wrap(lambda: (clock.advance(1.0), failing()), "lib.outer")
    with pytest.raises(ValueError):
        outer()
    assert tr.stats["lib.boom"] == [1, 1.0, 1.0]
    assert tr.stats["lib.outer"] == [1, 1.0, 2.0]
    assert tr._stack == []


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_nearest_rank_and_sample_count_rule():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank(values, 90.0) == 90
    assert run.nearest_rank([3.0], 90.0) == 3.0
    # Enough passes for 100 samples, and never fewer than two.
    assert run.min_passes(27) == 4
    assert run.min_passes(34) == 3
    assert run.min_passes(55) == 2
    for jobs in (26, 27, 34, 55):
        assert run.tail_percentile(jobs * run.min_passes(jobs)) == 90.0


def test_typical_pass_sums_the_median_of_each_job():
    # Job 0 takes 1, 3, 2 s in three passes; job 1 takes 10, 10, 40 s.
    assert run.typical_pass([1.0, 10.0, 3.0, 10.0, 2.0, 40.0], 2) == 12.0
    assert run.typical_pass([1.0, 10.0], 2) == 11.0


def _fixed_job(name, value, want):
    def check(got):
        workloads.expect(got == want, f"{got} != {want}")

    return workloads.Job(name, lambda: value, check)


class NotSplit(RuntimeError):
    pass


def _refuse():
    raise NotSplit("not split")


def test_failure_counting_with_expected_refusals():
    jobs = [
        _fixed_job("ok", 4, 4),
        _fixed_job("expected exit 2", (2, ""), (2, "")),
        _fixed_job("wrong", 5, 4),
        workloads.Job("refused", _refuse, lambda _: None, refusal=(NotSplit,)),
    ]
    outcomes = run.Outcomes()
    run.run_pass(workloads.Workload(jobs), 0, outcomes)
    run.run_pass(workloads.Workload(jobs), 1, outcomes)
    assert outcomes.attempted == 8
    assert (outcomes.refused, outcomes.wrong, outcomes.failed) == (2, 2, 4)
    assert len(outcomes.samples) == 8
    assert {job for job, _ in outcomes.failures} == {"wrong", "refused"}
    metrics = run.end_to_end_metrics(1.5, outcomes, [0.1], 10.0)
    assert metrics["ok_ratio"]["value"] == 0.5


@pytest.mark.parametrize("refusal", [(), (ValueError,)])
def test_an_undeclared_exception_is_a_wrong_answer(refusal):
    jobs = [_fixed_job("ok", 4, 4), workloads.Job("raises", _refuse, lambda _: None, refusal)]
    outcomes = run.Outcomes()
    run.run_pass(workloads.Workload(jobs), 0, outcomes)
    assert (outcomes.attempted, outcomes.refused, outcomes.wrong) == (2, 0, 1)
    assert [reason for job, reason in outcomes.failures] == ["raised NotSplit: not split"]


def test_only_diag_8_declares_a_known_refusal(tmp_path):
    gk = run.import_package()
    workload = workloads.build_qq_structure(gk, run.ROOT, 1, tmp_path)
    declared = {job.name: job.refusal for job in workload.jobs if job.refusal}
    assert declared == {"diag(1..8)": (gk.NotSplitOverBaseError,)}


def test_the_speed_kernel_runs_with_the_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(run, "Fraction", lambda *a: seen.append(gc.isenabled()) or 1)
    assert gc.isenabled()
    run.machine_speed()
    assert seen and not any(seen) and gc.isenabled()


def test_speed_outliers_use_tukeys_fences():
    assert run.outliers([1.0, 1.0, 1.1, 1.0, 0.9, 1.0, 5.0]) == 1
    assert run.outliers([1.0, 2.0, 3.0]) == 0


def test_latencies_are_scaled_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(run, "machine_speed", lambda: 2 * run.REFERENCE_SPEED_S)
    jobs = [_fixed_job("ok", sum(range(10000)), sum(range(10000)))]
    outcomes = run.Outcomes()
    scaled, raw = run.run_pass(workloads.Workload(jobs), 0, outcomes)
    assert scaled == pytest.approx(raw / 2) and outcomes.samples == [scaled]


def test_cli_refusal_on_a_polynomial_ring_is_a_success(tmp_path):
    gk = run.import_package()
    workload = workloads.build_cli_pipeline(gk, run.ROOT, 1, tmp_path)
    jobs = [j for j in workload.jobs if j.name.startswith("cli pipeline two-variables")]
    assert len(jobs) == 4
    outcomes = run.Outcomes()
    run.run_pass(workloads.Workload(jobs, workload.begin_pass), 0, outcomes)
    assert (outcomes.attempted, outcomes.failed) == (4, 0)


def test_wrappers_are_rebound_everywhere_and_removed_afterwards():
    gk = run.import_package()
    import gkgrowth.cli
    import gkgrowth.fdalg
    import gkgrowth.growth
    import gkgrowth.pipeline

    original = gk.algebras.growth_sequence
    gcd = gk.poly.uni_gcd
    assert wrapped_names() == []
    tr = Tracer()
    tr.install()
    try:
        for module in (gk, gk.algebras, gkgrowth.fdalg, gkgrowth.pipeline, gkgrowth.growth,
                       gkgrowth.cli):
            assert getattr(module.growth_sequence, MARK) is original
        for module in (gk.poly, gkgrowth.fdalg):
            assert getattr(module.uni_gcd, MARK) is gcd
        assert getattr(gk.RatFunc.__radd__, MARK) is getattr(gk.RatFunc.__add__, MARK)
        F = gk.RatFuncField("x")
        pres = gk.AlgebraPresentation(F, 1, [gk.Matrix(F, [[F.gen()]]),
                                             gk.Matrix(F, [[F.one / F.gen()]])], "lp")
        tr.begin_job()
        assert gk.growth_sequence(pres, 3).dims == (1, 3, 5, 7)
    finally:
        tr.uninstall()
    assert wrapped_names() == []
    assert gk.algebras.growth_sequence is original and gkgrowth.fdalg.growth_sequence is original
    assert gkgrowth.fdalg.uni_gcd is gcd
    metrics = tr.metrics(1)
    assert metrics["algebras.growth_calls"] == (1, "count")
    assert metrics["algebras.candidates"][0] == 2 + 2 * 2 + 2 * 2
    assert metrics["poly.gcd_calls"][0] > 0 and metrics["poly.ratfunc_ops"][0] > 0


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    outcomes = run.Outcomes()
    outcomes.record("job", 1.0)
    end_to_end = run.end_to_end_metrics(1.0, outcomes, [0.1], 10.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in end_to_end.items()}
    tr = Tracer()
    layers = run.layer_metrics(tr, [(1.0, 1.0)], [(1.0, 1.0)])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m["unit"] for name, m in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tracer_mod.LAYERS == tuple(dict.fromkeys(t.module for t in tracer_mod.TARGETS))
