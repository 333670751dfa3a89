"""gkgrowth benchmark: four workloads, end-to-end metrics and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qqx-growth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload

One run builds the workload's inputs from ``--seed``, then runs passes over
its job list for about ``--seconds`` seconds (at least enough passes for
100 job samples) and checks every job's answer.  The load is one closed
loop in one thread: a job starts when the previous one has finished.

``--trace 0`` reports the end-to-end metrics, measured untraced:
wall_s (typical pass time: each job's median latency over the passes,
summed over the job list), job_s_p50, job_s_tail, setup_s (median of nine
fresh processes that import gkgrowth and build the inputs), peak_rss_mb
and ok_ratio (jobs answered correctly / jobs attempted).  Times are
scaled to a reference machine speed (see ``run_pass``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``tracer.py`` per traced pass, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct`` (no job returned a wrong answer or raised an exception it does
not declare as a known refusal), ``attempted``, ``failed`` (known refusals
plus wrong answers) and ``metrics``.  The line before it holds
the details: sample counts, the tail percentile, failures and run metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, wrapped_names  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
MIN_SAMPLES = 100
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
# Kernel time of machine_speed() at the speed the reported times are scaled to.
REFERENCE_SPEED_S = 0.006


# ---------------------------------------------------------------------------
# statistics


def _rank(n: int, pct: float) -> int:
    """Nearest rank (1-based) of the pct-th percentile of n samples, in exact arithmetic."""
    per_mille = round(pct * 10)
    return max(1, -(-per_mille * n // 1000))


def nearest_rank(values: list, pct: float) -> float:
    """The smallest sample with at least pct% of the samples at or below it."""
    return sorted(values)[_rank(len(values), pct) - 1]


def tail_percentile(n: int):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it, else None."""
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= TAIL_BEYOND:
            return pct
    return None


def min_passes(jobs_per_pass: int) -> int:
    return max(2, math.ceil(MIN_SAMPLES / jobs_per_pass))


def typical_pass(samples: list, jobs_per_pass: int) -> float:
    """Sum over the job list of each job's median latency over the passes.

    ``samples`` holds whole passes, job by job.  A slow spell of the host
    that hits one job in one pass moves that job's median no more than a
    fast spell elsewhere does, while it moves the sum of that whole pass.
    """
    passes = [samples[i:i + jobs_per_pass] for i in range(0, len(samples), jobs_per_pass)]
    return sum(statistics.median(column) for column in zip(*passes))


# ---------------------------------------------------------------------------
# passes


class Outcomes:
    """Latency samples and failures of every job run."""

    def __init__(self):
        self.samples = []
        self.attempted = 0
        self.refused = 0
        self.wrong = 0
        self.failures = {}   # (job, reason) -> count
        self.speeds = []     # every machine_speed() time

    def record(self, job: str, seconds: float, failure=None, wrong=False):
        self.samples.append(seconds)
        self.attempted += 1
        if failure is not None:
            if wrong:
                self.wrong += 1
            else:
                self.refused += 1
            self.failures[(job, failure)] = self.failures.get((job, failure), 0) + 1

    @property
    def failed(self) -> int:
        return self.refused + self.wrong


def machine_speed() -> float:
    """Seconds that a fixed exact-arithmetic kernel takes right now.

    The kernel does what gkgrowth spends its time on (Fraction arithmetic,
    small tuples, dict updates) and calls nothing of gkgrowth, so it
    measures how fast the machine runs Python at this moment, not how fast
    the program is.  The garbage collector is off while it runs (the kernel
    makes no reference cycles), so collections that the program's jobs owe
    fall inside the jobs, not inside the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(1, 500):
            a = Fraction(i, i + 7)
            b = Fraction(i + 3, 2 * i + 1)
            key = (i % 31, i % 7)
            table[key] = a * b + a - b + table.get(key, 0) / 3 if i % 5 else a * b
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def outliers(values: list) -> int:
    """How many values lie outside Tukey's fences (1.5 IQR beyond the quartiles)."""
    if len(values) < 4:
        return 0
    q1, _, q3 = statistics.quantiles(values, n=4)
    low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    return sum(1 for v in values if v < low or v > high)


def run_pass(workload, index: int, outcomes: Outcomes, tracer=None) -> tuple:
    """Run every job once; (scaled, raw) summed job latency of the pass.

    Each job's latency is scaled by REFERENCE_SPEED_S over the mean kernel
    time of machine_speed() just before and just after the job, so the
    times read as seconds on a machine where the kernel takes
    REFERENCE_SPEED_S.  The host's speed flips by up to 2x within seconds;
    the scaled times follow those flips far less than the raw ones.
    """
    if workload.begin_pass is not None:
        workload.begin_pass(index)
    clock = time.perf_counter
    scaled_total = raw_total = 0.0
    speed_before = machine_speed()
    outcomes.speeds.append(speed_before)
    for job in workload.jobs:
        if tracer is not None:
            tracer.begin_job()
        t0 = clock()
        failure, wrong = None, False
        try:
            result = job.run()
        except Exception as exc:  # counted, and the pass goes on
            dt = clock() - t0
            failure = f"raised {type(exc).__name__}: {exc}"[:200]
            wrong = not isinstance(exc, job.refusal)
        else:
            dt = clock() - t0
            try:
                job.check(result)
            except workloads.Mismatch as exc:
                failure, wrong = f"wrong answer: {exc}"[:200], True
        speed_after = machine_speed()
        outcomes.speeds.append(speed_after)
        scaled = dt * 2.0 * REFERENCE_SPEED_S / (speed_before + speed_after)
        speed_before = speed_after
        outcomes.record(job.name, scaled, failure, wrong)
        scaled_total += scaled
        raw_total += dt
    return scaled_total, raw_total


def measure(workload, seconds: float, outcomes: Outcomes) -> list:
    """Untraced passes until the next one would end after ``seconds``; [(scaled, raw)]."""
    need = min_passes(len(workload.jobs))
    start = time.perf_counter()
    passes, spans = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, len(passes), outcomes))
        spans.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed + statistics.median(spans) > seconds:
            return passes


def measure_traced(workload, seconds: float, outcomes: Outcomes, tracer: Tracer) -> tuple:
    """Alternate untraced and traced passes; (untraced, traced) lists of (scaled, raw)."""
    start = time.perf_counter()
    plain, traced, spans = [], [], []
    while True:
        index = len(plain) + len(traced)
        t0 = time.perf_counter()
        if len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(workload, index, outcomes, tracer))
            finally:
                tracer.uninstall()
            left = wrapped_names()
            if left:
                raise RuntimeError(f"tracer left wrappers behind: {left}")
        else:
            plain.append(run_pass(workload, index, outcomes))
        spans.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if traced and len(traced) == len(plain) and \
                elapsed + 2 * statistics.median(spans) > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# set-up, metadata


def import_package():
    """Import gkgrowth from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gkgrowth" / "__init__.py").is_file():
        raise SystemExit(f"error: no gkgrowth sources under {src}")
    sys.path.insert(0, str(src))
    import gkgrowth

    if Path(gkgrowth.__file__).resolve().parent != (src / "gkgrowth").resolve():
        raise SystemExit(f"error: imported gkgrowth from {gkgrowth.__file__}, not {src}")
    return gkgrowth


def build(name: str, seed: int, tmp: Path):
    gk = import_package()
    return workloads.WORKLOADS[name](gk, ROOT, seed, tmp)


def setup_seconds(name: str, seed: int) -> list:
    """Scaled set-up time of SETUP_REPEATS fresh processes (import plus input build)."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def metadata(gk) -> dict:
    from gkgrowth._ratio import QQ

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "qq": f"{QQ.__module__}.{QQ.__name__}",
        "gmpy2": QQ.__module__.startswith("gmpy2"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        machine_speed()  # the first call also pays for warming up the interpreter
        speed_before = machine_speed()
        t0 = time.perf_counter()
        build(args.workload, args.seed, tmp)
        raw = time.perf_counter() - t0
        scaled = raw * 2.0 * REFERENCE_SPEED_S / (speed_before + machine_speed())
        print(json.dumps({"scaled": scaled, "raw": raw}))
        return 0
    try:
        workload = build(args.workload, args.seed, tmp)
        outcomes = Outcomes()
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "jobs_per_pass": len(workload.jobs)}
        if args.trace:
            tracer = Tracer()
            plain, traced = measure_traced(workload, args.seconds, outcomes, tracer)
            metrics = layer_metrics(tracer, plain, traced)
            detail.update(untraced_passes=len(plain), traced_passes=len(traced))
        else:
            passes = measure(workload, args.seconds, outcomes)
            rss = peak_rss_mb()
            setups = setup_seconds(args.workload, args.seed)
            wall = typical_pass(outcomes.samples, len(workload.jobs))
            metrics = end_to_end_metrics(wall, outcomes, [s["scaled"] for s in setups], rss)
            n = len(outcomes.samples)
            detail.update(passes=len(passes), pass_s=[p[0] for p in passes],
                          raw_pass_s=[p[1] for p in passes], job_samples=n,
                          job_s_tail_percentile=tail_percentile(n),
                          setup_s=[s["scaled"] for s in setups],
                          raw_setup_s=[s["raw"] for s in setups])
        detail.update(speed_samples=len(outcomes.speeds),
                      speed_median_s=statistics.median(outcomes.speeds),
                      speed_outliers=outliers(outcomes.speeds))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        parent = tmp.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    detail["fail_ratio"] = outcomes.failed / outcomes.attempted
    detail["failures"] = [{"job": job, "reason": reason, "count": count}
                          for (job, reason), count in sorted(outcomes.failures.items())]
    detail["meta"] = metadata(sys.modules["gkgrowth"])
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": outcomes.wrong == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}, sort_keys=True))
    return 0


def end_to_end_metrics(wall: float, outcomes: Outcomes, setups: list, rss: float) -> dict:
    samples = outcomes.samples
    pct = tail_percentile(len(samples))
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "job_s_p50": {"value": nearest_rank(samples, 50.0), "unit": "s"},
        "job_s_tail": {"value": nearest_rank(samples, pct if pct else 100.0), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "ok_ratio": {"value": 1.0 - outcomes.failed / outcomes.attempted, "unit": "ratio"},
    }


def layer_metrics(tracer: Tracer, plain: list, traced: list) -> dict:
    """Per-pass layer metrics; ``plain`` and ``traced`` hold (scaled, raw) pass times."""
    per_pass = tracer.metrics(len(traced))
    self_total = sum(s[1] for s in tracer.stats.values())
    traced_wall = statistics.median(p[0] for p in traced)
    plain_wall = statistics.median(p[0] for p in plain)
    raw_traced = sum(p[1] for p in traced)
    per_pass["trace.unwrapped_s"] = ((raw_traced - self_total) / len(traced), "s")
    per_pass["trace.untraced_wall_s"] = (plain_wall, "s")
    per_pass["trace.traced_wall_s"] = (traced_wall, "s")
    per_pass["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in per_pass.items()}


# ---------------------------------------------------------------------------
# every workload, each in its own process


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=str(ROOT),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {detail['fail_ratio']:.4f}, correct {result['correct']}")
        if not args.trace:
            print(f"   {detail['passes']} passes x {detail['jobs_per_pass']} jobs = "
                  f"{detail['job_samples']} job samples; job_s_tail is "
                  f"p{detail['job_s_tail_percentile']}; setup_s from "
                  f"{len(detail['setup_s'])} processes; {detail['speed_outliers']} of "
                  f"{detail['speed_samples']} speed-kernel times outside Tukey's fences")
        for failure in detail["failures"]:
            print(f"   failure x{failure['count']}: {failure['job']}: {failure['reason']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:34s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, sort_keys=True))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
