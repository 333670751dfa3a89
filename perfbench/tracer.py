"""Outside-in layer trace of the ``gkgrowth`` package.

The tracer wraps public functions and methods of each package module
from outside the package, rebinding every module attribute and class
attribute that holds the original object (so a name imported by
``from .algebras import growth_sequence`` is wrapped as well).  Spans are
kept on a stack: a call's self time is its duration minus the time of
the wrapped calls it made.  ``uninstall`` puts every original back.

Layer metrics are reported per traced pass.  Time spent in the tracer's
own hooks (coefficient scans, cache-directory listings) is charged to no
span; it shows only in the overhead ratio.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "gkgrowth"
MARK = "__perfbench_original__"

LAYERS = ("poly", "spans", "matrices", "algebras", "fdalg", "growth", "charpoly",
          "closure", "pipeline", "parse", "cli")


@dataclass(frozen=True)
class Target:
    module: str          # layer name, also the module name inside the package
    qualname: str        # "func" or "Class.method"
    key: str             # stat key; several targets may share one
    inclusive: bool = False  # report the outermost call's duration, not self time


def _targets() -> list:
    T = Target
    ratfunc_ops = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                   "__rtruediv__", "__pow__")
    out = [
        T("poly", "Poly.__mul__", "poly.poly_mul"),
        *[T("poly", f"RatFunc.{op}", "poly.ratfunc") for op in ratfunc_ops],
        T("poly", "uni_gcd", "poly.gcd"),
        T("poly", "common_denominator", "poly.common_denominator"),
        T("spans", "EchelonBasis.insert", "spans.insert"),
        T("spans", "EchelonBasis.contains", "spans.contains"),
        T("spans", "SpanSnapshot.contains", "spans.contains"),
        T("spans", "EchelonBasis.snapshot", "spans.snapshot"),
        T("spans", "cleared_vecs", "spans.cleared_vecs"),
        T("spans", "field_coordinates", "spans.solve"),
        T("spans", "membership_ratfunc", "spans.solve"),
        T("spans", "solve_q_linear", "spans.solve"),
        T("matrices", "Matrix.__mul__", "matrices.mul"),
        T("matrices", "mat_mul", "matrices.mul"),
        T("algebras", "growth_sequence", "algebras.growth"),
        T("algebras", "GrowthTable.membership_level", "algebras.membership"),
        T("algebras", "element_membership_at_level", "algebras.membership"),
        T("fdalg", "close_to_fdalg", "fdalg.close"),
        T("fdalg", "radical", "fdalg.radical"),
        T("fdalg", "radical_coords", "fdalg.radical"),
        T("fdalg", "nilpotence_degree", "fdalg.nilpotence"),
        T("fdalg", "nilpotence_degree_coords", "fdalg.nilpotence"),
        T("fdalg", "quotient_by_ideal", "fdalg.quotient"),
        T("fdalg", "central_primitive_idempotents", "fdalg.idempotents"),
        T("fdalg", "central_primitive_idempotents_coords", "fdalg.idempotents"),
        T("fdalg", "rational_roots", "fdalg.idempotents"),
        T("fdalg", "wedderburn_complement", "fdalg.wedderburn"),
        T("fdalg", "decompose_element", "fdalg.decompose"),
        T("growth", "gk_estimate", "growth.estimate"),
        T("growth", "difference_degree", "growth.estimate"),
        T("growth", "equivalence_check", "growth.equivalence", True),
        T("growth", "dominance_check", "growth.equivalence", True),
        *[T("growth", f"verify_{kind}_certificate", "growth.certificate", True)
          for kind in ("bimodule", "central_multiplier", "nilpotent_adjoin",
                       "finite_commuting_adjoin")],
        T("charpoly", "char_poly", "charpoly.char_poly"),
        T("charpoly", "cayley_hamilton_check", "charpoly.cayley"),
        T("charpoly", "regular_rep_charpoly", "charpoly.regular_rep"),
        T("charpoly", "regular_rep_matrix", "charpoly.regular_rep"),
        T("charpoly", "determinant", "charpoly.determinant"),
        T("closure", "trace_algebra_generators", "closure.trace_generators", True),
        T("closure", "module_finiteness_check", "closure.module_finiteness", True),
        T("closure", "build_diagonal_embedding_example", "closure.build"),
        T("closure", "elementary_symmetric", "closure.build"),
        T("pipeline", "build_radical_split", "pipeline.radical_split", True),
        T("pipeline", "build_central_scalars", "pipeline.central_scalars", True),
        T("pipeline", "build_center_stage", "pipeline.center_stage", True),
        T("pipeline", "build_commutative_witness", "pipeline.commutative_witness", True),
        T("pipeline", "enumerate_reduced_words", "pipeline.words"),
        T("pipeline", "run_pipeline", "pipeline.run", True),
        T("parse", "parse_entry", "parse.entry"),
        T("parse", "parse_poly_expr", "parse.expr"),
        T("parse", "parse_ratfunc_expr", "parse.expr"),
        T("cli", "main", "cli.main"),
        T("cli", "parse_presentation_document", "cli.load"),
        T("cli", "load_presentation", "cli.load"),
    ]
    return out


TARGETS = _targets()

# Call counts reported under the names the benchmark documents.
COUNT_NAMES = {
    "poly.poly_mul": "poly.poly_mul",
    "poly.ratfunc": "poly.ratfunc_ops",
    "poly.gcd": "poly.gcd_calls",
    "spans.insert": "spans.insert",
    "matrices.mul": "matrices.mul",
    "algebras.growth": "algebras.growth_calls",
    "growth.certificate": "growth.certificate_calls",
    "charpoly.char_poly": "charpoly.char_poly_calls",
    "parse.entry": "parse.entries",
}


def resolve(module: str, qualname: str):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _namespaces() -> list:
    """Every package module and every class the package defines, once each."""
    seen, out = set(), []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for ns in [module] + [v for v in vars(module).values() if isinstance(v, type)
                              and getattr(v, "__module__", "").startswith(PACKAGE)]:
            if id(ns) not in seen:
                seen.add(id(ns))
                out.append(ns)
    return out


def wrapped_names() -> list:
    """Attributes of the package that still hold a tracer wrapper."""
    return [f"{getattr(ns, '__name__', ns)}.{attr}" for ns in _namespaces()
            for attr, v in list(vars(ns).items()) if hasattr(v, MARK)]


def coeff_bits(value) -> int:
    num = getattr(value, "numerator", None)
    if not isinstance(num, int):
        return 0
    return max(num.bit_length(), value.denominator.bit_length())


def filtration_key(pres) -> tuple:
    """A generator set up to order and label."""
    return (str(pres.ring), pres.size, frozenset(pres.generators))


class Tracer:
    """Wraps the package, records spans and counters, and restores it."""

    def __init__(self, targets: Optional[list] = None, clock: Callable[[], float] = time.perf_counter):
        self.targets = TARGETS if targets is None else targets
        self.clock = clock
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # key -> [calls, self_s, inclusive_s]
        self.counters = defaultdict(float)
        self.hook_s = 0.0
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []
        self._job_filtrations = set()

    def _hooks(self, key: str) -> tuple:
        """(before, after) callables run around the calls of ``key``, outside every span."""
        if key == "spans.insert":
            return None, self._after_insert
        if key == "algebras.growth":
            return None, self._after_growth
        if key == "cli.main":
            return self._before_cli_main, self._after_cli_main
        if key.startswith("fdalg."):
            return None, self._after_fdalg
        return None, None

    # -- spans ------------------------------------------------------------

    def wrap(self, fn, key: str, inclusive: bool = False, before=None, after=None):
        """A wrapper that records a span of ``key`` around each call of ``fn``."""
        stats = self.stats[key]
        stack, depth, clock = self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            stack.append(0.0)
            depth[key] += 1
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[key] -= 1
                stats[0] += 1
                stats[1] += dt - child
                if not depth[key]:
                    stats[2] += dt
                if stack:
                    stack[-1] += dt
                if after is not None:
                    t1 = clock()
                    after(args, result, error, state, dt)
                    hook = clock() - t1
                    self.hook_s += hook
                    if stack:
                        stack[-1] += hook

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        wrappers = {}
        for t in self.targets:
            original = resolve(t.module, t.qualname)
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self.wrap(original, t.key, t.inclusive,
                                                              *self._hooks(t.key)))
        found = set()
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, entry[1])
                    found.add(id(value))
        missing = [t.qualname for t in self.targets if id(resolve_original(t)) not in found]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace targets not found in {PACKAGE}: {missing}")

    def uninstall(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def begin_job(self):
        self._job_filtrations = set()

    # -- hooks ----------------------------------------------------------------

    def _after_insert(self, args, result, error, state, dt):
        if error is not None:
            return
        if result == "extended":
            self.counters["spans.extended"] += 1
        bits = max((coeff_bits(v) for v in args[1].values()), default=0)
        if bits > self.counters["spans.max_coeff_bits"]:
            self.counters["spans.max_coeff_bits"] = bits

    def _after_growth(self, args, table, error, state, dt):
        if error is not None:
            return
        pres = args[0]
        key = filtration_key(pres)
        if key not in self._job_filtrations:
            self._job_filtrations.add(key)
            self.counters["algebras.distinct_filtrations"] += 1
        # Level n tries |generators| x (new representatives of level n-1).
        dims = table.dims
        last = table.max_level if table.stabilized_at is None else table.stabilized_at + 1
        gens = len(pres.generators)
        previous_new = 1
        for n in range(1, last + 1):
            self.counters["algebras.candidates"] += gens * previous_new
            previous_new = dims[n] - dims[n - 1]
        self.counters["algebras.new_representatives"] += dims[last] - 1

    def _before_cli_main(self, args):
        argv = list(args[0]) if args and args[0] is not None else []
        if "--cache-dir" not in argv:
            return None
        cache_dir = argv[argv.index("--cache-dir") + 1]
        return cache_dir, _entries(cache_dir)

    def _after_cli_main(self, args, rc, error, state, dt):
        if state is None or error is not None or rc != 0:
            return
        cache_dir, entries_before = state
        if _entries(cache_dir) > entries_before:
            self.counters["cli.cache_misses"] += 1
        else:
            self.counters["cli.cache_hits"] += 1
            self.counters["cli.replay_s"] += dt

    def _after_fdalg(self, args, result, error, state, dt):
        # Count each refusal once, in the innermost wrapped call it leaves.
        if type(error).__name__ == "NotSplitOverBaseError" and \
                not getattr(error, "_perfbench_counted", False):
            error._perfbench_counted = True
            self.counters["fdalg.not_split"] += 1

    # -- report -----------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics: name -> (value, unit)."""
        per = 1.0 / max(passes, 1)
        out = {}
        layer_calls, layer_self = defaultdict(int), defaultdict(float)
        for key, (calls, self_s, incl_s) in self.stats.items():
            layer_calls[key.split(".")[0]] += calls
            layer_self[key.split(".")[0]] += self_s
        inclusive = {t.key for t in self.targets if t.inclusive}
        for key in sorted({t.key for t in self.targets}):
            calls, self_s, incl_s = self.stats[key]
            out[f"{key}_s"] = ((incl_s if key in inclusive else self_s) * per, "s")
            if key in COUNT_NAMES:
                out[COUNT_NAMES[key]] = (calls * per, "count")
        for layer in LAYERS:
            out[f"{layer}.s"] = (layer_self[layer] * per, "s")
            out[f"{layer}.calls"] = (layer_calls[layer] * per, "count")
        c = self.counters
        inserts = self.stats["spans.insert"][0]
        growth_calls = self.stats["algebras.growth"][0]
        out["spans.extended"] = (c["spans.extended"] * per, "count")
        out["spans.insert_useful_ratio"] = (_ratio(c["spans.extended"], inserts), "ratio")
        out["spans.max_coeff_bits"] = (c["spans.max_coeff_bits"], "bits")
        out["algebras.candidates"] = (c["algebras.candidates"] * per, "count")
        out["algebras.candidate_useful_ratio"] = (
            _ratio(c["algebras.new_representatives"], c["algebras.candidates"]), "ratio")
        out["algebras.distinct_filtrations"] = (c["algebras.distinct_filtrations"] * per, "count")
        out["algebras.filtration_reuse"] = (
            _ratio(growth_calls, c["algebras.distinct_filtrations"]), "ratio")
        out["fdalg.not_split"] = (c["fdalg.not_split"] * per, "count")
        hits, misses = c["cli.cache_hits"], c["cli.cache_misses"]
        out["cli.cache_hits"] = (hits * per, "count")
        out["cli.cache_misses"] = (misses * per, "count")
        out["cli.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        out["cli.replay_s"] = (c["cli.replay_s"] * per, "s")
        out["trace.hook_s"] = (self.hook_s * per, "s")
        return out


def resolve_original(target: Target):
    obj = resolve(target.module, target.qualname)
    return getattr(obj, MARK, obj)


def _entries(path: str) -> int:
    try:
        return len(os.listdir(path))
    except OSError:
        return 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
