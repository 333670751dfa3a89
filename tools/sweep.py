"""Parent-equality sweep of the ``gkgrowth`` command line.

Runs a fixed list of CLI invocations against the checkout this file sits
in.  Each invocation runs three times, in process: without a cache, as a
cache miss and as a cache hit.  For each invocation the sweep writes one
line, the SHA-256 of every run's exit code, stdout, stderr and ``--out``
bytes followed by the invocation's name, and it sorts the lines.  The
checkout's path and the scratch directory's path are replaced by fixed
placeholders, so the file depends only on what the program prints.

A second list, ``closure_cases()``, runs the characteristic closure in
process on seeded 2x2 and 3x3 presentations over QQ, QQ[x,y] and QQ(x):
``trace_algebra_generators`` at each word length from 1 to size^2, then
``module_finiteness_check``, with the default word caps and with caps
that fire.  Its cases write the central generators with their types and
the module report, or the exception type and message, hashed the same
way.  A third list, ``growth_cases()``, runs ``growth_sequence`` on seeded
2x2 and 3x3 presentations over the same three rings and writes the
dimensions, ``stabilized_at``, every level's representatives and, over QQ
and QQ[x,y], every level's snapshot rows, each value with its type.  A
fourth list, ``structure_cases()``, runs ``close_to_fdalg``,
``wedderburn_complement`` and ``decompose_element`` on seeded conjugates
of M_k and UT_k, diag(1..6), M_2 over the dual numbers, quaternion
algebras H(a,b), ut2-x over QQ(x) and seeded conjugates of three
algebras over QQ[x] whose spans close up, and writes the core's dimension and
structure constants, the ``WedderburnData`` coordinates and each
generator's parts, each value with its type, up to the exception that
stops it.  The in-process lists use only the package's public names, so
they run on older trees.  Each list's wall time goes to stderr, against
the sweep's 2-minute budget; stdout and ``--out`` hold the digest lines
only.

A refactor that keeps every output byte gives an empty diff::

    python tools/sweep.py --out before.txt     # in the parent's checkout
    python tools/sweep.py --out after.txt      # in the change's checkout
    diff before.txt after.txt

A deliberate output change names the cases it moves.  No hashes are
committed: the sweep compares two trees, so it cannot go stale.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("laurent-pair", "mat2", "scalar-x", "two-variables", "upper-triangular-x")
RUNS = ("uncached", "miss", "hit")


def _doc(name: str) -> str:
    return str(ROOT / "demos" / "presentations" / f"{name}.alg")


def cases() -> list:
    """(name, argv) of every invocation; ``{out}`` in argv names the ``--out`` file."""
    out = []

    def add(*argv):
        argv = list(argv)
        name = " ".join(Path(a).stem if a.endswith(".alg") else a for a in argv) or "(no arguments)"
        out.append((name, argv))

    for doc in DOCS:
        path = _doc(doc)
        for fmt in ("csv", "json"):
            add("growth", path, "--format", fmt)
            add("gkdim", path, "--format", fmt)
        add("growth", path, "--max-n", "0")
        add("growth", path, "--cap", "5")
        add("growth", path, "--out", "{out}")
        add("gkdim", path, "--max-n", "3")
        for window in ("1:4", "2:8", "0:12", "6:12", "12:12", "4:13", "5:2", "x"):
            add("gkdim", path, "--window", window)
        add("gkdim", path, "--max-n", "8", "--window", "4:8", "--format", "json")
        add("gkdim", path, "--max-n", "9", "--window", "1:9", "--out", "{out}")
        add("compare", path, _doc("two-variables"))
        add("compare", path, _doc("laurent-pair"), "--max-n", "6", "--window", "2:6")
        add("compare", path, path, "--max-n", "0")
        add("charclosure", path)
        add("charclosure", path, "--word-len", "1", "--max-n", "8")
        add("charclosure", path, "--format", "csv")
        add("cayley", path)
        add("cayley", path, "--max-n", "-1")
        add("pipeline", path, "--max-n", "8")
        add("pipeline", path, "--max-n", "8", "--window", "4:8", "--word-len", "2")
        add("pipeline", path, "--out", "{out}")
    for m in ("-1", "0", "1", "2", "3"):
        add("exbig", m)
    add("exbig", "3", "--max-n", "8", "--window", "4:8")
    add("exbig", "2", "--format", "csv")
    add("exbig", "2", "--word-len", "0")
    missing = str(ROOT / "demos" / "presentations" / "missing.alg")
    add("growth", missing)
    add("compare", _doc("mat2"), missing)
    add("growth", _doc("mat2"), "--cap", "-1")
    add("gkdim", _doc("mat2"), "--format", "xml")
    add("unknown-subcommand")
    add("--help")
    add("pipeline", "--help")
    add()
    return out


# Closure cases: (ring kind, matrix size, seed) of each seeded presentation.
CLOSURE_PRESENTATIONS = tuple(
    (kind, size, seed) for kind in ("qq", "qxy", "qx") for size in (2, 3) for seed in (0, 1)
)
# Word caps of the capped cases, for both calls.  Each presentation's last
# word length runs with every cap; the smaller caps fire.
CLOSURE_CAPS = (2, 8, 40, 400)


def closure_cases() -> list:
    """(name, spec) of every closure case; spec is (kind, size, seed, word length, cap)."""
    out = []
    for kind, size, seed in CLOSURE_PRESENTATIONS:
        last = size * size
        for word_length in range(1, last + 1):
            out.append((kind, size, seed, word_length, None))
        out.extend((kind, size, seed, last, cap) for cap in CLOSURE_CAPS)
    return [(f"closure {kind} {size}x{size} seed {seed} word-len {length}"
             + ("" if cap is None else f" cap {cap}"), (kind, size, seed, length, cap))
            for kind, size, seed, length, cap in out]


def _seeded_presentation(gk, kind: str, size: int, seed: int):
    """A seeded presentation with sparse entries, so that words repeat and vanish."""
    if kind == "qq":
        ring = gk.RationalField()
        pool = [gk.QQ(1), gk.QQ(-1), gk.QQ(2), gk.QQ(1, 2)]
    elif kind == "qxy":
        ring = gk.PolyRing(("x", "y"))
        x, y = ring.gens()
        pool = [ring.one, x, y, x * y, x - ring.one, y * y]
    else:
        ring = gk.RatFuncField("x")
        x, one = ring.gen(), ring.one
        pool = [one, x, one / x, x / (x + one)]
    rng = random.Random(1000 * size + seed)
    count = 3 if size == 2 else 2
    gens = [gk.Matrix(ring, [[rng.choice(pool) if rng.random() < 0.4 else ring.zero
                              for _ in range(size)] for _ in range(size)])
            for _ in range(count)]
    return gk.AlgebraPresentation(ring, size, gens, f"{kind}-{size}-{seed}")


def closure_text(spec: tuple) -> str:
    """One closure case's output: the central generators with their types and
    the module report, or the exception's type and message."""
    import gkgrowth as gk

    kind, size, seed, word_length, cap = spec
    pres = _seeded_presentation(gk, kind, size, seed)
    caps = {} if cap is None else {"word_cap": cap}
    try:
        closure = gk.trace_algebra_generators(pres, word_length, **caps)
        report = gk.module_finiteness_check(closure, length_cap=3, central_degree_cap=1, **caps)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    generators = [f"{type(c).__name__} {pres.ring.element_str(c)}"
                  for c in closure.central_generators]
    return "\n".join(generators + [repr(report)])


# Growth cases: (ring kind, matrix size, seed, max level) of each table.
GROWTH_CASES = tuple(
    (kind, size, seed, 8 if size == 2 else 6)
    for kind in ("qq", "qxy", "qx") for size in (2, 3) for seed in range(2, 6)
)


def growth_cases() -> list:
    """(name, spec) of every growth case; spec is (kind, size, seed, max level)."""
    return [(f"growth {kind} {size}x{size} seed {seed} max-n {max_level}",
             (kind, size, seed, max_level)) for kind, size, seed, max_level in GROWTH_CASES]


def _typed(gk, ring, value) -> str:
    """A ring element with its type, and a polynomial's coefficient types."""
    if isinstance(value, gk.RatFunc):
        polys = [value.num, value.den]
    elif isinstance(value, gk.Poly):
        polys = [value]
    else:
        return f"{type(value).__name__} {ring.element_str(value)}"
    types = sorted({type(c).__name__ for p in polys for _, c in p.items_unordered()})
    return f"{type(value).__name__} {ring.element_str(value)} {types}"


def growth_text(spec: tuple) -> str:
    """One growth case's output: the table's dimensions, ``stabilized_at``,
    each level's representatives and, over QQ and QQ[x,y], its snapshot
    rows, every value with its type; or the exception's type and message."""
    import gkgrowth as gk

    kind, size, seed, max_level = spec
    pres = _seeded_presentation(gk, kind, size, seed)
    try:
        table = gk.growth_sequence(pres, max_level)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    lines = [f"dims {[f'{type(d).__name__} {d}' for d in table.dims]}",
             f"stabilized_at {type(table.stabilized_at).__name__} {table.stabilized_at}"]
    for n, level in enumerate(table.levels):
        for r, rep in enumerate(level.representatives):
            cells = [_typed(gk, pres.ring, e) for row in rep.rows for e in row]
            lines.append(f"level {n} rep {r}: {cells}")
        if kind != "qx":
            for r, row in enumerate(level.snapshot.rows):
                terms = [f"{k} {type(c).__name__} {c}" for k, c in sorted(row.items())]
                lines.append(f"level {n} row {r}: {terms}")
    return "\n".join(lines)


# Structure cases: (kind, parameter, seed) of each presentation; the seed,
# when there is one, picks a change of basis and a generator order.
# Over QQ[x] the parameter names the generators (1-based E_ij); each entry
# is (size, generators), a generator the sum of x^d E_ij over its (i, j, d),
# 0-based.  Every power of x sits on a nilpotent part, so each span closes
# up: dimensions 3, 5 and 7.
X_STRUCTURES = {
    "E11,xE12": (2, ((0, 0, 0),), ((0, 1, 1),)),
    "E11,xE12,x2E23": (3, ((0, 0, 0),), ((0, 1, 1),), ((1, 2, 2),)),
    "E11+E33,x(E12+E34),xE23": (4, ((0, 0, 0), (2, 2, 0)), ((0, 1, 1), (2, 3, 1)),
                                ((1, 2, 1),)),
}
STRUCTURE_CASES = (
    tuple(("M", k, seed) for k in (2, 3, 4) for seed in range(3))
    + tuple(("UT", k, seed) for k in (2, 3, 4, 5) for seed in range(3))
    + (("diag", 6, 0), ("M2(dual)", 2, 0))
    + tuple(("H", ab, None) for ab in ((-2, 3), (2, 7), (-7, 2), (-1, -1)))
    + (("ut2-x", 2, None),)
    + tuple(("QQ[x]", gens, seed) for gens in X_STRUCTURES for seed in range(3))
)


def structure_cases() -> list:
    """(name, spec) of every structure case; spec is (kind, parameter, seed)."""
    out = []
    for kind, param, seed in STRUCTURE_CASES:
        if kind in ("M", "UT"):
            name = f"{kind}{param}"
        elif kind == "diag":
            name = f"diag(1..{param})"
        elif kind == "H":
            name = "H({},{})".format(*param)
        elif kind == "QQ[x]":
            name = f"QQ[x] <{param}>"
        else:
            name = kind
        out.append((f"structure {name}" + ("" if seed is None else f" seed {seed}"),
                    (kind, param, seed)))
    return out


def _conjugated(gk, ring, size: int, gens: list, seed: int) -> list:
    """``gens`` conjugated by a seeded product of integer transvections
    I + c*E_ij, in a seeded order."""
    rng = random.Random(seed)
    conj = inv = gk.Matrix.identity(ring, size)
    for _ in range(size + 1):
        i, j = rng.sample(range(size), 2)
        move = gk.Matrix.elementary(ring, size, i, j, rng.choice((-2, -1, 1, 2)))
        conj, inv = conj * move + conj, inv - move * inv
    gens = [conj * g * inv for g in gens]
    rng.shuffle(gens)
    return gens


def _structure_presentation(gk, kind: str, param, seed):
    if kind == "ut2-x":
        ring = gk.RatFuncField("x")
        gens = [gk.Matrix.diagonal(ring, [ring.gen(), ring.zero]),
                gk.Matrix.elementary(ring, 2, 0, 1)]
        return gk.AlgebraPresentation(ring, 2, gens, kind)
    if kind == "QQ[x]":
        ring = gk.PolyRing(("x",))
        size, *terms = X_STRUCTURES[param]
        x = ring.gen(0)
        gens = [sum((gk.Matrix.elementary(ring, size, i, j, x ** d) for i, j, d in gen),
                    gk.Matrix.zeros(ring, size, size)) for gen in terms]
        return gk.AlgebraPresentation(ring, size, _conjugated(gk, ring, size, gens, seed), kind)
    ring = gk.RationalField()
    if kind == "H":
        # The left regular representation of i and j on 1, i, j, ij.
        a, b = param
        gens = [gk.Matrix(ring, [[0, a, 0, 0], [1, 0, 0, 0], [0, 0, 0, a], [0, 0, 1, 0]]),
                gk.Matrix(ring, [[0, 0, b, 0], [0, 0, 0, -b], [1, 0, 0, 0], [0, -1, 0, 0]])]
        return gk.AlgebraPresentation(ring, 4, gens, f"H({a},{b})")
    E, k = gk.Matrix.elementary, param
    if kind == "M":
        gens = ([E(ring, k, i, i + 1) for i in range(k - 1)]
                + [E(ring, k, i + 1, i) for i in range(k - 1)])
    elif kind == "UT":
        gens = [E(ring, k, i, i) for i in range(k)] + [E(ring, k, i, i + 1) for i in range(k - 1)]
    elif kind == "diag":
        gens = [gk.Matrix.diagonal(ring, range(1, k + 1))]
    else:
        # M_k(QQ[eps]/eps^2) on QQ^k (x) QQ^2: E_ab (x) I_2 and I_k (x) eps.
        n = 2 * k
        gens = [E(ring, n, 2 * a, 2 * b) + E(ring, n, 2 * a + 1, 2 * b + 1)
                for a in range(k) for b in range(k)]
        gens.append(sum((E(ring, n, 2 * a, 2 * a + 1) for a in range(k)),
                        gk.Matrix.zeros(ring, n, n)))
    size = gens[0].nrows
    return gk.AlgebraPresentation(ring, size, _conjugated(gk, ring, size, gens, seed), kind)


def structure_text(spec: tuple) -> str:
    """One structure case's output: the core's dimension and structure
    constants, the ``WedderburnData`` coordinates and each generator's
    (complement, radical) parts, every value with its type, up to the
    exception's type and message if one is raised."""
    import gkgrowth as gk

    pres = _structure_presentation(gk, *spec)

    def typed(value) -> str:
        return f"{type(value).__name__} {value}"

    lines = []
    try:
        algebra = gk.close_to_fdalg(pres)
        lines.append(f"dim {typed(algebra.core.dim)}")
        for i, row in enumerate(algebra.core.table):
            lines += [f"table {i} {j}: {[(k, typed(c)) for k, c in pairs]}"
                      for j, pairs in enumerate(row)]
        data = gk.wedderburn_complement(algebra)
        lines.append(f"nilpotence_degree {typed(data.nilpotence_degree)}")
        for name in ("radical_coords", "complement_coords", "idempotent_coords"):
            lines += [f"{name} {r}: {list(map(typed, v))}"
                      for r, v in enumerate(getattr(data, name))]
        for b, units in enumerate(data.block_units_coords):
            lines += [f"block {b} unit {pos}: {list(map(typed, v))}"
                      for pos, v in sorted(units.items())]
        for g, gen in enumerate(pres.generators):
            parts = gk.decompose_element(algebra, data, gen)
            for part, mat in zip(("complement", "radical"), parts):
                cells = [_typed(gk, pres.ring, e) for row in mat.rows for e in row]
                lines.append(f"generator {g} {part}: {cells}")
    except Exception as exc:
        lines.append(f"raised {type(exc).__name__}: {exc}")
    return "\n".join(lines)


def run_case(main, argv: list, scratch: Path) -> list:
    """The three runs of one invocation: (exit code, stdout, stderr, --out text) each."""
    out_path = scratch / "out.txt"
    cache_dir = scratch / "cache"
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    runs = []
    for run in RUNS:
        extra = [] if run == "uncached" else ["--cache-dir", str(cache_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + extra)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a bug: record its type and message, not the traceback
                code = f"raised {type(exc).__name__}: {exc}"
        written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        if out_path.exists():
            out_path.unlink()
        texts = [stdout.getvalue(), stderr.getvalue(), written]
        runs.append((str(code), *[None if t is None else _placeholders(t, scratch) for t in texts]))
    return runs


def _placeholders(text: str, scratch: Path) -> str:
    return text.replace(str(scratch), "<scratch>").replace(str(ROOT), "<root>")


def digest(runs: list) -> str:
    h = hashlib.sha256()
    for run in runs:
        for field in run:
            data = b"\xff" if field is None else field.encode("utf-8")
            h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def _use_checkout():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def _text_sweep(selected: list, text) -> list:
    _use_checkout()
    return sorted(f"{digest([(text(spec),)])}  {name}" for name, spec in selected)


def closure_sweep(selected: list) -> list:
    """Sorted ``digest  name`` lines of the selected (name, spec) closure cases."""
    return _text_sweep(selected, closure_text)


def growth_sweep(selected: list) -> list:
    """Sorted ``digest  name`` lines of the selected (name, spec) growth cases."""
    return _text_sweep(selected, growth_text)


def structure_sweep(selected: list) -> list:
    """Sorted ``digest  name`` lines of the selected (name, spec) structure cases."""
    return _text_sweep(selected, structure_text)


def sweep(selected: list) -> list:
    """Sorted ``digest  name`` lines of the selected (name, argv) cases."""
    _use_checkout()
    from gkgrowth.cli import main

    lines = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse wraps usage to this width
        for name, argv in selected:
            with tempfile.TemporaryDirectory() as tmp:
                lines.append(f"{digest(run_case(main, argv, Path(tmp)))}  {name}")
    return sorted(lines)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the sorted digest lines here (default: stdout)")
    args = parser.parse_args()
    lines = []
    begin = time.perf_counter()
    for name, run, selected in (("cli", sweep, cases()),
                                ("closure", closure_sweep, closure_cases()),
                                ("growth", growth_sweep, growth_cases()),
                                ("structure", structure_sweep, structure_cases())):
        start = time.perf_counter()
        lines += run(selected)
        print(f"{name} list: {len(selected)} cases in {time.perf_counter() - start:.1f} s",
              file=sys.stderr)
    print(f"sweep: {time.perf_counter() - begin:.1f} s (budget 120 s)", file=sys.stderr)
    text = "\n".join(sorted(lines)) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
