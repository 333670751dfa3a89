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


CLOSURE_SUBSET = (
    "closure qq 2x2 seed 0 word-len 4",
    "closure qxy 2x2 seed 0 word-len 3",
    "closure qx 2x2 seed 0 word-len 1",
    "closure qxy 3x3 seed 0 word-len 9 cap 40",
)


def test_closure_cases_cover_every_ring_size_and_word_length():
    sweep = load_sweep()
    cases = sweep.closure_cases()
    names = [name for name, _ in cases]
    assert len(names) == len(set(names))
    assert set(CLOSURE_SUBSET) <= set(names)
    uncapped = {spec[:4] for _, spec in cases if spec[4] is None}
    for kind in ("qq", "qxy", "qx"):
        for size in (2, 3):
            lengths = {length for k, s, _, length in uncapped if (k, s) == (kind, size)}
            assert lengths == set(range(1, size * size + 1))


def test_a_closure_subset_sweeps_to_the_same_sorted_lines_twice(deadline):
    deadline(5)
    sweep = load_sweep()
    selected = [case for case in sweep.closure_cases() if case[0] in CLOSURE_SUBSET]
    lines = sweep.closure_sweep(selected)
    assert lines == sorted(lines) == sweep.closure_sweep(selected)
    assert sorted(line.split("  ", 1)[1] for line in lines) == sorted(CLOSURE_SUBSET)
    texts = {name: sweep.closure_text(spec) for name, spec in selected}
    assert texts["closure qxy 3x3 seed 0 word-len 9 cap 40"].startswith(
        "raised CapExceededError: "
    )
    report = texts["closure qxy 2x2 seed 0 word-len 3"].splitlines()
    assert report[-1].startswith("ModuleFinitenessReport(")
    assert report[0].startswith("Poly ")


GROWTH_SUBSET = (
    "growth qxy 2x2 seed 5 max-n 8",
    "growth qx 3x3 seed 5 max-n 6",
)


def test_growth_cases_cover_every_ring_and_size():
    sweep = load_sweep()
    cases = sweep.growth_cases()
    names = [name for name, _ in cases]
    assert len(names) == len(set(names))
    assert set(GROWTH_SUBSET) <= set(names)
    assert {spec[:2] for _, spec in cases} == {
        (kind, size) for kind in ("qq", "qxy", "qx") for size in (2, 3)
    }


def test_a_growth_subset_sweeps_to_the_same_sorted_lines_twice(deadline):
    deadline(5)
    sweep = load_sweep()
    selected = [case for case in sweep.growth_cases() if case[0] in GROWTH_SUBSET]
    lines = sweep.growth_sweep(selected)
    assert lines == sorted(lines) == sweep.growth_sweep(selected)
    assert sorted(line.split("  ", 1)[1] for line in lines) == sorted(GROWTH_SUBSET)
    texts = {name: sweep.growth_text(spec).splitlines() for name, spec in selected}
    polys = texts["growth qxy 2x2 seed 5 max-n 8"]
    assert polys[0].startswith("dims ['int 1', ")
    assert any(line.startswith("level 8 row ") for line in polys)
    ratfuncs = texts["growth qx 3x3 seed 5 max-n 6"]
    assert any(line.startswith("level 6 rep ") and "RatFunc " in line for line in ratfuncs)
    assert not any(" row " in line for line in ratfuncs)


STRUCTURE_SUBSET = (
    "structure M2(dual) seed 0",
    "structure H(-1,-1)",
    "structure QQ[x] <E11,xE12,x2E23> seed 1",
)


def test_structure_cases_cover_every_kind():
    sweep = load_sweep()
    cases = sweep.structure_cases()
    names = [name for name, _ in cases]
    assert len(names) == len(set(names))
    assert set(STRUCTURE_SUBSET) <= set(names)
    assert {spec[0] for _, spec in cases} == {"M", "UT", "diag", "M2(dual)", "H", "ut2-x",
                                              "QQ[x]"}


def test_a_structure_subset_sweeps_to_the_same_sorted_lines_twice(deadline):
    deadline(5)
    sweep = load_sweep()
    selected = [case for case in sweep.structure_cases() if case[0] in STRUCTURE_SUBSET]
    lines = sweep.structure_sweep(selected)
    assert lines == sorted(lines) == sweep.structure_sweep(selected)
    assert sorted(line.split("  ", 1)[1] for line in lines) == sorted(STRUCTURE_SUBSET)
    texts = {name: sweep.structure_text(spec).splitlines() for name, spec in selected}
    dual = texts["structure M2(dual) seed 0"]
    assert dual[0] == "dim int 8"
    assert "nilpotence_degree int 2" in dual
    assert dual[-1].startswith("generator 4 radical: ")
    # H(-1,-1) is a division algebra: its core is written, then the refusal.
    quaternions = texts["structure H(-1,-1)"]
    assert quaternions[0] == "dim int 4"
    assert quaternions[-1].startswith("raised NotSplitOverBaseError: ")
    # <E11, x E12, x^2 E23> over QQ[x] closes up to dim 5 with a radical of degree 3.
    polynomial = texts["structure QQ[x] <E11,xE12,x2E23> seed 1"]
    assert polynomial[0] == "dim int 5" and "nilpotence_degree int 3" in polynomial
    assert polynomial[-1].startswith("generator 2 radical: ")
