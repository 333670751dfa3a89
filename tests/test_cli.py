import argparse
import json
import re
from pathlib import Path

import pytest

from gkgrowth.cli import _add_common, main, parse_presentation_document
from gkgrowth.errors import InputError
from gkgrowth.poly import PolyRing, RatFuncField

DEMO_DOCS = sorted((Path(__file__).resolve().parents[1] / "demos" / "presentations").glob("*.alg"))

UT_X = """\
label: ut2-x
ring: ratfunc x
size: 2
generator:
x, 0
0, 0
generator:
0, 1
0, 0
"""

UT_X_PERMUTED = """\
# same algebra, generators listed the other way around
label: ut2-x
ring: ratfunc x
size: 2
generator:
0, 1
0, 0
generator:
x, 0
0, 0
"""

POLY_1VAR = """\
label: one-variable
ring: poly x
size: 1
generator:
x
"""

POLY_2VAR = """\
label: two-variables
ring: poly x1 x2
size: 1
generator:
x1
generator:
x2
"""

MAT2 = """\
label: mat2
ring: rationals
size: 2
generator:
1, 0
0, 0
generator:
0, 1
0, 0
generator:
0, 0
1, 0
generator:
0, 0
0, 1
"""

LAURENT = """\
label: laurent
ring: ratfunc x
size: 1
generator:
x
generator:
1/x
"""

X_LINE = """\
label: x-line
ring: ratfunc x
size: 1
generator:
x
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_document_parsing():
    doc = parse_presentation_document(UT_X)
    assert doc.label == "ut2-x"
    assert doc.size == 2
    pres = doc.presentation()
    assert len(pres.generators) == 2

    with pytest.raises(InputError):
        parse_presentation_document("size: 2\ngenerator:\n1, 0\n0, 1\n")
    with pytest.raises(InputError):
        parse_presentation_document("ring: rationals\nsize: 1\n")
    with pytest.raises(InputError):
        parse_presentation_document("ring: poly\nsize: 1\ngenerator:\n1\n")
    with pytest.raises(InputError):
        parse_presentation_document(
            "ring: rationals\nsize: 2\ngenerator:\n1, 0, 0\n0, 1, 0\n"
        )


def test_growth_csv(write, capsys):
    path = write("poly.alg", POLY_1VAR)
    code, out, _ = run_cli(capsys, "growth", path, "--max-n", "4")
    assert code == 0
    assert out == "n,dim\n0,1\n1,2\n2,3\n3,4\n4,5\n"


def test_growth_stabilizes(write, capsys):
    path = write("mat2.alg", MAT2)
    code, out, _ = run_cli(capsys, "growth", path, "--max-n", "3")
    assert code == 0
    assert out.splitlines()[-1] == "3,4"


def test_growth_json(write, capsys):
    path = write("mat2.alg", MAT2)
    code, out, _ = run_cli(capsys, "growth", path, "--max-n", "3", "--format", "json")
    record = json.loads(out)
    assert record["schema"] == "growth-table"
    assert record["dims"] == [1, 4, 4, 4]
    assert record["stabilized_at"] == 1


def test_growth_parse_error_exit_code(write, capsys):
    path = write("bad.alg", "label: bad\nring: poly x\nsize: 1\ngenerator:\nx^-1\n")
    code, out, err = run_cli(capsys, "growth", path)
    assert code == 2
    assert "negative exponent" in err


def test_growth_cap_exit_code(write, capsys):
    path = write("laurent.alg", LAURENT)
    code, _, err = run_cli(capsys, "growth", path, "--max-n", "12", "--cap", "5")
    assert code == 3
    assert "cap" in err


def test_gkdim(write, capsys):
    path = write("poly2.alg", POLY_2VAR)
    code, out, _ = run_cli(capsys, "gkdim", path)
    assert code == 0
    assert out.splitlines()[1].startswith("difference-degree,2,")


def test_gkdim_insufficient_data(write, capsys):
    path = write("poly2.alg", POLY_2VAR)
    code, _, err = run_cli(capsys, "gkdim", path, "--max-n", "3")
    assert code == 2
    assert "too short" in err or "window" in err


def test_compare_self(write, capsys):
    path = write("poly.alg", POLY_1VAR)
    code, out, _ = run_cli(capsys, "compare", path, path, "--window", "1:8", "--max-n", "8")
    record = json.loads(out)
    assert record["forward"]["k_min"] == 1
    assert record["backward"]["k_min"] == 1
    assert record["verdict"] == "equivalent-on-window"


def test_compare_laurent_constants(write, capsys):
    a = write("xline.alg", X_LINE)
    b = write("laurent.alg", LAURENT)
    code, out, _ = run_cli(capsys, "compare", a, b, "--window", "1:12")
    record = json.loads(out)
    assert record["forward"]["k_min"] == 1
    assert record["backward"]["k_min"] == 2


def test_compare_degree_mismatch_flagged(write, capsys):
    a = write("poly1.alg", POLY_1VAR)
    b = write("poly2.alg", POLY_2VAR)
    code, out, _ = run_cli(capsys, "compare", a, b)
    record = json.loads(out)
    assert record["verdict"].startswith("not-dominated-on-window:")
    assert "two-variables <= one-variable" in record["verdict"]


def test_compare_rejects_csv(write, capsys):
    a = write("poly1.alg", POLY_1VAR)
    code, _, err = run_cli(capsys, "compare", a, a, "--format", "csv")
    assert code == 2
    assert "--format json" in err


def test_cayley(write, capsys):
    path = write("mat2.alg", MAT2)
    code, out, _ = run_cli(capsys, "cayley", path)
    record = json.loads(out)
    assert code == 0
    assert record["verdict"] == "all checks Zero"
    assert all(r["result"] == "Zero" for r in record["results"])


def test_exbig(write, capsys):
    code, out, _ = run_cli(capsys, "exbig", "2")
    record = json.loads(out)
    gens = record["central_generators"]
    assert sorted(gens) == ["-x1 - x2", "x1*x2"]
    assert record["base"]["value"] == "1"
    assert record["closure"]["value"] == "2"


def test_charclosure(write, capsys):
    path = write("ut.alg", UT_X)
    code, out, _ = run_cli(capsys, "charclosure", path, "--word-len", "1", "--max-n", "10")
    record = json.loads(out)
    assert code == 0
    assert record["base"]["value"] == "1"
    assert record["closure"]["value"] == "1"
    assert record["module_finiteness"]["stabilized"] is True


def test_pipeline_report(write, capsys):
    path = write("ut.alg", UT_X)
    code, out, _ = run_cli(
        capsys, "pipeline", path, "--max-n", "10", "--window", "4:10"
    )
    record = json.loads(out)
    assert code == 0
    assert record["integer_verdict"] is True
    assert record["source_estimate"]["value"] == "1"
    assert record["witness"]["estimate"]["value"] == "1"
    for step in record["steps"]:
        assert step["forward"]["k_min"] is not None


def test_pipeline_not_split_exit_code(write, capsys):
    twisted = """\
label: twisted
ring: ratfunc x
size: 2
generator:
0, 1
0, x
"""
    path = write("twisted.alg", twisted)
    code, _, err = run_cli(capsys, "pipeline", path, "--max-n", "8", "--window", "4:8")
    assert code == 4
    assert "split" in err


def test_cache_round_trip(write, capsys, tmp_path):
    path = write("poly.alg", POLY_1VAR)
    cache = str(tmp_path / "cache")
    code, cold, _ = run_cli(capsys, "growth", path, "--cache-dir", cache)
    code, warm, _ = run_cli(capsys, "growth", path, "--cache-dir", cache)
    assert cold == warm
    entries = list((tmp_path / "cache").iterdir())
    assert len(entries) == 1


@pytest.mark.parametrize("name, bumped", [("__version__", "99.0.0"), ("CACHE_SCHEMA", 99)])
def test_cache_misses_after_a_version_or_schema_bump(write, capsys, tmp_path, monkeypatch,
                                                      name, bumped):
    import gkgrowth.cli as cli

    path = write("poly.alg", POLY_1VAR)
    cache = tmp_path / "cache"
    _, old, _ = run_cli(capsys, "growth", path, "--cache-dir", str(cache))
    monkeypatch.setattr(cli, name, bumped)
    code, new, _ = run_cli(capsys, "growth", path, "--cache-dir", str(cache))
    assert code == 0 and new == old
    assert len(list(cache.iterdir())) == 2


def test_an_interrupted_cache_write_leaves_no_entry(write, capsys, tmp_path, monkeypatch):
    import gkgrowth.cli as cli

    path = write("poly.alg", POLY_1VAR)
    cache = tmp_path / "cache"
    _, uncached, _ = run_cli(capsys, "growth", path)

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(cli.os, "replace", interrupted)
    with pytest.raises(OSError):
        main(["growth", path, "--cache-dir", str(cache)])
    assert list(cache.iterdir()) == []
    monkeypatch.undo()
    for _ in range(2):  # a miss, then a replay of the complete entry
        code, out, _ = run_cli(capsys, "growth", path, "--cache-dir", str(cache))
        assert code == 0 and out == uncached
    assert [p.suffix for p in cache.iterdir()] == [".out"]


def test_out_file(write, capsys, tmp_path):
    path = write("poly.alg", POLY_1VAR)
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "growth", path, "--max-n", "2", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text() == "n,dim\n0,1\n1,2\n2,3\n"


def test_byte_determinism_across_generator_order(write, capsys):
    outputs = []
    for path in (write("a.alg", UT_X), write("b.alg", UT_X_PERMUTED)):
        code, out, _ = run_cli(capsys, "growth", path)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_workers_flag_is_a_usage_error(write, capsys):
    path = write("a.alg", UT_X)
    with pytest.raises(SystemExit) as exc:
        main(["growth", path, "--workers", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --workers 2" in err


def test_readme_common_flags_are_the_registered_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Common flags:(.*?)\.\s", readme, re.S).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    _add_common(parser, 12)
    registered = {option for action in parser._actions for option in action.option_strings}
    assert set(re.findall(r"`(--[\w-]+)", listed)) == registered


@pytest.mark.parametrize("doc", DEMO_DOCS, ids=lambda path: path.stem)
def test_pipeline_exit_code_does_not_depend_on_the_seed(doc, capsys):
    ring = parse_presentation_document(doc.read_text(encoding="utf-8")).presentation().ring
    # A QQ(x) document takes about a second a run, so it is checked at the
    # first and the last seed only; the others at every seed 0-4.
    seeds = (0, 4) if isinstance(ring, RatFuncField) else range(5)
    codes = {run_cli(capsys, "pipeline", str(doc), "--max-n", "8", "--seed", str(seed))[0]
             for seed in seeds}
    # The pipeline refuses a polynomial ring (exit 2); every other document
    # reduces at --max-n 8.
    assert codes == {2 if isinstance(ring, PolyRing) else 0}
