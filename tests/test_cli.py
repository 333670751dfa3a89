import argparse
import json
import random
import re
import shutil
from pathlib import Path

import pytest

from gkgrowth.cli import _add_common, load_presentation, main, parse_presentation_document
from gkgrowth.errors import InputError
from gkgrowth.poly import PolyRing

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

LATE_RELATIONS = """\
label: late-relations
ring: poly x y
size: 1
generator:
y
generator:
x^2
generator:
x^3*y^3
"""

# diag(x, 0, 0), E01 and E12: 9,840 words of length at most 8, 25 distinct.
UT3_X = """\
label: ut3-x
ring: poly x
size: 3
generator:
x, 0, 0
0, 0, 0
0, 0, 0
generator:
0, 1, 0
0, 0, 0
0, 0, 0
generator:
0, 0, 0
0, 0, 1
0, 0, 0
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


def test_a_cap_of_0_is_exceeded_at_level_0(write, capsys):
    path = write("mat2.alg", MAT2)
    code, out, err = run_cli(capsys, "growth", path, "--cap", "0")
    assert (code, out) == (3, "")
    assert err == ("resource cap exceeded: basis size 1 exceeds cap 0 at level 0 "
                   "of 'mat2'\n")


def test_exbig_3_prints_its_pinned_bytes(capsys):
    # The default --max-n 10 reaches the closure levels past 8, where the
    # growth loop skips the most products.
    code, out, err = run_cli(capsys, "exbig", "3")
    assert (code, err) == (0, "")
    assert out.encode() == (Path(__file__).parent / "exbig3.out").read_bytes()


def test_gkdim(write, capsys):
    path = write("poly2.alg", POLY_2VAR)
    code, out, _ = run_cli(capsys, "gkdim", path)
    assert code == 0
    assert out.splitlines()[1].startswith("difference-degree,2,")


def test_gkdim_reports_an_undecided_tail_without_a_value(write, capsys):
    # The dims are C(n+3, 3) up to level 8, then quadratic; on 13 levels
    # no difference is constant on the tail.
    path = write("late.alg", LATE_RELATIONS)
    code, out, err = run_cli(capsys, "gkdim", path)
    assert (code, out, err) == (0, "method,value,window_lo,window_hi\nundecided,,6,12\n", "")
    code, out, err = run_cli(capsys, "gkdim", path, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": "gk-estimate", "label": "late-relations", "method": "undecided", "value": None,
        "window": [6, 12],
        "note": "no difference of order 0 to 6 is a positive constant on the last 6 levels",
    }
    assert '"value": null' in out


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


@pytest.mark.parametrize("argv", [
    ["compare", "{missing}", "{missing}"],
    ["charclosure", "{missing}"],
    ["cayley", "{missing}"],
    ["pipeline", "{missing}"],
    ["exbig", "3"],
    ["exbig", "0"],
], ids=lambda argv: "-".join(argv).replace("{missing}", "missing"))
def test_csv_on_a_report_is_refused_before_any_document_is_read(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.alg")
    argv = [missing if a == "{missing}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out) == (2, "")
    assert err == f"input error: '{argv[0]}' emits structured reports; use --format json\n"


def test_exbig_needs_a_positive_m(capsys):
    code, out, err = run_cli(capsys, "exbig", "0")
    assert (code, out, err) == (2, "", "input error: m must be a positive integer\n")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["growth", "{mat2}", "--max-n", "-1"], "--max-n must be at least 0, got -1",
                 id="growth-max-n-negative"),
    pytest.param(["compare", "{mat2}", "{mat2}", "--max-n", "0"],
                 "the default window 1:0 is empty; --max-n must be at least 1",
                 id="compare-max-n-0"),
    pytest.param(["charclosure", "{mat2}", "--word-len", "-2"],
                 "--word-len must be at least 1, got -2", id="charclosure-word-len-negative"),
    pytest.param(["growth", "{mat2}", "--cap", "-1"], "--cap must be at least 0, got -1",
                 id="growth-cap-negative"),
    pytest.param(["exbig", "2", "--word-len", "-1"], "--word-len must be at least 1, got -1",
                 id="exbig-word-len-negative"),
    pytest.param(["charclosure", "{mat2}", "--word-len", "0", "--max-n", "8"],
                 "--word-len must be at least 1, got 0", id="charclosure-word-len-0"),
    pytest.param(["exbig", "2", "--word-len", "0", "--max-n", "8"],
                 "--word-len must be at least 1, got 0", id="exbig-word-len-0"),
    # At --word-len 0 the pipeline used to harvest no central scalar at all.
    pytest.param(["pipeline", "{laurent}", "--word-len", "0", "--max-n", "8"],
                 "--word-len must be at least 1, got 0", id="pipeline-word-len-0"),
])
def test_an_out_of_range_flag_is_malformed_input(write, capsys, argv, message):
    paths = {"{mat2}": write("mat2.alg", MAT2), "{laurent}": write("laurent.alg", LAURENT)}
    code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


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


def test_charclosure_word_cap_counts_distinct_words(write, capsys):
    path = write("ut3.alg", UT3_X)
    code, out, err = run_cli(capsys, "charclosure", path)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["word_length"] == 9
    assert record["central_generators"] == ["-x"] + [f"-x^{k}" for k in range(2, 10)]
    assert record["module_finiteness"] == {
        "stabilized": True, "rank": 5,
        "note": "no new module generators at word length 3; central span truncated at degree 4",
    }


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


@pytest.mark.parametrize("module, line", [
    pytest.param("__init__.py", "__version__ = '99.0.0'", id="__version__-99.0.0"),
    pytest.param("cli.py", "CACHE_SCHEMA = 99", id="CACHE_SCHEMA-99"),
    pytest.param("spans.py", "", id="spans.py"),
])
def test_cache_misses_after_a_version_or_schema_bump(write, capsys, tmp_path, monkeypatch,
                                                      module, line):
    # A version bump is an edit to __init__.py, a change to the entry format
    # an edit to cli.py, and an edit to any other module counts the same:
    # each changes the source digest in the key.
    import gkgrowth.cli as cli

    path = write("poly.alg", POLY_1VAR)
    cache = tmp_path / "cache"
    _, old, _ = run_cli(capsys, "growth", path, "--cache-dir", str(cache))
    assert cli._source_digest() == cli._SOURCE_DIGEST
    real = Path.read_bytes

    def edited_source(source):
        data = real(source)
        return data + f"\n{line}\n".encode() if source.name == module else data

    monkeypatch.setattr(Path, "read_bytes", edited_source)
    edited = cli._source_digest()
    assert edited != cli._SOURCE_DIGEST
    monkeypatch.setattr(cli, "_SOURCE_DIGEST", edited)
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


@pytest.mark.parametrize("command", ["growth", "pipeline"])
def test_seed_flag_is_a_usage_error(write, capsys, command):
    path = write("a.alg", UT_X)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--seed", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --seed 3" in err


def test_readme_common_flags_are_the_registered_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Common flags:(.*?)\.\s", readme, re.S).group(1)
    parser = argparse.ArgumentParser(add_help=False)
    _add_common(parser, 12)
    registered = {option for action in parser._actions for option in action.option_strings}
    assert set(re.findall(r"`(--[\w-]+)", listed)) == registered


@pytest.mark.parametrize("doc", DEMO_DOCS, ids=lambda path: path.stem)
def test_pipeline_exit_code_for_each_demo(doc, capsys):
    ring = parse_presentation_document(doc.read_text(encoding="utf-8")).presentation().ring
    code, _out, _err = run_cli(capsys, "pipeline", str(doc), "--max-n", "8")
    # The pipeline refuses a polynomial ring (exit 2); every other document
    # reduces at --max-n 8.
    assert code == (2 if isinstance(ring, PolyRing) else 0)


NOT_UTF8 = b"label: a\nring: rationals\nsize: 1\ngenerator:\n\xff\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "{bad}"],
        ["gkdim", "{bad}"],
        ["charclosure", "{bad}"],
        ["cayley", "{bad}"],
        ["pipeline", "{bad}"],
        ["compare", "{bad}", "{good}"],
        ["compare", "{good}", "{bad}"],
    ],
    ids=lambda argv: "-".join(a.strip("{}") for a in argv),
)
def test_a_document_that_is_not_utf8_is_malformed_input(write, capsys, tmp_path, argv):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(NOT_UTF8)
    paths = {"{bad}": str(bad), "{good}": write("good.alg", POLY_1VAR)}
    cache = tmp_path / "cache"
    code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv], "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert err == f"input error: {bad} is not UTF-8 text: invalid start byte at byte 44\n"
    assert list(cache.iterdir()) == []
    with pytest.raises(InputError, match="not UTF-8 text"):
        load_presentation(str(bad))


def test_the_cache_entry_holds_the_output_of_the_bytes_hashed(write, capsys, tmp_path,
                                                              monkeypatch):
    import gkgrowth.cli as cli

    _, want, _ = run_cli(capsys, "growth", write("a.alg", POLY_1VAR), "--max-n", "3")
    _, edited, _ = run_cli(capsys, "growth", write("b.alg", POLY_2VAR), "--max-n", "3")
    assert want != edited
    path = write("doc.alg", POLY_1VAR)
    read = cli._read_payload

    def read_then_edit(name):
        payload = read(name)
        Path(name).write_text(POLY_2VAR, encoding="utf-8")  # edited after it was hashed
        return payload

    monkeypatch.setattr(cli, "_read_payload", read_then_edit)
    cache = tmp_path / "cache"
    code, out, _ = run_cli(capsys, "growth", path, "--max-n", "3", "--cache-dir", str(cache))
    assert code == 0 and out == want
    [entry] = cache.iterdir()
    assert entry.read_text(encoding="utf-8") == want


def parser_reuse_sequence(state: Path) -> list:
    """Seeded shuffled calls: reports on every demo, caching, --out, --window, usage errors."""
    rng = random.Random(20)
    docs = [str(doc) for doc in DEMO_DOCS]
    mat2 = next(doc for doc in docs if doc.endswith("mat2.alg"))
    calls = [[sub, doc] for doc in docs for sub in ("growth", "gkdim", "cayley")]
    calls += [["compare", a, b] for a, b in zip(docs, docs[1:] + docs[:1])]
    calls += [["exbig", "2"], ["pipeline", mat2]]
    sequence = []
    for index, argv in enumerate(calls):
        argv = argv + ["--max-n", "8"]
        if rng.random() < 0.3:
            argv += ["--window", "4:8"]
        if rng.random() < 0.3:
            argv += ["--out", str(state / f"out-{index}")]
        if rng.random() < 0.5:
            argv += ["--cache-dir", str(state / "cache")]
            sequence.append(argv)  # and once more, as a replay
        sequence.append(argv)
    sequence += [
        ["growth", mat2, "--seed", "3"],
        ["pipeline", mat2, "--seed", "3"],
        ["gkdim", str(state / "missing.alg")],
        ["compare", mat2, str(state / "missing.alg")],
        ["exbig", "0"],
        ["exbig", "0", "--format", "csv"],
    ]
    sequence += [[sub, str(state / "missing.alg"), "--format", "csv"]
                 for sub in ("charclosure", "cayley", "pipeline")]
    sequence.append(["compare", str(state / "missing.alg"), mat2, "--format", "csv"])
    rng.shuffle(sequence)
    return sequence


def test_reusing_the_parser_leaks_no_state(capsys, tmp_path, monkeypatch):
    import gkgrowth.cli as cli

    builds = []
    build = cli.build_parser

    def counted_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    state = tmp_path / "state"
    sequence = parser_reuse_sequence(state)

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = out_file.read_bytes() if out_file is not None else None
        return code, captured.out, captured.err, written

    def run_sequence(fresh_parser_per_call: bool) -> list:
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir()
        results = []
        cli._parser.cache_clear()
        for argv in sequence:
            if fresh_parser_per_call:
                cli._parser.cache_clear()
            results.append(call(argv))
        return results

    fresh = run_sequence(fresh_parser_per_call=True)
    assert len(builds) == len(sequence)
    builds.clear()
    shared = run_sequence(fresh_parser_per_call=False)
    assert len(builds) == 1
    for argv, want, got in zip(sequence, fresh, shared):
        assert got == want, argv
    assert {code for code, *_ in shared} == {0, 2}
