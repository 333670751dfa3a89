import functools
import itertools
import operator
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth import charpoly
from gkgrowth._ratio import QQ
from gkgrowth.algebras import AlgebraPresentation, growth_sequence
from gkgrowth.cli import load_presentation
from gkgrowth import closure as closure_module
from gkgrowth.closure import (
    DEFAULT_WORD_CAP,
    build_diagonal_embedding_example,
    elementary_symmetric,
    generator_words,
    module_finiteness_check,
    trace_algebra_generators,
)
from gkgrowth.errors import CapExceededError
from gkgrowth.growth import gk_estimate
from gkgrowth.matrices import Matrix
from gkgrowth.parse import parse_poly_expr
from gkgrowth.poly import PolyRing, RatFuncField, RationalField
from gkgrowth.spans import DEPENDENT, EchelonBasis, cleared_vecs, poly_to_vec, word_coordinates

Q = RationalField()
RX = PolyRing(("x",))
FX = RatFuncField("x")
DOCS = Path(__file__).resolve().parents[1] / "demos" / "presentations"


def span_of(values):
    basis = EchelonBasis()
    for v in values:
        basis.insert(poly_to_vec(v))
    return basis


def test_trace_generators_diagonal_m2():
    pres, _ = build_diagonal_embedding_example(2)
    closure = trace_algebra_generators(pres, 1)
    ring = pres.ring
    expected = [elementary_symmetric(ring, 1), elementary_symmetric(ring, 2)]
    got = span_of(closure.central_generators)
    want = span_of(expected)
    assert all(got.contains(poly_to_vec(v)) for v in expected)
    assert all(want.contains(poly_to_vec(v)) for v in closure.central_generators)
    assert len(closure.central_generators) == 2


def test_trace_generators_rational_entries_are_trivial():
    gens = [Matrix(Q, [[1, 0], [0, 2]]), Matrix.elementary(Q, 2, 0, 1)]
    closure = trace_algebra_generators(AlgebraPresentation(Q, 2, gens, "q"), 2)
    assert closure.central_generators == ()
    assert closure.closure.generators == closure.base.generators


def test_trace_generators_single_matrix():
    mat = Matrix(RX, [[RX.gen(0), RX.one], [RX.zero, RX.gen(0) ** 2]])
    closure = trace_algebra_generators(AlgebraPresentation(RX, 2, [mat], "tri"), 1)
    got = span_of(closure.central_generators)
    for text in ("x + x^2", "x^3"):
        assert got.contains(poly_to_vec(parse_poly_expr(text, RX)))
    assert len(closure.central_generators) == 2


def test_closure_presentation_adjoins_scalar_matrices():
    pres, _ = build_diagonal_embedding_example(2)
    closure = trace_algebra_generators(pres, 1)
    assert len(closure.closure.generators) == 3
    adjoined = closure.closure.generators[1]
    assert adjoined.entry(0, 0) == adjoined.entry(1, 1)
    assert not adjoined.entry(0, 1)


def _diag_x_with_matrix_units():
    """<diag(x, 0), E12, E21> over QQ[x]: its words repeat often."""
    gens = [Matrix.diagonal(RX, [RX.gen(0), RX.zero]),
            Matrix.elementary(RX, 2, 0, 1), Matrix.elementary(RX, 2, 1, 0)]
    return AlgebraPresentation(RX, 2, gens, "diag-x-units")


@pytest.mark.parametrize("word_length, distinct_words", [(4, 17), (6, 25)])
def test_trace_harvest_computes_one_char_poly_per_distinct_word(
    monkeypatch, word_length, distinct_words
):
    pres = _diag_x_with_matrix_units()
    # Oracle: the coefficients of every word's char poly, duplicates included.
    harvest = []
    for words in length_lex_words(pres.generators, word_length, word_cap=10_000):
        for word in words:
            for c in charpoly.char_poly(word).coeffs[:-1]:
                if c and not c.is_constant and c not in harvest:
                    harvest.append(c)
    calls = []
    real_char_poly = charpoly.char_poly
    monkeypatch.setattr(charpoly, "char_poly", lambda m: calls.append(m) or real_char_poly(m))
    words = itertools.chain.from_iterable(generator_words(pres.generators, word_length))
    assert charpoly.nonconstant_coefficients(words) == harvest
    assert len(calls) == len(set(calls)) == distinct_words
    calls.clear()
    closure = trace_algebra_generators(pres, word_length)
    assert len(calls) == distinct_words
    assert span_of(closure.central_generators).dimension == span_of(harvest).dimension


def length_lex_words(generators, max_length, word_cap=DEFAULT_WORD_CAP):
    """Reference walk: every product of 1..max_length generators, duplicates
    included, one list per length in length-lex order, with a cap on the
    count of all words.  The closure walked this way before it formed each
    distinct product once; ``generator_words`` must keep its first-meeting
    order."""
    words, total = list(generators), 0
    for length in range(1, max_length + 1):
        if length > 1:
            words = [w * g for w in words for g in generators]
        total += len(words)
        if total > word_cap:
            raise CapExceededError(f"generator word count exceeds cap {word_cap} at length {length}")
        yield words


# Distinct products of at most 1, 2, ..., 8 generators of _diag_x_with_matrix_units().
DIAG_X_UNITS_DISTINCT = (3, 9, 13, 17, 21, 25, 29, 33)


def test_diag_x_units_distinct_counts():
    pres = _diag_x_with_matrix_units()
    seen, counts = set(), []
    for words in length_lex_words(pres.generators, 8, word_cap=10_000):
        seen.update(words)
        counts.append(len(seen))
    assert tuple(counts) == DIAG_X_UNITS_DISTINCT
    walk = generator_words(pres.generators, 8)
    assert tuple(itertools.accumulate(len(words) for words in walk)) == DIAG_X_UNITS_DISTINCT


def test_trace_word_cap_counts_distinct_words():
    # 3 + 9 + ... + 3^8 = 9,840 words, of which 33 are distinct.
    pres = _diag_x_with_matrix_units()
    assert trace_algebra_generators(pres, 8, word_cap=100) == trace_algebra_generators(pres, 8)


def _first_length_past(cap):
    return next(n for n, count in enumerate(DIAG_X_UNITS_DISTINCT, 1) if count > cap)


@pytest.mark.parametrize("cap", [0, 2, 3, 8, 9, 20, 32])
def test_trace_word_cap_fires_at_the_first_length_past_it(cap):
    pattern = f"^generator word count exceeds cap {cap} at length {_first_length_past(cap)}$"
    with pytest.raises(CapExceededError, match=pattern):
        trace_algebra_generators(_diag_x_with_matrix_units(), 8, word_cap=cap)


def _module_check_to_length_8(**caps):
    # One central generator, -x, and degree cap 1: x^3 E11 is never in the
    # span, so the check walks all 8 lengths.
    closure = trace_algebra_generators(_diag_x_with_matrix_units(), 1)
    return module_finiteness_check(closure, length_cap=8, central_degree_cap=1, **caps)


def test_module_word_cap_counts_distinct_words():
    report = _module_check_to_length_8()
    assert (report.stabilized, report.word_length_reached) == (False, 8)
    assert _module_check_to_length_8(word_cap=100) == report


@pytest.mark.parametrize("cap", [0, 2, 3, 8, 9, 20, 32])
def test_module_word_cap_fires_at_the_first_length_past_it(cap):
    pattern = f"^generator word count exceeds cap {cap} at length {_first_length_past(cap)}$"
    with pytest.raises(CapExceededError, match=pattern):
        _module_check_to_length_8(word_cap=cap)


def test_module_finiteness_diagonal_examples():
    for m, expected_rank_bound in ((1, 1), (2, 2)):
        pres, _ = build_diagonal_embedding_example(m)
        closure = trace_algebra_generators(pres, 1)
        report = module_finiteness_check(closure)
        assert report.stabilized
        assert report.rank is not None and report.rank <= expected_rank_bound
        assert str(report.central_degree_cap) in report.note


def test_module_finiteness_finite_dimensional():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    closure = trace_algebra_generators(AlgebraPresentation(Q, 2, gens, "mat2"), 1)
    report = module_finiteness_check(closure)
    assert report.stabilized
    assert report.rank <= 4


def test_diagonal_embedding_growth():
    for m in (1, 2, 3):
        pres, _ = build_diagonal_embedding_example(m)
        closure = trace_algebra_generators(pres, 1)
        base_estimate = gk_estimate(growth_sequence(pres, 10))
        closure_estimate = gk_estimate(growth_sequence(closure.closure, 10))
        assert base_estimate.method == "difference-degree"
        assert base_estimate.value == QQ(1)
        assert closure_estimate.method == "difference-degree"
        assert closure_estimate.value == QQ(m)


def test_embedding_map():
    pres, embedding = build_diagonal_embedding_example(3)
    r = parse_poly_expr("x^2 - 2", RX)
    mat = embedding.embed(r)
    ring = pres.ring
    for i in range(3):
        expected = ring.gen(i) ** 2 - ring.constant(2)
        assert mat.entry(i, i) == expected
    assert pres.generators[0] == embedding.embed(parse_poly_expr("x", RX))


def test_elementary_symmetric_values():
    ring = PolyRing(("x1", "x2", "x3"))
    assert elementary_symmetric(ring, 0) == ring.one
    assert elementary_symmetric(ring, 1) == parse_poly_expr("x1 + x2 + x3", ring)
    assert elementary_symmetric(ring, 3) == parse_poly_expr("x1*x2*x3", ring)
    with pytest.raises(ValueError):
        elementary_symmetric(ring, 4)


def test_word_length_validation():
    pres, _ = build_diagonal_embedding_example(1)
    with pytest.raises(ValueError):
        trace_algebra_generators(pres, 0)


# (source, trace word length, central degree cap) -> (number of central
# generators, stabilized, rank, stabilized_at_length, word_length_reached),
# recorded from the implementation that kept a separate QQ(x) span.
PINNED_MODULE_REPORTS = {
    ("laurent-pair.alg", 1, 2): (2, True, 1, 1, 1),
    ("laurent-pair.alg", 1, 4): (2, True, 1, 1, 1),
    ("laurent-pair.alg", 2, 2): (4, True, 1, 1, 1),
    ("laurent-pair.alg", 2, 4): (4, True, 1, 1, 1),
    ("laurent-pair.alg", 4, 2): (8, True, 1, 1, 1),
    ("laurent-pair.alg", 4, 4): (8, True, 1, 1, 1),
    ("mat2.alg", 1, 2): (0, True, 4, 2, 2),
    ("mat2.alg", 1, 4): (0, True, 4, 2, 2),
    ("mat2.alg", 2, 2): (0, True, 4, 2, 2),
    ("mat2.alg", 2, 4): (0, True, 4, 2, 2),
    ("mat2.alg", 4, 2): (0, True, 4, 2, 2),
    ("mat2.alg", 4, 4): (0, True, 4, 2, 2),
    ("scalar-x.alg", 1, 2): (2, True, 2, 2, 2),
    ("scalar-x.alg", 1, 4): (2, True, 2, 2, 2),
    ("scalar-x.alg", 2, 2): (3, True, 2, 2, 2),
    ("scalar-x.alg", 2, 4): (3, True, 2, 2, 2),
    ("scalar-x.alg", 4, 2): (6, True, 2, 2, 2),
    ("scalar-x.alg", 4, 4): (6, True, 2, 2, 2),
    ("two-variables.alg", 1, 2): (2, True, 1, 1, 1),
    ("two-variables.alg", 1, 4): (2, True, 1, 1, 1),
    ("two-variables.alg", 2, 2): (5, True, 1, 1, 1),
    ("two-variables.alg", 2, 4): (5, True, 1, 1, 1),
    ("two-variables.alg", 4, 2): (14, True, 1, 1, 1),
    ("two-variables.alg", 4, 4): (14, True, 1, 1, 1),
    ("upper-triangular-x.alg", 1, 2): (1, True, 3, 2, 2),
    ("upper-triangular-x.alg", 1, 4): (1, True, 3, 2, 2),
    ("upper-triangular-x.alg", 2, 2): (2, True, 3, 2, 2),
    ("upper-triangular-x.alg", 2, 4): (2, True, 3, 2, 2),
    ("upper-triangular-x.alg", 4, 2): (4, True, 3, 2, 2),
    ("upper-triangular-x.alg", 4, 4): (4, True, 3, 2, 2),
    ("exbig 1", 1, 4): (1, True, 1, 1, 1),
    ("exbig 2", 1, 4): (2, True, 2, 2, 2),
    ("exbig 3", 1, 4): (3, True, 3, 3, 3),
}


def _pinned_source(name):
    if name.startswith("exbig "):
        return build_diagonal_embedding_example(int(name.split()[1]))[0]
    return load_presentation(str(DOCS / name))


def test_module_finiteness_reports_are_pinned():
    sources = {}
    for (name, word_length, degree_cap), want in PINNED_MODULE_REPORTS.items():
        if name not in sources:
            sources[name] = _pinned_source(name)
        closure = trace_algebra_generators(sources[name], word_length)
        report = module_finiteness_check(closure, central_degree_cap=degree_cap)
        got = (len(closure.central_generators), report.stabilized, report.rank,
               report.stabilized_at_length, report.word_length_reached)
        assert got == want, (name, word_length, degree_cap)
        assert report.central_degree_cap == degree_cap
        assert f"at word length {report.word_length_reached}" in report.note


SMALL_POLYS = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(
    lambda cs: sum((RX.gen(0) ** k * c for k, c in enumerate(cs)), RX.zero)
)


@st.composite
def univariate_presentations(draw):
    count = draw(st.integers(1, 2))
    gens = [Matrix(RX, [[draw(SMALL_POLYS) for _ in range(2)] for _ in range(2)])
            for _ in range(count)]
    return AlgebraPresentation(RX, 2, gens, "uni")


def _moebius(p):
    """p(1/(x + 1)) in QQ(x).  x -> 1/(x + 1) is a field automorphism of
    QQ(x), so it keeps every QQ-linear relation, while the denominators of
    the images grow with the degree: a word's clearing changes with its
    length."""
    t = FX.one / (FX.gen() + FX.one)
    return sum((t ** mono[0] * c for mono, c in p.items_unordered()), FX.zero)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(univariate_presentations(), st.integers(1, 2))
def test_polynomial_and_rational_function_closures_agree(pres, word_length):
    coerced = AlgebraPresentation(
        FX, 2, [Matrix(FX, g.rows) for g in pres.generators], pres.label
    )
    moved = AlgebraPresentation(
        FX, 2, [Matrix(FX, [[_moebius(e) for e in row] for row in g.rows])
                for g in pres.generators], pres.label
    )
    poly_closure = trace_algebra_generators(pres, word_length)
    ratfunc_closure = trace_algebra_generators(coerced, word_length)
    moved_closure = trace_algebra_generators(moved, word_length)
    assert [FX.coerce(c) for c in poly_closure.central_generators] == list(
        ratfunc_closure.central_generators
    )
    assert [_moebius(c) for c in poly_closure.central_generators] == list(
        moved_closure.central_generators
    )
    for degree_cap in (1, 2):
        want = module_finiteness_check(
            poly_closure, length_cap=3, central_degree_cap=degree_cap
        )
        for closure in (ratfunc_closure, moved_closure):
            assert module_finiteness_check(
                closure, length_cap=3, central_degree_cap=degree_cap
            ) == want


SMALL_QQ = st.sampled_from([QQ(0), QQ(0), QQ(1), QQ(-1), QQ(2), QQ(1, 2)])
RXY = PolyRing(("x", "y"))
SMALL_XY_POLYS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2)), max_size=2
).map(lambda terms: sum((RXY.gen(0) ** a * RXY.gen(1) ** b * c for a, b, c in terms), RXY.zero))


@st.composite
def small_presentations(draw):
    """2x2 presentations over QQ, QQ[x,y] or QQ(x); the QQ(x) ones are
    QQ[x] entries, as they are or moved by ``_moebius``."""
    kind = draw(st.sampled_from(["qq", "qxy", "qx", "moebius"]))
    ring, entries = {
        "qq": (Q, SMALL_QQ),
        "qxy": (RXY, SMALL_XY_POLYS),
        "qx": (FX, SMALL_POLYS.map(FX.coerce)),
        "moebius": (FX, SMALL_POLYS.map(_moebius)),
    }[kind]
    gens = [Matrix(ring, [[draw(entries) for _ in range(2)] for _ in range(2)])
            for _ in range(draw(st.integers(1, 3)))]
    return AlgebraPresentation(ring, 2, gens, kind)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_presentations(), st.integers(1, 4))
def test_distinct_word_walk_agrees_with_the_length_lex_walk(pres, word_length):
    gens = pres.generators
    walk = list(generator_words(gens, word_length))
    reference = list(length_lex_words(gens, word_length))
    yielded = list(itertools.chain.from_iterable(walk))
    assert len(yielded) == len(set(yielded))  # no product twice
    # Every product of at most word_length generators, in first-meeting order.
    assert yielded == list(dict.fromkeys(itertools.chain.from_iterable(reference)))
    assert all(set(words) <= set(products) for words, products in zip(walk, reference))
    with pytest.raises(CapExceededError):
        list(generator_words(gens, word_length, word_cap=len(yielded) - 1))

    closure = trace_algebra_generators(pres, word_length)
    report = module_finiteness_check(closure, length_cap=3, central_degree_cap=1)
    with mock.patch.object(closure_module, "generator_words", length_lex_words):
        old_closure = trace_algebra_generators(pres, word_length)
        old_report = module_finiteness_check(old_closure, length_cap=3, central_degree_cap=1)
    assert closure.central_generators == old_closure.central_generators
    assert [type(c) for c in closure.central_generators] == [
        type(c) for c in old_closure.central_generators
    ]
    assert report == old_report


def whole_family_module_check(closure, length_cap, central_degree_cap, word_cap=DEFAULT_WORD_CAP):
    """Reference: the module check with whole-family clearing.  At each
    length one ``cleared_vecs`` call coordinatizes the span so far and every
    nonzero word's central multiples, and a fresh basis takes the span; then
    each word, in ``Matrix.sort_key`` order, adds its multiples when it is
    outside the span.  Returns the report's (stabilized, rank,
    stabilized_at_length, word_length_reached)."""
    pres = closure.base
    ident = Matrix.identity(pres.ring, pres.size)
    central = [pres.ring.one] + [
        functools.reduce(operator.mul, combo)
        for degree in range(1, central_degree_cap + 1)
        for combo in itertools.combinations_with_replacement(closure.central_generators, degree)
    ]
    scaled = [ident.scale(c) for c in central]
    basis = EchelonBasis()
    reps = [c for c, vec in zip(central, cleared_vecs(scaled)) if basis.insert(vec) != DEPENDENT]
    span_mats, rank = [ident.scale(c) for c in reps], 1
    for length, words in enumerate(generator_words(pres.generators, length_cap, word_cap), 1):
        family = span_mats + [w.scale(c) for w in sorted(
            (w for w in words if not w.is_zero), key=Matrix.sort_key) for c in reps]
        vecs, known, new = cleared_vecs(family), len(span_mats), 0
        span = EchelonBasis()
        for vec in vecs[:known]:
            span.insert(vec)
        for start in range(known, len(family), len(reps)):
            if span.contains(vecs[start]):
                continue
            new += 1
            for index in range(start, start + len(reps)):
                if span.insert(vecs[index]) != DEPENDENT:
                    span_mats.append(family[index])
        if new == 0:
            return (True, rank, length, length)
        rank += new
    return (False, None, None, length_cap)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_presentations(), st.integers(1, 4), st.integers(1, 2),
       st.sampled_from([None, 2, 5, 12]))
def test_module_check_agrees_with_whole_family_clearing(pres, length_cap, degree_cap, word_cap):
    closure = trace_algebra_generators(pres, 1)
    caps = {} if word_cap is None else {"word_cap": word_cap}
    try:
        report = module_finiteness_check(
            closure, length_cap=length_cap, central_degree_cap=degree_cap, **caps)
        got = (report.stabilized, report.rank, report.stabilized_at_length,
               report.word_length_reached)
    except CapExceededError as exc:
        got = str(exc)
    try:
        want = whole_family_module_check(closure, length_cap, degree_cap, **caps)
    except CapExceededError as exc:
        want = str(exc)
    assert got == want


def test_ratfunc_word_coordinates_clear_only_the_words_they_were_built_for():
    x = FX.gen()
    gen = Matrix(FX, [[FX.one / x, FX.one], [FX.zero, x]])
    scalar = FX.one / (x + FX.one)
    coords = word_coordinates([gen], 2, [FX.one, scalar])
    assert coords((gen * gen).scale(scalar))  # x^2 (x + 1) clears every entry
    with pytest.raises(ValueError):
        coords(gen * gen * gen)
    with pytest.raises(ValueError):
        coords(gen.scale(scalar * scalar))
