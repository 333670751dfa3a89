from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth._ratio import QQ
from gkgrowth.algebras import AlgebraPresentation, growth_sequence
from gkgrowth.errors import InsufficientDataError
from gkgrowth.growth import (
    difference_degree,
    dominance_check,
    equivalence_check,
    gk_estimate,
    verify_bimodule_certificate,
    verify_central_multiplier_certificate,
    verify_finite_commuting_adjoin_certificate,
    verify_nilpotent_adjoin_certificate,
)
from gkgrowth.matrices import Matrix
from gkgrowth.poly import PolyRing, RatFuncField, RationalField

Q = RationalField()
RX = PolyRing(("x",))
F = RatFuncField("x")


def poly_pres(nvars, label=None):
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(nvars)))
    return AlgebraPresentation(
        ring, 1, [Matrix(ring, [[g]]) for g in ring.gens()], label or f"poly{nvars}"
    )


def ratfunc_poly_pres(label="x-algebra"):
    return AlgebraPresentation(F, 1, [Matrix(F, [[F.gen()]])], label)


def laurent_pres(label="laurent"):
    return ratfunc_poly_pres(label).adjoin([Matrix(F, [[F.one / F.gen()]])], label)


def late_relations_pres():
    """<y, x^2, x^3 y^3> in QQ[x, y]: dims C(n+3, 3) up to level 8, then quadratic,
    so the difference test on 13 levels finds no constant difference."""
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    return AlgebraPresentation(
        ring, 1, [Matrix(ring, [[g]]) for g in (y, x * x, x ** 3 * y ** 3)], "late-relations"
    )


def test_difference_degree_examples():
    assert difference_degree([1, 2, 3, 4, 5, 6, 7, 8, 9], 3) == (1, 1)
    assert difference_degree([1, 3, 6, 10, 15, 21, 28, 36, 45], 3) == (2, 1)
    assert difference_degree([1, 4, 4, 4, 4, 4, 4, 4, 4], 3) == (0, 4)
    with pytest.raises(InsufficientDataError):
        difference_degree([1, 2, 3, 4], 3)
    with pytest.raises(ValueError):
        difference_degree([1] * 20, 2)


def test_difference_degree_not_polynomial():
    dims = [2 ** n for n in range(12)]
    assert difference_degree(dims, 3) is None


def test_gk_estimate_polynomial_rings():
    for k in (1, 2, 3, 4):
        table = growth_sequence(poly_pres(k), 12)
        estimate = gk_estimate(table)
        assert estimate.method == "difference-degree"
        assert estimate.value == QQ(k)


def test_gk_estimate_finite_dimensional():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    table = growth_sequence(AlgebraPresentation(Q, 2, gens, "mat2"), 10)
    assert gk_estimate(table).value == QQ(0)


def test_gk_estimate_short_table():
    with pytest.raises(InsufficientDataError):
        gk_estimate(growth_sequence(poly_pres(1), 3))


def test_gk_estimate_is_undecided_without_a_polynomial_tail():
    # 2^n has no polynomial tail; floor(n^2/3) + 1 has degree 2, but no
    # difference of it is constant.
    for dims in ([2 ** n for n in range(13)], [n * n // 3 + 1 for n in range(13)]):
        estimate = gk_estimate(dims, (6, 12))
        assert (estimate.method, estimate.value) == ("undecided", None)
        assert estimate.note == ("no difference of order 0 to 6 is a positive constant "
                                 "on the last 6 levels")
        assert estimate.as_record()["value"] is None


@st.composite
def polynomial_values(draw):
    """(prefix, values, degree): an integer-valued polynomial of degree 0-4
    with a positive leading coefficient, sum c_k * C(n, k), evaluated past
    an arbitrary integer prefix long enough that the tail reads only it."""
    degree = draw(st.integers(0, 4))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree, max_size=degree))
    coeffs.append(draw(st.integers(1, 5)))
    prefix = draw(st.lists(st.integers(-50, 50), max_size=6))
    start = len(prefix)
    stop = 2 * start + draw(st.integers(12, 18))
    values = [sum(c * comb(n, k) for k, c in enumerate(coeffs)) for n in range(start, stop)]
    return prefix, values, degree


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polynomial_values(), st.integers(2, 3))
def test_gk_estimate_is_exact_or_undecided(case, base):
    prefix, values, degree = case
    estimate = gk_estimate(prefix + values)
    assert (estimate.method, estimate.value) == ("difference-degree", QQ(degree))
    # Every k-th difference of values[n] + base^n is a polynomial of degree
    # at most 4 plus (base - 1)^k base^n, which is constant on no 6 levels.
    undecided = gk_estimate([v + base ** n for n, v in enumerate(values)])
    assert (undecided.method, undecided.value) == ("undecided", None)
    for value in (estimate.value, undecided.value):
        assert value is None or value.denominator == 1


def test_dominance_reflexive():
    table = growth_sequence(poly_pres(2), 8)
    assert dominance_check(table, table, (1, 8)).k_min == 1


def test_dominance_laurent_pair():
    # dims n+1 against 2n+1: constants 1 and 2.
    plain = growth_sequence(ratfunc_poly_pres(), 12)
    laurent = growth_sequence(laurent_pres(), 12)
    assert dominance_check(plain, laurent, (1, 12)).k_min == 1
    backward = dominance_check(laurent, plain, (1, 12))
    assert backward.k_min == 2
    assert dominance_check(laurent, plain, (1, 1)).k_min == 2  # K = 1 already fails at n = 1


def test_dominance_window_must_be_covered():
    plain = growth_sequence(ratfunc_poly_pres(), 6)
    with pytest.raises(InsufficientDataError):
        dominance_check(plain, plain, (1, 10))


def test_dominance_transitivity_bound():
    a = growth_sequence(ratfunc_poly_pres("a"), 12)
    b = growth_sequence(laurent_pres("b"), 12)
    c = growth_sequence(poly_pres(2, "c"), 12)
    window = (1, 12)
    for lhs, mid, rhs in ((a, b, c), (c, b, a), (b, a, c)):
        k_direct = dominance_check(lhs, rhs, window).k_min
        k1 = dominance_check(lhs, mid, window).k_min
        k2 = dominance_check(mid, rhs, window).k_min
        assert k_direct <= k1 * k2


def test_equivalence_verdicts():
    plain = growth_sequence(ratfunc_poly_pres(), 12)
    laurent = growth_sequence(laurent_pres(), 12)
    two_vars = growth_sequence(poly_pres(2), 12)
    assert equivalence_check(plain, laurent, (1, 12)).verdict == "equivalent-on-window"
    report = equivalence_check(plain, two_vars, (1, 12))
    assert report.verdict.startswith("not-dominated-on-window:")
    assert "poly2" in report.verdict.split(":")[1]
    assert "diverge" in report.note
    # An undecided side gives no degree to compare.
    late = growth_sequence(late_relations_pres(), 12)
    assert gk_estimate(late).method == "undecided"
    assert equivalence_check(late, two_vars, (1, 12)).verdict == "equivalent-on-window"
    assert equivalence_check(plain, late, (1, 12)).verdict == "equivalent-on-window"


def test_bimodule_certificate_identity_case():
    pres = ratfunc_poly_pres()
    one = Matrix(F, [[F.one]])
    structure = [[[pres.generators[0]]]]
    report = verify_bimodule_certificate(pres, pres, [one], structure, window=(1, 6))
    assert report.verified
    assert report.details["predicted_constant"] == 1


def test_bimodule_certificate_even_subalgebra():
    source = AlgebraPresentation(RX, 1, [Matrix(RX, [[RX.gen(0)]])], "all-powers")
    target = AlgebraPresentation(RX, 1, [Matrix(RX, [[RX.gen(0) ** 2]])], "even-powers")
    one = Matrix(RX, [[RX.one]])
    xm = Matrix(RX, [[RX.gen(0)]])
    x2 = Matrix(RX, [[RX.gen(0) ** 2]])
    zero = Matrix(RX, [[RX.zero]])
    structure = [[[zero, x2], [one, zero]]]
    report = verify_bimodule_certificate(source, target, [one, xm], structure, window=(1, 8))
    assert report.verified
    assert report.details["module_generators"] == 2
    assert report.details["predicted_constant"] == 4
    assert any("faithfulness" in item for item in report.unchecked)
    assert report.equivalence.forward.k_min is not None


def test_bimodule_certificate_detects_broken_relation():
    pres = ratfunc_poly_pres()
    one = Matrix(F, [[F.one]])
    structure = [[[Matrix(F, [[F.one]])]]]  # claims x*1 = 1, false
    report = verify_bimodule_certificate(pres, pres, [one], structure, window=(1, 6))
    assert not report.verified
    assert "module relation" in report.failed_hypothesis


def test_bimodule_certificate_unverified_faithfulness_is_flagged():
    # A module with a kernel still verifies: faithfulness is documented
    # as an unchecked hypothesis, not silently assumed.
    pres = ratfunc_poly_pres()
    zero = Matrix(F, [[F.zero]])
    structure = [[[zero]]]
    report = verify_bimodule_certificate(pres, pres, [zero], structure, window=(1, 6))
    assert report.verified
    assert any("faithfulness" in item for item in report.unchecked)


def test_central_multiplier_localization():
    base = ratfunc_poly_pres()
    multiplier = Matrix(F, [[F.gen()]])
    inverse = Matrix(F, [[F.one / F.gen()]])
    report = verify_central_multiplier_certificate(
        base, [inverse], multiplier, multiplier, window=(1, 12)
    )
    assert report.verified
    assert report.equivalence.forward.k_min == 2
    assert report.equivalence.backward.k_min == 1


def test_central_multiplier_failure_modes():
    base = ratfunc_poly_pres()
    inverse = Matrix(F, [[F.one / F.gen()]])
    zero = Matrix(F, [[F.zero]])
    report = verify_central_multiplier_certificate(base, [inverse], zero, zero, window=(1, 6))
    assert not report.verified  # 0 * x^-1 = 0 is in the span, but 0 is not regular
    assert "regularity" in report.failed_hypothesis

    # With nothing adjoined the earlier membership checks are vacuous,
    # so a non-central multiplier is the first hypothesis to break.
    gens = [Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 1, 1)]
    base_q = AlgebraPresentation(Q, 2, gens, "diag")
    non_central = Matrix(Q, [[0, 1], [1, 0]])
    report = verify_central_multiplier_certificate(
        base_q, [], non_central, Matrix.identity(Q, 2), window=(1, 6)
    )
    assert not report.verified
    assert "centrality" in report.failed_hypothesis


def test_nilpotent_adjoin_certificate():
    gens = [Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 1, 1)]
    base = AlgebraPresentation(Q, 2, gens, "diag")
    e12 = Matrix.elementary(Q, 2, 0, 1)
    report = verify_nilpotent_adjoin_certificate(base, [e12], 2, window=(1, 6))
    assert report.verified and report.details["vanished_at"] == 2

    report = verify_nilpotent_adjoin_certificate(base, [gens[0]], 4, window=(1, 6))
    assert not report.verified and "nilpotency" in report.failed_hypothesis

    report = verify_nilpotent_adjoin_certificate(base, [], 2, window=(1, 6))
    assert report.verified  # nothing adjoined


def test_finite_commuting_adjoin_certificate():
    e11 = Matrix.elementary(Q, 2, 0, 0)
    ident = Matrix.identity(Q, 2)
    report = verify_finite_commuting_adjoin_certificate(
        [], [ident], [e11], nilpotency_bound=1, window=(1, 6)
    )
    assert report.verified
    assert report.details["adjoined_dimension"] == 2  # span of 1 and the idempotent

    # A central element of infinite order never stabilizes.
    x_scalar = Matrix(F, [[F.gen()]])
    ident_f = Matrix(F, [[F.one]])
    report = verify_finite_commuting_adjoin_certificate(
        [], [ident_f], [x_scalar], nilpotency_bound=1, window=(1, 6), stabilization_cap=8
    )
    assert not report.verified
    assert "stabilize" in report.failed_hypothesis

    # Commutation failure is named.
    e12 = Matrix.elementary(Q, 2, 0, 1)
    report = verify_finite_commuting_adjoin_certificate(
        [], [e12], [e11], nilpotency_bound=1, window=(1, 6)
    )
    assert not report.verified
    assert "commutation" in report.failed_hypothesis


def test_verified_certificates_never_fail_dominance():
    base = ratfunc_poly_pres()
    multiplier = Matrix(F, [[F.gen()]])
    inverse = Matrix(F, [[F.one / F.gen()]])
    report = verify_central_multiplier_certificate(
        base, [inverse], multiplier, multiplier, window=(1, 8)
    )
    assert report.verified
    assert not report.equivalence.forward.failed
    assert not report.equivalence.backward.failed
