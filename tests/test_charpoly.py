import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth._ratio import QQ
from gkgrowth.charpoly import (
    UPoly,
    cayley_hamilton_check,
    char_poly,
    determinant,
    regular_rep_charpoly,
    regular_rep_matrix,
)
from gkgrowth.errors import ShapeMismatchError
from gkgrowth.matrices import Matrix
from gkgrowth.parse import parse_poly_expr
from gkgrowth.poly import Poly, PolyRing, RationalField

Q = RationalField()
R2 = PolyRing(("x1", "x2"))
RX = PolyRing(("x",))


def upoly(ring, *coeffs):
    return UPoly.from_coeffs(ring, coeffs)


def char_poly_oracle(mat):
    """det(tI - mat) by permutation expansion; independent of the
    Faddeev-LeVerrier path (feasible for d <= 4)."""
    d = mat.nrows
    ring = mat.ring
    entry = {}
    for i in range(d):
        for j in range(d):
            base = [-mat.rows[i][j]]
            if i == j:
                base.append(ring.one)
            entry[(i, j)] = UPoly.from_coeffs(ring, base)
    total = UPoly(ring, ())
    for perm in itertools.permutations(range(d)):
        inversions = sum(
            1 for a in range(d) for b in range(a + 1, d) if perm[a] > perm[b]
        )
        term = UPoly.from_coeffs(ring, [ring.one])
        for i in range(d):
            term = term * entry[(i, perm[i])]
        if inversions % 2:
            term = UPoly.from_coeffs(ring, [-c for c in term.coeffs])
        total = total + term
    return total


def rand_matrix(ring, rng, d, degree=2, coeff=3):
    monos = [
        m
        for m in itertools.product(range(degree + 1), repeat=ring.nvars)
        if sum(m) <= degree
    ]

    def rand_poly():
        terms = {}
        for m in monos:
            if rng.random() < 0.4:
                c = rng.randint(-coeff, coeff)
                if c:
                    terms[m] = QQ(c)
        return Poly(ring, terms)

    return Matrix(ring, [[rand_poly() for _ in range(d)] for _ in range(d)])


def test_char_poly_examples():
    diag = Matrix.diagonal(R2, [R2.gen(0), R2.gen(1)])
    e1 = parse_poly_expr("x1 + x2", R2)
    e2 = parse_poly_expr("x1*x2", R2)
    assert char_poly(diag) == upoly(R2, e2, -e1, R2.one)

    e12 = Matrix.elementary(Q, 2, 0, 1)
    assert char_poly(e12) == upoly(Q, 0, 0, 1)

    upper = Matrix(RX, [[RX.gen(0), RX.one], [RX.zero, RX.gen(0) ** 2]])
    expected = upoly(
        RX,
        parse_poly_expr("x^3", RX),
        parse_poly_expr("-x - x^2", RX),
        RX.one,
    )
    assert char_poly(upper) == expected


def test_char_poly_matches_permutation_oracle():
    rng = random.Random(17)
    for d in (1, 2, 3, 4):
        for _ in range(6):
            mat = rand_matrix(R2, rng, d, degree=1, coeff=2)
            assert char_poly(mat) == char_poly_oracle(mat)
    for d in (2, 3, 4):
        for _ in range(6):
            mat = Matrix(Q, [[QQ(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)])
            assert char_poly(mat) == char_poly_oracle(mat)


def test_char_poly_requires_square():
    with pytest.raises(ShapeMismatchError):
        char_poly(Matrix(Q, [[1, 2]]))


def test_regular_rep_examples():
    ident = Matrix.identity(Q, 2)
    pair = regular_rep_charpoly(ident)
    assert pair.ordinary == upoly(Q, 1, -2, 1)
    assert pair.regular == upoly(Q, 1, -4, 6, -4, 1)  # (t-1)^4

    e12 = Matrix.elementary(Q, 2, 0, 1)
    pair = regular_rep_charpoly(e12)
    assert pair.regular == upoly(Q, 0, 0, 0, 0, 1)  # t^4

    diag = Matrix.diagonal(R2, [R2.gen(0), R2.gen(1)])
    pair = regular_rep_charpoly(diag)
    assert pair.regular == pair.ordinary * pair.ordinary


def test_regular_rep_matrix_shape_and_action():
    mat = Matrix(Q, [[1, 2], [3, 4]])
    rep = regular_rep_matrix(mat)
    assert rep.shape == (4, 4)
    # Left multiplication by the identity is the identity operator.
    assert regular_rep_matrix(Matrix.identity(Q, 2)) == Matrix.identity(Q, 4)


def test_cayley_hamilton_examples():
    upper = Matrix(RX, [[RX.gen(0), RX.one], [RX.zero, RX.gen(0) ** 2]])
    assert cayley_hamilton_check(upper).is_zero
    assert cayley_hamilton_check(Matrix.zeros(Q, 3, 3)).is_zero


def test_cayley_hamilton_random_property():
    rng = random.Random(23)
    for _ in range(15):
        mat = rand_matrix(R2, rng, 3)
        assert cayley_hamilton_check(mat).is_zero


def test_determinant():
    diag = Matrix.diagonal(R2, [R2.gen(0), R2.gen(1)])
    assert determinant(diag) == parse_poly_expr("x1*x2", R2)
    assert determinant(Matrix(Q, [[1, 2], [3, 4]])) == QQ(-2)
    assert not determinant(Matrix.elementary(Q, 2, 0, 1))


def test_upoly_evaluation_and_power():
    poly = upoly(Q, -1, 0, 1)  # t^2 - 1
    mat = Matrix(Q, [[0, 1], [1, 0]])
    assert poly.evaluate_matrix(mat).is_zero
    assert poly ** 2 == upoly(Q, 1, 0, -2, 0, 1)
    assert str(upoly(Q, 2, -1, 1)) == "t^2 + (-1)*t + (2)"


SYMPY_VARS = sympy.symbols("x1 x2")
COEFFS = st.sampled_from([QQ(1), QQ(-1), QQ(2), QQ(-3), QQ(1, 2), QQ(-3, 2), QQ(2, 3)])
DEGREE_2_MONOMIALS = st.sampled_from(
    [(a, b) for a in range(3) for b in range(3) if a + b <= 2]
)


@st.composite
def degree_2_matrices(draw):
    size = draw(st.integers(1, 4))

    def entry():
        return Poly(R2, draw(st.dictionaries(DEGREE_2_MONOMIALS, COEFFS, max_size=3)))

    return Matrix(R2, [[entry() for _ in range(size)] for _ in range(size)])


def to_sympy(poly):
    x1, x2 = SYMPY_VARS
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * x1 ** a * x2 ** b
         for (a, b), c in poly.items_unordered()),
        sympy.Integer(0),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(degree_2_matrices())
def test_char_poly_matches_sympy_charpoly(mat):
    t = sympy.Symbol("t")
    want = sympy.Matrix([[to_sympy(e) for e in row] for row in mat.rows]).charpoly(t)
    got = char_poly(mat)
    assert got.degree == mat.nrows
    # sympy lists coefficients highest degree first; UPoly lowest first.
    coeffs = [to_sympy(got.coefficient(k)) for k in range(mat.nrows, -1, -1)]
    assert [sympy.expand(c) for c in want.all_coeffs()] == [sympy.expand(c) for c in coeffs]
