import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth._ratio import QQ
from gkgrowth.errors import InternalCheckError, ShapeMismatchError
from gkgrowth.matrices import Matrix
from gkgrowth.parse import parse_poly_expr, parse_ratfunc_expr
from gkgrowth.poly import PolyRing, RatFuncField
from gkgrowth.spans import (
    DEPENDENT,
    EXTENDED,
    EchelonBasis,
    KeyCodec,
    matrix_to_vec,
    membership_ratfunc,
    packed_product,
    solve_q_linear,
    vec_matrix_product,
    vec_sort_key,
)

F = RatFuncField("x")


def vec(*pairs):
    return {(k,): QQ(v) for k, v in pairs if v}


def dense_rank_oracle(vectors, nkeys):
    """Naive dense Gaussian elimination, independent of EchelonBasis."""
    rows = [[v.get((k,), QQ(0)) for k in range(nkeys)] for v in vectors]
    rank = 0
    for col in range(nkeys):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_insert_examples():
    basis = EchelonBasis()
    assert basis.insert(vec((0, 1))) == EXTENDED
    assert basis.insert(vec((0, 1))) == DEPENDENT
    assert basis.dimension == 1

    basis = EchelonBasis()
    assert basis.insert(vec((0, 1), (1, 1))) == EXTENDED
    assert basis.insert(vec((1, 1))) == EXTENDED
    assert basis.dimension == 2

    basis = EchelonBasis()
    for v in (vec((0, 1), (1, 2)), vec((0, 2), (1, 4)), vec((0, 0), (1, 1))):
        basis.insert(v)
    assert basis.dimension == 2


def test_rank_matches_dense_oracle():
    rng = random.Random(5)
    for _ in range(25):
        nkeys = rng.randint(1, 200)
        nvecs = rng.randint(1, 50)
        vectors = []
        for _ in range(nvecs):
            v = {}
            for _ in range(rng.randint(0, min(nkeys, 12))):
                v[(rng.randrange(nkeys),)] = QQ(rng.randint(-5, 5), rng.randint(1, 3))
            vectors.append({k: c for k, c in v.items() if c})
        basis = EchelonBasis()
        for v in vectors:
            basis.insert(v)
        assert basis.dimension == dense_rank_oracle(vectors, nkeys)


def test_span_invariant_under_insertion_order():
    rng = random.Random(9)
    vectors = []
    for _ in range(12):
        vectors.append({(rng.randrange(8),): QQ(rng.randint(-4, 4)) for _ in range(3)})
    vectors = [{k: c for k, c in v.items() if c} for v in vectors]
    reference = None
    for _ in range(6):
        rng.shuffle(vectors)
        basis = EchelonBasis()
        for v in vectors:
            basis.insert(v)
        rows = tuple(tuple(sorted(r.items())) for r in basis.rows())
        if reference is None:
            reference = (basis.dimension, rows)
        # Reduced echelon form is canonical: same span, same stored rows.
        assert (basis.dimension, rows) == reference


def test_rows_stay_fully_reduced():
    basis = EchelonBasis()
    basis.insert(vec((0, 1), (2, 3)))
    basis.insert(vec((1, 1), (2, 5)))
    basis.insert(vec((2, 1)))
    rows = basis.rows()
    assert rows[0] == vec((0, 1)) and rows[1] == vec((1, 1)) and rows[2] == vec((2, 1))


def test_a_zero_value_at_a_pivot_key_raises_instead_of_looping(deadline):
    # The single reduction pass cannot clear a pivot key held with value 0;
    # it must say so, not spin.
    deadline(5)
    basis = EchelonBasis()
    basis.insert({(0,): 1, (1,): 1})
    with pytest.raises(InternalCheckError, match="pivot key survived"):
        basis.insert({(0,): 0, (2,): 1})
    with pytest.raises(InternalCheckError):
        basis.snapshot().contains({(0,): QQ(0), (2,): QQ(1)})
    assert basis.dimension == 1


@pytest.mark.parametrize("zero, one", [(QQ(0), QQ(1)), (0, 1)], ids=["QQ", "int"])
def test_a_zero_value_at_the_leading_key_raises_instead_of_dividing(zero, one):
    # An empty basis leaves the vector as given, so its explicit zero is the
    # smallest key: it must be reported, not divided by.
    basis = EchelonBasis()
    with pytest.raises(InternalCheckError, match="leading key"):
        basis.insert({(0,): zero, (1,): one})
    assert basis.dimension == 0


def test_deadline_fixture_interrupts_a_hang(deadline):
    deadline(0.2)
    with pytest.raises(TimeoutError):
        while True:
            pass


def test_solve_q_linear():
    assert solve_q_linear([[1, 0], [0, 1]], [4, 5]) == [QQ(4), QQ(5)]
    assert solve_q_linear([[1, 1], [2, 2]], [1, 3]) is None
    assert solve_q_linear([[1, 1], [1, -1]], [3, 1]) == [QQ(2), QQ(1)]
    with pytest.raises(ShapeMismatchError):
        solve_q_linear([[1, 1]], [1, 2])


def test_membership_ratfunc_examples():
    def rf(text):
        return Matrix(F, [[parse_ratfunc_expr(text, F)]])

    assert membership_ratfunc([rf("1/(x+1)")], rf("2/(x+1)")) == [QQ(2)]
    assert membership_ratfunc([rf("1/x")], rf("1/x^2")) is None
    assert membership_ratfunc([rf("x/(x-1)"), rf("1/(x-1)")], rf("(x+1)/(x-1)")) == [QQ(1), QQ(1)]


def test_membership_ratfunc_shape_errors():
    one = Matrix(F, [[F.one]])
    two = Matrix(F, [[F.one, F.zero]])
    with pytest.raises(ShapeMismatchError):
        membership_ratfunc([one], two)


def test_membership_agrees_with_polynomial_coordinates():
    # With all denominators 1 the cleared system is the polynomial one.
    rng = random.Random(13)
    ring = PolyRing(("x",))
    for _ in range(20):
        polys = [
            parse_poly_expr(text, ring)
            for text in ("x^2 + 1", "x - 2", "3*x^2 - x")
        ]
        coeffs = [QQ(rng.randint(-3, 3)) for _ in polys]
        target_poly = ring.zero
        for c, q in zip(coeffs, polys):
            target_poly = target_poly + q * c
        basis_poly = [Matrix(ring, [[q]]) for q in polys]
        target_mat = Matrix(ring, [[target_poly]])
        basis_q = EchelonBasis()
        for b in basis_poly:
            basis_q.insert(matrix_to_vec(b))
        in_poly_span = basis_q.contains(matrix_to_vec(target_mat))

        basis_rf = [Matrix(F, [[F.from_poly(parse_poly_expr(str(q), F.poly_ring))]]) for q in polys]
        target_rf = Matrix(F, [[F.from_poly(parse_poly_expr(str(target_poly), F.poly_ring))]])
        assert (membership_ratfunc(basis_rf, target_rf) is not None) == in_poly_span
        assert in_poly_span


def test_vec_sort_key_total_order():
    a = vec((0, 1))
    b = vec((0, 1), (1, 1))
    assert vec_sort_key(a) != vec_sort_key(b)
    assert sorted([vec_sort_key(b), vec_sort_key(a)])[0] == vec_sort_key(a)


ENTRIES = st.sampled_from([QQ(0), QQ(0), QQ(0), QQ(1), QQ(-1), QQ(2), QQ(1, 2), QQ(-3, 2)])


@st.composite
def rational_matrices(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]


def from_sympy(value):
    return QQ(int(value.p), int(value.q))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rational_matrices())
def test_kernel_agrees_with_sympy_nullspace(rows):
    ncols = len(rows[0])
    basis = EchelonBasis()
    for row in rows:
        basis.insert(vec(*enumerate(row)))
    expected = [tuple(from_sympy(v) for v in col) for col in sympy.Matrix(rows).nullspace()]
    assert basis.kernel([(k,) for k in range(ncols)]) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rational_matrices(), st.data())
def test_solve_agrees_with_sympy_rref(rows, data):
    nrows, ncols = len(rows), len(rows[0])
    if data.draw(st.booleans()):  # a consistent right-hand side A*x0
        x0 = [data.draw(ENTRIES) for _ in range(ncols)]
        rhs = [sum((a * x for a, x in zip(row, x0)), QQ(0)) for row in rows]
    else:
        rhs = [data.draw(ENTRIES) for _ in range(nrows)]
    reduced, pivots = sympy.Matrix(rows).row_join(sympy.Matrix(rhs)).rref()
    if ncols in pivots:
        expected = None
    else:
        expected = [QQ(0)] * ncols
        for r, p in enumerate(pivots):
            expected[p] = from_sympy(reduced[r, ncols])
    columns = [vec(*((i, row[j]) for i, row in enumerate(rows))) for j in range(ncols)]
    target = vec(*enumerate(rhs))
    assert EchelonBasis.solve(columns, target) == expected
    assert solve_q_linear(rows, rhs) == expected
    # Pivot-read coordinates on the echelon rows of the column span.
    span = EchelonBasis()
    for col in columns:
        span.insert(col)
    coords = span.coordinates(target)
    assert (coords is None) == (expected is None)
    if coords is not None:
        rebuilt = {}
        for c, row in zip(coords, span.rows()):
            for k, v in row.items():
                rebuilt[k] = rebuilt.get(k, QQ(0)) + c * v
        assert {k: v for k, v in rebuilt.items() if v} == target


def test_unit_pivot_rows_stay_integral():
    basis = EchelonBasis()
    basis.insert({(0,): -1, (1,): 2})
    basis.insert({(1,): 1, (2,): 3})
    assert all(type(c) is int for row in basis._pivot_rows.values() for c in row.values())
    assert basis.rows() == [vec((0, 1), (2, 6)), vec((1, 1), (2, 3))]
    assert all(type(c) is QQ for row in basis.rows() for c in row.values())
    # A pivot other than +-1 divides in QQ, never by int true division.
    basis.insert({(2,): 2, (3,): 1})
    assert basis.rows()[2] == vec((2, 1), (3, QQ(1, 2)))


INT_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(INT_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=6))
def test_integer_vectors_give_the_rows_of_their_qq_copies(rows):
    ints, rationals = EchelonBasis(), EchelonBasis()
    for row in rows:
        as_ints = {(k,): c for k, c in enumerate(row) if c}
        assert ints.insert(as_ints) == rationals.insert(vec(*enumerate(row)))
    assert ints.rows() == rationals.rows()
    assert ints.snapshot().rows == rationals.snapshot().rows
    assert all(type(c) is QQ for row in ints.snapshot().rows for c in row.values())


@st.composite
def codecs_and_keys(draw):
    """A codec and keys (i, j, deg, mono) whose degree stays below its base."""
    size, nvars, base = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 6))

    def key():
        mono, room = [], base - 1
        for _ in range(nvars):
            mono.append(draw(st.integers(0, room)))
            room -= mono[-1]
        return (draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1)), sum(mono),
                tuple(mono))

    return KeyCodec(size, nvars, base), [key() for _ in range(draw(st.integers(1, 12)))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(codecs_and_keys())
def test_packed_keys_keep_tuple_order_and_decode(data):
    codec, keys = data
    packed = [codec.pack(k) for k in keys]
    assert [codec.unpack(p) for p in packed] == keys
    assert sorted(keys) == [codec.unpack(p) for p in sorted(packed)]
    assert len(set(packed)) == len(set(keys))


INT_COEFFS = st.sampled_from([1, -1, 2, -3, QQ(1, 2), QQ(-3, 2)])


@st.composite
def matrix_vec_pairs(draw):
    """Coordinates of two d-by-d matrices over QQ[x1..xm] and a base above their degrees."""
    size, nvars = draw(st.integers(1, 3)), draw(st.integers(0, 2))

    def vec_of():
        vec = {}
        for _ in range(draw(st.integers(0, 6))):
            mono = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            vec[(i, j, sum(mono), mono)] = draw(INT_COEFFS)
        return vec

    a, b = vec_of(), vec_of()
    degree = max((k[2] for v in (a, b) for k in v), default=0)
    return KeyCodec(size, nvars, 2 * degree + 1), a, b


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix_vec_pairs())
def test_packed_product_equals_vec_matrix_product(data):
    codec, a, b = data
    product = packed_product(codec.by_column(codec.pack_vec(a)), codec.by_row(codec.pack_vec(b)))
    decoded = codec.unpack_vec(product)
    assert decoded == vec_matrix_product(a, b)
    assert all(type(c) is QQ for c in decoded.values())


def test_packed_product_at_the_top_digit():
    # As in a growth run to level 5 whose generators have degree 1: base 6.
    # x1 times x1^4 reaches exponent 5 = base - 1 while x2 stays 0.
    codec = KeyCodec(3, 2, 6)
    x1 = codec.pack_vec({(1, 0, 1, (1, 0)): 2})
    x1_4 = codec.pack_vec({(0, 1, 4, (4, 0)): 3, (0, 1, 4, (0, 4)): 1})
    product = packed_product(codec.by_column(x1), codec.by_row(x1_4))
    assert codec.unpack_vec(product) == {(1, 1, 5, (5, 0)): QQ(6), (1, 1, 5, (1, 4)): QQ(2)}
    top = codec.pack((1, 1, 5, (5, 0)))
    assert top in product
    assert codec.pack((1, 1, 5, (4, 1))) < top < codec.pack((1, 2, 0, (0, 0)))
