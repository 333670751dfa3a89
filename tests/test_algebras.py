import gc
import itertools
import weakref

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth import algebras
from gkgrowth._ratio import QQ
from gkgrowth.algebras import (
    DEFAULT_BASIS_CAP,
    AlgebraPresentation,
    FiltrationStore,
    adjoin_generators,
    element_membership_at_level,
    growth_sequence,
)
from gkgrowth.closure import build_diagonal_embedding_example, trace_algebra_generators
from gkgrowth.errors import CapExceededError, RingMismatchError, ShapeMismatchError
from gkgrowth.matrices import Matrix, mat_mul
from gkgrowth.poly import Poly, PolyRing, RatFuncField, RationalField
from gkgrowth.spans import (
    EXTENDED,
    EchelonBasis,
    KeyCodec,
    matrix_from_vec,
    matrix_to_vec,
    packed_product,
    vec_sort_key,
)

Q = RationalField()
RX = PolyRing(("x",))
R2 = PolyRing(("x1", "x2"))
F = RatFuncField("x")


def poly_pres(ring, label="poly"):
    return AlgebraPresentation(ring, 1, [Matrix(ring, [[g]]) for g in ring.gens()], label)


def mat2_pres():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    return AlgebraPresentation(Q, 2, gens, "mat2")


def laurent_pres():
    return AlgebraPresentation(
        F, 1, [Matrix(F, [[F.gen()]]), Matrix(F, [[F.one / F.gen()]])], "laurent"
    )


def test_mat_mul_examples():
    a = Matrix(Q, [[1, 2], [3, 4]])
    assert mat_mul(a, Matrix.identity(Q, 2)) == a
    e12 = Matrix.elementary(Q, 2, 0, 1)
    assert mat_mul(e12, e12).is_zero
    d = Matrix.diagonal(R2, [R2.gen(0), R2.gen(1)])
    assert mat_mul(d, d) == Matrix.diagonal(R2, [R2.gen(0) ** 2, R2.gen(1) ** 2])
    with pytest.raises(ShapeMismatchError):
        mat_mul(a, Matrix(Q, [[1, 2, 3]]))
    with pytest.raises(RingMismatchError):
        mat_mul(a, Matrix.identity(RX, 2))


def test_growth_univariate():
    table = growth_sequence(poly_pres(RX), 4)
    assert table.dims == (1, 2, 3, 4, 5)
    assert table.stabilized_at is None


def test_growth_two_variables():
    table = growth_sequence(poly_pres(R2), 3)
    assert table.dims == (1, 3, 6, 10)


def test_growth_full_matrix_algebra():
    table = growth_sequence(mat2_pres(), 3)
    assert table.dims == (1, 4, 4, 4)
    assert table.stabilized_at == 1
    assert table.stable_dimension == 4


def test_membership_levels():
    pres = poly_pres(RX)
    x2 = Matrix(RX, [[RX.gen(0) ** 2]])
    assert element_membership_at_level(pres, x2, 3) == 2
    assert element_membership_at_level(pres, x2, 1) is None
    upper = AlgebraPresentation(
        Q, 2, [Matrix.elementary(Q, 2, 0, 0), Matrix.elementary(Q, 2, 0, 1)], "upper"
    )
    assert element_membership_at_level(upper, Matrix.elementary(Q, 2, 0, 1), 1) == 1


def test_adjoin_examples():
    pres = poly_pres(RX)
    assert adjoin_generators(pres, []).generators == pres.generators
    duplicated = pres.adjoin([pres.generators[0]])
    assert growth_sequence(duplicated, 4).dims == growth_sequence(pres, 4).dims
    # x^2 becomes a length-1 word once adjoined, so low levels gain span.
    extended = pres.adjoin([Matrix(RX, [[RX.gen(0) ** 2]])])
    assert growth_sequence(extended, 4).dims == (1, 3, 5, 7, 9)
    with pytest.raises(RingMismatchError):
        pres.adjoin([Matrix(Q, [[1]])])


def test_growth_ratfunc_laurent():
    table = growth_sequence(laurent_pres(), 6)
    assert table.dims == (1, 3, 5, 7, 9, 11, 13)


def test_dims_monotone_and_submultiplicative():
    for pres, depth in ((poly_pres(R2), 8), (laurent_pres(), 8), (mat2_pres(), 6)):
        dims = growth_sequence(pres, depth).dims
        assert all(a <= b for a, b in zip(dims, dims[1:]))
        for n, m in itertools.combinations_with_replacement(range(depth + 1), 2):
            if n + m <= depth:
                assert dims[n + m] <= dims[n] * dims[m]


def test_first_level_bound():
    for pres in (poly_pres(R2), laurent_pres(), mat2_pres()):
        dims = growth_sequence(pres, 1).dims
        assert dims[1] <= len(pres.generators) + 1


def test_stabilization_padding():
    table = growth_sequence(mat2_pres(), 7)
    assert table.dims == (1, 4, 4, 4, 4, 4, 4, 4)


def test_stabilization_means_closure():
    # The stable span is closed under multiplication by every generator,
    # so the stable value is the dimension of the whole algebra.
    pres = mat2_pres()
    table = growth_sequence(pres, 5)
    assert table.stabilized_at is not None
    level = table.level(table.max_level)
    for g in pres.generators:
        for b in level.representatives:
            assert level.contains(g * b)


def test_table_identical_under_generator_permutation():
    gens = [Matrix.elementary(Q, 2, i, j) for i in range(2) for j in range(2)]
    reference = None
    for order in itertools.permutations(gens):
        table = growth_sequence(AlgebraPresentation(Q, 2, order, "m"), 4)
        rows = tuple(
            tuple(sorted(r.items())) for r in table.level(4).snapshot.rows
        )
        if reference is None:
            reference = (table.dims, rows)
        assert (table.dims, rows) == reference

    # QQ(x) engine: representative matrices are canonical as well.
    ref = None
    for order in ([0, 1], [1, 0]):
        pres = AlgebraPresentation(
            F, 1, [laurent_pres().generators[i] for i in order], "laurent"
        )
        table = growth_sequence(pres, 5)
        reps = tuple(table.level(5).representatives)
        if ref is None:
            ref = (table.dims, reps)
        assert (table.dims, reps) == ref


def test_basis_cap_is_enforced():
    with pytest.raises(CapExceededError):
        growth_sequence(poly_pres(R2), 10, basis_cap=20)


@pytest.mark.parametrize("ring", [Q, F], ids=["QQ", "QQ(x)"])
def test_basis_cap_fires_at_the_insertion_that_passes_it(ring, monkeypatch):
    # Level 1 has nine distinct candidates, eight of them new: a cap of 3 must
    # stop the level at the fourth basis vector, not after every candidate.
    gens = [Matrix.elementary(ring, 3, i, j) for i in range(3) for j in range(3)]
    calls = []
    insert = EchelonBasis.insert

    def counting_insert(self, vec):
        calls.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(EchelonBasis, "insert", counting_insert)
    with pytest.raises(CapExceededError, match="basis size 4 exceeds cap 3 at level 1 "):
        growth_sequence(AlgebraPresentation(ring, 3, gens, "mat3"), 2, basis_cap=3)
    assert len(calls) < 1 + len(gens)


@pytest.mark.parametrize("pres", [mat2_pres(), poly_pres(RX), laurent_pres()],
                         ids=["QQ", "QQ[x]", "QQ(x)"])
def test_a_cap_of_0_fires_at_level_0(pres):
    # The identity alone passes a cap of 0, and no builder is kept.
    store = FiltrationStore()
    with pytest.raises(CapExceededError,
                       match=f"^basis size 1 exceeds cap 0 at level 0 of {pres.label!r}$"):
        growth_sequence(pres, 3, basis_cap=0, store=store)
    assert not store._builders
    assert growth_sequence(pres, 0, basis_cap=1, store=store).dims == (1,)


COEFFS = st.sampled_from(
    [QQ(0), QQ(0), QQ(0), QQ(1), QQ(-1), QQ(2), QQ(-3), QQ(1, 2), QQ(-3, 2), QQ(2, 3)]
)
MONOMIALS = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])


@st.composite
def small_presentations(draw, rings=(Q, R2), sizes=(2, 3)):
    ring = draw(st.sampled_from(rings))
    size = draw(st.integers(*sizes))

    def entry():
        if ring == Q:
            return draw(COEFFS)
        return Poly(R2, {draw(MONOMIALS): draw(COEFFS) for _ in range(draw(st.integers(0, 2)))})

    gens = [
        Matrix(ring, [[entry() for _ in range(size)] for _ in range(size)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    return AlgebraPresentation(ring, size, gens, "random")


def reference_growth(pres, max_level):
    """The growth loop on plain Matrix products, each inserted as QQ coordinates."""
    basis = EchelonBasis()
    basis.insert(matrix_to_vec(pres.identity))
    reps = new_reps = [pres.identity]
    dims, levels = [1], [(basis.snapshot().rows, tuple(reps))]
    for _ in range(max_level):
        products = sorted(
            {g * b for g in pres.generators for b in new_reps},
            key=lambda m: vec_sort_key(matrix_to_vec(m)),
        )
        new_reps = [m for m in products if basis.insert(matrix_to_vec(m)) == EXTENDED]
        reps = reps + new_reps
        dims.append(basis.dimension)
        levels.append((basis.snapshot().rows, tuple(reps)))
        if not new_reps:
            break
    return dims, levels


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_presentations())
def test_integer_coordinate_growth_matches_matrix_products(pres):
    level = 4 if pres.ring == Q else 3
    table = growth_sequence(pres, level)
    dims, levels = reference_growth(pres, level)
    assert list(table.dims) == dims + [dims[-1]] * (level + 1 - len(dims))
    for n, (rows, reps) in enumerate(levels):
        got = table.level(n)
        assert got.snapshot.rows == rows
        assert got.representatives == reps
        # QQ at the boundary: no int escapes into snapshots or representatives.
        assert all(type(c) is QQ for row in got.snapshot.rows for c in row.values())
        for e in (e for m in got.representatives for row in m.rows for e in row):
            coeffs = [e] if pres.ring == Q else [c for _, c in e.items_unordered()]
            assert all(type(c) is QQ for c in coeffs)


def test_representatives_are_built_on_first_read(monkeypatch):
    built = []
    real = algebras.matrix_from_vec

    def counting(ring, shape, vec):
        built.append(vec)
        return real(ring, shape, vec)

    monkeypatch.setattr(algebras, "matrix_from_vec", counting)
    x1, x2 = R2.gens()
    pres = AlgebraPresentation(
        R2, 2, [Matrix(R2, [[x1, 1], [0, x2]]), Matrix(R2, [[x2, 0], [x1, 2]])], "lazy"
    )
    table = growth_sequence(pres, 3)
    dims, levels = reference_growth(pres, 3)
    assert list(table.dims) == dims
    assert table.level(3).snapshot.rows == levels[3][0]
    assert not built
    top = table.level(3).representatives
    assert top == levels[3][1]
    assert len(built) == dims[3] - 1
    below = table.level(2).representatives
    assert below == levels[2][1]
    assert len(built) == dims[3] - 1
    assert all(a is b for a, b in zip(top, below))


def word_rank(pres, n):
    """sympy rank of the coefficient matrix of every word of length <= n."""
    words, layer = [pres.identity], [pres.identity]
    for _ in range(n):
        layer = [g * w for g in pres.generators for w in layer]
        words += layer
    rows = [
        {(i, j, mono): sympy.Rational(c.numerator, c.denominator)
         for i, row in enumerate(w.rows) for j, e in enumerate(row)
         for mono, c in e.items_unordered()}
        for w in words
    ]
    columns = sorted({k for row in rows for k in row})
    return sympy.Matrix([[row.get(k, 0) for k in columns] for row in rows]).rank()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_presentations(rings=(R2,), sizes=(1, 2)))
def test_growth_dims_match_sympy_rank_of_all_words(pres):
    table = growth_sequence(pres, 3)
    assert [word_rank(pres, n) for n in range(4)] == list(table.dims)


RATFUNC_ENTRIES = [
    F.zero, F.zero, F.one, F.coerce(QQ(-2)), F.gen(), F.one / F.gen(),
    F.one / (F.gen() + 1), F.gen() / (F.gen() - 1),
]


@st.composite
def store_scenarios(draw):
    """Variants of one generator set (permuted, repeated, relabelled) and requests."""
    ring = draw(st.sampled_from((Q, R2, F)))
    if ring == F:
        size = draw(st.integers(1, 2))
        gens = [
            Matrix(F, [[draw(st.sampled_from(RATFUNC_ENTRIES)) for _ in range(size)]
                       for _ in range(size)])
            for _ in range(draw(st.integers(1, 2)))
        ]
        pres = AlgebraPresentation(F, size, gens, "random")
    else:
        pres = draw(small_presentations(rings=(ring,), sizes=(1, 2)))
    variants = []
    for idx in range(draw(st.integers(1, 3))):
        gens = draw(st.permutations(pres.generators))
        gens += draw(st.lists(st.sampled_from(gens), max_size=2))
        variants.append(AlgebraPresentation(ring, pres.size, gens, f"variant-{idx}"))
    top = 4 if ring == Q else 3
    requests = draw(st.lists(
        st.tuples(st.integers(0, len(variants) - 1), st.integers(0, top)),
        min_size=1, max_size=6,
    ))
    cap = draw(st.sampled_from([DEFAULT_BASIS_CAP, DEFAULT_BASIS_CAP, 3, 6]))
    return variants, requests, cap


def probes(pres):
    gens = pres.generators
    return [pres.identity, Matrix.elementary(pres.ring, pres.size, 0, pres.size - 1)] + [
        g * h for g in gens[:2] for h in gens[:2]
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(store_scenarios())
def test_store_tables_equal_fresh_tables(scenario):
    variants, requests, cap = scenario
    store = FiltrationStore()
    for which, n in requests:
        pres = variants[which]
        try:
            fresh = growth_sequence(pres, n, basis_cap=cap)
        except CapExceededError as exc:
            with pytest.raises(CapExceededError) as caught:
                growth_sequence(pres, n, basis_cap=cap, store=store)
            assert str(caught.value) == str(exc)
            assert str(exc).endswith(f"of {pres.label!r}")
            assert not store._builders  # every variant shares the one key
            continue
        table = growth_sequence(pres, n, basis_cap=cap, store=store)
        assert table.presentation is pres
        assert table.max_level == fresh.max_level == n
        assert table.dims == fresh.dims
        assert table.stabilized_at == fresh.stabilized_at
        assert len(table.levels) == len(fresh.levels) == n + 1
        for got, want in zip(table.levels, fresh.levels):
            assert got.representatives == want.representatives
            if pres.ring != F:
                assert got.snapshot.rows == want.snapshot.rows
        assert [table.membership_level(m) for m in probes(pres)] == [
            fresh.membership_level(m) for m in probes(pres)
        ]


def test_store_extends_a_polynomial_filtration_past_its_packing_base():
    store = FiltrationStore()
    pres = poly_pres(R2)
    assert growth_sequence(pres, 2, store=store).dims == (1, 3, 6)
    (low,) = store._builders.values()
    extended, fresh = growth_sequence(pres, 5, store=store), growth_sequence(pres, 5)
    assert extended.dims == fresh.dims
    (high,) = store._builders.values()
    assert high is low
    (codec, rows), (fresh_codec, fresh_rows) = (
        extended.level(5).packed_basis(), fresh.level(5).packed_basis())
    assert codec.base == fresh_codec.base and rows == fresh_rows
    assert growth_sequence(pres, 3, store=store).dims == (1, 3, 6, 10)
    assert next(iter(store._builders.values())) is high
    # Constant entries pack at degree 0, so a QQ builder reaches any level.
    store = FiltrationStore()
    growth_sequence(mat2_pres(), 1, store=store)
    (qq,) = store._builders.values()
    table = growth_sequence(mat2_pres(), 40, store=store)
    assert list(store._builders.values()) == [qq]
    assert table.dims == (1,) + (4,) * 40 and table.stabilized_at == 1
    # A stabilized QQ[x1,x2] builder answers any level by padding.
    store = FiltrationStore()
    nil = AlgebraPresentation(R2, 2, [Matrix(R2, [[0, R2.gen(0)], [0, 0]])], "nil")
    assert growth_sequence(nil, 2, store=store).stabilized_at == 1
    (stable,) = store._builders.values()
    table = growth_sequence(nil, 30, store=store)
    assert list(store._builders.values()) == [stable]
    assert table.dims == growth_sequence(nil, 30).dims == (1,) + (2,) * 30


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_presentations(rings=(R2,), sizes=(1, 2)),
       st.lists(st.integers(1, 2), min_size=2, max_size=3))
def test_a_table_extended_across_repacks_equals_one_built_in_one_go(pres, steps):
    store = FiltrationStore()
    for n in itertools.accumulate(steps):
        table = growth_sequence(pres, n, store=store)
    fresh = growth_sequence(pres, n)
    assert (table.dims, table.stabilized_at) == (fresh.dims, fresh.stabilized_at)
    # From the top down, so a level's representatives are first read from a
    # level built after a re-pack.
    for k in reversed(range(n + 1)):
        got, want = table.level(k), fresh.level(k)
        assert got.representatives == want.representatives
        assert got.snapshot.rows == want.snapshot.rows
        (codec, rows), (want_codec, want_rows) = got.packed_basis(), want.packed_basis()
        assert [codec.repack(row, want_codec) for row in rows] == want_rows


def test_store_drops_a_builder_whose_extension_raises(monkeypatch):
    store = FiltrationStore()
    pres = poly_pres(R2)
    growth_sequence(pres, 1, store=store)

    def interrupted(*args):
        raise RuntimeError("interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(algebras, "_check_cap", interrupted)
        with pytest.raises(RuntimeError):
            growth_sequence(pres, 2, store=store)
    assert not store._builders
    assert growth_sequence(pres, 2, store=store).dims == (1, 3, 6)


def test_one_shot_growth_leaves_no_basis_alive(monkeypatch):
    # Without a reference cycle the builder and its bases go away on return,
    # with no garbage collection.
    made = []
    init = EchelonBasis.__init__

    def recording_init(self):
        made.append(weakref.ref(self))
        init(self)

    monkeypatch.setattr(EchelonBasis, "__init__", recording_init)
    pres_list = [poly_pres(R2), mat2_pres(), laurent_pres()]
    gc.collect()
    gc.disable()
    try:
        for pres in pres_list:
            made.clear()
            table = growth_sequence(pres, 4)
            assert made
            assert [ref for ref in made if ref() is not None] == []
            del table
    finally:
        gc.enable()


def all_products_growth(pres, max_level):
    """The coordinate growth loop that forms every generator-times-new-vector product.

    The reference for the builder, which skips a product it can prove
    equal to another one of its level.  Returns the codec, one
    ``(packed rows in leading-key order, new vectors, products formed,
    distinct candidates)`` per level and ``stabilized_at``.
    """
    gens = [algebras._integral_vec(matrix_to_vec(g))
            for g in sorted(set(pres.generators), key=Matrix.sort_key)]
    degree = max((k[2] for vec in gens for k in vec), default=0)
    codec = KeyCodec(pres.size, getattr(pres.ring, "nvars", 0),
                     max(max_level, 1) * max(degree, 1) + 1)
    cols = [codec.by_column(codec.pack_vec(g)) for g in gens]
    ident = codec.pack_vec(algebras._integral_vec(matrix_to_vec(pres.identity)))
    basis = EchelonBasis()
    basis.insert(ident)

    def level(new_vecs, formed, distinct):
        rows = basis.pivot_rows()
        return [rows[k] for k in sorted(rows)], new_vecs, formed, distinct

    new_vecs = [ident]
    levels = [level(new_vecs, 0, 1)]
    for n in range(1, max_level + 1):
        products = [packed_product(col, codec.by_row(b)) for col in cols for b in new_vecs]
        candidates = sorted(products, key=vec_sort_key)
        distinct = [v for i, v in enumerate(candidates) if i == 0 or v != candidates[i - 1]]
        new_vecs = [v for v in distinct if basis.insert(v) == EXTENDED]
        levels.append(level(new_vecs, len(products), len(distinct)))
        if not new_vecs:
            return codec, levels, n - 1
    return codec, levels, None


@st.composite
def commuting_presentations(draw):
    """Central (scalar times I), diagonal and arbitrary generators over QQ or QQ[x1,x2]."""
    ring = draw(st.sampled_from((Q, R2)))
    size = draw(st.integers(1, 3))

    def scalar():
        if ring == Q:
            return draw(COEFFS)
        return Poly(R2, {draw(MONOMIALS): draw(COEFFS) for _ in range(draw(st.integers(0, 2)))})

    kinds = {
        "central": lambda: Matrix.diagonal(ring, [scalar()] * size),
        "diagonal": lambda: Matrix.diagonal(ring, [scalar() for _ in range(size)]),
        "any": lambda: Matrix(ring, [[scalar() for _ in range(size)] for _ in range(size)]),
    }
    gens = [kinds[kind]() for kind in draw(
        st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4))]
    return AlgebraPresentation(ring, size, gens, "commuting")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(commuting_presentations(), st.data())
def test_skipped_products_leave_every_level_as_the_all_products_loop_builds_it(pres, data):
    top = 5 if pres.ring == Q else 4
    # Requests from a first level up to the top, one level at a time, extend
    # the builder past its packing base when an entry has positive degree.
    gens = sorted(set(pres.generators), key=Matrix.sort_key)
    store = FiltrationStore()
    for n in range(data.draw(st.integers(0, top)), top + 1):
        table = growth_sequence(pres, n, store=store)
        (builder,) = store._builders.values()
        new_reps = [level.representatives[dim:] for level, dim in
                    zip(builder.levels, [0] + builder.dims)]
        # What a skip rests on: each recorded product of the last level is exact.
        for (g, c), r in builder._made.items():
            assert gens[g] * new_reps[-2][c] == new_reps[-1][r]
    codec, levels, stabilized_at = all_products_growth(pres, top)
    assert table.stabilized_at == stabilized_at
    assert list(table.dims[: len(levels)]) == [len(rows) for rows, *_ in levels]
    for n, (rows, new_vecs, _, _) in enumerate(levels):
        level = table.level(n)
        level_codec, level_rows = level.packed_basis()
        assert [level_codec.repack(row, codec) for row in level_rows] == rows
        assert [level_codec.repack(vec, codec) for vec in level._new_vecs] == new_vecs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(small_presentations(sizes=(1, 3)), commuting_presentations()))
def test_every_level_records_which_product_made_each_new_vector(pres):
    # The outcome record the skip rule reads, kept on every level whether
    # or not any generators commute: each new vector has a recorded
    # (generator, parent) pair, and each recorded product is the vector
    # it maps to.
    top = 5 if pres.ring == Q else 4
    gens = [algebras._integral_vec(matrix_to_vec(g))
            for g in sorted(set(pres.generators), key=Matrix.sort_key)]
    store = FiltrationStore()
    for n in range(1, top + 1):
        growth_sequence(pres, n, store=store)
        (builder,) = store._builders.values()
        if len(builder.levels) <= n:
            break  # stabilized below n: no level was built by this request
        level, below = builder.levels[n], builder.levels[n - 1]
        codec = level.packed_basis()[0]
        cols = [codec.by_column(codec.pack_vec(g)) for g in gens]
        parents = [below.packed_basis()[0].repack(v, codec) for v in below._new_vecs]
        recorded = set()
        for (g, c), b in builder._made.items():
            assert packed_product(cols[g], codec.by_row(parents[c])) == level._new_vecs[b]
            recorded.add(b)
        assert recorded == set(range(len(level._new_vecs))), n


@pytest.mark.parametrize("m, level, formed_by_every_pair", [(3, 10, 2020), (4, 5, 625)])
def test_a_closure_filtration_forms_each_distinct_product_once(monkeypatch, m, level,
                                                               formed_by_every_pair):
    # The closure <D, e_1 I, ..., e_m I> of exbig m has commuting generators.
    closure = trace_algebra_generators(build_diagonal_embedding_example(m)[0], 1).closure
    _, levels, _ = all_products_growth(closure, level)
    assert sum(formed for *_, formed, _ in levels) == formed_by_every_pair
    distinct = sum(count for *_, count in levels[1:])
    calls = []
    real = algebras.packed_product

    def counting(left, right):
        calls.append(None)
        return real(left, right)

    monkeypatch.setattr(algebras, "packed_product", counting)
    table = growth_sequence(closure, level)
    pairs = len(closure.generators) * (len(closure.generators) - 1) // 2
    # Level 2 forms both g*h and h*g of each pair: that decides they commute.
    assert len(calls) <= distinct + pairs
    assert list(table.dims) == [len(rows) for rows, *_ in levels]


def test_presentation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation(Q, 2, [], "empty")
    with pytest.raises(ShapeMismatchError):
        AlgebraPresentation(Q, 2, [Matrix(Q, [[1]])], "wrong-size")



def _exbig3_closure():
    return trace_algebra_generators(build_diagonal_embedding_example(3)[0], 1).closure


def _polynomial_pair():
    x1, x2 = R2.gens()
    return AlgebraPresentation(
        R2, 2, [Matrix(R2, [[x1, 1], [0, x2]]), Matrix(R2, [[x2, 0], [x1, 2]])], "pair")


@pytest.mark.parametrize("make, top", [(_exbig3_closure, 7), (_polynomial_pair, 4)],
                         ids=["exbig3-closure", "QQ[x1,x2]"])
def test_levels_read_out_of_order_equal_the_all_products_reference(make, top):
    pres = make()
    table = growth_sequence(pres, top)
    codec, levels, _ = all_products_growth(pres, top)
    assert list(table.dims) == [len(rows) for rows, *_ in levels]
    reps, want_reps = [], []
    for _, new_vecs, *_ in levels:
        reps += [matrix_from_vec(pres.ring, (pres.size, pres.size), codec.unpack_vec(v))
                 for v in new_vecs]
        want_reps.append(tuple(reps))
    # Levels share row dicts, so reducing one level must leave the rows the
    # others keep as they were.
    kept = [[dict(row) for row in level._rows.values()] for level in table.levels]
    order = (top, 0, top // 2)
    for n in order + order:
        level, want_rows = table.level(n), levels[n][0]
        level_codec, level_rows = level.packed_basis()
        assert [level_codec.repack(row, codec) for row in level_rows] == want_rows
        assert level.snapshot.rows == tuple(codec.unpack_vec(row) for row in want_rows)
        assert level.representatives == want_reps[n]
        for m, other in enumerate(table.levels):
            if m not in order:
                assert [dict(row) for row in other._rows.values()] == kept[m]
