"""Structure theory of finite-dimensional associative algebras over QQ.

Algebras arrive as matrix presentations whose span closes up; they are
re-encoded as structure constants over QQ and all the structure theory
(radical, nilpotence degree, central primitive idempotents, complement)
runs on that abstract encoding.  The closed span's basis is in reduced
row-echelon form.  Over QQ and QQ[x...] each product b_i*b_j is formed on
the growth filtration's packed rows (``spans.packed_product``), its
coordinates are read at those of its keys that are pivots, and a residual
check proves the product lies in the span; ``FiniteDimAlgebra.coords_of``
reads any matrix at the pivot keys too.

The structure constants are a sparse table: for each (i, j) the nonzero
(k, c) pairs of b_i*b_j, with integral c stored as ``int``.  Products,
the trace form and the center visit only those pairs.  Coordinate
vectors keep integral values as ``int`` as well (basis vectors, the unit,
quotient projections, lifted idempotents), so an algebra with integer
structure constants, such as M_k, UT_k or diag(1..d), runs in int
arithmetic throughout.  Values compare numerically, so every result
equals the one computed with QQ values.

The radical is the kernel of the trace form Tr(L_a L_b) of the left
regular representation, which is exactly the radical in characteristic
zero.  Its Gram matrix comes from the structure constants by Dickson's
identity Tr(L_a L_b) = Tr(L_{ab}) (Cohen, Ivanyos and Wales, JPAA 1997),
in O(dim^3).

Every idempotent comes from one spectral step: for u in a corner eAe and
a rational root r of its minimal polynomial (t - r)^m * c, c is found by
synthetic division and c(u)/c(r) is lifted by the Newton iteration
u <- 3u^2 - 2u^3, which also lifts idempotents through the radical.

Central primitive idempotents come from refining the unit by the primary
idempotents of each center basis element, with no random search; a pair
with z*e = c*e keeps e without a minimal polynomial.  The radical's ideal
check sums z*b_i and b_i*z from the table's pairs, and the quotient by a
zero radical is the algebra itself, so each step costs the nonzeros of
the table rather than its dimension.
Semisimple quotients must split over QQ: a quotient that does not (an
irrational-eigenvalue center, a division algebra block) raises
NotSplitOverBaseError instead of silently extending the base field.

Each simple block is split into primitive idempotents in the semisimple
quotient by the primary idempotents of corner elements; the search tries
the block's corner basis, then candidates drawn from one fixed
pseudo-random stream, so every run gives the same answer.  The stream is
drawn only when a call needs random candidates: a call that splits on
the corner basis owes its block of draws, and the next call that needs
the stream makes the owed draws first, so every candidate is the one an
up-front draw gives.  The idempotents are lifted through the radical,
and the block's matrix units are found in the algebra itself, between
the lifted idempotents.

Every kernel, solve and coordinate computation runs on the one exact
elimination engine, ``EchelonBasis``.

Presentations over QQ(x) are closed under the scalar field first; if the
resulting structure constants are all rational, the computation proceeds
on that rational form (idempotents and radical found there are genuine
ones for the scalar-field algebra, since the algebra is the rational
form tensored up), otherwise the same typed error is raised.

Every derived object is re-verified by exact arithmetic before being
returned; a failed verification raises InternalCheckError.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ._ratio import QQ, ZERO, as_ratio
from .algebras import (
    DEFAULT_BASIS_CAP,
    AlgebraPresentation,
    FiltrationStore,
    _integral_vec,
    growth_sequence,
)
from .errors import (
    InternalCheckError,
    NonStabilizingError,
    NotSplitOverBaseError,
    RingMismatchError,
)
from .matrices import Matrix
from .poly import Poly, PolyRing, RatFuncField, uni_gcd
from .spans import (
    EchelonBasis,
    KeyCodec,
    SpanSnapshot,
    extend_span,
    matrix_from_vec,
    matrix_to_field_vec,
    matrix_to_vec,
    packed_product,
    pivot_pairs,
)

_T_RING = PolyRing(("t",))


# ---------------------------------------------------------------------------
# coordinate vectors
#
# A vector is a dense tuple of dim rational values; integral values are
# kept as ``int`` (``_integral``), so algebras with integer structure
# constants run in int arithmetic.  Values compare numerically, so an int
# vector equals the same vector with QQ values.


def _integral(u) -> tuple:
    """u with each integral value as an int; other values stay QQ."""
    return tuple(c.numerator if c.denominator == 1 else c for c in u)


def _vec_add(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _vec_scale(u: tuple, c) -> tuple:
    return tuple(a * c for a in u)


def _vec_is_zero(u: tuple) -> bool:
    return not any(u)


def _vec_to_dict(u: tuple) -> dict:
    return {(i,): c for i, c in enumerate(u) if c}


def _sparse(u) -> tuple:
    """The nonzero (k, value) pairs of a coordinate list, integral values as int."""
    return tuple((k, c) for k, c in enumerate(_integral(u)) if c)


def _lincomb(coeffs: Sequence, vectors: Sequence[tuple], dim: int) -> tuple:
    """sum c * v over the nonzero coefficients."""
    out = (0,) * dim
    for c, v in zip(coeffs, vectors):
        if c:
            out = _vec_add(out, _vec_scale(v, c))
    return out


def _coord_span(vectors: Sequence[tuple]):
    basis = EchelonBasis()
    return basis, extend_span(basis, map(_vec_to_dict, vectors), vectors)


def _kernel(basis: EchelonBasis, ncols: int) -> list:
    """Canonical null-space basis of an echelon basis over keys (0,)..(ncols-1,)."""
    return [_integral(v) for v in basis.kernel([(i,) for i in range(ncols)], 1)]


def _null_space(rows: Sequence[Sequence], ncols: int) -> list:
    """Canonical kernel basis of a QQ matrix given by its rows."""
    basis = EchelonBasis()
    for row in rows:
        basis.insert(_vec_to_dict(row))
    return _kernel(basis, ncols)


# ---------------------------------------------------------------------------
# abstract structure-constant algebra


@dataclass(frozen=True)
class StructureAlgebra:
    """Finite-dimensional QQ-algebra given by structure constants.

    ``table[i][j]`` lists the nonzero coordinates of basis_i * basis_j as
    (k, c) pairs in increasing k, integral c as ``int``; products visit
    only these pairs.
    """

    dim: int
    table: tuple
    unit: tuple

    def mul(self, u: tuple, v: tuple) -> tuple:
        out = [0] * self.dim
        right = [(j, vj) for j, vj in enumerate(v) if vj]
        for i, ui in enumerate(u):
            if not ui:
                continue
            ti = self.table[i]
            for j, vj in right:
                c = ui * vj
                for k, t in ti[j]:
                    out[k] += c * t
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def min_poly(self, u: tuple, unit: Optional[tuple] = None) -> Poly:
        """Monic minimal polynomial of u (over a custom unit if given)."""
        one = self.unit if unit is None else unit
        powers = [one]
        while True:
            nxt = self.mul(powers[-1], u)
            sol = EchelonBasis.solve([_vec_to_dict(p) for p in powers], _vec_to_dict(nxt))
            if sol is not None:
                coeffs = [-c for c in sol] + [1]
                return Poly.from_uni_coeffs(_T_RING, coeffs)
            powers.append(nxt)
            if len(powers) > self.dim + 1:
                raise InternalCheckError("minimal polynomial exceeds the algebra dimension")

    def evaluate(self, coeffs: Sequence, u: tuple, unit: Optional[tuple] = None) -> tuple:
        """Horner evaluation at u of the polynomial with these coefficients,
        lowest degree first."""
        one = self.unit if unit is None else unit
        acc = (0,) * self.dim
        for c in reversed(_integral(coeffs)):
            acc = self.mul(acc, u)
            if c:
                acc = _vec_add(acc, _vec_scale(one, c))
        return acc


# ---------------------------------------------------------------------------
# building algebras from matrix presentations


@dataclass(frozen=True)
class FiniteDimAlgebra:
    """A closed matrix span with rational structure constants.

    ``span`` holds the basis as reduced-echelon rows (integral values as
    ``int`` over QQ and QQ[x...], scalar-field rows over QQ(x)), so the
    coordinates of a matrix are read at its pivot keys.
    """

    core: StructureAlgebra
    basis: tuple  # Matrix objects, canonical reduced-echelon family
    presentation: AlgebraPresentation = field(repr=False)
    span: SpanSnapshot = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.core.dim

    @property
    def ring(self):
        return self.presentation.ring

    @property
    def size(self) -> int:
        return self.presentation.size

    def from_coords(self, coords: Sequence) -> Matrix:
        """sum c_i * b_i.  Over QQ and QQ[x...] it is summed on the span's
        sparse rows, so integral coordinates stay ints until the matrix."""
        if isinstance(self.ring, RatFuncField):
            return _combine(self.ring, self.size, coords, self.basis)
        vec = {}
        for c, row in zip(_integral(coords), self.span.rows):
            if c:
                for k, v in row.items():
                    vec[k] = vec.get(k, 0) + c * v
        return matrix_from_vec(self.ring, (self.size, self.size), vec)

    def coords_of(self, mat: Matrix) -> list:
        """Scalar-field coordinates of ``mat`` in the stored basis."""
        ring = self.ring
        if isinstance(ring, RatFuncField):
            coords = self.span.coordinates(matrix_to_field_vec(mat), ring.one)
        else:
            coords = self.span.coordinates(_integral_vec(matrix_to_vec(mat)), 1)
        if coords is None:
            raise ValueError("matrix does not lie in the algebra's scalar span")
        return coords


def _combine(ring, size: int, coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """sum c * m over the nonzero coefficients, accumulated entry by entry."""
    rows = [[ring.zero] * size for _ in range(size)]
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        c = ring.coerce(c)
        for acc, row in zip(rows, m.rows):
            for j, e in enumerate(row):
                if e:
                    acc[j] = acc[j] + e * c
    return Matrix(ring, rows)


def close_to_fdalg(
    pres: AlgebraPresentation,
    *,
    level_cap: int = 30,
    basis_cap: int = DEFAULT_BASIS_CAP,
    store: Optional[FiltrationStore] = None,
) -> FiniteDimAlgebra:
    """Close the presentation's span and encode it by structure constants.

    Over QQ (or a polynomial ring) the growth filtration must stabilize
    within ``level_cap`` levels (taken from ``store`` when given); over
    QQ(x) the scalar-field span closes within matrix-size^2 steps but its
    structure constants must all be rational numbers.
    """
    if isinstance(pres.ring, RatFuncField):
        return _close_scalar_field(pres)
    table = growth_sequence(pres, level_cap, basis_cap=basis_cap, store=store)
    if table.stabilized_at is None:
        raise NonStabilizingError(
            f"{pres.label!r} did not stabilize within {level_cap} levels "
            f"(dimension reached {table.dims[-1]})"
        )
    # The final level's reduced-echelon rows, integral values as ints: the
    # coordinates of a matrix are read at their pivot keys, and a residual
    # check proves membership.
    codec, packed = table.level(table.max_level).packed_basis()
    packed = [_integral_vec(row) for row in packed]
    rows = tuple({codec.unpack(k): c for k, c in row.items()} for row in packed)
    shape = (pres.size, pres.size)
    basis = tuple(matrix_from_vec(pres.ring, shape, row) for row in rows)
    span = SpanSnapshot(rows)
    # A product of two basis elements has degree up to twice the span's top
    # degree.  The packed keys must hold that without a digit carrying, or a
    # term outside the span could land on a key inside it and pass the
    # residual check; the growth run's base need not cover it.
    top = max((k[2] for row in rows for k in row), default=0)
    if 2 * top >= codec.base:
        wide = KeyCodec(codec.size, codec.nvars, 2 * top + 1)
        codec, packed = wide, [codec.repack(row, wide) for row in packed]
    leads = {min(row): k for k, row in enumerate(packed)}

    def pairs(product: dict) -> tuple:
        sol = pivot_pairs(product, leads, packed)
        if sol is None:
            raise InternalCheckError("closed span is not closed under products")
        return tuple((k, c.numerator if c.denominator == 1 else c) for k, c in sol)

    lefts = [codec.by_column(row) for row in packed]
    rights = [codec.by_row(row) for row in packed]
    struct_rows = tuple(tuple(pairs(packed_product(a, b)) for b in rights) for a in lefts)
    unit = span.coordinates(_integral_vec(matrix_to_vec(pres.identity)), 1)
    if unit is None:
        raise InternalCheckError("identity missing from a unital span closure")
    core = StructureAlgebra(len(basis), struct_rows, _integral(unit))
    return FiniteDimAlgebra(core, basis, pres, span)


def _close_scalar_field(pres: AlgebraPresentation) -> FiniteDimAlgebra:
    ring = pres.ring
    ident = pres.identity
    basis_span = EchelonBasis()
    basis_span.insert(matrix_to_field_vec(ident))
    frontier = [ident]
    while frontier:
        products = sorted(
            {g * b for g in pres.generators for b in frontier}, key=Matrix.sort_key
        )
        frontier = extend_span(basis_span, [matrix_to_field_vec(m) for m in products], products)
    snapshot = basis_span.snapshot()
    basis = []
    for row in snapshot.rows:
        cells = [[ring.zero] * pres.size for _ in range(pres.size)]
        for (i, j), value in row.items():
            cells[i][j] = value
        basis.append(Matrix(ring, cells))
    basis = tuple(basis)

    def rational_coords(mat: Matrix) -> list:
        coords = snapshot.coordinates(matrix_to_field_vec(mat), ring.one)
        if coords is None:
            raise InternalCheckError("scalar-field closure is not closed under products")
        rational = []
        for c in coords:
            if not c.is_constant:
                raise NotSplitOverBaseError(
                    f"{pres.label!r}: the scalar-field closure has no rational "
                    "structure constants in its canonical basis; structure theory "
                    "over the base field is not available for this input"
                )
            rational.append(c.constant_value())
        return rational

    struct_rows = tuple(
        tuple(_sparse(rational_coords(bi * bj)) for bj in basis) for bi in basis
    )
    unit = _integral(rational_coords(ident))
    core = StructureAlgebra(len(basis), struct_rows, unit)
    return FiniteDimAlgebra(core, basis, pres, snapshot)


# ---------------------------------------------------------------------------
# radical


def _trace_form(core: StructureAlgebra) -> list:
    """Gram matrix Tr(L_{b_i} L_{b_j}) of the regular trace form.

    Dickson's identity Tr(L_a L_b) = Tr(L_{ab}) turns it into t . (b_i b_j)
    with t_k = Tr(L_{b_k}) = sum_j c_{kj}^j, which costs O(dim^3) instead
    of building every L_{b_i} for O(dim^4).
    """
    n = core.dim
    trace = [sum(c for j, pairs in enumerate(core.table[k]) for l, c in pairs if l == j)
             for k in range(n)]
    return [[sum(c * trace[k] for k, c in pairs) for pairs in row] for row in core.table]


def radical_coords(core: StructureAlgebra) -> list:
    """Canonical kernel basis of the regular trace form; equals the radical.

    Verified on every call: the result is a two-sided ideal and is
    nilpotent, otherwise InternalCheckError is raised.
    """
    return _radical(core)[0]


def _radical(core: StructureAlgebra):
    """The radical's canonical basis and its nilpotence degree, both verified."""
    kernel = _null_space(_trace_form(core), core.dim)
    return kernel, _verify_radical(core, kernel)


def _verify_radical(core: StructureAlgebra, rad: Sequence[tuple]) -> int:
    """Check that rad spans a nilpotent two-sided ideal; return its degree.

    z*b_i and b_i*z are summed from the table's pairs at z's nonzeros,
    ``table[a][i]`` and ``table[i][a]``.
    """
    span, reps = _coord_span(rad)
    table = core.table
    for z in reps:
        support = [(a, c) for a, c in enumerate(z) if c]
        for i in range(core.dim):
            for product in (_pair_sum((c, table[a][i]) for a, c in support),
                            _pair_sum((c, table[i][a]) for a, c in support)):
                if not span.contains(product):
                    raise InternalCheckError("trace-form kernel is not a two-sided ideal")
    return nilpotence_degree_coords(core, reps)


def _pair_sum(terms) -> dict:
    """sum c * b over (c, table pairs of b) terms, as a sparse vector keyed (k,)."""
    out = {}
    for c, pairs in terms:
        for k, t in pairs:
            key = (k,)
            out[key] = out.get(key, 0) + c * t
    return {k: v for k, v in out.items() if v}


def nilpotence_degree_coords(core: StructureAlgebra, rad: Sequence[tuple]) -> int:
    """Least m with (span of rad)^m = 0; 1 for the zero subspace."""
    _, reps = _coord_span(rad)
    if not reps:
        return 1
    current = reps
    degree = 1
    while current:
        degree += 1
        if degree > core.dim + 1:
            raise InternalCheckError("nilpotence degree exceeds the dimension bound")
        _, current = _coord_span([core.mul(u, v) for u in current for v in reps])
    return degree


# ---------------------------------------------------------------------------
# quotient by an ideal


def quotient_by_ideal(core: StructureAlgebra, ideal: Sequence[tuple]):
    """Quotient algebra plus the projection/section coordinate maps.

    The quotient by the zero ideal is the algebra itself.
    """
    span, _ = _coord_span(ideal)
    if not span.dimension:
        return core, _integral, tuple
    pivot_positions = [k[0] for k in span.leading_keys()]
    free_positions = [i for i in range(core.dim) if i not in set(pivot_positions)]
    index_of = {pos: idx for idx, pos in enumerate(free_positions)}

    def project(u: tuple) -> tuple:
        residue = span.reduce(_vec_to_dict(u))
        out = [0] * len(free_positions)
        for (pos,), value in residue.items():
            out[index_of[pos]] = value
        return _integral(out)

    def section(ubar: tuple) -> tuple:
        out = [0] * core.dim
        for idx, value in enumerate(ubar):
            out[free_positions[idx]] = value
        return tuple(out)

    # The section of the j-th quotient basis vector is a core basis vector.
    lifts = [core.basis_vector(pos) for pos in free_positions]
    table = tuple(tuple(_sparse(project(core.mul(a, b))) for b in lifts) for a in lifts)
    bar = StructureAlgebra(len(free_positions), table, project(core.unit))
    return bar, project, section


# ---------------------------------------------------------------------------
# rational roots of integer polynomials


def _divisors(n: int) -> list:
    n = abs(n)
    out = set()
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.add(f)
            out.add(n // f)
        f += 1
    return sorted(out)


def rational_roots(poly: Poly) -> list:
    """All rational roots of a nonzero univariate QQ-polynomial, sorted."""
    coeffs = poly.uni_coeffs()
    if not coeffs:
        raise ValueError("zero polynomial")
    roots = []
    if not coeffs[0]:
        roots.append(ZERO)
        while coeffs and not coeffs[0]:
            coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return sorted(set(roots))
    from math import gcd, lcm

    denominator_lcm = 1
    for c in coeffs:
        denominator_lcm = lcm(denominator_lcm, int(c.denominator))
    ints = [int(c.numerator) * (denominator_lcm // int(c.denominator)) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for candidate in (QQ(p, q), QQ(-p, q)):
                acc = ZERO
                for c in reversed(ints):
                    acc = acc * candidate + c
                if not acc:
                    roots.append(candidate)
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# spectral idempotents


def _spectral_idempotents(core: StructureAlgebra, u: tuple, e: tuple, mu: Poly):
    """Primary idempotents of u in eAe, one per rational root of its
    minimal polynomial mu, roots in increasing order.

    For a root r write mu = (t - r)^m * c with c(r) != 0.  Then c(u)/c(r)
    is 0 on the other primary components of QQ[u]e and 1 plus a nilpotent
    on the r-component, so its Newton lift is the unique idempotent of
    QQ[u]e congruent to it modulo the nilradical: the Lagrange projector
    when mu is squarefree.  The lift's stationarity check verifies it.
    """
    if mu.degree() == 1:
        yield e
        return
    for root in rational_roots(mu):
        cofactor, multiplicity = mu.uni_coeffs(), 0
        while True:
            # Synthetic division by t - root: the quotient's coefficients from
            # the top, then the remainder, which is the cofactor's value at root.
            quotient = list(itertools.accumulate(reversed(cofactor), lambda a, c: a * root + c))
            at_root = quotient.pop()
            if at_root:
                break
            cofactor, multiplicity = quotient[::-1], multiplicity + 1
        if len(cofactor) == 1:
            yield e
            continue
        value = _vec_scale(core.evaluate(cofactor, u, unit=e), QQ(1) / at_root)
        yield _newton_idempotent(core, value, multiplicity.bit_length() + 1)


# ---------------------------------------------------------------------------
# central primitive idempotents (semisimple input)


def central_primitive_idempotents_coords(core: StructureAlgebra) -> list:
    """Coordinates of the central primitive idempotents of a split
    semisimple algebra.

    The unit is refined by the primary idempotents of each center basis
    element z in turn: inside each current idempotent e, z*e has a
    squarefree minimal polynomial (the center is semisimple) whose roots
    split e.  Afterwards every center element is a scalar on each
    idempotent, so the family is primitive.  No search is involved:
    NotSplitOverBaseError is raised only when some minimal polynomial has
    an irreducible factor of degree 2 or more.
    """
    if radical_coords(core):
        raise ValueError("central_primitive_idempotents expects a semisimple algebra")
    center = _center_coords(core)
    if len(center) == 1:
        return [core.unit]
    idems = [core.unit]
    for z in center:
        refined = []
        for e in idems:
            u = core.mul(z, e)
            if _is_multiple(u, e):
                # z*e = c*e: the minimal polynomial is t - c, whose one root gives e.
                refined.append(e)
                continue
            mu = core.min_poly(u, unit=e)
            if uni_gcd(mu, mu.derivative()).degree() != 0:
                raise InternalCheckError("center element has a non-squarefree minimal polynomial")
            pieces = list(_spectral_idempotents(core, u, e, mu))
            if len(pieces) != mu.degree():
                raise NotSplitOverBaseError(
                    "the center's minimal polynomial has an irrational root; "
                    "the semisimple quotient does not split over QQ"
                )
            refined.extend(pieces)
        idems = refined
    _verify_idempotent_family(core, idems, center)
    return sorted(idems)


def _is_multiple(u: tuple, e: tuple) -> bool:
    """Whether u = c*e for a scalar c, e nonzero: u*e_p = e*u_p at e's first nonzero p."""
    p = next(k for k, c in enumerate(e) if c)
    return _vec_scale(u, e[p]) == _vec_scale(e, u[p])


def _center_coords(core: StructureAlgebra) -> list:
    # Row (j, k) holds the k-th coordinate of b_i*b_j - b_j*b_i at column i:
    # a constant c of b_a*b_b adds c at (b, k) column a, and takes c from
    # (a, k) column b.
    rows = {}
    for a, row in enumerate(core.table):
        for b, pairs in enumerate(row):
            for k, c in pairs:
                plus, minus = rows.setdefault((b, k), {}), rows.setdefault((a, k), {})
                plus[(a,)] = plus.get((a,), 0) + c
                minus[(b,)] = minus.get((b,), 0) - c
    basis = EchelonBasis()
    for key in sorted(rows):
        basis.insert({i: c for i, c in rows[key].items() if c})
    return _kernel(basis, core.dim)


def _verify_idempotent_family(core: StructureAlgebra, idems: Sequence[tuple], center):
    # No separate idempotence check: for an orthogonal family summing to the
    # unit, e = e * sum(idems) = e^2.
    total = (0,) * core.dim
    for e in idems:
        total = _vec_add(total, e)
    if total != core.unit:
        raise InternalCheckError("central idempotents do not sum to the unit")
    for a in idems:
        for b in idems:
            if a is not b and not _vec_is_zero(core.mul(a, b)):
                raise InternalCheckError("central idempotents are not orthogonal")
    for e in idems:
        _, reps = _coord_span([core.mul(z, e) for z in center])
        if len(reps) != 1:
            raise InternalCheckError("a spectral projector is not primitive in the center")


# ---------------------------------------------------------------------------
# primitive idempotents and matrix units inside a semisimple algebra


def _corner_basis(core: StructureAlgebra, e: tuple) -> list:
    vectors = [core.mul(e, core.mul(core.basis_vector(i), e)) for i in range(core.dim)]
    _, reps = _coord_span(vectors)
    return reps


def _primitive_idempotents(core: StructureAlgebra, block_idem: tuple) -> list:
    """Split a central idempotent of a semisimple algebra into primitive
    orthogonal idempotents, by spectral splitting of corner elements."""
    draws = _OwedDraws()
    finished = []
    stack = [block_idem]
    while stack:
        e = stack.pop()
        corner = _corner_basis(core, e)
        if len(corner) == 1:
            finished.append(e)
            continue
        split = _try_split(core, e, corner, draws)
        if split is None:
            raise NotSplitOverBaseError(
                "no rational splitting element found in a matrix block; "
                "the block may be a division algebra over QQ"
            )
        f = split
        stack.append(f)
        stack.append(_vec_sub(e, f))
    return sorted(finished)


_RANDOM_CANDIDATES = 24


class _OwedDraws:
    """The split search's one stream, ``random.Random(0)``, drawn only when used.

    Every ``_try_split`` call owns a block of 24*dim*|corner| draws, in the
    order of the random vectors and their coordinates.  A call that splits
    on the corner basis only adds its block to ``owed``; the first call that
    needs random candidates makes and discards the owed draws, then draws
    its own block.  Every candidate is then the one that drawing each block
    up front gives, and a search that never needs one draws nothing.
    """

    __slots__ = ("rng", "owed")

    def __init__(self):
        self.rng = random.Random(0)
        self.owed = 0

    def owe(self, dim: int, width: int) -> None:
        self.owed += _RANDOM_CANDIDATES * dim * width

    def block(self, dim: int, width: int) -> list:
        randint = self.rng.randint
        for _ in range(self.owed):
            randint(-3, 3)
        self.owed = 0
        return [
            [[randint(-3, 3) for _ in range(width)] for _ in range(dim)]
            for _ in range(_RANDOM_CANDIDATES)
        ]


def _try_split(core, e, corner, draws: _OwedDraws):
    """A primary idempotent of a corner basis element, else of a random one."""
    for u in corner:
        f = _split_off(core, e, u)
        if f is not None:
            draws.owe(core.dim, len(corner))
            return f
    for coeffs in draws.block(core.dim, len(corner)):
        u = tuple(sum(r * v[k] for r, v in zip(row, corner)) for k, row in enumerate(coeffs))
        f = _split_off(core, e, u)
        if f is not None:
            return f
    return None


def _split_off(core, e, u):
    mu = core.min_poly(u, unit=e)
    for f in _spectral_idempotents(core, u, e, mu):
        if f != e:
            return f
    return None


def _matrix_units(core: StructureAlgebra, prims: Sequence[tuple], rad_span: EchelonBasis) -> dict:
    """Matrix units e_ab of one split block from its primitive idempotents.

    For t > 0, x = f0*b_i*ft is taken at the first basis vector b_i whose
    product lies outside the radical.  x is then invertible modulo the
    radical and f0*A*f0 is local, so x*y = f0 has a solution y in ft*A*f0,
    and y*x = ft follows.  The units are e_ab = y_a*x_b (x_0 = y_0 = f0).
    """
    k = len(prims)
    f0 = prims[0]
    firsts = {0: f0}   # e_{0,t}
    backs = {0: f0}    # e_{t,0}
    for t in range(1, k):
        ft = prims[t]
        x = None
        for i in range(core.dim):
            candidate = core.mul(f0, core.mul(core.basis_vector(i), ft))
            if not rad_span.contains(_vec_to_dict(candidate)):
                x = candidate
                break
        if x is None:
            raise InternalCheckError("primitive idempotents of one block do not connect")
        y_space = []
        for i in range(core.dim):
            candidate = core.mul(ft, core.mul(core.basis_vector(i), f0))
            if not _vec_is_zero(candidate):
                y_space.append(candidate)
        _, y_reps = _coord_span(y_space)
        sol = EchelonBasis.solve(
            [_vec_to_dict(core.mul(x, yr)) for yr in y_reps], _vec_to_dict(f0)
        )
        if sol is None:
            raise InternalCheckError("matrix-unit equation x*y = e has no solution")
        y = _integral(_lincomb(sol, y_reps, core.dim))
        if core.mul(y, x) != ft:
            raise InternalCheckError("matrix-unit pair fails y*x = f")
        firsts[t] = x
        backs[t] = y
    units = {(a, b): core.mul(backs[a], firsts[b]) for a in range(k) for b in range(k)}
    for a in range(k):
        if units[(a, a)] != prims[a]:
            raise InternalCheckError("diagonal matrix unit differs from its idempotent")
    zero = (0,) * core.dim
    for (a, b), u in units.items():
        for (c, d), v in units.items():
            if core.mul(u, v) != (units[(a, d)] if b == c else zero):
                raise InternalCheckError("matrix units break the relations")
    return units


# ---------------------------------------------------------------------------
# the Wedderburn-style decomposition


@dataclass(frozen=True)
class WedderburnData:
    """Radical, nilpotence degree, split complement and its block idempotents."""

    algebra: FiniteDimAlgebra
    radical_basis: tuple          # matrices
    nilpotence_degree: int
    complement_basis: tuple       # matrices
    idempotents: tuple            # matrices, one per simple block
    radical_coords: tuple = field(repr=False)
    complement_coords: tuple = field(repr=False)
    idempotent_coords: tuple = field(repr=False)
    block_units_coords: tuple = field(repr=False)  # per block: dict (a,b) -> coords


def _newton_idempotent(core: StructureAlgebra, u: tuple, max_iter: int) -> tuple:
    u = _integral(u)
    for _ in range(max_iter):
        uu = core.mul(u, u)
        if uu == u:
            return u
        # u <- 3u^2 - 2u^3
        u = _integral(_vec_sub(_vec_scale(uu, 3), _vec_scale(core.mul(uu, u), 2)))
    uu = core.mul(u, u)
    if uu != u:
        raise InternalCheckError("idempotent lifting did not become stationary")
    return u


def wedderburn_complement(algebra: FiniteDimAlgebra) -> WedderburnData:
    """Split complement of the radical, with block matrix units.

    Primitive idempotents are computed in the semisimple quotient, lifted
    one at a time through the radical with the cubic Newton iteration
    (inside the corner cut out by the previously lifted ones, which keeps
    the family orthogonal), and each block's matrix units are then found
    in the algebra itself, between the lifted idempotents.  The split
    search draws its candidates from one fixed stream, so the result is
    the same on every run.  All the defining identities are re-checked
    exactly.
    """
    core = algebra.core
    rad, degree = _radical(core)
    rad_span, rad_reps = _coord_span(rad)
    bar, project, section = quotient_by_ideal(core, rad)
    blocks_bar = [
        _primitive_idempotents(bar, e_bar) for e_bar in central_primitive_idempotents_coords(bar)
    ]

    max_iter = max(4, degree.bit_length() + 2)
    block_units = []
    idempotent_vectors = []  # one per block: the sum of its lifted idempotents
    lifted_prims = []
    running = (0,) * core.dim
    one = core.unit
    for prims_bar in blocks_bar:
        prims = []
        block_idem = (0,) * core.dim
        for p_bar in prims_bar:
            shield = _vec_sub(one, running)
            u = core.mul(shield, core.mul(section(p_bar), shield))
            f = _newton_idempotent(core, u, max_iter)
            if project(f) != p_bar:
                raise InternalCheckError("lifted idempotent has the wrong image")
            for g in lifted_prims:
                if not _vec_is_zero(core.mul(f, g)) or not _vec_is_zero(core.mul(g, f)):
                    raise InternalCheckError("lifted idempotents are not orthogonal")
            lifted_prims.append(f)
            prims.append(f)
            block_idem = _vec_add(block_idem, f)
            running = _vec_add(running, f)
        block_units.append(_matrix_units(core, prims, rad_span))
        idempotent_vectors.append(block_idem)
    if running != core.unit:
        raise InternalCheckError("lifted idempotents do not sum to the identity")

    complement_vectors = [u for units in block_units for u in units.values()]
    comp_span, comp_reps = _coord_span(sorted(complement_vectors))
    if len(comp_reps) != bar.dim:
        raise InternalCheckError("complement dimension differs from the quotient dimension")
    for u in comp_reps:
        for v in comp_reps:
            if not comp_span.contains(_vec_to_dict(core.mul(u, v))):
                raise InternalCheckError("complement is not closed under multiplication")
    if not comp_span.contains(_vec_to_dict(core.unit)):
        raise InternalCheckError("complement does not contain the identity")
    combined, _ = _coord_span(list(comp_reps) + list(rad_reps))
    if combined.dimension != core.dim:
        raise InternalCheckError("complement plus radical do not fill the algebra")

    for i, e in enumerate(idempotent_vectors):
        for j, f in enumerate(idempotent_vectors):
            product = core.mul(e, f)
            expected = e if i == j else (0,) * core.dim
            if product != expected:
                raise InternalCheckError("block idempotents are not orthogonal idempotents")
        for u in comp_reps:
            if core.mul(e, u) != core.mul(u, e):
                raise InternalCheckError("a block idempotent is not central in the complement")

    return WedderburnData(
        algebra=algebra,
        radical_basis=tuple(algebra.from_coords(v) for v in rad_reps),
        nilpotence_degree=degree,
        complement_basis=tuple(algebra.from_coords(v) for v in comp_reps),
        idempotents=tuple(algebra.from_coords(v) for v in idempotent_vectors),
        radical_coords=tuple(rad_reps),
        complement_coords=tuple(comp_reps),
        idempotent_coords=tuple(idempotent_vectors),
        block_units_coords=tuple(block_units),
    )


# ---------------------------------------------------------------------------
# convenience wrappers on matrices


def radical(algebra: FiniteDimAlgebra) -> tuple:
    """Radical basis as matrices (canonical order)."""
    return tuple(algebra.from_coords(v) for v in radical_coords(algebra.core))


def nilpotence_degree(algebra: FiniteDimAlgebra, rad_matrices: Sequence[Matrix]) -> int:
    coords = [tuple(algebra.coords_of(m)) for m in rad_matrices]
    rational = []
    for vec in coords:
        rational.append(tuple(_require_rational(c) for c in vec))
    return nilpotence_degree_coords(algebra.core, rational)


def _require_rational(value):
    if isinstance(value, (int,)) or hasattr(value, "denominator"):
        return as_ratio(value)
    if value.is_constant:
        return value.constant_value()
    raise RingMismatchError("expected a rational coordinate")


def central_primitive_idempotents(algebra: FiniteDimAlgebra) -> list:
    """Central primitive idempotents of a semisimple algebra, as matrices."""
    coords = central_primitive_idempotents_coords(algebra.core)
    return [algebra.from_coords(v) for v in coords]


def decompose_element(
    algebra: FiniteDimAlgebra, data: WedderburnData, mat: Matrix
) -> tuple:
    """Split a matrix of the algebra as (complement part, radical part)."""
    coords = algebra.coords_of(mat)
    ring = algebra.ring
    if isinstance(ring, RatFuncField):
        one = ring.one

        def lift(vec):
            return {(i,): ring.coerce(c) for i, c in enumerate(vec) if c}
    else:
        one = QQ(1)

        def lift(vec):
            return _vec_to_dict(vec)

    columns = [lift(v) for v in data.complement_coords] + [
        lift(v) for v in data.radical_coords
    ]
    target = {(i,): c for i, c in enumerate(coords) if c}
    sol = EchelonBasis.solve(columns, target, one)
    if sol is None:
        raise InternalCheckError("decomposition solve failed inside the algebra")
    ncomp = len(data.complement_coords)
    bar = algebra.from_coords(_lincomb(sol[:ncomp], data.complement_coords, algebra.dim))
    nil = algebra.from_coords(_lincomb(sol[ncomp:], data.radical_coords, algebra.dim))
    if bar + nil != mat:
        raise InternalCheckError("decomposition parts do not sum back to the element")
    return bar, nil
