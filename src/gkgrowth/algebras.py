"""Algebra presentations and the growth filtration builder.

A presentation names the unital subalgebra of d-by-d matrices generated
by a finite set of matrices over a coefficient ring.  The growth table
of a presentation records, level by level, the QQ-dimension of the span
of all products of at most n generators (the empty product 1 included),
together with span snapshots that support membership queries.

Level n+1 candidates are generator-times-representative products only;
the span of products of length <= n+1 equals the span of the generators
times the level-n span plus the level-n span, and the stored
representatives span each level, so nothing is missed.  Candidates are
sorted by a canonical key before insertion, which makes tables
(dimensions and bases) identical under permutation of the generator
list and independent of the worker count.

Over QQ and QQ[x...] the candidates are multiplied in integer
coordinates: generators and representatives are sparse coordinate
vectors whose integral values are ints and whose keys are packed into
single ints (``spans.KeyCodec``), and products are formed on those
vectors.  Packed keys sort like the tuple keys and values compare
numerically, so the candidate order and the greedy choice of
representatives are those of plain matrix products.  Each level keeps
its basis rows and new vectors packed; its snapshot and representatives
(tuple keys, QQ values only) are built on first read.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import CapExceededError, RingMismatchError, ShapeMismatchError
from .matrices import Matrix
from .poly import RatFuncField
from .spans import (
    EXTENDED,
    EchelonBasis,
    KeyCodec,
    SpanSnapshot,
    cleared_vecs,
    matrix_from_vec,
    matrix_to_vec,
    membership_ratfunc,
    packed_product,
    vec_sort_key,
)

DEFAULT_BASIS_CAP = 20000


@dataclass(frozen=True)
class AlgebraPresentation:
    """A finite list of d-by-d generator matrices over a coefficient ring."""

    ring: object
    size: int
    generators: tuple
    label: str = "algebra"

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.size < 1:
            raise ShapeMismatchError("matrix size must be at least 1")
        if not self.generators:
            raise ValueError("a presentation needs at least one generator")
        for g in self.generators:
            if not isinstance(g, Matrix):
                raise TypeError(f"generator {g!r} is not a Matrix")
            if g.ring != self.ring:
                raise RingMismatchError(f"generator over {g.ring}, presentation over {self.ring}")
            if g.shape != (self.size, self.size):
                raise ShapeMismatchError(f"generator shape {g.shape}, expected {(self.size, self.size)}")

    def adjoin(self, extra: Sequence[Matrix], label: Optional[str] = None) -> "AlgebraPresentation":
        """New presentation generated by this one plus ``extra``; self untouched."""
        extra = tuple(extra)
        for m in extra:
            if m.ring != self.ring:
                raise RingMismatchError("adjoined generator over a different ring")
            if m.shape != (self.size, self.size):
                raise ShapeMismatchError("adjoined generator has the wrong shape")
        return AlgebraPresentation(
            self.ring,
            self.size,
            self.generators + extra,
            label if label is not None else self.label + "+adjoined",
        )

    @property
    def identity(self) -> Matrix:
        return Matrix.identity(self.ring, self.size)


def adjoin_generators(pres: AlgebraPresentation, extra: Sequence[Matrix], label: Optional[str] = None):
    return pres.adjoin(extra, label)


class _LevelReader:
    """Reads one growth run's packed rows and vectors at the QQ boundary."""

    __slots__ = ("codec", "ring", "shape", "_rows")

    def __init__(self, codec: KeyCodec, ring, shape: tuple):
        self.codec = codec
        self.ring = ring
        self.shape = shape
        self._rows = {}  # id(packed row) -> (packed row, decoded row)

    def row(self, packed: dict) -> dict:
        # Rows are replaced, never mutated, so levels that share a row
        # share its decoded copy too.
        cached = self._rows.get(id(packed))
        if cached is None:
            cached = self._rows[id(packed)] = (packed, self.codec.unpack_vec(packed))
        return cached[1]

    def matrix(self, packed: dict) -> Matrix:
        return matrix_from_vec(self.ring, self.shape, self.codec.unpack_vec(packed))


class _CoordinateLevel:
    """One filtration level over QQ or QQ[x...], built at the boundary on first read.

    The level keeps the basis rows as they stood after it and the vectors
    it added, all on packed keys.  ``snapshot`` decodes the rows to tuple
    keys and QQ values; ``representatives`` is the previous level's tuple
    followed by this level's new matrices.
    """

    __slots__ = ("_reader", "_rows", "_new_vecs", "_previous", "_snapshot", "_representatives")

    def __init__(self, reader: _LevelReader, rows: dict, new_vecs: list, previous,
                 representatives=None):
        self._reader = reader
        self._rows = rows
        self._new_vecs = new_vecs
        self._previous = previous
        self._snapshot = None
        self._representatives = representatives

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def snapshot(self) -> SpanSnapshot:
        if self._snapshot is None:
            rows = self._rows
            self._snapshot = SpanSnapshot(tuple(self._reader.row(rows[k]) for k in sorted(rows)))
        return self._snapshot

    @property
    def representatives(self) -> tuple:
        if self._representatives is None:
            pending, level = [], self
            while level._representatives is None:
                pending.append(level)
                level = level._previous
            reps = level._representatives
            for level in reversed(pending):
                reps = reps + tuple(self._reader.matrix(v) for v in level._new_vecs)
                level._representatives = reps
        return self._representatives

    def contains(self, mat: Matrix) -> bool:
        return self.snapshot.contains(matrix_to_vec(mat))


class _RatFuncLevel:
    """One filtration level of a presentation over QQ(x).

    Rational functions admit no fixed monomial coordinate system, so the
    level keeps its representative matrices and answers membership by
    clearing denominators of the whole family at query time.
    """

    __slots__ = ("representatives",)

    def __init__(self, representatives: tuple):
        self.representatives = representatives

    @property
    def dimension(self) -> int:
        return len(self.representatives)

    def contains(self, mat: Matrix) -> bool:
        return membership_ratfunc(self.representatives, mat) is not None


@dataclass(frozen=True)
class GrowthTable:
    """dim of the level spans for n = 0..max_level, with span snapshots."""

    presentation: AlgebraPresentation
    max_level: int
    dims: tuple
    levels: tuple = field(repr=False)
    stabilized_at: Optional[int] = None

    @property
    def label(self) -> str:
        return self.presentation.label

    @property
    def stable_dimension(self) -> Optional[int]:
        return self.dims[self.stabilized_at] if self.stabilized_at is not None else None

    def level(self, n: int):
        return self.levels[n]

    def membership_level(self, mat: Matrix, up_to: Optional[int] = None) -> Optional[int]:
        """Least n <= up_to with mat in the level-n span, else None.

        None means only "not found at these levels", never a proof that
        the element lies outside the algebra.
        """
        limit = self.max_level if up_to is None else min(up_to, self.max_level)
        for n in range(limit + 1):
            if self.levels[n].contains(mat):
                return n
        return None


def _pmap(fn, items, workers: int):
    if workers and workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def growth_sequence(
    pres: AlgebraPresentation,
    max_level: int,
    *,
    basis_cap: int = DEFAULT_BASIS_CAP,
    workers: int = 1,
) -> GrowthTable:
    """Level-by-level span dimensions of the presentation's filtration.

    Stops early once a level adds nothing new: the span is then closed
    under multiplication by every generator, so all later levels equal it
    and the remaining dimensions are padded with the stable value.
    Exceeding ``basis_cap`` raises CapExceededError at the insertion
    that passes it, rather than truncating silently.  Over QQ and
    QQ[x...] candidates are multiplied in integer coordinates; ``workers``
    (threads for the candidate products) affects only QQ(x).
    """
    if max_level < 0:
        raise ValueError("max_level must be non-negative")
    if isinstance(pres.ring, RatFuncField):
        return _growth_ratfunc(pres, max_level, basis_cap, workers)
    return _growth_coordinates(pres, max_level, basis_cap)


def _integral_vec(vec: dict) -> dict:
    """``vec`` with each integral value as an int; other values stay QQ."""
    return {k: int(c) if c.denominator == 1 else c for k, c in vec.items()}


def _check_cap(dimension: int, basis_cap: int, n: int, pres) -> None:
    if dimension > basis_cap:
        raise CapExceededError(
            f"basis size {dimension} exceeds cap {basis_cap} at level {n} of {pres.label!r}"
        )


def _growth_coordinates(pres, max_level, basis_cap) -> GrowthTable:
    gen_vecs = [_integral_vec(matrix_to_vec(g)) for g in pres.generators]
    # A level-n candidate has total degree at most n times the largest
    # degree of a generator entry, so no digit of a packed key carries.
    degree = max((k[2] for vec in gen_vecs for k in vec), default=0)
    base = max(max_level, 1) * max(degree, 1) + 1
    codec = KeyCodec(pres.size, getattr(pres.ring, "nvars", 0), base)
    reader = _LevelReader(codec, pres.ring, (pres.size, pres.size))
    basis = EchelonBasis()
    ident = pres.identity
    ident_vec = codec.pack_vec(_integral_vec(matrix_to_vec(ident)))
    basis.insert(ident_vec)
    dims = [1]
    levels = [_CoordinateLevel(reader, basis.pivot_rows(), [ident_vec], None, (ident,))]
    gen_cols = [codec.by_column(codec.pack_vec(g)) for g in gen_vecs]
    new_rows = [codec.by_row(ident_vec)]
    stabilized_at = None
    for n in range(1, max_level + 1):
        candidates = sorted(
            (packed_product(g, b) for g in gen_cols for b in new_rows), key=vec_sort_key
        )
        new_vecs = []
        previous_vec = None
        for vec in candidates:
            if vec == previous_vec:
                continue
            previous_vec = vec
            if basis.insert(vec) == EXTENDED:
                _check_cap(basis.dimension, basis_cap, n, pres)
                new_vecs.append(vec)
        dims.append(basis.dimension)
        levels.append(_CoordinateLevel(reader, basis.pivot_rows(), new_vecs, levels[-1]))
        if not new_vecs:
            # Every generator-times-representative product reduced to zero:
            # the stable span is closed under multiplication by generators.
            stabilized_at = n - 1
            dims.extend([dims[-1]] * (max_level - n))
            levels.extend([levels[-1]] * (max_level - n))
            break
        new_rows = [codec.by_row(v) for v in new_vecs]
    return GrowthTable(pres, max_level, tuple(dims), tuple(levels), stabilized_at)


def _growth_ratfunc(pres, max_level, basis_cap, workers) -> GrowthTable:
    ident = pres.identity
    reps = [ident]
    new_reps = [ident]
    dims = [1]
    levels = [_RatFuncLevel((ident,))]
    gens = pres.generators
    stabilized_at = None
    for n in range(1, max_level + 1):
        products = _pmap(lambda gb: gb[0] * gb[1], [(g, b) for g in gens for b in new_reps], workers)
        candidates = sorted(set(products), key=Matrix.sort_key)
        # No fixed coordinates exist across levels, so the level span is
        # re-echelonized from cleared coordinates of the current family.
        vecs = cleared_vecs(reps + candidates)
        basis = EchelonBasis()
        for v in vecs[: len(reps)]:
            basis.insert(v)
        new_reps = []
        for v, mat in zip(vecs[len(reps):], candidates):
            if basis.insert(v) == EXTENDED:
                _check_cap(basis.dimension, basis_cap, n, pres)
                new_reps.append(mat)
        reps = reps + new_reps
        dims.append(len(reps))
        levels.append(_RatFuncLevel(tuple(reps)))
        if not new_reps:
            stabilized_at = n - 1
            dims.extend([dims[-1]] * (max_level - n))
            levels.extend([levels[-1]] * (max_level - n))
            break
    return GrowthTable(pres, max_level, tuple(dims), tuple(levels), stabilized_at)


def element_membership_at_level(
    pres: AlgebraPresentation,
    elem: Matrix,
    level: int,
    *,
    table: Optional[GrowthTable] = None,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> Optional[int]:
    """Least j <= level with ``elem`` in the level-j span, else None."""
    if elem.ring != pres.ring:
        raise RingMismatchError("element over a different ring than the presentation")
    if table is None or table.max_level < level:
        table = growth_sequence(pres, level, basis_cap=basis_cap)
    return table.membership_level(elem, up_to=level)
