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
list.

Over QQ and QQ[x...] the candidates are multiplied in integer
coordinates: generators and representatives are sparse coordinate
vectors whose integral values are ints and whose keys are packed into
single ints (``spans.KeyCodec``), and products are formed on those
vectors.  Packed keys sort like the tuple keys and values compare
numerically, so the candidate order and the greedy choice of
representatives are those of plain matrix products.  Each level keeps
its basis rows and new vectors packed; its snapshot and representatives
(tuple keys, QQ values only) are built on first read.

The filtration is built by a resumable builder that keeps its echelon
basis (QQ(x): its representatives) and last level's new vectors, and
extends one level at a time.  ``growth_sequence`` serves every table
from a ``FiltrationStore``, the caller's or one made for the call, keyed
by the generator set, so a run that shares one store and asks for one
filtration several times, at several levels or under several labels,
builds each level once.
"""

from __future__ import annotations

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


def growth_sequence(
    pres: AlgebraPresentation,
    max_level: int,
    *,
    basis_cap: int = DEFAULT_BASIS_CAP,
    store: Optional[FiltrationStore] = None,
) -> GrowthTable:
    """Level-by-level span dimensions of the presentation's filtration.

    Stops early once a level adds nothing new: the span is then closed
    under multiplication by every generator, so all later levels equal it
    and the remaining dimensions are padded with the stable value.
    Exceeding ``basis_cap`` raises CapExceededError at the insertion
    that passes it, rather than truncating silently.  Over QQ and
    QQ[x...] candidates are multiplied in integer coordinates, over QQ(x)
    as matrices.  With a ``store`` the table is served from the run's
    shared filtration; without one the filtration is built in a store for
    this call only.  Either way the table is the same.
    """
    if max_level < 0:
        raise ValueError("max_level must be non-negative")
    if store is None:
        store = FiltrationStore()
    return store.table(pres, max_level, basis_cap=basis_cap)


class FiltrationStore:
    """The growth filtrations of one run, each built once and extended on demand.

    Filtrations are keyed by (ring, size, basis cap, generator set), the
    set sorted by ``Matrix.sort_key`` with duplicates removed, so
    presentations that differ only in label, generator order or repeats
    share one builder.  A request at level n extends the builder to n and
    returns exactly the table a fresh ``growth_sequence`` at n would give,
    holding the caller's presentation.  A builder whose extension raises
    (a failed basis cap, say) is dropped, since it may hold part of a level.
    """

    def __init__(self):
        self._builders = {}

    def table(self, pres: AlgebraPresentation, max_level: int, *,
              basis_cap: int = DEFAULT_BASIS_CAP) -> GrowthTable:
        generators = tuple(sorted(set(pres.generators), key=Matrix.sort_key))
        key = (pres.ring, pres.size, basis_cap, generators)
        builder = self._builders.get(key)
        if builder is None or not builder.reaches(max_level):
            builder = _new_builder(pres.ring, pres.size, generators, max_level, basis_cap)
            self._builders[key] = builder
        try:
            return builder.table(pres, max_level)
        except BaseException:
            del self._builders[key]
            raise


def _new_builder(ring, size: int, generators, max_level: int, basis_cap: int):
    if isinstance(ring, RatFuncField):
        return _RatFuncBuilder(ring, size, generators, basis_cap)
    return _CoordinateBuilder(ring, size, generators, max_level, basis_cap)


def _integral_vec(vec: dict) -> dict:
    """``vec`` with each integral value as an int; other values stay QQ."""
    return {k: int(c) if c.denominator == 1 else c for k, c in vec.items()}


def _check_cap(dimension: int, basis_cap: int, n: int, label: str) -> None:
    if dimension > basis_cap:
        raise CapExceededError(
            f"basis size {dimension} exceeds cap {basis_cap} at level {n} of {label!r}"
        )


class _Builder:
    """A growth filtration built level by level; ``_extend(n, ...)`` builds up to n.

    ``dims`` and ``levels`` hold levels 0..built.  Once a level adds
    nothing, ``stabilized_at`` is the level before it and no more levels
    are built.
    """

    def reaches(self, n: int) -> bool:
        return True

    def table(self, pres: AlgebraPresentation, n: int) -> GrowthTable:
        """The table a fresh build at ``n`` gives, for ``pres``, extending as needed.

        A cap error met on the way names ``pres``.
        """
        if self.stabilized_at is None:
            self._extend(n, pres.label)
        stable = self.stabilized_at
        if stable is None or n <= stable:
            return GrowthTable(pres, n, tuple(self.dims[: n + 1]), tuple(self.levels[: n + 1]))
        pad = n - len(self.dims) + 1
        return GrowthTable(
            pres,
            n,
            tuple(self.dims) + (self.dims[-1],) * pad,
            tuple(self.levels) + (self.levels[-1],) * pad,
            stable,
        )


class _CoordinateBuilder(_Builder):
    """The filtration over QQ or QQ[x...] on packed integer coordinates.

    The state is the echelon basis, the last level's new vectors indexed
    by row and the levels built so far.  The packing base covers levels
    up to the ``max_level`` it was made for (any level when every
    generator entry is constant, or once the filtration has stabilized).
    """

    def __init__(self, ring, size: int, generators, max_level: int, basis_cap: int):
        gen_vecs = [_integral_vec(matrix_to_vec(g)) for g in generators]
        # A level-n candidate has total degree at most n times the largest
        # degree of a generator entry, so no digit of a packed key carries.
        degree = max((k[2] for vec in gen_vecs for k in vec), default=0)
        self._reach = max(max_level, 1) if degree else None
        base = max(max_level, 1) * max(degree, 1) + 1
        codec = KeyCodec(size, getattr(ring, "nvars", 0), base)
        self._reader = _LevelReader(codec, ring, (size, size))
        self._basis_cap = basis_cap
        self._basis = EchelonBasis()
        ident = Matrix.identity(ring, size)
        ident_vec = codec.pack_vec(_integral_vec(matrix_to_vec(ident)))
        self._basis.insert(ident_vec)
        self._gen_cols = [codec.by_column(codec.pack_vec(g)) for g in gen_vecs]
        self._new_rows = [codec.by_row(ident_vec)]
        self.dims = [1]
        self.levels = [_CoordinateLevel(self._reader, self._basis.pivot_rows(), [ident_vec],
                                        None, (ident,))]
        self.stabilized_at = None

    def reaches(self, n: int) -> bool:
        return self.stabilized_at is not None or self._reach is None or n <= self._reach

    def _extend(self, top: int, label: str) -> None:
        basis, gen_cols, new_rows = self._basis, self._gen_cols, self._new_rows
        dims, levels, reader = self.dims, self.levels, self._reader
        for n in range(len(dims), top + 1):
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
                    _check_cap(basis.dimension, self._basis_cap, n, label)
                    new_vecs.append(vec)
            dims.append(basis.dimension)
            levels.append(_CoordinateLevel(reader, basis.pivot_rows(), new_vecs, levels[-1]))
            if not new_vecs:
                # Every generator-times-representative product reduced to zero:
                # the stable span is closed under multiplication by generators.
                self.stabilized_at = n - 1
                break
            new_rows = [reader.codec.by_row(v) for v in new_vecs]
        self._new_rows = new_rows


class _RatFuncBuilder(_Builder):
    """The filtration over QQ(x), on representative matrices.

    The state is the last level's new representatives and the levels
    built so far; each level is re-echelonized from cleared coordinates.
    """

    def __init__(self, ring, size: int, generators, basis_cap: int):
        ident = Matrix.identity(ring, size)
        self._generators = generators
        self._basis_cap = basis_cap
        self._new_reps = [ident]
        self.dims = [1]
        self.levels = [_RatFuncLevel((ident,))]
        self.stabilized_at = None

    def _extend(self, top: int, label: str) -> None:
        reps = list(self.levels[-1].representatives)
        new_reps = self._new_reps
        for n in range(len(self.dims), top + 1):
            candidates = sorted({g * b for g in self._generators for b in new_reps},
                                key=Matrix.sort_key)
            # No fixed coordinates exist across levels, so the level span is
            # re-echelonized from cleared coordinates of the current family.
            vecs = cleared_vecs(reps + candidates)
            basis = EchelonBasis()
            for v in vecs[: len(reps)]:
                basis.insert(v)
            new_reps = []
            for v, mat in zip(vecs[len(reps):], candidates):
                if basis.insert(v) == EXTENDED:
                    _check_cap(basis.dimension, self._basis_cap, n, label)
                    new_reps.append(mat)
            reps.extend(new_reps)
            self.dims.append(len(reps))
            self.levels.append(_RatFuncLevel(tuple(reps)))
            if not new_reps:
                self.stabilized_at = n - 1
                break
        self._new_reps = new_reps


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
