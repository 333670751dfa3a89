"""Exact QQ-linear algebra on sparse vectors indexed by ordered basis keys.

A vector is a dict mapping keys to nonzero scalars.  Keys are tuples
``(row, col, degree, exponents)`` built from matrix coordinates plus the
graded-lex position of a monomial, so any matrix over QQ or QQ[x...]
coordinatizes canonically.  Matrices over QQ(x) have no fixed monomial
coordinate system; a finite family is handled by clearing the least
common denominator of all entries first, which is injective on spans.
A module check's words share one denominator fixed in advance
(``word_coordinates``).

``EchelonBasis`` keeps triangular rows: leading keys are distinct, each
leading coefficient is 1, and an insert leaves earlier rows alone.  Reads
see the reduced rows, formed once by the first read that needs them.  The
reduced form of a span is unique for a fixed key order, so reads are
canonical regardless of insertion history.  Stored row dicts are never
mutated in place (reduction replaces them), so snapshots may share rows.

``EchelonBasis`` also accepts vectors with ``int`` values: a row whose
pivot is +-1 stays integral, any other pivot divides exactly in QQ.
``rows`` and ``snapshot`` give int values as QQ, so a snapshot holds QQ
values only.  Keys may be any totally ordered hashables: the growth loop
packs each tuple key into one int (``KeyCodec``), which orders the same
way, multiplies on packed keys (``packed_product``) and decodes back to
tuple keys at the boundary.  Structure theory forms its products on the
same packed rows and reads their coordinates with ``pivot_pairs``, which
looks up only the product's own keys.  ``matrix_from_vec`` builds its
matrix from ring elements directly, without coercing each entry again.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from ._ratio import QQ, as_ratio
from .errors import InternalCheckError, ShapeMismatchError
from .matrices import Matrix
from .poly import (
    Poly,
    PolyRing,
    RatFuncField,
    RationalField,
    cleared_numerator,
    common_denominator,
)

EXTENDED = "extended"
DEPENDENT = "dependent"

_SCALAR_KEY = (0, ())


def matrix_to_vec(mat: Matrix) -> dict:
    """Sparse QQ-coordinates of a matrix over QQ or QQ[x...]."""
    ring = mat.ring
    vec = {}
    if isinstance(ring, RationalField):
        for i, row in enumerate(mat.rows):
            for j, e in enumerate(row):
                if e:
                    vec[(i, j) + _SCALAR_KEY] = e
        return vec
    if isinstance(ring, PolyRing):
        for i, row in enumerate(mat.rows):
            for j, e in enumerate(row):
                for mono, c in e.items_unordered():
                    vec[(i, j, sum(mono), mono)] = c
        return vec
    raise TypeError(f"no fixed coordinate system for matrices over {ring}")


def matrix_to_field_vec(mat: Matrix) -> dict:
    """Scalar-field coordinates of a matrix: its nonzero entries by (row, col)."""
    return {(i, j): e for i, row in enumerate(mat.rows) for j, e in enumerate(row) if e}


def poly_to_vec(p: Poly) -> dict:
    """QQ-coordinates of a ring element, keyed like a 1x1 matrix."""
    return {(0, 0, sum(m), m): c for m, c in p.items_unordered()}


def cleared_vecs(mats: Sequence[Matrix]) -> list:
    """QQ-coordinates of a family of matrices over one ring.

    Over QQ and QQ[x...] these are ``matrix_to_vec``.  Over QQ(x) the
    family is first cleared of its common denominator: multiplying the
    whole family by one nonzero polynomial preserves all QQ-linear
    relations, so ranks and memberships computed on the result agree with
    the originals.
    """
    if mats and not isinstance(mats[0].ring, RatFuncField):
        return [matrix_to_vec(m) for m in mats]
    entries = [e for m in mats for row in m.rows for e in row]
    if not entries:
        return []
    lcd = common_denominator(entries)
    return [_numerator_vec(m, lcd) for m in mats]


def word_coordinates(generators: Sequence[Matrix], length: int, scalars: Sequence):
    """Fixed QQ-coordinates of each c * w, c in ``scalars``, w the identity
    or a product of at most ``length`` generators: ``matrix_to_vec``, or over
    QQ(x) the numerators over L = D^length * lcd(scalars), D the monic lcm
    of the generators' entry denominators.  A product of k generators has
    denominators dividing D^k, so L clears every c * w; a matrix it does
    not clear raises ValueError."""
    if not isinstance(generators[0].ring, RatFuncField):
        return matrix_to_vec
    entries = [e for g in generators for row in g.rows for e in row]
    lcd = common_denominator(entries) ** length * common_denominator(scalars)
    return lambda mat: _numerator_vec(mat, lcd)


def _numerator_vec(mat: Matrix, lcd: Poly) -> dict:
    """QQ-coordinates of lcd * mat over QQ(x); ValueError unless lcd clears mat."""
    vec = {}
    for i, row in enumerate(mat.rows):
        for j, e in enumerate(row):
            for mono, c in cleared_numerator(e, lcd).items_unordered():
                vec[(i, j, mono[0], mono)] = c
    return vec


def extend_span(basis: EchelonBasis, vecs: Iterable[dict], items: Iterable) -> list:
    """Insert ``vecs`` into ``basis`` in order; the items whose vector extended it."""
    kept = []
    for vec, item in zip(vecs, items):
        if basis.insert(vec) == EXTENDED:
            kept.append(item)
    return kept


def vec_sort_key(vec: dict) -> tuple:
    return tuple(sorted(vec.items()))


def _axpy_inplace(target: dict, coeff, source: dict):
    for k, v in source.items():
        cur = target.get(k)
        delta = coeff * v
        if cur is None:
            target[k] = -delta
        else:
            cur = cur - delta
            if cur:
                target[k] = cur
            else:
                del target[k]


def _qq_values(row: dict) -> dict:
    """``row`` with its int values as QQ; the row itself when it has none."""
    if any(type(c) is int for c in row.values()):
        return {k: QQ(c) if type(c) is int else c for k, c in row.items()}
    return row


def _reduce_against(v: dict, pivot_rows) -> dict:
    """Reduce the mutable dict ``v`` to zero at every key of triangular ``pivot_rows``.

    A row may bring in larger pivot keys, so each one brought in goes on a
    heap and keys are cleared smallest first.  A key that survives its turn
    (held with value 0, say) raises InternalCheckError."""
    heap = [k for k in v if k in pivot_rows]
    heapify(heap)
    while heap:
        lead = heappop(heap)
        coeff = v.get(lead)
        if coeff:
            for k, c in pivot_rows[lead].items():
                cur = v.get(k)
                if cur is None:
                    v[k] = -(coeff * c)
                    if k in pivot_rows:
                        heappush(heap, k)
                else:
                    cur = cur - coeff * c
                    if cur:
                        v[k] = cur
                    else:
                        del v[k]
        if lead in v:
            raise InternalCheckError("a pivot key survived reduction against the echelon rows")
    return v


def reduced_rows(pivot_rows: dict) -> dict:
    """The reduced rows of triangular ``pivot_rows``, as a new dict: each row,
    in decreasing leading-key order, reduced once against the rows after it,
    which are reduced already.  Rows are replaced, never mutated."""
    done = {}
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        if not done.keys().isdisjoint(row):
            row = _reduce_against(dict(row), done)
        done[lead] = row
    return done


class EchelonBasis:
    """Incremental row-echelon basis over a field, reduced when read.

    Scalars default to QQ but any exact field element type with
    ``+ - * /``, truthiness-as-nonzero and total ordering of the keys
    works (QQ(x) elements are used for scalar-field computations).
    Reads of rows (``rows``, ``pivot_rows``, ``coordinates``, ...) reduce them.
    """

    def __init__(self):
        self._pivot_rows = {}  # leading key -> row dict (rows replaced, not mutated)
        self._reduced = True   # whether the rows are reduced against each other

    @property
    def dimension(self) -> int:
        return len(self._pivot_rows)

    def rows(self) -> list:
        """Row dicts in increasing leading-key order (canonical), int values as QQ."""
        return [_qq_values(row) for _, row in sorted(self.pivot_rows().items())]

    def pivot_rows(self) -> dict:
        """A shallow copy of leading key -> reduced row, values as stored."""
        if not self._reduced:
            self._pivot_rows, self._reduced = reduced_rows(self._pivot_rows), True
        return dict(self._pivot_rows)

    def triangular_rows(self) -> dict:
        """A shallow copy of leading key -> row as stored, reduced or not."""
        return dict(self._pivot_rows)

    def leading_keys(self) -> list:
        """The leading keys in increasing order; reading them reduces no row."""
        return sorted(self._pivot_rows)

    def reduce(self, vec: dict) -> dict:
        """Fully reduce a copy of ``vec`` against the basis."""
        return _reduce_against(dict(vec), self._pivot_rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> str:
        """Insert a vector; returns EXTENDED or DEPENDENT."""
        v = self.reduce(vec)
        if not v:
            return DEPENDENT
        lead = min(v)
        inv = v[lead]
        if type(inv) is int and inv in (1, -1):
            # A unit pivot keeps an integer row integral.
            if inv == -1:
                v = {k: -val for k, val in v.items()}
        else:
            if not inv:
                raise InternalCheckError("an explicit zero value reached the leading key")
            if type(inv) is int:
                inv = QQ(inv)  # exact division in QQ, never int true division
            v = {k: val / inv for k, val in v.items()}
        self._pivot_rows[lead] = v  # earlier rows may hold ``lead`` until a read
        self._reduced = False
        return EXTENDED

    def rekey(self, key) -> None:
        """Map every key through ``key``, which must preserve the key order, so
        the rows stay echelon rows.  ``pivot_rows`` copies keep the old keys."""
        self._pivot_rows = {key(lead): {key(k): c for k, c in row.items()}
                            for lead, row in self._pivot_rows.items()}

    def snapshot(self) -> "SpanSnapshot":
        return SpanSnapshot(tuple(self.rows()))

    def coordinates(self, vec: dict, one=QQ(1)) -> Optional[list]:
        """Coordinates of ``vec`` on ``rows()``, or None outside the span."""
        return _pivot_coordinates(self.pivot_rows(), vec, one)

    def kernel(self, keys: Sequence, one=QQ(1)) -> list:
        """Canonical basis of the null space of the stored rows.

        The rows are read as a matrix whose columns are ``keys``, in
        increasing order.  Each free (non-pivot) key f gives one vector:
        1 at f and minus the f-entry of each row at that row's pivot key.
        Vectors are sparse dicts over ``keys``, in the order of their free
        keys; each is checked to be annihilated by every row.
        """
        zero = one - one
        rows = self.pivot_rows()
        free = {f: {f: one} for f in keys if f not in rows}
        for lead, row in rows.items():
            for k, c in row.items():  # a reduced row's other keys are free
                if k != lead:
                    free[k][lead] = -c
        out = list(free.values())
        for vec in out:
            for row in rows.values():
                if sum((c * vec.get(k, zero) for k, c in row.items()), zero):
                    raise InternalCheckError("kernel vector is not annihilated by a row")
        return out

    @classmethod
    def solve(cls, columns: Sequence[dict], target: dict, one=QQ(1)) -> Optional[list]:
        """Solve sum_i x_i * columns[i] = target exactly; None if inconsistent.

        The rows of [columns | target], one per key, go into an echelon
        basis.  Its pivots are the columns independent of the earlier ones;
        x_p is the target entry of the row led by p, and every other x_i
        is zero.  The system is inconsistent exactly when the target column
        is a pivot.  The solution is verified by substitution.
        """
        n = len(columns)
        rows = {}
        for i, col in enumerate(columns):
            for k, v in col.items():
                rows.setdefault(k, {})[i] = v
        for k, v in target.items():
            rows.setdefault(k, {})[n] = v
        basis = cls()
        for row in rows.values():
            basis.insert(row)
        if n in basis._pivot_rows:
            return None
        zero = one - one
        solution = [zero] * n
        for i, row in basis.pivot_rows().items():  # n is no pivot, so i < n
            solution[i] = row.get(n, zero)
        check = dict(target)
        for x, col in zip(solution, columns):
            if x:
                _axpy_inplace(check, x, col)
        if check:
            raise InternalCheckError("linear solve failed its substitution check")
        return solution


def _pivot_coordinates(pivot_rows: dict, vec: dict, one) -> Optional[list]:
    """Coordinates of ``vec`` on reduced-echelon rows (by leading key), or None.

    A member of the span carries, at each row's pivot key, its coefficient
    on that row, since no other row touches that key (``pivot_pairs``).
    """
    leads = sorted(pivot_rows)
    pairs = pivot_pairs(vec, {k: r for r, k in enumerate(leads)}, [pivot_rows[k] for k in leads])
    if pairs is None:
        return None
    coords = [one - one] * len(leads)
    for r, c in pairs:
        coords[r] = c
    return coords


def pivot_pairs(vec: dict, leads: dict, rows: Sequence[dict]) -> Optional[tuple]:
    """The nonzero coordinates of ``vec`` on reduced-echelon ``rows``, or None.

    ``leads`` maps each row's leading key to its index.  Only the keys of
    ``vec`` are looked up, so the cost follows its nonzeros, not the number
    of rows.  The result is the (index, value) pairs in increasing index;
    the residual ``vec - sum c_r * row_r`` proves membership.
    """
    pairs = sorted((leads[k], c) for k, c in vec.items() if k in leads)
    residual = dict(vec)
    for r, c in pairs:
        _axpy_inplace(residual, c, rows[r])
    return None if residual else tuple(pairs)


class SpanSnapshot:
    """Frozen reduced-echelon family supporting membership tests."""

    __slots__ = ("rows", "_pivot")

    def __init__(self, rows: tuple):
        self.rows = rows
        self._pivot = {min(r): r for r in rows if r}

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        return _reduce_against(dict(vec), self._pivot)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coordinates(self, vec: dict, one=QQ(1)) -> Optional[list]:
        """Coordinates of ``vec`` on ``rows``, or None outside the span."""
        return _pivot_coordinates(self._pivot, vec, one)


def solve_q_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[list]:
    """Solve A z = b over QQ; returns the solution list or None if inconsistent."""
    nrows = len(matrix)
    if nrows != len(rhs):
        raise ShapeMismatchError("matrix and right-hand side sizes differ")
    ncols = len(matrix[0]) if nrows else 0
    columns = []
    for j in range(ncols):
        col = {}
        for i in range(nrows):
            v = as_ratio(matrix[i][j])
            if v:
                col[(i,)] = v
        columns.append(col)
    target = {}
    for i in range(nrows):
        v = as_ratio(rhs[i])
        if v:
            target[(i,)] = v
    return EchelonBasis.solve(columns, target)


def membership_ratfunc(basis_mats: Sequence[Matrix], candidate: Matrix) -> Optional[list]:
    """QQ-coefficients expressing ``candidate`` in the span of ``basis_mats``.

    All matrices must share one shape over one QQ(x) field.  The linear
    system is cleared by the least common denominator of every entry and
    solved over QQ; returns the coefficient list, or None when the
    candidate is not in the QQ-span.
    """
    for m in basis_mats:
        if m.shape != candidate.shape:
            raise ShapeMismatchError(f"basis shape {m.shape} vs candidate {candidate.shape}")
        if m.ring != candidate.ring:
            raise ShapeMismatchError("basis and candidate over different rings")
    vecs = cleared_vecs(list(basis_mats) + [candidate])
    return EchelonBasis.solve(vecs[:-1], vecs[-1])


def field_coordinates(basis_mats: Sequence[Matrix], candidate: Matrix) -> Optional[list]:
    """Coordinates of ``candidate`` in the scalar-field span of ``basis_mats``.

    Over QQ(x) the coefficients live in QQ(x) (contrast with
    ``membership_ratfunc``, whose coefficients are rational numbers).
    """
    ring = candidate.ring
    if isinstance(ring, RatFuncField):
        cols = [matrix_to_field_vec(m) for m in basis_mats]
        return EchelonBasis.solve(cols, matrix_to_field_vec(candidate), ring.one)
    return EchelonBasis.solve([matrix_to_vec(m) for m in basis_mats], matrix_to_vec(candidate))


class KeyCodec:
    """Packs the coordinate keys ``(i, j, deg, mono)`` of d-by-d matrices into ints.

    A key becomes ``((i*d + j)*B + deg)*B^m + sum_t e_t*B^(m-1-t)``: one
    base-B digit for the degree and for each of the m exponents.  While
    every degree stays below B no digit carries, so packed keys compare
    exactly like the tuples they encode and decode exactly.  Dropping the
    column of a left factor's key and the row of a right factor's key
    makes the key of their product the sum of the two (``packed_product``).
    """

    __slots__ = ("size", "nvars", "base", "_cell", "_row")

    def __init__(self, size: int, nvars: int, base: int):
        self.size = size
        self.nvars = nvars
        self.base = base
        self._cell = base ** (nvars + 1)  # the weight of one step of i*d + j
        self._row = size * self._cell  # the weight of one step of i

    def pack(self, key: tuple) -> int:
        i, j, deg, mono = key
        packed = (i * self.size + j) * self.base + deg
        for e in mono:
            packed = packed * self.base + e
        return packed

    def unpack(self, packed: int) -> tuple:
        mono = []
        for _ in range(self.nvars):
            packed, e = divmod(packed, self.base)
            mono.append(e)
        packed, deg = divmod(packed, self.base)
        i, j = divmod(packed, self.size)
        return (i, j, deg, tuple(reversed(mono)))

    def pack_vec(self, vec: dict) -> dict:
        return {self.pack(k): c for k, c in vec.items()}

    def repack(self, vec: dict, codec: "KeyCodec") -> dict:
        """A vector packed by this codec, packed by ``codec`` instead."""
        return {codec.pack(self.unpack(k)): c for k, c in vec.items()}

    def unpack_vec(self, vec: dict) -> dict:
        """Tuple keys and QQ values: a packed vector at the API boundary."""
        return {self.unpack(k): QQ(c) if type(c) is int else c for k, c in vec.items()}

    def by_column(self, vec: dict) -> dict:
        """A packed left factor as column k -> [(key without k, value)]."""
        out = {}
        for key, c in vec.items():
            cell, rest = divmod(key, self._cell)
            i, k = divmod(cell, self.size)
            out.setdefault(k, []).append((i * self._row + rest, c))
        return out

    def by_row(self, vec: dict) -> dict:
        """A packed right factor as row k -> [(key without k, value)]."""
        out = {}
        row = self._row
        for key, c in vec.items():
            k, rest = divmod(key, row)
            out.setdefault(k, []).append((rest, c))
        return out


def packed_product(left: dict, right: dict) -> dict:
    """The packed vector of A * B from ``by_column`` of A and ``by_row`` of B."""
    out = {}
    for k, terms in left.items():
        row = right.get(k)
        if row is None:
            continue
        for key, c in terms:
            for key2, c2 in row:
                kk = key + key2
                value = out.get(kk)
                if value is None:
                    out[kk] = c * c2
                else:
                    value += c * c2
                    if value:
                        out[kk] = value
                    else:
                        del out[kk]
    return out


def matrix_from_vec(ring, size: tuple, vec: dict) -> Matrix:
    """Inverse of matrix_to_vec for QQ and QQ[x...] coordinates.

    Values may be ``int`` or QQ; each int becomes QQ once, and every zero
    entry is the ring's one shared zero.
    """
    nrows, ncols = size
    if isinstance(ring, RationalField):
        rows = [[ring.zero] * ncols for _ in range(nrows)]
        for (i, j, _deg, _mono), c in vec.items():
            rows[i][j] = QQ(c) if type(c) is int else c
        return Matrix._of(ring, tuple(map(tuple, rows)))
    if isinstance(ring, PolyRing):
        cells = {}
        for (i, j, _deg, mono), c in vec.items():
            cells.setdefault((i, j), {})[mono] = QQ(c) if type(c) is int else c
        zero = ring.zero
        rows = [[zero] * ncols for _ in range(nrows)]
        for (i, j), cell in cells.items():
            rows[i][j] = Poly(ring, cell)
        return Matrix._of(ring, tuple(map(tuple, rows)))
    raise TypeError(f"matrix_from_vec does not support {ring}")
