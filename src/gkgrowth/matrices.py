"""Exact matrices over a coefficient ring (QQ, QQ[x...], or QQ(x)).

Entries are homogeneous per ring kind: QQ scalars over the rationals,
Poly over a polynomial ring, RatFunc over a rational-function field.
Matrices are immutable; all arithmetic is exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import RingMismatchError, ShapeMismatchError
from .poly import PolyRing, RatFuncField, RationalField

CoefficientRing = (RationalField, PolyRing, RatFuncField)


class Matrix:
    __slots__ = ("ring", "rows", "_hash")

    def __init__(self, ring, rows: Sequence[Sequence]):
        self.ring = ring
        self.rows = tuple(tuple(ring.coerce(e) for e in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ShapeMismatchError("ragged matrix rows")
        self._hash = None

    @classmethod
    def _of(cls, ring, rows: tuple) -> "Matrix":
        """A matrix on ``rows``, a tuple of equal-length tuples that already
        hold elements of ``ring``: results of ring arithmetic, built once
        without re-coercing each entry."""
        mat = cls.__new__(cls)
        mat.ring = ring
        mat.rows = rows
        mat._hash = None
        return mat

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zeros(ring, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero
        return Matrix(ring, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(ring, n: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return Matrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def elementary(ring, n: int, i: int, j: int, value=1) -> "Matrix":
        """n-by-n matrix with a single entry at (i, j), zero-based."""
        rows = [[ring.zero] * n for _ in range(n)]
        rows[i][j] = ring.coerce(value)
        return Matrix(ring, rows)

    @staticmethod
    def diagonal(ring, entries: Iterable) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        rows = [[ring.zero] * n for _ in range(n)]
        for i, e in enumerate(entries):
            rows[i][i] = ring.coerce(e)
        return Matrix(ring, rows)

    # -- inspection -------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def trace(self):
        if not self.is_square:
            raise ShapeMismatchError("trace of a non-square matrix")
        total = self.ring.zero
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def sort_key(self) -> tuple:
        """Canonical total-order key; used to fix deterministic orderings."""
        if isinstance(self.ring, RationalField):
            return tuple(e for row in self.rows for e in row)
        return tuple(e.sort_key() for row in self.rows for e in row)

    # -- arithmetic -------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(f"matrix over {other.ring} combined with {self.ring}")

    def __add__(self, other):
        self._check_ring(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"adding {self.shape} to {other.shape}")
        return Matrix._of(
            self.ring,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        self._check_ring(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"subtracting {other.shape} from {self.shape}")
        return Matrix._of(
            self.ring,
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
        )

    def __neg__(self):
        return Matrix._of(self.ring, tuple(tuple(-e for e in row) for row in self.rows))

    def __mul__(self, other):
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ShapeMismatchError(f"multiplying {self.shape} by {other.shape}")
        n, k, m = self.nrows, self.ncols, other.ncols
        zero = self.ring.zero
        out = []
        for i in range(n):
            arow = self.rows[i]
            acc = [None] * m
            for t in range(k):
                av = arow[t]
                if not av:
                    continue
                brow = other.rows[t]
                for j in range(m):
                    bv = brow[j]
                    if not bv:
                        continue
                    p = av * bv
                    acc[j] = p if acc[j] is None else acc[j] + p
            out.append(tuple(zero if v is None else v for v in acc))
        return Matrix._of(self.ring, tuple(out))

    def scale(self, c) -> "Matrix":
        c = self.ring.coerce(c)
        return Matrix(self.ring, [[e * c for e in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.rows))
        return self._hash

    def __str__(self):
        body = "; ".join(", ".join(self.ring.element_str(e) for e in row) for row in self.rows)
        return f"[{body}]"

    def __repr__(self):
        return f"Matrix({self})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises on ring or shape mismatch."""
    return a * b
