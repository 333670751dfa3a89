"""Characteristic polynomials over commutative coefficient rings.

``char_poly`` runs the Faddeev-LeVerrier recurrence, which only ever
divides by the integers 1..d and is therefore exact over any QQ-algebra.
``regular_rep_charpoly`` forms the d^2-by-d^2 matrix of left
multiplication on the standard matrix units and checks the classical
identity p = c^d between the two characteristic polynomials; a mismatch
is an arithmetic bug, never a property of the input.

``nonconstant_coefficients`` harvests the central scalars that the
characteristic closure and the reduction pipeline adjoin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._ratio import QQ
from .errors import InternalCheckError, ShapeMismatchError
from .matrices import Matrix
from .poly import RationalField


@dataclass(frozen=True)
class UPoly:
    """Univariate polynomial in t with coefficients in a coefficient ring.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty tuple.
    """

    ring: object
    coeffs: tuple

    @staticmethod
    def from_coeffs(ring, coeffs: Sequence) -> "UPoly":
        coerced = [ring.coerce(c) for c in coeffs]
        while coerced and not coerced[-1]:
            coerced.pop()
        return UPoly(ring, tuple(coerced))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly.from_coeffs(
            self.ring,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly.from_coeffs(
            self.ring,
            [self.coefficient(i) - other.coefficient(i) for i in range(n)],
        )

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero or other.is_zero:
            return UPoly(self.ring, ())
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UPoly.from_coeffs(self.ring, out)

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UPoly.from_coeffs(self.ring, [self.ring.one])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate_matrix(self, mat: Matrix) -> Matrix:
        """Horner evaluation at a square matrix over the same ring."""
        if not mat.is_square:
            raise ShapeMismatchError("polynomial evaluation needs a square matrix")
        d = mat.nrows
        acc = Matrix.zeros(mat.ring, d, d)
        ident = Matrix.identity(mat.ring, d)
        for c in reversed(self.coeffs):
            acc = acc * mat + ident.scale(c)
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            t = "t" if k == 1 else (f"t^{k}" if k > 1 else "")
            cs = self.ring.element_str(c)
            if not t:
                pieces.append(f"({cs})")
            elif cs == "1":
                pieces.append(t)
            else:
                pieces.append(f"({cs})*{t}")
        return " + ".join(pieces)


def char_poly(mat: Matrix) -> UPoly:
    """Monic characteristic polynomial det(tI - mat), degree = matrix size.

    Computed by the Faddeev-LeVerrier recurrence.  The recurrence's final
    matrix must vanish (that is the Cayley-Hamilton identity); a nonzero
    final matrix aborts with InternalCheckError.
    """
    if not mat.is_square:
        raise ShapeMismatchError("characteristic polynomial of a non-square matrix")
    d = mat.nrows
    ring = mat.ring
    ident = Matrix.identity(ring, d)
    acc = ident
    cs = [ring.one]  # coefficient of t^d
    for k in range(1, d + 1):
        am = mat * acc
        ck = ring.coerce(am.trace() * QQ(-1, k))
        cs.append(ck)
        acc = am + ident.scale(ck)
    if not acc.is_zero:
        raise InternalCheckError("Faddeev-LeVerrier closing matrix is nonzero (arithmetic bug)")
    return UPoly.from_coeffs(ring, list(reversed(cs)))


def is_constant_element(ring, value) -> bool:
    """Whether a ring element is a rational number."""
    return isinstance(ring, RationalField) or value.is_constant


def nonconstant_coefficients(words: Iterable[Matrix]) -> list:
    """The nonconstant lower coefficients of the words' characteristic
    polynomials, each once, in order of first appearance.  Each word costs
    one ``char_poly``; the callers pass distinct words
    (``closure.generator_words``)."""
    harvested = []
    seen = set()
    for word in words:
        poly = char_poly(word)
        for coeff in poly.coeffs[:-1]:
            if coeff and not is_constant_element(poly.ring, coeff) and coeff not in seen:
                seen.add(coeff)
                harvested.append(coeff)
    return harvested


def determinant(mat: Matrix):
    """Exact determinant via the characteristic polynomial's constant term."""
    c = char_poly(mat)
    d = mat.nrows
    constant = c.coefficient(0)
    return constant if d % 2 == 0 else -constant


def regular_rep_matrix(mat: Matrix) -> Matrix:
    """Left multiplication by ``mat`` on the matrix units, as a d^2 matrix.

    Units are ordered (row, col) lexicographically; the image of e_kl
    under left multiplication has (i, l)-entry mat[i][k].
    """
    if not mat.is_square:
        raise ShapeMismatchError("regular representation of a non-square matrix")
    d = mat.nrows
    ring = mat.ring
    zero = ring.zero
    rows = []
    for i in range(d):
        for j in range(d):
            row = [zero] * (d * d)
            for k in range(d):
                row[k * d + j] = mat.rows[i][k]
            rows.append(row)
    return Matrix(ring, rows)


@dataclass(frozen=True)
class CharPolyPair:
    """Ordinary char poly (degree d) and regular-representation char poly (degree d^2)."""

    ordinary: UPoly
    regular: UPoly


def regular_rep_charpoly(mat: Matrix) -> CharPolyPair:
    """Both characteristic polynomials of ``mat``; asserts regular = ordinary^d."""
    c = char_poly(mat)
    p = char_poly(regular_rep_matrix(mat))
    if p != c ** mat.nrows:
        raise InternalCheckError(
            "regular-representation characteristic polynomial is not the d-th power "
            "of the ordinary one (arithmetic bug)"
        )
    return CharPolyPair(c, p)


def cayley_hamilton_check(mat: Matrix) -> Matrix:
    """Evaluate the characteristic polynomial at its own matrix.

    The result is the zero matrix for every input; a nonzero result is a
    bug witness for callers that want to abort.
    """
    return char_poly(mat).evaluate_matrix(mat)
