"""Exact sparse polynomials and univariate rational functions over QQ.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  A monomial is an exponent tuple, one entry per ring
variable::

    x1^2*x2 + 3/2   in QQ[x1, x2]   ->   {(2, 1): 1, (0, 0): 3/2}

Zero coefficients are never stored, so equality is plain dict equality
and the zero polynomial has no terms.  The term order used everywhere
(printing, basis keys, leading terms) is graded lexicographic: compare
total degree first, then the exponent tuple.

Rational functions keep a numerator/denominator pair of univariate
polynomials, reduced by the Euclidean gcd and with a monic denominator,
so every value has exactly one stored representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ._ratio import QQ, ZERO, as_ratio, is_rational, ratio_str
from .errors import InternalCheckError, RingMismatchError

Monomial = tuple  # tuple[int, ...], length = number of ring variables


def grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


@dataclass(frozen=True)
class PolyRing:
    """Descriptor of QQ[v1, ..., vm]; equality is by variable names."""

    variables: tuple

    kind = "poly"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names: {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: QQ(1)})

    def constant(self, value) -> "Poly":
        c = as_ratio(value)
        if not c:
            return self.zero
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, which) -> "Poly":
        """The variable given by index or by name, as a polynomial."""
        if isinstance(which, str):
            which = self.variables.index(which)
        exps = [0] * self.nvars
        exps[which] = 1
        return Poly(self, {tuple(exps): QQ(1)})

    def gens(self) -> list:
        return [self.gen(i) for i in range(self.nvars)]

    def coerce(self, value) -> "Poly":
        if isinstance(value, Poly):
            if value.ring != self:
                raise RingMismatchError(f"polynomial over {value.ring} used in {self}")
            return value
        if is_rational(value):
            return self.constant(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def element_str(self, value) -> str:
        return str(self.coerce(value))

    def __str__(self):
        return "QQ[%s]" % ", ".join(self.variables)


class Poly:
    """Immutable sparse multivariate polynomial with QQ coefficients."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping):
        self.ring = ring
        self._terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator:
        """(monomial, coefficient) pairs in ascending graded-lex order."""
        return iter(sorted(self._terms.items(), key=lambda mc: grlex_key(mc[0])))

    def items_unordered(self):
        return self._terms.items()

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(not any(m) for m in self._terms)

    def constant_value(self) -> QQ:
        if not self._terms:
            return ZERO
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self._terms.values()))

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def coefficient(self, mono: Monomial) -> QQ:
        return self._terms.get(tuple(mono), ZERO)

    def leading_term(self) -> tuple:
        """(monomial, coefficient) maximal in graded-lex order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms, key=grlex_key)
        return m, self._terms[m]

    def sort_key(self) -> tuple:
        """A total-order key: equal keys iff equal polynomials."""
        return tuple(
            (sum(m), m, c) for m, c in sorted(self._terms.items(), key=lambda mc: grlex_key(mc[0]))
        )

    # -- arithmetic ---------------------------------------------------

    def _check(self, other) -> "Poly":
        return self.ring.coerce(other)

    def __add__(self, other):
        other = self._check(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        if is_rational(other):
            c = as_ratio(other)
            if not c:
                return self.ring.zero
            return Poly(self.ring, {m: v * c for m, v in self._terms.items()})
        other = self._check(other)
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(map(int.__add__, m1, m2))
                c = c1 * c2
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    acc = acc + c
                    if acc:
                        out[m] = acc
                    else:
                        del out[m]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c) -> "Poly":
        return self * as_ratio(c)

    def derivative(self, var: int = 0) -> "Poly":
        out = {}
        for m, c in self._terms.items():
            e = m[var]
            if e == 0:
                continue
            mm = m[:var] + (e - 1,) + m[var + 1 :]
            out[mm] = out.get(mm, ZERO) + c * e
        return Poly(self.ring, out)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self._terms == other._terms
        if is_rational(other):
            return self._terms == self.ring.constant(other)._terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self._terms.items(), key=lambda mc: grlex_key(mc[0])))
            self._hash = hash((self.ring, items))
        return self._hash

    # -- univariate helpers -------------------------------------------

    def _require_univariate(self):
        if self.ring.nvars != 1:
            raise ValueError(f"operation requires a univariate ring, got {self.ring}")

    def degree(self) -> int:
        self._require_univariate()
        if not self._terms:
            return -1
        return max(m[0] for m in self._terms)

    def uni_coeffs(self) -> list:
        """Dense coefficient list, lowest degree first; [] for zero."""
        self._require_univariate()
        d = self.degree()
        out = [ZERO] * (d + 1)
        for m, c in self._terms.items():
            out[m[0]] = c
        return out

    @staticmethod
    def from_uni_coeffs(ring: PolyRing, coeffs: Sequence) -> "Poly":
        if ring.nvars != 1:
            raise ValueError("from_uni_coeffs needs a univariate ring")
        return Poly(ring, {(i,): as_ratio(c) for i, c in enumerate(coeffs) if c})

    def monic(self) -> "Poly":
        self._require_univariate()
        if not self._terms:
            return self
        lead = self._terms[(self.degree(),)]
        return self * (QQ(1) / lead)

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for m, c in sorted(self._terms.items(), key=lambda mc: grlex_key(mc[0]), reverse=True):
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = ratio_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = ratio_str(mag) + "*" + "*".join(factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Poly({self})"


def uni_divmod(num: Poly, den: Poly) -> tuple:
    """Exact division with remainder in QQ[x]; den must be nonzero."""
    num._require_univariate()
    if den.ring != num.ring:
        raise RingMismatchError("divmod operands in different rings")
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ring = num.ring
    dd = den.degree()
    dlead = den.coefficient((dd,))
    rem = list(num.uni_coeffs())
    if len(rem) - 1 < dd:
        return ring.zero, num
    quo = [ZERO] * (len(rem) - dd)
    dco = den.uni_coeffs()
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c / dlead
        quo[i - dd] = q
        for j, dc in enumerate(dco):
            rem[i - dd + j] -= q * dc
    return Poly.from_uni_coeffs(ring, quo), Poly.from_uni_coeffs(ring, rem[:dd])


def uni_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd in QQ[x]; uni_gcd(a, 0) is monic(a), uni_gcd(0, 0) is 0."""
    a._require_univariate()
    if b.ring != a.ring:
        raise RingMismatchError("gcd operands in different rings")
    while not b.is_zero:
        _, r = uni_divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero else a


def uni_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return a.ring.zero
    g = uni_gcd(a, b)
    q, r = uni_divmod(a * b, g)
    if not r.is_zero:
        raise InternalCheckError("the gcd does not divide the product in uni_lcm")
    return q.monic()


@dataclass(frozen=True)
class RationalField:
    """The base field QQ as a coefficient-ring descriptor; elements are QQ."""

    kind = "rationals"

    @property
    def zero(self):
        return ZERO

    @property
    def one(self):
        return QQ(1)

    def coerce(self, value):
        if isinstance(value, (Poly, RatFunc)):
            raise RingMismatchError(f"{value!r} is not a rational scalar")
        return as_ratio(value)

    def element_str(self, value) -> str:
        return ratio_str(self.coerce(value))

    def __str__(self):
        return "QQ"


@dataclass(frozen=True)
class RatFuncField:
    """The field QQ(x) of univariate rational functions."""

    variable: str

    kind = "ratfunc"

    @property
    def poly_ring(self) -> PolyRing:
        return PolyRing((self.variable,))

    @property
    def zero(self) -> "RatFunc":
        return RatFunc(self, self.poly_ring.zero, self.poly_ring.one)

    @property
    def one(self) -> "RatFunc":
        return RatFunc(self, self.poly_ring.one, self.poly_ring.one)

    def gen(self) -> "RatFunc":
        return RatFunc(self, self.poly_ring.gen(0), self.poly_ring.one)

    def from_poly(self, p: Poly) -> "RatFunc":
        return RatFunc(self, self.poly_ring.coerce(p), self.poly_ring.one)

    def coerce(self, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            if value.field != self:
                raise RingMismatchError(f"{value!r} lives in {value.field}, not {self}")
            return value
        if isinstance(value, Poly):
            return self.from_poly(value)
        if is_rational(value):
            return RatFunc(self, self.poly_ring.constant(value), self.poly_ring.one)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def element_str(self, value) -> str:
        return str(self.coerce(value))

    def __str__(self):
        return f"QQ({self.variable})"


class RatFunc:
    """num/den with monic denominator and gcd(num, den) = 1, fixed on entry."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: RatFuncField, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = field.poly_ring.zero, field.poly_ring.one
        else:
            g = uni_gcd(num, den)
            if g.degree() > 0:
                num, _ = uni_divmod(num, g)
                den, _ = uni_divmod(den, g)
            lead = den.coefficient((den.degree(),))
            if lead != 1:
                inv = QQ(1) / lead
                num = num * inv
                den = den * inv
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    # -- inspection ---------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.den.degree() == 0 and self.num.total_degree() <= 0

    def constant_value(self) -> QQ:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.num.constant_value()

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def sort_key(self) -> tuple:
        return (self.num.sort_key(), self.den.sort_key())

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "RatFunc":
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        return RatFunc(self.field, self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFunc(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("rational-function exponent must be an integer")
        if n < 0:
            return (self.field.one / self) ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.field == other.field and self.num == other.num and self.den == other.den
        if isinstance(other, Poly) or is_rational(other):
            try:
                other = self._coerce(other)
            except (RingMismatchError, TypeError):
                return NotImplemented
            return self == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.num, self.den))
        return self._hash

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def common_denominator(values: Iterable[RatFunc]) -> Poly:
    """Monic lcm of the denominators; 1 if every value is polynomial."""
    lcm = None
    for v in values:
        d = v.den
        if lcm is None:
            lcm = d
        else:
            lcm = uni_lcm(lcm, d)
    if lcm is None:
        raise ValueError("common_denominator of an empty collection")
    return lcm


def cleared_numerator(value: RatFunc, lcd: Poly) -> Poly:
    """The polynomial lcd * value; lcd must be divisible by value.den."""
    q, r = uni_divmod(lcd, value.den)
    if not r.is_zero:
        raise ValueError("lcd is not a common denominator of the values")
    return value.num * q
