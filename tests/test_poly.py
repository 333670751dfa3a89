import operator
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gkgrowth._ratio import QQ
from gkgrowth import poly
from gkgrowth.errors import InternalCheckError, RingMismatchError
from gkgrowth.poly import (
    Poly,
    PolyRing,
    RatFunc,
    RatFuncField,
    RationalField,
    uni_divmod,
    uni_gcd,
    uni_lcm,
)

R2 = PolyRing(("x1", "x2"))
RX = PolyRing(("x",))
F = RatFuncField("x")


def p(text):
    from gkgrowth.parse import parse_poly_expr

    return parse_poly_expr(text, R2)


def px(text):
    from gkgrowth.parse import parse_poly_expr

    return parse_poly_expr(text, RX)


def rand_poly(ring, rng, max_degree=4, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        mono = tuple(rng.randint(0, max_degree // 2) for _ in ring.variables)
        if sum(mono) > max_degree:
            continue
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[mono] = QQ(c, rng.randint(1, 3))
    return Poly(ring, terms)


def test_product_examples():
    assert p("x1 + x2") * p("x1*x2") == p("x1^2*x2 + x1*x2^2")
    assert p("x1^3 - 7") * R2.zero == R2.zero
    assert px("x - 1") * px("x + 1") == px("x^2 - 1")


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        p("x1") + px("x")


def test_arithmetic_laws_on_random_triples():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (rand_poly(R2, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)


def test_power_and_derivative():
    assert p("x1 + x2") ** 2 == p("x1^2 + 2*x1*x2 + x2^2")
    assert px("x^3").derivative() == px("3*x^2")
    assert R2.one ** 0 == R2.one
    with pytest.raises(ValueError):
        p("x1") ** -1


def test_uni_divmod():
    q, r = uni_divmod(px("x^3 + x + 1"), px("x^2 + 1"))
    assert q == px("x")
    assert r == px("1")
    q, r = uni_divmod(px("x^2 - 1"), px("x - 1"))
    assert q == px("x + 1") and r.is_zero


def test_uni_gcd_examples():
    assert uni_gcd(px("x^2 - 1"), px("x - 1")) == px("x - 1")
    assert uni_gcd(px("x"), RX.one) == RX.one
    assert uni_gcd(px("x^3 - x"), px("x^2 - 2*x + 1")) == px("x - 1")
    assert uni_gcd(px("2*x + 2"), RX.zero) == px("x + 1")  # monic normalization
    assert uni_gcd(RX.zero, RX.zero).is_zero


def test_uni_lcm_examples():
    assert uni_lcm(px("x^2 - 1"), px("2*x - 2")) == px("x^2 - 1")
    assert uni_lcm(px("x"), px("x + 1")) == px("x^2 + x")
    assert uni_lcm(px("x"), RX.zero).is_zero


def test_uni_lcm_raises_when_the_gcd_leaves_a_remainder(monkeypatch):
    # The self-check survives ``python -O``: it is a raise, not an assert.
    a, b = px("x^2 - 1"), px("x - 1")
    monkeypatch.setattr(poly, "uni_gcd", lambda u, v: px("x - 1"))
    monkeypatch.setattr(poly, "uni_divmod", lambda u, v: (RX.one, RX.one))
    with pytest.raises(InternalCheckError, match="uni_lcm"):
        uni_lcm(a, b)


def test_ratfunc_canonical_form_is_unique():
    rng = random.Random(11)
    x = RX.gen(0)
    num = px("x^2 + 1")
    den = px("x^3 - x + 2")
    base = RatFunc(F, num, den)
    for _ in range(40):
        g = rand_poly(RX, rng, max_degree=3)
        if g.is_zero:
            continue
        scaled = RatFunc(F, num * g, den * g)
        assert scaled.num == base.num
        assert scaled.den == base.den
        assert scaled == base
    assert base.den.coefficient((base.den.degree(),)) == 1  # monic denominator


def test_ratfunc_arithmetic():
    x = F.gen()
    one = F.one
    assert one / (x + 1) + one / (x - 1) == (2 * x) / (x * x - 1)
    assert (x ** -1) * x == one
    assert (x / (x - 1)) - (one / (x - 1)) == one
    with pytest.raises(ZeroDivisionError):
        one / F.zero


def test_ratfunc_zero_and_constants():
    z = F.zero
    assert not z and z.is_zero
    c = F.coerce(QQ(3, 2))
    assert c.is_constant and c.constant_value() == QQ(3, 2)
    assert not F.gen().is_constant


def test_poly_str_is_graded_lex_descending():
    value = p("x2^2 - 2*x1*x2 + x1^2")
    assert str(value) == "x1^2 - 2*x1*x2 + x2^2"
    assert str(R2.zero) == "0"
    assert str(R2.constant(QQ(-3, 2))) == "-3/2"


def test_rationals_field_coercion():
    field = RationalField()
    assert field.coerce(3) == QQ(3)
    with pytest.raises(RingMismatchError):
        field.coerce(px("x"))


SX = sympy.Symbol("x")
SMALL_UNI = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def to_sympy(poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * SX**i
                for i, c in enumerate(poly.uni_coeffs())), sympy.Integer(0))


def sympy_normal_form(expr):
    """Coefficients, lowest first, of ``cancel(expr)`` as num/den with den monic."""
    num, den = (sympy.Poly(part, SX) for part in sympy.fraction(sympy.cancel(expr)))
    lead = den.LC()
    return ([c / lead for c in reversed(num.all_coeffs())],
            [c / lead for c in reversed(den.all_coeffs())])


def normal_form(value):
    num = [sympy.Rational(c.numerator, c.denominator) for c in value.num.uni_coeffs()]
    den = [sympy.Rational(c.numerator, c.denominator) for c in value.den.uni_coeffs()]
    return num or [sympy.Integer(0)], den


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SMALL_UNI, SMALL_UNI, SMALL_UNI, SMALL_UNI, st.sampled_from(sorted(OPS)))
def test_ratfunc_normal_form_matches_sympy_cancel(a_num, a_den, b_num, b_den, op):
    # Equality and hashing of QQ(x) elements, and so the filtration keys
    # over QQ(x), rely on this form: coprime numerator, monic denominator.
    def make(num, den):
        den = den if any(den) else [1]
        return RatFunc(F, Poly.from_uni_coeffs(RX, num), Poly.from_uni_coeffs(RX, den))

    a, b = make(a_num, a_den), make(b_num, b_den)
    if op == "/" and b.is_zero:
        return
    got = OPS[op](a, b)
    want = OPS[op](to_sympy(a.num) / to_sympy(a.den), to_sympy(b.num) / to_sympy(b.den))
    assert normal_form(got) == sympy_normal_form(want)
    rescaled = RatFunc(F, got.num * a.den, got.den * a.den)
    assert rescaled == got and hash(rescaled) == hash(got)
