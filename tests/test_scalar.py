import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist.scalar import (
    Cyclo,
    ScalarError,
    _poly_mul,
    _reduced,
    cleared,
    cyclotomic_polynomial,
    euler_phi,
    format_scalar,
    lcm,
    packed,
    parse_scalar,
    sub_mul,
    unpacker,
)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squared_is_minus_one():
    i = Cyclo.zeta(4)
    assert i * i == Cyclo.from_rational(-1, 4)


def test_one_is_identity():
    a = Cyclo.zeta(3) + Cyclo.from_rational(Fraction(5, 7), 3)
    assert Cyclo.one(3) * a == a


def test_zeta3_times_zeta3_squared_is_one():
    z = Cyclo.zeta(3)
    assert z * (z * z) == Cyclo.one(3)


def test_inverse_of_one():
    assert Cyclo.one(5).inverse() == Cyclo.one(5)


def test_inverse_of_root_of_unity():
    # zeta^k inverts to zeta^(N-k), over cyclic and non-cyclic (Z/N)^*
    for order in (3, 4, 5, 6, 7, 9, 12, 15, 16, 20, 24, 30):
        for k in range(1, order):
            assert Cyclo.zeta(order, k).inverse() == Cyclo.zeta(order, order - k)


def test_inverse_one_plus_i():
    # (1 + i)^-1 = (1 - i)/2, worked out by hand
    a = Cyclo.one(4) + Cyclo.zeta(4)
    expected = (Cyclo.one(4) - Cyclo.zeta(4)).scaled(Fraction(1, 2))
    assert a.inverse() == expected


def test_order_mismatch_raises():
    with pytest.raises(ScalarError):
        Cyclo.one(3) * Cyclo.one(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(4).inverse()


def test_embed():
    z3 = Cyclo.zeta(3)
    z12 = z3.embed(12)
    assert z12 == Cyclo.zeta(12, 4)
    assert (z12 ** 3).is_one()


def test_multiplicative_order():
    assert Cyclo.one(5).multiplicative_order() == 1
    assert Cyclo.zeta(8).multiplicative_order() == 8
    assert Cyclo.zeta(8, 2).multiplicative_order() == 4
    assert Cyclo.from_rational(2, 3).multiplicative_order() is None


def test_lcm():
    assert lcm(2, 3, 4) == 12
    assert lcm(1) == 1


def _rationals():
    return st.builds(
        Fraction,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=12),
    )


def _cyclos(order):
    phi = euler_phi(order)
    return st.builds(
        lambda cs: Cyclo(order, cs),
        st.lists(_rationals(), min_size=phi, max_size=phi),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 8, 12]).flatmap(
    lambda n: st.tuples(_cyclos(n), _cyclos(n), _cyclos(n))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 8, 12]).flatmap(_cyclos))
def test_serialize_parse_roundtrip(a):
    text = format_scalar(a)
    assert parse_scalar(text, a.order) == a


def test_parse_rational_into_larger_field():
    v = parse_scalar("3/2", 4)
    assert v == Cyclo.from_rational(Fraction(3, 2), 4)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ScalarError):
        parse_scalar("1/0", 2)


def test_parse_embeds_smaller_order():
    v = parse_scalar("[0,1]@3", 12)
    assert v == Cyclo.zeta(12, 4)


ORDERS = [1, 2, 3, 4, 5, 6, 8, 12]


def _check_canonical(v):
    assert v.den > 0 and gcd(v.den, *v.num) == 1
    assert len(v.num) == euler_phi(v.order)
    if v.is_zero():
        assert v.den == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(_cyclos(n), _cyclos(n), _rationals())))
def test_results_are_in_lowest_terms(triple):
    a, b, q = triple
    results = [a, a + b, a - b, a - a, a * b, -a, a.scaled(q), a.scaled(0)]
    if not a.is_zero():
        results.append(a.inverse())
    for v in results:
        _check_canonical(v)
        assert hash(v) == hash(Cyclo(v.order, v.coeffs))
        assert all(isinstance(c, Fraction) for c in v.coeffs)
        assert Cyclo(v.order, v.coeffs) == v


def test_construction_reduces_to_lowest_terms():
    a = Cyclo(3, [Fraction(2, 4), 1])
    assert a == Cyclo(3, [Fraction(1, 2), Fraction(1)])
    assert (a.num, a.den) == ((1, 2), 2)
    assert hash(a) == hash(Cyclo(3, [Fraction(1, 2), Fraction(1)]))
    zero = Cyclo(4, [Fraction(0, 7), 0])
    assert (zero.num, zero.den) == ((0, 0), 1) and zero == Cyclo.zero(4)


def test_length_mismatch_raises():
    with pytest.raises(ScalarError):
        Cyclo(3, [1])
    with pytest.raises(ScalarError):
        Cyclo(1, [1, 0])


# -- sympy oracle: polynomials reduced mod Phi_N, no code shared with scalar.py


def _sympy_field(order):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.cyclotomic_poly(order, x)
    phi = sympy.degree(modulus, x)

    def to_poly(a):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                   for k, c in enumerate(a.coeffs))

    def to_coeffs(expr):
        reduced = sympy.Poly(sympy.rem(sympy.expand(expr), modulus, x), x)
        low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(reduced.all_coeffs())]
        return tuple(low_first + [Fraction(0)] * (phi - len(low_first)))

    return sympy, x, modulus, to_poly, to_coeffs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(_cyclos(n), _cyclos(n))))
def test_arithmetic_matches_sympy(pair):
    a, b = pair
    sympy, x, modulus, to_poly, to_coeffs = _sympy_field(a.order)
    pa, pb = to_poly(a), to_poly(b)
    assert (a + b).coeffs == to_coeffs(pa + pb)
    assert (a - b).coeffs == to_coeffs(pa - pb)
    assert (a * b).coeffs == to_coeffs(pa * pb)
    if not a.is_zero():
        assert a.inverse().coeffs == to_coeffs(sympy.invert(pa, modulus, x))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(m, n) for m in ORDERS for n in ORDERS
                        if n % m == 0]).flatmap(
    lambda mn: st.tuples(_cyclos(mn[0]), st.just(mn[1]))))
def test_embed_matches_sympy(pair):
    a, new_order = pair
    _, x, _, to_poly, _ = _sympy_field(a.order)
    _, _, _, _, to_coeffs = _sympy_field(new_order)
    # zeta_M -> zeta_N^(N/M)
    image = to_poly(a).subs(x, x ** (new_order // a.order))
    assert a.embed(new_order).coeffs == to_coeffs(image)


# orders whose unit group (Z/N)^* is cyclic (7, 9) and not cyclic (15, 16, 20,
# 24, 30), so the conjugate product runs over both kinds of Galois group
INVERSE_ORDERS = [7, 9, 15, 16, 20, 24, 30]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INVERSE_ORDERS).flatmap(_cyclos))
def test_inverse_matches_sympy_invert(a):
    if a.is_zero():
        return
    sympy, x, modulus, to_poly, to_coeffs = _sympy_field(a.order)
    inv = a.inverse()
    assert inv.coeffs == to_coeffs(sympy.invert(to_poly(a), modulus, x))
    _check_canonical(inv)


@pytest.mark.parametrize("order", [3, 5, 12, 16, 30])
def test_inverse_of_rational_in_extension_field(order):
    for q in (Fraction(-3, 7), Fraction(5), Fraction(1, 4), Fraction(-1)):
        inv = Cyclo.from_rational(q, order).inverse()
        assert inv == Cyclo.from_rational(1 / q, order)
        _check_canonical(inv)


# -- the quadratic fields: products in closed form, against the polynomial
# -- reduction and sympy

QUADRATIC_ORDERS = [3, 4, 6]


def _quadratic_operands(rng, order):
    """Seeded operands over Q(zeta_N): denominators, zero, one, a rational, pure z."""
    def coeff():
        return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 12]))
    vals = [Cyclo(order, [coeff(), coeff()]) for _ in range(24)]
    vals += [Cyclo.zero(order), Cyclo.one(order), -Cyclo.one(order),
             Cyclo(order, [Fraction(5, 3), 0]), Cyclo.zeta(order), Cyclo(order, [0, Fraction(-2, 9)])]
    return vals


def _by_polynomials(a, b):
    """a b from the integer polynomial product reduced modulo Phi_N."""
    poly = _reduced(a.order, _poly_mul(a.num, b.num))
    return Cyclo(a.order, [Fraction(c, a.den * b.den) for c in poly])


@pytest.mark.parametrize("order", QUADRATIC_ORDERS)
def test_quadratic_products_match_the_polynomial_reduction_and_sympy(order):
    rng = random.Random("quadratic:%d" % order)
    sympy, x, modulus, to_poly, to_coeffs = _sympy_field(order)
    vals = _quadratic_operands(rng, order)
    zero, one = Cyclo.zero(order), Cyclo.one(order)
    for a in vals:
        assert a * one is a and one * a is a  # x * 1 shares the operand
        for b in rng.sample(vals, 8):
            prod = a * b
            _check_canonical(prod)
            assert prod == _by_polynomials(a, b)
            assert prod.coeffs == to_coeffs(to_poly(a) * to_poly(b))
            assert prod.is_zero() == (a.is_zero() or b.is_zero())
            cur = rng.choice(vals)
            for c in (cur, None, prod):  # c = a b cancels to zero
                got = sub_mul(c, a, b)
                _check_canonical(got)
                assert got == (zero if c is None else c) - _by_polynomials(a, b)
            assert sub_mul(prod, a, b) == zero


@pytest.mark.parametrize("order", QUADRATIC_ORDERS)
def test_quadratic_unpacker_reads_sums_of_packed_products(order):
    rng = random.Random("unpacker:%d" % order)
    _, _, _, to_poly, to_coeffs = _sympy_field(order)
    vals = _quadratic_operands(rng, order)
    for trial in range(40):
        k = rng.randint(1, 6)
        left, right = rng.sample(vals, k), rng.sample(vals, k)
        if trial % 4 == 0:  # a sum that cancels to zero
            left, right = left + [-v for v in left], right + right
        (aden, abits), (bden, bbits) = cleared(left), cleared(right)
        width = abits + bbits + (len(left) * 2).bit_length() + 1
        pa = packed(dict(enumerate(left)), aden, width)
        pb = packed(dict(enumerate(right)), bden, width)
        got = unpacker(order, width)(sum(pa[i] * pb[i] for i in pa), aden * bden)
        _check_canonical(got)
        want = sum((_by_polynomials(u, v) for u, v in zip(left, right)), Cyclo.zero(order))
        assert got == want
        assert got.coeffs == to_coeffs(sum(to_poly(u) * to_poly(v) for u, v in zip(left, right)))
        if trial % 4 == 0:
            assert got.is_zero()
    with pytest.raises(AssertionError, match="overflows"):
        unpacker(order, 4)(1 << 40, 1)
