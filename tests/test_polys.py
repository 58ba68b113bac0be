import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist.polys import (
    degree,
    factor_rational,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_xgcd,
)


def F(*cs):
    return [Fraction(c) for c in cs]


def test_divmod_roundtrip():
    a = F(1, 0, 2, 3)
    b = F(1, 1)
    q, r = poly_divmod(a, b)
    assert degree(r) < degree(b)
    qb = poly_mul(q, b)
    n = max(len(qb), len(r), len(a))
    pad = lambda p: p + [Fraction(0)] * (n - len(p))
    assert [x + y for x, y in zip(pad(qb), pad(r))] == pad(a)


def test_gcd():
    a = poly_mul(F(1, 1), F(2, 3))
    b = poly_mul(F(1, 1), F(-1, 1))
    g = poly_gcd(a, b)
    assert g == F(1, 1)


def test_xgcd_bezout():
    a, b = F(1, 0, 1), F(1, 1)
    g, u, v = poly_xgcd(a, b)
    lhs = [x + y for x, y in zip(poly_mul(u, a) + [Fraction(0)] * 5, poly_mul(v, b) + [Fraction(0)] * 5)]
    while lhs and lhs[-1] == 0:
        lhs.pop()
    assert lhs == g


def test_factor_quadratic_split():
    # (x-1)(x-2)
    facs = factor_rational(F(2, -3, 1))
    assert facs == sorted([F(-1, 1), F(-2, 1)])


def test_factor_irreducible_quadratic():
    assert len(factor_rational(F(1, 0, 1))) == 1
    assert len(factor_rational(F(1, 1, 1))) == 1


def test_factor_cubic_with_root():
    # (x-1)(x^2+1)
    p = poly_mul(F(-1, 1), F(1, 0, 1))
    facs = factor_rational(p)
    assert sorted(facs) == sorted([F(-1, 1), F(1, 0, 1)])


def test_factor_quartic_product_of_quadratics():
    # (x^2+1)(x^2+2) -- needs Zassenhaus (no rational roots)
    p = poly_mul(F(1, 0, 1), F(2, 0, 1))
    facs = factor_rational(p)
    assert sorted(facs) == sorted([F(1, 0, 1), F(2, 0, 1)])


def test_factor_irreducible_quartic():
    # x^4 + x + 1 is irreducible over Q
    assert len(factor_rational(F(1, 1, 0, 0, 1))) == 1


def test_factor_degree_six():
    # (x^2+x+1)(x^3-2)(x-5)
    p = poly_mul(poly_mul(F(1, 1, 1), F(-2, 0, 0, 1)), F(-5, 1))
    facs = factor_rational(p)
    assert sorted(facs) == sorted([F(1, 1, 1), F(-2, 0, 0, 1), F(-5, 1)])


def test_factor_with_denominators():
    # 1/2 (x-1/3)(x+2) scaled: monic factors returned
    p = poly_mul(F(Fraction(-1, 3), 1), F(2, 1))
    p = [c * Fraction(1, 2) for c in p]
    facs = factor_rational(p)
    assert sorted(facs) == sorted([F(Fraction(-1, 3), 1), F(2, 1)])


def test_factor_non_monic_degree_seven():
    # the monic substitution gives a constant term of order 10^20, too large for a
    # search of its divisors for rational roots; the factors are sympy's
    p = F(-49, Fraction(-497, 9), Fraction(3721, 54), Fraction(917, 6), Fraction(421, 6),
          -71, Fraction(-155, 3), Fraction(25, 2))
    assert factor_rational(p) == sorted([
        F(Fraction(-14, 3), -4, 1),
        F(Fraction(-7, 5), Fraction(-8, 15), 1),
        F(Fraction(-3, 5), Fraction(1, 15), Fraction(2, 5), 1),
    ])


def test_factor_rejects_a_square():
    with pytest.raises(ValueError):
        factor_rational(F(1, -2, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 99999))
def test_factor_product_roundtrip(seed):
    rng = random.Random(seed)
    irreducibles = [F(1, 0, 1), F(1, 1, 1), F(-2, 0, 1), F(3, 1), F(-1, 1), F(1, 1)]
    chosen = rng.sample(irreducibles, k=rng.randint(1, 3))
    p = [Fraction(1)]
    for f in chosen:
        p = poly_mul(p, f)
    # keep squarefree: distinct sample elements are coprime
    facs = factor_rational(p)
    assert sorted(facs) == sorted(chosen)
