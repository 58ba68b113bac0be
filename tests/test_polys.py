import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist.polys import (
    FactorUnknown,
    _hensel_lift_pair,
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


# -- the same routines over Z/m -------------------------------------------------
#
# The checks below multiply and subtract with the plain helpers here, not with
# the routines under test, and compare residues mod m.

MODULI = [3, 5, 7, 3 ** 3, 5 ** 2, 7 ** 2]


def _residues(p, m):
    out = [c % m for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def _convolve(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _random_poly(rng, deg, m, unit_lead=False):
    p = [rng.randrange(m) for _ in range(deg)]
    lead = rng.randrange(1, m)
    while unit_lead and gcd(lead, m) != 1:
        lead = rng.randrange(1, m)
    return p + [lead]


@pytest.mark.parametrize("m", MODULI)
def test_divmod_mod_m_is_division_with_remainder(m):
    # over Z/p^k the divisor needs a unit leading coefficient
    rng = random.Random(m)
    for _ in range(40):
        a = _random_poly(rng, rng.randint(0, 7), m)
        b = _random_poly(rng, rng.randint(0, 4), m, unit_lead=True)
        q, r = poly_divmod(a, b, m)
        assert degree(r) < degree(b)
        assert _residues(_add(_convolve(q, b), r), m) == _residues(a, m)
        assert all(0 <= c < m for c in q + r)


@pytest.mark.parametrize("m", MODULI)
def test_xgcd_mod_m_satisfies_bezout_with_a_monic_gcd(m):
    rng = random.Random(100 + m)
    checked = 0
    for _ in range(60):
        a = _random_poly(rng, rng.randint(0, 6), m)
        b = _random_poly(rng, rng.randint(0, 5), m)
        try:
            g, u, v = poly_xgcd(a, b, m)
        except ValueError:
            # over Z/p^k a remainder's leading coefficient can be a non-unit
            assert m not in (3, 5, 7)
            continue
        assert g and g[-1] == 1
        assert _residues(_add(_convolve(u, a), _convolve(v, b)), m) == g
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gcd_mod_p_is_monic_and_divides_both(p):
    rng = random.Random(200 + p)
    nontrivial = 0
    for _ in range(40):
        common = _random_poly(rng, rng.randint(0, 3), p)
        a = _convolve(common, _random_poly(rng, rng.randint(0, 4), p))
        b = _convolve(common, _random_poly(rng, rng.randint(0, 4), p))
        g = poly_gcd(a, b, p)
        assert g[-1] == 1
        assert not poly_divmod(a, g, p)[1] and not poly_divmod(b, g, p)[1]
        # the common factor divides the gcd
        assert not poly_divmod(g, common, p)[1]
        nontrivial += degree(g) > 0
    assert nontrivial >= 10


@pytest.mark.parametrize("p", [3, 5])
def test_hensel_lift_of_equal_factors_is_refused(p):
    g = [1, 1, 1]
    with pytest.raises(FactorUnknown, match="not coprime"):
        _hensel_lift_pair(_convolve(g, g), g, g, p, p ** 4)
