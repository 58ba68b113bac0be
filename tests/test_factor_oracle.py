"""factor_rational against sympy's factor_list, an implementation it shares no code with.

Seeded squarefree integer polynomials of degree up to 8, random ones and
products of random ones, plus fixed cases that need Zassenhaus subset
recombination (x^4 + 1 splits modulo every prime but is irreducible over Q)
and non-monic ones, which go through the monic substitution x -> x/lc.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dyntwist import polys  # noqa: E402
from dyntwist.polys import factor_rational  # noqa: E402

X = sympy.Symbol("x")


def _poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _sympy_factors(coeffs):
    """The monic irreducible factors over Q by sympy, repeated by multiplicity."""
    out = []
    for f, mult in sympy.factor_list(_poly(coeffs))[1]:
        cs = [Fraction(str(c)) for c in reversed(f.all_coeffs())]
        out += [[c / cs[-1] for c in cs]] * mult
    return sorted(out)


def _random_poly(rng, degree):
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([1, 1, 2, 3, -2])]
        if _poly(coeffs).is_sqf:
            return coeffs


def _seeded_cases(seed):
    rng = random.Random(seed)
    yield _random_poly(rng, rng.randint(1, 8))
    for _ in range(20):
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        if sum(degrees) > 8:
            continue
        product = [1]
        for d in degrees:
            product = polys.poly_mul(product, _random_poly(rng, d))
        if _poly(product).is_sqf:
            yield product
            return


@pytest.mark.parametrize("seed", range(40))
def test_factor_rational_agrees_with_sympy_on_seeded_polynomials(seed):
    for coeffs in _seeded_cases(seed):
        assert sorted(factor_rational(coeffs)) == _sympy_factors(coeffs), coeffs


def _counting(monkeypatch, name):
    calls = []
    original = getattr(polys, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polys, name, wrapper)
    return calls


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 0, 1],                          # x^4 + 1, irreducible
    [1, 0, 0, 0, 0, 0, 0, 0, 1],              # x^8 + 1, irreducible
    [1, 1, 0, 0, 2, 1, 0, 0, 1],              # (x^4 + 1)(x^4 + x + 1)
])
def test_monic_cases_reach_subset_recombination(coeffs, monkeypatch):
    calls = _counting(monkeypatch, "_recombine")
    assert sorted(factor_rational(coeffs)) == _sympy_factors(coeffs)
    # more modular factors than rational ones: subsets had to be tried
    assert calls and len(calls[0][1]) > len(_sympy_factors(coeffs))


def test_recombination_finds_a_split_quartic():
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2), no rational root
    assert sorted(factor_rational([4, 0, 0, 0, 1])) == _sympy_factors([4, 0, 0, 0, 1])


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 0, 2],                          # 2x^4 + 1, irreducible
    [1, 0, 0, 0, 4],                          # 4x^4 + 1 = (2x^2 + 2x + 1)(2x^2 - 2x + 1)
    [2, 0, 7, 0, 6],                          # (2x^2 + 1)(3x^2 + 2)
    [1, 0, 0, 0, 0, 3],                       # 3x^5 + 1, irreducible
])
def test_non_monic_cases_go_through_the_monic_substitution(coeffs):
    assert _poly(coeffs).is_sqf
    assert sorted(factor_rational(coeffs)) == _sympy_factors(coeffs)
