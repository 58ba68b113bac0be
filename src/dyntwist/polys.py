"""Univariate polynomials over Q and factorization support.

Used by the H-simplicity certificate: minimal polynomials of commutant
elements are factored over Q (idempotents are scalar-agnostic, so working
over Q decides field-ness of the commutant even when the session field is a
larger cyclotomic).  Factorization takes one path: the squarefree input is
made a monic integer polynomial by the substitution x -> x/lc, which
Zassenhaus factors (Berlekamp over a small prime, Hensel lifting, subset
recombination).  Degrees seen in practice are tiny; hard ceilings turn
pathological inputs into an explicit "unknown" verdict instead of runaway
time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


class FactorUnknown(Exception):
    """Raised when the factorizer declines (degree/effort ceiling)."""


# polynomials are lists of Fractions (or ints for Z[x]), low degree first


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p) -> int:
    return len(trim(p)) - 1


def poly_mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_divmod(a, b):
    a, b = [Fraction(x) for x in trim(a)], [Fraction(x) for x in trim(b)]
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for j in range(len(b)):
            a[shift + j] -= c * b[j]
        a.pop()
        a = trim(a)
    return trim(q), trim(a)


def poly_gcd(a, b):
    a, b = trim(a), trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = trim(a), trim(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    if not r0:
        return [], [], []
    lead = r0[-1]
    return ([c / lead for c in r0], [c / lead for c in u0], [c / lead for c in v0])


def poly_sub(a, b):
    """a - b; padding with int 0 keeps integer inputs integer."""
    return trim([x - y for x, y in zip_pad(a, b)])


def poly_deriv(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def is_squarefree(p) -> bool:
    return degree(poly_gcd(p, poly_deriv(p))) <= 0


def to_primitive_int(p):
    """Clear denominators and content; returns integer coefficient list."""
    p = trim(p)
    if not p:
        return []
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


# -- arithmetic mod a prime --------------------------------------------------


def _pmod(p, m):
    return trim([c % m for c in p])


def _pmul_mod(a, b, m):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    return trim(out)


def _pdivmod_mod(a, b, m):
    a, b = trim([c % m for c in a]), trim([c % m for c in b])
    if not b:
        raise ZeroDivisionError
    inv_lead = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        c = (a[-1] * inv_lead) % m
        shift = len(a) - len(b)
        q[shift] = c
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % m
        a = trim(a)
    return trim(q), trim(a)


def _pgcd_mod(a, b, m):
    a, b = trim([c % m for c in a]), trim([c % m for c in b])
    while b:
        _, r = _pdivmod_mod(a, b, m)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, m)
        a = [(c * inv) % m for c in a]
    return a


def _ppow_mod(base, e, mod_poly, m):
    result = [1]
    base = _pdivmod_mod(base, mod_poly, m)[1]
    while e:
        if e & 1:
            result = _pdivmod_mod(_pmul_mod(result, base, m), mod_poly, m)[1]
        base = _pdivmod_mod(_pmul_mod(base, base, m), mod_poly, m)[1]
        e >>= 1
    return result


def _berlekamp(f, p):
    """Irreducible factors of squarefree monic f over F_p (deterministic)."""
    n = degree(f)
    if n <= 1:
        return [f]
    # Berlekamp matrix: rows are x^(p*i) mod f
    rows = []
    for i in range(n):
        xi = [0] * (i + 1)
        xi[i] = 1
        rows.append(_ppow_mod(xi, p, f, p))
    # Q - I as column-style system: kernel over F_p
    mat = [[0] * n for _ in range(n)]
    for i, r in enumerate(rows):
        for j, c in enumerate(r):
            mat[j][i] = c  # transpose: columns indexed by i
    for i in range(n):
        mat[i][i] = (mat[i][i] - 1) % p
    basis = _fp_kernel(mat, p)
    if len(basis) == 1:
        return [f]
    factors = [f]
    for v in basis[1:]:
        new_factors = []
        for g in factors:
            if degree(g) <= 1:
                new_factors.append(g)
                continue
            pieces = []
            rem = g
            for c in range(p):
                if degree(rem) <= 0:
                    break
                h = _pgcd_mod(rem, poly_sub_mod(v, c, p), p)
                if 0 < degree(h) <= degree(rem):
                    pieces.append(h)
                    rem = _pdivmod_mod(rem, h, p)[0]
            if degree(rem) > 0:
                pieces.append(rem)
            new_factors.extend(pieces if pieces else [g])
        factors = new_factors
        if len(factors) == len(basis):
            break
    return factors


def poly_sub_mod(v, c, p):
    out = list(v)
    if not out:
        out = [0]
    out[0] = (out[0] - c) % p
    return trim(out)


def _fp_kernel(mat, p):
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = {}
    row_i = 0
    for col in range(n):
        sel = None
        for r in range(row_i, n):
            if m[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        m[row_i], m[sel] = m[sel], m[row_i]
        inv = pow(m[row_i][col], -1, p)
        m[row_i] = [(x * inv) % p for x in m[row_i]]
        for r in range(n):
            if r != row_i and m[r][col] % p:
                c = m[r][col]
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[row_i])]
        pivots[col] = row_i
        row_i += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pc, pr in pivots.items():
            v[pc] = (-m[pr][col]) % p
        basis.append(v)
    return basis


def _hensel_lift_pair(f, g, h, p, target):
    """Lift f = g*h (mod p) to mod p^k >= target; f, g, h monic integer polys.

    The Bezout pair u*g + v*h = 1 is lifted with g and h: the Euclidean
    algorithm is not valid modulo p^k, where a remainder's leading
    coefficient can be divisible by p.
    """
    _, u, v = _xgcd_mod(g, h, p)
    m = p
    while m < target:
        m2 = m * m
        e = [c % m2 for c in poly_sub(f, poly_mul(g, h))]
        # g' = g + (v*e mod g), h' = h + (u*e mod h) over Z/m2
        r = _pdivmod_mod(poly_mul(v, e), g, m2)[1]
        g = trim([(a + b) % m2 for a, b in zip_pad(g, r)])
        r = _pdivmod_mod(poly_mul(u, e), h, m2)[1]
        h = trim([(a + b) % m2 for a, b in zip_pad(h, r)])
        # u g + v h = 1 + b with b = 0 mod m, so w = 1 - b gives (1 + b) w = 1
        # mod m2; u' = u w mod h and v' = v w + (u w div h) g keep u' g + v' h
        w = poly_sub(poly_sub([2], poly_mul(u, g)), poly_mul(v, h))
        q, u = _pdivmod_mod(poly_mul(u, w), h, m2)
        v = trim([(a + b) % m2 for a, b in zip_pad(poly_mul(v, w), poly_mul(q, g))])
        m = m2
    return g, h, m


def zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def _xgcd_mod(a, b, m):
    """(g, u, v) with u*a + v*b = g = 1 mod m (a, b coprime mod every prime of m)."""
    r0, r1 = trim([c % m for c in a]), trim([c % m for c in b])
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = _pdivmod_mod(r0, r1, m)
        r0, r1 = r1, r
        u0, u1 = u1, trim([(x - y) % m for x, y in zip_pad(u0, _pmul_mod(q, u1, m))])
        v0, v1 = v1, trim([(x - y) % m for x, y in zip_pad(v0, _pmul_mod(q, v1, m))])
    if degree(r0) != 0:
        raise FactorUnknown("factors not coprime during Hensel lift")
    inv = pow(r0[0], -1, m)
    return r0, [(c * inv) % m for c in u0], [(c * inv) % m for c in v0]


def _centered(c, m):
    c %= m
    return c - m if c > m // 2 else c


MAX_FACTOR_DEGREE = 24
MAX_SUBSET_FACTORS = 14


def factor_rational(p) -> list[list[Fraction]]:
    """Monic irreducible factors over Q of a squarefree polynomial, sorted.

    One path: the primitive integer form f with leading coefficient lc is
    made monic by f*(x) = lc^(n-1) f(x/lc), f* is factored by Zassenhaus,
    and each factor g* maps back to g*(lc x), made monic.  Raises ValueError
    on input that is not squarefree and FactorUnknown past the ceilings.
    """
    p = trim(Fraction(c) for c in p)
    n = degree(p)
    if n <= 0:
        return []
    if not is_squarefree(p):
        raise ValueError("factor_rational needs a squarefree polynomial")
    if n > MAX_FACTOR_DEGREE:
        raise FactorUnknown("degree %d beyond factoring ceiling" % n)
    zp = to_primitive_int(p)
    lc = zp[-1]
    monic = [c * lc ** (n - 1 - i) for i, c in enumerate(zp[:-1])] + [1]
    return sorted(_monic([c * lc ** i for i, c in enumerate(g)]) for g in _zassenhaus(monic))


def _monic(zp):
    lead = Fraction(zp[-1])
    return [Fraction(c) / lead for c in zp]


def _mignotte_bound(zp):
    n = degree(zp)
    norm = isqrt(sum(c * c for c in zp)) + 1
    return (2 ** n) * norm * abs(zp[-1])


def _zassenhaus(zp) -> list[list[Fraction]]:
    """Monic irreducible factors over Q of a squarefree monic integer polynomial."""
    # choose a prime keeping f squarefree (f is monic, so its degree cannot drop)
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        fp = _pmod(zp, p)
        if degree(_pgcd_mod(fp, poly_deriv_mod(fp, p), p)) == 0:
            break
    else:
        raise FactorUnknown("no suitable small prime for Zassenhaus")
    local = _berlekamp(fp, p)
    local.sort(key=lambda f: (degree(f), f))
    if len(local) == 1:
        return [_monic(zp)]
    # Hensel lift the full factorization pairwise (binary tree)
    bound = 2 * _mignotte_bound(zp) + 1

    def lift_group(f_int, parts, modulus_target):
        if len(parts) == 1:
            return [trim([c % modulus_target for c in f_int])]
        mid = len(parts) // 2
        g_p = [1]
        for q in parts[:mid]:
            g_p = _pmul_mod(g_p, q, p)
        h_p = [1]
        for q in parts[mid:]:
            h_p = _pmul_mod(h_p, q, p)
        g, h, _ = _hensel_lift_pair(f_int, g_p, h_p, p, modulus_target)
        return (lift_group(g, parts[:mid], modulus_target)
                + lift_group(h, parts[mid:], modulus_target))

    m = p
    while m < bound:
        m *= m
    return _recombine(zp, lift_group(zp, local, m), m)


def poly_deriv_mod(p, m):
    return trim([(i * c) % m for i, c in enumerate(p)][1:])


def _recombine(zp, pieces, m) -> list[list[Fraction]]:
    from itertools import combinations

    remaining = list(range(len(pieces)))
    f = list(zp)
    found: list[list[Fraction]] = []
    size = 1
    while 2 * size <= len(remaining):
        # single factors cost one trial each, so only subsets count against the ceiling
        if size == 2 and len(remaining) > MAX_SUBSET_FACTORS:
            raise FactorUnknown("too many modular factors for recombination")
        hit = True
        while hit and 2 * size <= len(remaining):
            hit = False
            for combo in combinations(remaining, size):
                cand = [1]
                for idx in combo:
                    cand = _pmul_mod(cand, pieces[idx], m)
                cand = [_centered(c, m) for c in cand]
                cand_q = [Fraction(c) for c in trim(cand)]
                if not cand_q:
                    continue
                q, r = poly_divmod([Fraction(c) for c in f], cand_q)
                if not r:
                    found.append(_monic(to_primitive_int(cand_q)))
                    f = to_primitive_int(q)
                    remaining = [i for i in remaining if i not in combo]
                    hit = True
                    break
        size += 1
    if degree([Fraction(c) for c in f]) > 0:
        found.append(_monic(f))
    return sorted(found)

