"""Exact scalars: rationals and elements of a fixed cyclotomic field Q(zeta_N).

Every computation in this package runs over one cyclotomic field Q(zeta_N),
with N chosen once per session (the lcm of the group exponent, the nilpotency
index n and the encoding order of the root mu).  Elements are stored on the
power basis 1, z, ..., z^(phi(N)-1) reduced modulo the N-th cyclotomic
polynomial, so equality of coefficient vectors is equality in the field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ScalarError(ValueError):
    """Structural error in scalar construction or arithmetic."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ScalarError("order must be positive, got %r" % (n,))
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # exact division of integer polynomials, den monic
    num = list(num)
    q = [0] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first, monic."""
    if n < 1:
        raise ScalarError("order must be positive, got %r" % (n,))
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Vectors of z^k on the power basis for k = phi(n) .. 2*phi(n)-2."""
    phi = euler_phi(n)
    cyc = cyclotomic_polynomial(n)
    # z^phi = -(c_0 + c_1 z + ... + c_{phi-1} z^{phi-1})
    rows: list[tuple[Fraction, ...]] = []
    top = [Fraction(-c) for c in cyc[:phi]]
    current = list(top)
    rows.append(tuple(current))
    for _ in range(phi - 2):
        shifted = [_ZERO] + current[:-1]
        lead = current[-1]
        if lead:
            shifted = [shifted[j] + lead * top[j] for j in range(phi)]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


class Cyclo:
    """Element of Q(zeta_N) in canonical reduced form.

    Immutable; two values are equal iff orders and coefficient vectors agree.
    """

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ScalarError(
                "coefficient vector has length %d, expected phi(%d) = %d"
                % (len(coeffs), order, phi)
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q, order: int = 1) -> "Cyclo":
        q = q if isinstance(q, Fraction) else Fraction(q)
        phi = euler_phi(order)
        return Cyclo(order, (q,) + (_ZERO,) * (phi - 1))

    @staticmethod
    def zero(order: int = 1) -> "Cyclo":
        return _cached_const(order, 0)

    @staticmethod
    def one(order: int = 1) -> "Cyclo":
        return _cached_const(order, 1)

    @staticmethod
    def zeta(order: int, power: int = 1) -> "Cyclo":
        """zeta_order ** power as a field element."""
        phi = euler_phi(order)
        power %= order
        if phi == 1:
            # Q(zeta_1) = Q(zeta_2) = Q
            val = _ONE if (order == 1 or power == 0) else -_ONE
            return Cyclo.from_rational(val, order)
        if power < phi:
            vec = [_ZERO] * phi
            vec[power] = _ONE
            return Cyclo(order, vec)
        z = Cyclo(order, [_ZERO, _ONE] + [_ZERO] * (phi - 2))
        return z ** power

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.order, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "Cyclo(%r)" % (format_scalar(self),)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Cyclo"):
        if self.order != other.order:
            raise ScalarError(
                "cyclotomic order mismatch: %d vs %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        return Cyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        return Cyclo(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Cyclo(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        if phi == 1:
            return Cyclo(self.order, (a[0] * b[0],))
        prod = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        table = _reduction_table(self.order)
        out = prod[:phi]
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                row = table[k - phi]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclo(self.order, out)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        phi = len(self.coeffs)
        if phi == 1:
            return Cyclo(self.order, (1 / self.coeffs[0],))
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.coeffs)
        # extended gcd of a and mod over Q[x]
        r0, r1 = mod, _trim(a)
        s0, s1 = [_ZERO], [_ONE]
        while _degree(r1) > 0:
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _degree(r1) < 0:
            raise ScalarError("element is a zero divisor; Phi_N not irreducible?")
        lead = r1[0]
        inv = [c / lead for c in s1]
        _, inv = _poly_divmod_frac(inv, mod)
        inv = inv + [_ZERO] * (phi - len(inv))
        result = Cyclo(self.order, inv[:phi])
        if not (result * self).is_one():
            raise AssertionError("inverse verification failed")
        return result

    def __truediv__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scaled(self, q) -> "Cyclo":
        q = q if isinstance(q, Fraction) else Fraction(q)
        return Cyclo(self.order, tuple(c * q for c in self.coeffs))

    def embed(self, new_order: int) -> "Cyclo":
        """Image under Q(zeta_M) -> Q(zeta_N), zeta_M -> zeta_N^(N/M); needs M | N."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ScalarError(
                "cannot embed Q(zeta_%d) into Q(zeta_%d)" % (self.order, new_order)
            )
        step = new_order // self.order
        out = Cyclo.zero(new_order)
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + Cyclo.zeta(new_order, k * step).scaled(c)
        return out

    def multiplicative_order(self) -> int | None:
        """Order as a root of unity, or None if not one (bounded by 2N)."""
        if self.is_zero():
            return None
        acc = self
        for k in range(1, 2 * self.order + 1):
            if acc.is_one():
                return k
            acc = acc * self
        return None


@lru_cache(maxsize=None)
def _cached_const(order: int, value: int) -> Cyclo:
    return Cyclo.from_rational(Fraction(value), order)


# -- small polynomial helpers over Q (low degree first) -------------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _degree(p):
    return len(_trim(p)) - 1


def _poly_mul(a, b):
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _poly_divmod_frac(num, den):
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(0, len(num) - len(den) + 1)
    num = list(num)
    dlead = den[-1]
    while len(num) >= len(den) and _trim(num):
        shift = len(num) - len(den)
        c = num[-1] / dlead
        q[shift] = c
        for j, d in enumerate(den):
            num[shift + j] -= c * d
        num = num[:-1]
        while num and num[-1] == 0:
            num.pop()
    return _trim(q), _trim(num)


# -- textual encoding ------------------------------------------------------


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            d = int(den)
            if d == 0:
                raise ScalarError("zero denominator in %r" % text)
            return Fraction(int(num), d)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError("cannot parse rational %r" % text) from exc


def format_scalar(value: Cyclo) -> str:
    """Canonical text form: bare rational, or ``[c0,c1,...]@N``."""
    if value.order == 1 or (value.is_rational() and value.order <= 2):
        if value.is_rational():
            return format_rational(value.coeffs[0])
    return "[%s]@%d" % (",".join(format_rational(c) for c in value.coeffs), value.order)


def parse_scalar(text: str, order: int) -> Cyclo:
    """Parse ``p/q`` or ``[c0,...]@M`` and embed into Q(zeta_order)."""
    text = text.strip()
    if text.startswith("["):
        if "@" not in text:
            raise ScalarError("missing @order in %r" % text)
        body, order_text = text.rsplit("@", 1)
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ScalarError("malformed scalar %r" % text)
        try:
            declared = int(order_text)
        except ValueError as exc:
            raise ScalarError("bad order in %r" % text) from exc
        parts = [p for p in body[1:-1].split(",") if p.strip() != ""]
        coeffs = [parse_rational(p) for p in parts]
        phi = euler_phi(declared)
        if len(coeffs) != phi:
            raise ScalarError(
                "scalar %r has %d coefficients, expected %d" % (text, len(coeffs), phi)
            )
        return Cyclo(declared, coeffs).embed(order)
    return Cyclo.from_rational(parse_rational(text), order)


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        if v:
            out = out * v // gcd(out, v)
    return out
