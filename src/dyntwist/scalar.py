"""Exact scalars: rationals and elements of a fixed cyclotomic field Q(zeta_N).

Every computation in this package runs over one cyclotomic field Q(zeta_N),
with N chosen once per session (the lcm of the group exponent, the nilpotency
index n and the encoding order of the root mu).  Elements are stored on the
power basis 1, z, ..., z^(phi(N)-1) reduced modulo the N-th cyclotomic
polynomial, as integer numerators over one common denominator in lowest
terms, so equality of the stored form is equality in the field.

Products have three paths by the degree phi(N): Q itself (phi = 1, N = 1, 2)
multiplies the one numerator; the quadratic fields (phi = 2, N = 3, 4, 6)
multiply in closed form, (a0 + a1 z)(b0 + b1 z) = (a0 b0 + r0 a1 b1) +
(a0 b1 + a1 b0 + r1 a1 b1) z with z^2 = r0 + r1 z; every larger field
multiplies the polynomials (``_poly_mul``, which ``polys`` shares) and
reduces modulo Phi_N (``_reduced``).  ``Cyclo.__mul__``, ``sub_mul`` and the
``unpacker`` reads take the same three paths.

The exact matrix kernels of ``linalg`` work on those integer numerators:
``cleared`` gives a common denominator of some values and a bound on their
numerators over it, ``packed`` writes each numerator polynomial as one
integer (Kronecker substitution), so a sum of products is a sum of integer
products, ``unpacker`` reads such a sum back, reduced modulo Phi_N and
normalised once, and ``sub_mul`` forms cur - a b with one normalisation.
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


@lru_cache(maxsize=None)
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
def _reduction_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer vectors of z^k on the power basis for k = phi(n) .. 2*phi(n)-2."""
    phi = euler_phi(n)
    cyc = cyclotomic_polynomial(n)
    # Phi_n is monic: z^phi = -(c_0 + c_1 z + ... + c_{phi-1} z^{phi-1})
    rows: list[tuple[int, ...]] = []
    top = [-c for c in cyc[:phi]]
    current = list(top)
    rows.append(tuple(current))
    for _ in range(phi - 2):
        shifted = [0] + current[:-1]
        lead = current[-1]
        if lead:
            shifted = [shifted[j] + lead * top[j] for j in range(phi)]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


# z^2 = r0 + r1 z in the quadratic fields Q(zeta_N), phi(N) = 2
_QUADRATIC = {n: _reduction_table(n)[0] for n in (3, 4, 6)}


@lru_cache(maxsize=None)
def _conjugation_table(n: int) -> tuple:
    """sigma_k(z^i) = z^(i k mod n) for each unit k != 1 mod n and i < phi(n).

    One row per unit k, in increasing order; entry i of a row lists the
    (j, c) with c != 0 of z^(i k mod n) on the power basis.
    """
    phi = euler_phi(n)
    powers = [[(j, c) for j, c in enumerate(Cyclo.zeta(n, p).num) if c] for p in range(n)]
    return tuple(tuple(powers[i * k % n] for i in range(phi))
                 for k in range(2, n) if gcd(k, n) == 1)


def _common_denominator(coeffs) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the lcm of the denominators of Fractions."""
    den = 1
    for c in coeffs:
        d = c.denominator
        den = den * d // gcd(den, d)
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


class Cyclo:
    """Element of Q(zeta_N) in canonical reduced form.

    Stored as integer numerators ``num`` over one denominator ``den > 0``
    with gcd(den, *num) = 1 (zero is 0/1), so two values are equal iff
    orders, numerators and denominators agree.  Immutable.
    """

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ScalarError(
                "coefficient vector has length %d, expected phi(%d) = %d"
                % (len(coeffs), order, phi)
            )
        num, den = _common_denominator(coeffs)
        _set_order(self, order)
        _set_num(self, num)
        _set_den(self, den)
        _set_hash(self, None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients on the power basis, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

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
        return not any(self.num)

    def is_one(self) -> bool:
        num = self.num
        return self.den == 1 and num[0] == 1 and not any(num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.order, self.num, self.den))
            _set_hash(self, h)
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
        d1, d2 = self.den, other.den
        return _make(self.order,
                     tuple([a * d2 + b * d1 for a, b in zip(self.num, other.num)]),
                     d1 * d2)

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        self._check(other)
        d1, d2 = self.den, other.den
        return _make(self.order,
                     tuple([a * d2 - b * d1 for a, b in zip(self.num, other.num)]),
                     d1 * d2)

    def __neg__(self):
        return _make(self.order, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self.order != other.order:
            self._check(other)  # raises
        a, b = self.num, other.num
        # a factor equal to 1 gives the other, which is immutable and so shared
        if b[0] == 1 and other.den == 1 and not any(b[1:]):
            return self
        if a[0] == 1 and self.den == 1 and not any(a[1:]):
            return other
        phi = len(a)
        if phi == 1:
            return _make(self.order, (a[0] * b[0],), self.den * other.den)
        if phi == 2:
            # N = 3, 4, 6: (a0 + a1 z)(b0 + b1 z) with z^2 = r0 + r1 z, in closed form
            r0, r1 = _QUADRATIC[self.order]
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return _make(self.order, (a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t),
                         self.den * other.den)
        return _make(self.order, tuple(_reduced(self.order, _poly_mul(a, b))),
                     self.den * other.den)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: a rational directly, otherwise adj(x) / N(x).

        adj(x) is the product of the Galois conjugates sigma_k(x), k in
        (Z/N)^*, k != 1, and N(x) = x adj(x) is the rational norm; all of it
        runs on the integer numerators.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        order, num, den = self.order, self.num, self.den
        if not any(num[1:]):
            n = num[0]
            return _make(order, (den if n > 0 else -den,) + num[1:], abs(n))
        phi = len(num)
        adj = None
        for images in _conjugation_table(order):
            conj = [0] * phi
            for i, c in enumerate(num):
                if c:
                    for j, t in images[i]:
                        conj[j] += c * t
            conj = _make(order, tuple(conj), 1)
            adj = conj if adj is None else adj * conj
        norm = _make(order, num, 1) * adj
        n = norm.num[0]
        if not n or not norm.is_rational():
            raise ScalarError("norm is not a nonzero rational; Phi_N not irreducible?")
        scale = den if n > 0 else -den
        result = _make(order, tuple([c * scale for c in adj.num]), abs(n))
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
        p = q.numerator
        return _make(self.order, tuple([c * p for c in self.num]),
                     self.den * q.denominator)

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


_new = object.__new__
_set_order = Cyclo.order.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__
_set_hash = Cyclo._hash.__set__


def _make(order: int, num: tuple[int, ...], den: int) -> Cyclo:
    """Cyclo from integer numerators over den > 0, reduced to lowest terms.

    The arithmetic's fast path: no validation and no euler_phi call.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    out = _new(Cyclo)
    _set_order(out, order)
    _set_num(out, num)
    _set_den(out, den)
    _set_hash(out, None)
    return out


def _poly_mul(a, b) -> list:
    """The polynomial product a b, of length len(a) + len(b) - 1.

    Coefficients low degree first: integer numerators here, and integers or
    Fractions in ``polys``.
    """
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return prod


def _reduced(order: int, poly: list[int]) -> list[int]:
    """poly modulo Phi_N on the power basis, for poly of length 2 phi(N) - 1.

    The reduction of ``Cyclo.__mul__``, ``sub_mul`` and ``unpacker`` for phi(N) >= 3.
    """
    phi = (len(poly) + 1) // 2
    out = poly[:phi]
    if phi > 1:
        table = _reduction_table(order)
        for k in range(phi, len(poly)):
            c = poly[k]
            if c:
                for j, r in enumerate(table[k - phi]):
                    if r:
                        out[j] += c * r
    return out


def sub_mul(cur: Cyclo | None, a: Cyclo, b: Cyclo) -> Cyclo:
    """cur - a b (cur None for zero), reduced and normalised once."""
    order = a.order
    if b.order != order or (cur is not None and cur.order != order):
        raise ScalarError("cyclotomic order mismatch in cur - a b")
    an, bn = a.num, b.num
    den = a.den * b.den
    if len(an) == 1:
        prod = (an[0] * bn[0],)
    elif len(an) == 2:
        # the closed form of Cyclo.__mul__, subtracted from cur in the same step
        r0, r1 = _QUADRATIC[order]
        a0, a1 = an
        b0, b1 = bn
        t = a1 * b1
        p0, p1 = a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t
        if cur is None:
            return _make(order, (-p0, -p1), den)
        (c0, c1), cd = cur.num, cur.den
        return _make(order, (c0 * den - p0 * cd, c1 * den - p1 * cd), cd * den)
    else:
        prod = _reduced(order, _poly_mul(an, bn))
    if cur is None:
        return _make(order, tuple([-c for c in prod]), den)
    cd = cur.den
    return _make(order, tuple([x * den - y * cd for x, y in zip(cur.num, prod)]), cd * den)


def cleared(values) -> tuple[int, int]:
    """(D, bits) for Cyclo values: the lcm D of their denominators, and a bit
    length that bounds every coefficient of every numerator over D."""
    values = list(values)
    if not values:
        return 1, 0
    den = lcm(*{v.den for v in values})
    nums = [v.num for v in values]
    top = max(max(map(max, nums)), -min(map(min, nums)))
    return den, top.bit_length() + den.bit_length()


def packed(row: dict, den: int, width: int) -> dict:
    """Each value of the {key: Cyclo} dict as the one integer p(2^width), for p
    its numerator polynomial over the common denominator den.

    A sum of products of packed values is the packed sum of the polynomial
    products (Kronecker substitution); ``unpacker(order, width)`` reads it
    back when every coefficient of that sum lies below 2^(width-1) in
    absolute value.  With width 0 (phi = 1) the value is the one numerator.
    """
    if not width:
        return {k: v.num[0] * (den // v.den) for k, v in row.items()}
    out = {}
    for k, v in row.items():
        x = 0
        for c in reversed(v.num):
            x = (x << width) + c
        out[k] = x * (den // v.den)
    return out


@lru_cache(maxsize=64)
def unpacker(order: int, width: int):
    """The map (x, den) -> p(zeta_N) / den, for x = p(2^width) as ``packed`` describes.

    p has degree at most 2 phi(N) - 2; the map reduces it modulo Phi_N (with
    z^2 = r0 + r1 z when phi(N) = 2) and normalises once.
    """
    phi = euler_phi(order)
    if phi == 1:
        return lambda x, den: _make(order, (x,), den)
    length = 2 * phi - 1
    full = 1 << width
    half, mask, top = full >> 1, full - 1, width * length
    # adding half to every slot makes every slot a plain nonnegative digit
    bias = sum(half << width * i for i in range(length))
    shifts = [width * i for i in range(length)]
    if phi == 2:
        r0, r1 = _QUADRATIC[order]
        w2 = 2 * width

        def read2(x: int, den: int) -> Cyclo:
            x += bias
            if x < 0 or x >> top:
                raise AssertionError("packed polynomial overflows its width")
            # x < 2^(3 width), so the top digit needs no mask
            p2 = (x >> w2) - half
            return _make(order, ((x & mask) - half + r0 * p2,
                                 ((x >> width) & mask) - half + r1 * p2), den)

        return read2

    def read(x: int, den: int) -> Cyclo:
        x += bias
        if x < 0 or x >> top:
            raise AssertionError("packed polynomial overflows its width")
        poly = [((x >> s) & mask) - half for s in shifts]
        return _make(order, tuple(_reduced(order, poly)), den)

    return read


@lru_cache(maxsize=None)
def _cached_const(order: int, value: int) -> Cyclo:
    return Cyclo.from_rational(Fraction(value), order)


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
        if declared < 1 or order % declared:
            raise ScalarError("cannot read %r in Q(zeta_%d)" % (text, order))
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
