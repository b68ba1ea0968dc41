"""Exact scalar arithmetic over Q and simple algebraic extensions Q[t]/(m(t)).

A :class:`Field` is described by a monic minimal polynomial m with rational
coefficients in ascending order; degree one means the plain rationals.
Scalars are residue classes modulo m, stored as coordinate vectors in the
power basis 1, t, ..., t^(deg m - 1) with `fractions.Fraction` entries, so
every operation is exact and no floating point appears anywhere.

A product does no polynomial division.  The schoolbook product of the
coordinates, skipping zeros, is folded down from the top (`Field.reduce`)
with the relation t^deg = sum_i -m_i t^i, whose nonzero terms each Field
tabulates once in `Field.fold`; the fold holds for any monic m.  Integral
table entries (every cyclotomic m) are stored as int, so folding a product
of integers, as `multipoly` does, stays in integers; a non-integral m folds
in Fractions through the same code.  Over Q (m = t, one coordinate) there
is nothing to fold and the product is one coordinate product (`Field.times`
on bare lists).  Inverses use the extended Euclidean algorithm, except over
Q, where the inverse of c is 1/c.

Reducible minimal polynomials are accepted by the library (the quotient is
then only a ring), and division raises when the divisor is not invertible
modulo m.  Map files, and so the certificates read against them, are
stricter: `serialize` accepts a min_poly of degree two or more only when it
is proven irreducible, either of degree 2 or 3 with no root found by
`rational_roots`, or by `is_cyclotomic_or_eisenstein`, and refuses any
min_poly of degree above 64, past which building the cyclotomic
candidates alone takes seconds, and over a minute at degree 1024.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Field", "Scalar", "QQ", "cyclotomic", "rational_roots", "is_cyclotomic_or_eisenstein"]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational; bools raise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and value.isascii():
        # plain -?[0-9]+(/[0-9]+)? through int(); anything else, Fraction's own parser
        num, slash, den = value.partition("/")
        if num[num.startswith("-"):].isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_ZERO = Fraction(0)


# Dense univariate helpers on ascending Fraction lists with no trailing zeros;
# used by inverses and by `cyclotomic`.

def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _umul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _usub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _udivmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    inv_lead = Fraction(1) / b[-1]
    while len(rem) >= len(b):
        f = rem[-1] * inv_lead
        pos = len(rem) - len(b)
        quo[pos] = f
        for i, bi in enumerate(b):
            rem[pos + i] -= f * bi
        _trim(rem)
    return _trim(quo), rem


def _uxgcd(a, b):
    """g, s, t with s*a + t*b = g for univariate rational polynomials."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _udivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _usub(s0, _umul(q, s1))
        t0, t1 = t1, _usub(t0, _umul(q, t1))
    return r0, s0, t0


class Field:
    """Q[t]/(m(t)) for a monic rational m(t); degree one is plain Q."""

    __slots__ = ("min_poly", "fold", "_zero", "_one")

    def __init__(self, min_poly):
        coeffs = tuple(as_fraction(c) for c in min_poly)
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = coeffs
        # t^deg = sum of -m_i t^i over the nonzero m_i, integral ones as int
        self.fold = tuple((i, int(-c) if c.denominator == 1 else -c)
                          for i, c in enumerate(coeffs[:-1]) if c)
        # one shared zero and one per field; coords are tuples, so nothing mutates them
        self._zero, self._one = self.scalar(0), self.scalar(1)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def reduce(self, prod):
        """The first deg entries of a product of length 2*deg - 1, folded modulo m in place."""
        deg = len(self.min_poly) - 1
        fold = self.fold
        for k in range(2 * deg - 2, deg - 1, -1):
            top = prod[k]
            if top:
                base = k - deg
                for i, c in fold:
                    prod[base + i] += top * c
        return prod[:deg]

    def times(self, a, b):
        """The product of two coordinate lists (integers, say), folded by `reduce`."""
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def scalar(self, value) -> "Scalar":
        """Embed a rational value (int, Fraction or 'p/q' string)."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value
        coords = [Fraction(0)] * self.degree
        coords[0] = as_fraction(value)
        return Scalar(self, tuple(coords))

    def element(self, coords) -> "Scalar":
        """Build a Scalar from power-basis coordinates (padded with zeros)."""
        cs = [as_fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("coordinate vector longer than the field degree")
        cs.extend([Fraction(0)] * (self.degree - len(cs)))
        return Scalar(self, tuple(cs))

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def generator(self) -> "Scalar":
        """The residue class of t; for degree one this is -m(0)."""
        if self.degree == 1:
            return self.scalar(-self.min_poly[0])
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return Scalar(self, tuple(coords))

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        if self.is_rational:
            return "Field(QQ)"
        return f"Field(min_poly={[str(c) for c in self.min_poly]})"


class Scalar:
    """An element of a Field, canonical coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        self.field = field
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if any extension part is present."""
        if any(self.coords[1:]):
            raise ValueError("scalar has a nonzero extension component")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("scalars belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coords, rhs.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coords, rhs.coords)))

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coords, rhs.coords
        deg = len(a)
        prod = [_ZERO] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Scalar(self.field, tuple(self.field.reduce(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        rep = _trim(list(self.coords))
        if not rep:
            raise ZeroDivisionError("not invertible modulo min_poly: zero")
        if self.field.degree == 1:
            return Scalar(self.field, (Fraction(1) / rep[0],))
        g, s, _ = _uxgcd(rep, list(self.field.min_poly))
        if len(g) != 1:
            raise ZeroDivisionError("not invertible modulo min_poly")
        inv = [c / g[0] for c in s]
        _, rem = _udivmod(inv, list(self.field.min_poly))
        rem.extend([Fraction(0)] * (self.field.degree - len(rem)))
        return Scalar(self.field, tuple(rem))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("scalar powers need a non-negative integer exponent")
        result = self.field.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.coords == rhs.coords

    def __repr__(self):
        if self.field.is_rational:
            return str(self.coords[0])
        parts = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts) if parts else "0"


QQ = Field([0, 1])


def cyclotomic(d: int) -> list:
    """Ascending integer coefficients of the d-th cyclotomic polynomial.

    Computed by exact division: Phi_d(t) = (t^d - 1) / prod_{e|d, e<d} Phi_e.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    phis = {}
    for k in range(1, d + 1):
        if d % k != 0:
            continue
        poly = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
        for e in range(1, k):
            if k % e == 0:
                quo, rem = _udivmod(poly, phis[e])
                if rem:
                    raise ArithmeticError("cyclotomic division left a remainder")
                poly = quo
        phis[k] = poly
    if any(c.denominator != 1 for c in phis[d]):
        raise ArithmeticError("cyclotomic coefficients must be integers")
    return [int(c) for c in phis[d]]


# Candidate roots p/q need the divisors of the constant and the leading
# coefficient, found by trial division up to their square roots; past this
# bound (about 10^5 divisions) the search is not run at all, nor past the
# degree bound map files put on min_poly, since each candidate costs powers up
# to the degree.
_ROOT_SEARCH_LIMIT = 10 ** 10
_ROOT_SEARCH_DEGREE = 64


def rational_roots(coeffs):
    """All rational roots of sum_i coeffs[i] t^i, ascending; [] for zero.

    The coefficients are exact rationals, in a sequence or in a sparse
    {exponent: coefficient} dict.  None when a coefficient that bounds the
    candidates exceeds _ROOT_SEARCH_LIMIT, or the degree once t^low is divided
    out exceeds _ROOT_SEARCH_DEGREE, so the roots are not known.
    """
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    coeffs = {e: as_fraction(c) for e, c in items if c}
    if not coeffs:
        return []
    low = min(coeffs)
    if low > 0:
        # factor out t^low; t = 0 is a root
        coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return [Fraction(0)] if low > 0 else []
    if deg > _ROOT_SEARCH_DEGREE:
        return None
    denom_lcm = 1
    for c in coeffs.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = {e: int(c * denom_lcm) for e, c in coeffs.items()}
    lead = ints[deg]
    const = ints[0]
    if max(abs(lead), abs(const)) > _ROOT_SEARCH_LIMIT:
        return None
    roots = set([Fraction(0)]) if low > 0 else set()
    lead_divisors = _divisors(abs(lead))
    for p in _divisors(abs(const)):
        for q in lead_divisors:
            # p/q is a root when q^deg f(p/q) = sum_e c_e p^e q^(deg - e) is 0; a
            # non-reduced p/q repeats a reduced candidate
            if math.gcd(p, q) == 1:
                for sign in (1, -1):
                    if not sum(c * (sign * p) ** e * q ** (deg - e) for e, c in ints.items()):
                        roots.add(Fraction(sign * p, q))
    return sorted(roots)


def is_cyclotomic_or_eisenstein(coeffs) -> bool:
    """Whether the monic sum_i coeffs[i] t^i of degree >= 2 equals cyclotomic(k)
    for some k, or is Eisenstein at a prime once its denominators are cleared.

    Either proves it irreducible over Q; False proves nothing.  The Eisenstein
    primes are those of the gcd of the lower coefficients, which is not
    factored past _ROOT_SEARCH_LIMIT.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    deg = len(ints) - 1
    if den == 1 and ints[0] == 1 and ints == ints[::-1]:
        # phi(k) >= sqrt(k / 2), so phi(k) = deg needs k <= 2 deg^2
        if any(cyclotomic(k) == ints for k in range(1, 2 * deg * deg + 1) if _totient(k) == deg):
            return True
    low = math.gcd(*ints[:-1])
    return low <= _ROOT_SEARCH_LIMIT and any(
        ints[-1] % p and ints[0] % (p * p) for p in _prime_factors(low))


def _totient(k):
    """Euler's phi(k)."""
    for p in _prime_factors(k):
        k -= k // p
    return k


def _prime_factors(n):
    """The distinct primes dividing n, by trial division; [] for 0 and 1."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
