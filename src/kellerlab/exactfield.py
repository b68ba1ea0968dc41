"""Exact scalar arithmetic over Q and simple algebraic extensions Q[t]/(m(t)).

A :class:`Field` is described by a monic minimal polynomial m with rational
coefficients in ascending order; degree one means the plain rationals.
Scalars are residue classes modulo m: integer numerators n_i of the power
basis 1, t, ..., t^(deg m - 1) over one denominator D > 0, reduced (gcd 1,
zero is 0/1) by `Field.fraction`, the one constructor; `Scalar.coords` is a
read-only Fraction view.  No floating point appears anywhere.

A product does no polynomial division.  The schoolbook product of the
numerators is folded down from the top (`Field.reduce`) with the relation
t^deg = sum_i c_i t^i / s, integers c_i = -m_i s for the lcm s of the
denominators of m, tabulated once in `Field.fold`; each of the deg - 1 steps
scales by s, so the fold of integers stays in integers, over the fixed
`Field.scale` s^(deg - 1) (1 for every cyclotomic m).  Over Q there is
nothing to fold.  Inverses use the extended Euclidean algorithm on
Fractions, except for a rational value n/D, whose inverse is D/n.

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


def _ratio(value):
    """(p, q) in lowest terms, q > 0, as Fraction(value) parses it; bools and floats raise."""
    if isinstance(value, str) and value.isascii():
        # plain -?[0-9]+(/[0-9]+)? through int(); anything else, Fraction's own parser
        num, slash, den = value.partition("/")
        if num[num.startswith("-"):].isdigit() and (not slash or den.isdigit()):
            value = Fraction(int(num), int(den)) if slash else int(num)
    if type(value) is int:
        return value, 1
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return value.numerator, value.denominator


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational; bools raise."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


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

    __slots__ = ("min_poly", "fold", "fold_den", "scale", "_zero", "_one")

    def __init__(self, min_poly):
        coeffs = tuple([as_fraction(c) for c in min_poly])
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = coeffs
        # t^deg = sum_i c_i t^i / fold_den over the nonzero m_i, integers c_i = -m_i fold_den
        self.fold_den = math.lcm(*[c.denominator for c in coeffs])
        self.fold = tuple([(i, int(-c * self.fold_den)) for i, c in enumerate(coeffs[:-1]) if c])
        self.scale = self.fold_den ** (len(coeffs) - 2)
        # one shared zero and one per field; Scalars are immutable, so nothing changes them
        self._zero, self._one = self.scalar(0), self.scalar(1)

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def reduce(self, prod):
        """The first deg entries of a product of length 2*deg - 1 folded in place, times `scale`."""
        deg, fold, s = len(self.min_poly) - 1, self.fold, self.fold_den
        for k in range(2 * deg - 2, deg - 1, -1):
            top = prod[k]
            if s != 1:
                prod[:k] = [x * s for x in prod[:k]]
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
        num, den = _ratio(value)
        return self.fraction((num,) + (0,) * (self.degree - 1), den)

    def element(self, coords) -> "Scalar":
        """Build a Scalar from power-basis coordinates (padded with zeros)."""
        pairs = [_ratio(c) for c in coords]
        if len(pairs) > self.degree:
            raise ValueError("coordinate vector longer than the field degree")
        den = math.lcm(*[q for _, q in pairs])
        return self.fraction([p * (den // q) for p, q in pairs]
                             + [0] * (self.degree - len(pairs)), den)

    def fraction(self, nums, den: int) -> "Scalar":
        """The Scalar nums / den for integers nums (a list or tuple) and den > 0, reduced."""
        g = math.gcd(den, *nums)
        if g != 1:
            return Scalar(self, tuple([n // g for n in nums]), den // g)
        return Scalar(self, tuple(nums), den)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def generator(self) -> "Scalar":
        """The residue class of t; for degree one this is -m(0)."""
        if self.degree == 1:
            return self.scalar(-self.min_poly[0])
        return self.fraction((0, 1) + (0,) * (self.degree - 2), 1)

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
    """An element of a Field: integer numerators `nums` over `den`, reduced."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: Field, nums, den: int):
        self.field, self.nums, self.den = field, nums, den

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    def texts(self) -> list:
        """Each coordinate as str(Fraction) writes it: "n", or "n/d" in lowest terms."""
        return [str(n // g) if g == self.den else f"{n // g}/{self.den // g}"
                for n in self.nums for g in (math.gcd(n, self.den),)]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if any extension part is present."""
        if any(self.nums[1:]):
            raise ValueError("scalar has a nonzero extension component")
        return Fraction(self.nums[0], self.den)

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("scalars belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other, sign: int = 1):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        g = math.gcd(self.den, rhs.den)
        a, b = rhs.den // g, self.den // g * sign
        if len(self.nums) == 1:
            return self.field.fraction((self.nums[0] * a + rhs.nums[0] * b,), self.den * a)
        return self.field.fraction([x * a + y * b for x, y in zip(self.nums, rhs.nums)],
                                   self.den * a)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        field = self.field
        if len(self.nums) == 1:
            return field.fraction((self.nums[0] * rhs.nums[0],), self.den * rhs.den)
        return field.fraction(field.times(self.nums, rhs.nums), self.den * rhs.den * field.scale)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("not invertible modulo min_poly: zero")
        field, num = self.field, self.nums[0]
        if not any(self.nums[1:]):  # a rational value n/D, inverted as D/n
            return field.fraction((self.den if num > 0 else -self.den,) + self.nums[1:], abs(num))
        g, s, _ = _uxgcd(_trim(list(self.nums)), list(field.min_poly))
        if len(g) != 1:
            raise ZeroDivisionError("not invertible modulo min_poly")
        return field.element(_udivmod([c * self.den / g[0] for c in s], list(field.min_poly))[1])

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
        return self.den == rhs.den and self.nums == rhs.nums

    def __repr__(self):
        texts = self.texts()
        if self.field.is_rational:
            return texts[0]
        parts = [c if k == 0 else ("" if c == "1" else c + "*") + ("t" if k == 1 else f"t^{k}")
                 for k, c in enumerate(texts) if c != "0"]
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
    den = math.lcm(*[c.denominator for c in coeffs])
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
