"""Exact scalar arithmetic over Q and simple algebraic extensions Q[t]/(m(t)).

A :class:`Field` is described by a monic minimal polynomial m with rational
coefficients in ascending order; degree one means the plain rationals.
Scalars are residue classes modulo m, stored as coordinate vectors in the
power basis 1, t, ..., t^(deg m - 1) with `fractions.Fraction` entries, so
every operation is exact and no floating point appears anywhere.

Reducible minimal polynomials are accepted (the quotient is then only a
ring); division raises when the divisor is not invertible modulo m.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Field", "Scalar", "QQ", "cyclotomic"]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact rational; bools raise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# Dense univariate helpers on ascending Fraction lists with no trailing zeros.

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

    __slots__ = ("min_poly",)

    def __init__(self, min_poly):
        coeffs = tuple(as_fraction(c) for c in min_poly)
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        self.min_poly = coeffs

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

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
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

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
        return all(c == 0 for c in self.coords)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if any extension part is present."""
        if any(c != 0 for c in self.coords[1:]):
            raise ValueError("scalar has a nonzero extension component")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
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
        prod = _umul(list(self.coords), list(rhs.coords))
        _, rem = _udivmod(prod, list(self.field.min_poly))
        rem.extend([Fraction(0)] * (self.field.degree - len(rem)))
        return Scalar(self.field, tuple(rem))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        rep = _trim(list(self.coords))
        if not rep:
            raise ZeroDivisionError("not invertible modulo min_poly: zero")
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
