"""Sparse multivariate polynomial arithmetic over an exact scalar field.

Terms live in a dict keyed by exponent tuples (length nvars); zero
coefficients are never stored.  Monomials compare by plain tuple order,
which is the lexicographic order with the first variable heaviest; that
order drives leading-term division and deterministic serialization.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import Field, Scalar

__all__ = [
    "MultiPoly",
    "LinearForm",
    "variables",
    "divide_exact",
    "is_pure_power",
    "rename_variables",
    "extend_variables",
    "lift_to_field",
]


def _coerce_coeff(field: Field, value) -> Scalar:
    if isinstance(value, Scalar):
        if value.field != field:
            raise ValueError("coefficient belongs to a different field")
        return value
    return field.scalar(value)


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables over a Field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict):
        # terms must already be normalized; use the classmethods to build.
        self.field = field
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "MultiPoly":
        coeff = _coerce_coeff(field, value)
        if coeff.is_zero():
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {exps: field.one()})

    @classmethod
    def from_terms(cls, field: Field, nvars: int, items) -> "MultiPoly":
        terms = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            c = terms.get(exps, field.zero()) + _coerce_coeff(field, coeff)
            if c.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = c
        return cls(field, nvars, terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return self.field.zero()
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def homogeneous_parts(self) -> dict:
        """Total degree -> homogeneous component, zero parts omitted."""
        parts = {}
        for exps, coeff in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = coeff
        return {d: MultiPoly(self.field, self.nvars, t) for d, t in sorted(parts.items())}

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.field != self.field or other.nvars != self.nvars:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return MultiPoly.constant(self.field, self.nvars, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in rhs.terms.items():
            c = terms.get(exps)
            c = coeff if c is None else c + coeff
            if c.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = c
        return MultiPoly(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self.terms or not rhs.terms:
            return MultiPoly.zero(self.field, self.nvars)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                c = terms.get(exps)
                c = prod if c is None else c + prod
                if c.is_zero():
                    terms.pop(exps, None)
                else:
                    terms[exps] = c
        return MultiPoly(self.field, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a non-negative integer exponent")
        result = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, index: int) -> "MultiPoly":
        if not 0 <= index < self.nvars:
            raise IndexError("variable index out of range")
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            terms[tuple(new)] = coeff * e
        return MultiPoly(self.field, self.nvars, terms)

    def substitute(self, assignment, nvars: int | None = None) -> "MultiPoly":
        """Substitute every variable; entries are MultiPoly or scalar values.

        The target ring may have a different number of variables; it is taken
        from the first polynomial entry, or from ``nvars`` when every entry
        is a scalar.
        """
        if len(assignment) != self.nvars:
            raise ValueError("assignment must cover all variables")
        target_nvars = None
        for entry in assignment:
            if isinstance(entry, MultiPoly):
                if entry.field != self.field:
                    raise ValueError("substituted polynomial over a different field")
                if target_nvars is None:
                    target_nvars = entry.nvars
                elif entry.nvars != target_nvars:
                    raise ValueError("substituted polynomials disagree on nvars")
        if target_nvars is None:
            target_nvars = self.nvars if nvars is None else nvars
        elif nvars is not None and nvars != target_nvars:
            raise ValueError("nvars conflicts with substituted polynomials")

        values = []
        for entry in assignment:
            if isinstance(entry, MultiPoly):
                values.append(entry)
            else:
                values.append(MultiPoly.constant(self.field, target_nvars, entry))

        one = MultiPoly.constant(self.field, target_nvars, 1)
        powers = [{0: one} for _ in range(self.nvars)]

        def power_of(i, k):
            cache = powers[i]
            if k not in cache:
                top = max(cache)
                acc = cache[top]
                for j in range(top + 1, k + 1):
                    acc = acc * values[i]
                    cache[j] = acc
            return cache[k]

        result = MultiPoly.zero(self.field, target_nvars)
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(self.field, target_nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power_of(i, e)
            result = result + term
        return result

    def evaluate(self, point) -> Scalar:
        """Exact value at a point of scalars."""
        if len(point) != self.nvars:
            raise ValueError("point must cover all variables")
        vals = [_coerce_coeff(self.field, v) for v in point]
        total = self.field.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
            body = "*".join(factors)
            c = repr(coeff)
            if not body:
                parts.append(c)
            elif c == "1":
                parts.append(body)
            elif c == "-1":
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}" if "+" not in c else f"({c})*{body}")
        return " + ".join(parts)


def variables(field: Field, nvars: int) -> list:
    """The generators x1, ..., xn of the polynomial ring (0-based indices)."""
    return [MultiPoly.variable(field, nvars, i) for i in range(nvars)]


def rename_variables(poly: MultiPoly, mapping, new_nvars: int) -> MultiPoly:
    """Send variable i to variable mapping[i] in a ring with new_nvars vars."""
    if len(mapping) != poly.nvars:
        raise ValueError("mapping must cover all variables")
    terms = {}
    for exps, coeff in poly.terms.items():
        new = [0] * new_nvars
        for i, e in enumerate(exps):
            if e:
                new[mapping[i]] += e
        terms[tuple(new)] = coeff
    if len(terms) != len(poly.terms):
        raise ValueError("variable mapping collided on used variables")
    return MultiPoly(poly.field, new_nvars, terms)


def extend_variables(poly: MultiPoly, new_nvars: int) -> MultiPoly:
    """View the polynomial inside a larger ring (exponents padded with 0)."""
    if new_nvars < poly.nvars:
        raise ValueError("cannot shrink the variable count")
    if new_nvars == poly.nvars:
        return poly
    pad = (0,) * (new_nvars - poly.nvars)
    return MultiPoly(poly.field, new_nvars, {e + pad: c for e, c in poly.terms.items()})


def lift_to_field(poly: MultiPoly, field: Field) -> MultiPoly:
    """Embed a polynomial with rational coefficients into an extension field."""
    if poly.field == field:
        return poly
    if not poly.field.is_rational:
        raise ValueError("can only lift from the rational base field")
    return MultiPoly(field, poly.nvars,
                     {e: field.scalar(c.coords[0]) for e, c in poly.terms.items()})


def divide_exact(num: MultiPoly, den: MultiPoly):
    """Exact quotient num/den, or None when den does not divide num."""
    if num.field != den.field or num.nvars != den.nvars:
        raise ValueError("polynomials live in different rings")
    if den.is_zero():
        return None
    if num.is_zero():
        return MultiPoly.zero(num.field, num.nvars)
    den_lead = max(den.terms)
    den_lc = den.terms[den_lead]
    rem = dict(num.terms)
    quo = {}
    while rem:
        lead = max(rem)
        diff = tuple(a - b for a, b in zip(lead, den_lead))
        if any(d < 0 for d in diff):
            return None
        c = rem[lead] / den_lc
        quo[diff] = c
        for exps, coeff in den.terms.items():
            target = tuple(a + b for a, b in zip(diff, exps))
            cur = rem.get(target, num.field.zero()) - c * coeff
            if cur.is_zero():
                rem.pop(target, None)
            else:
                rem[target] = cur
    return MultiPoly(num.field, num.nvars, quo)


class LinearForm:
    """A linear form c^t x without constant term, as a coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = tuple(_coerce_coeff(field, c) for c in coeffs)

    @classmethod
    def unit(cls, field: Field, nvars: int, index: int) -> "LinearForm":
        if not 0 <= index < nvars:
            raise IndexError("variable index out of range")
        return cls(field, [1 if i == index else 0 for i in range(nvars)])

    @classmethod
    def zero_form(cls, field: Field, nvars: int) -> "LinearForm":
        return cls(field, [0] * nvars)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def to_poly(self) -> MultiPoly:
        return MultiPoly.from_terms(
            self.field, self.nvars,
            [(tuple(1 if i == j else 0 for j in range(self.nvars)), c)
             for i, c in enumerate(self.coeffs) if not c.is_zero()])

    def dot(self, vector) -> Scalar:
        """The pairing c^t b with a coefficient vector b."""
        if len(vector) != self.nvars:
            raise ValueError("vector length mismatch")
        total = self.field.zero()
        for c, b in zip(self.coeffs, vector):
            total = total + c * _coerce_coeff(self.field, b)
        return total

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __repr__(self):
        return f"LinearForm({list(self.coeffs)!r})"


def is_pure_power(poly: MultiPoly):
    """Detect poly = lam * (c^t x)^d with d >= 1 and c normalized.

    The first nonzero coordinate of c is 1.  Returns (c, d, lam) or None;
    the zero polynomial reports (zero form, 1, 0) by convention.

    Each candidate coordinate comes from the exact quotient of partial
    derivatives, so a non-polynomial or non-constant ratio rules the shape
    out before the final verification.
    """
    field, nvars = poly.field, poly.nvars
    if poly.is_zero():
        return LinearForm.zero_form(field, nvars), 1, field.zero()
    d = poly.degree()
    if d < 1:
        return None
    derivs = [poly.partial_derivative(i) for i in range(nvars)]
    pivot = next((i for i, g in enumerate(derivs) if not g.is_zero()), None)
    if pivot is None:
        return None
    coeffs = [field.zero()] * nvars
    coeffs[pivot] = field.one()
    for j in range(nvars):
        if j == pivot or derivs[j].is_zero():
            continue
        ratio = divide_exact(derivs[j], derivs[pivot])
        if ratio is None or not ratio.is_constant():
            return None
        coeffs[j] = ratio.constant_value()
    form = LinearForm(field, coeffs)
    base = form.to_poly() ** d
    lead = max(poly.terms)
    base_lead = base.terms.get(lead)
    if base_lead is None:
        return None
    lam = poly.terms[lead] / base_lead
    if poly != base * lam:
        return None
    return form, d, lam
