"""Sparse multivariate polynomial arithmetic over an exact scalar field.

Terms live in a dict keyed by exponent tuples (length nvars); zero
coefficients are never stored.  Monomials compare by plain tuple order,
which is the lexicographic order with the first variable heaviest; that
order drives leading-term division and deterministic serialization.  Tuples
are built at their length, from a list: CPython resizes one built from an
iterator, which then skips the free list of its length but, freed, fills it.

Every sum of products, a product included, is one call of `sums_of_products`:
sum_k w_k a_k b_k for integer weights w_k (after the one-pass sums of Monagan
and Pearce's heap multiplication, on FLINT fmpq_mpoly's "content times integer
polynomial" layout).  Each operand is written once as integer numerators over
its common denominator, so a term pair costs integer products only: one over
Q, over Q[t]/(m) the schoolbook product of the nonzero coordinates.  A sum's
products accumulate unreduced in one integer dict over the lcm L of its pair
denominators, each monomial folded modulo m once by `Field.reduce`.  The
result keeps that integer form, content times integer polynomial: one D > 0
and per monomial its nonzero coordinates, reduced by one content gcd; the next
kernel reads it as it is.  `terms`, one Scalar per monomial, is built on its
first read (`Field.fraction`), and replaces the integer form.

A power of an affine form is expanded by the multinomial theorem on the same
integer coordinates, where no two compositions of the exponent give the same
monomial; other powers, and all over a non-integral m, are repeated squaring.
`is_pure_power` reads its candidate off x_p^d and x_p^(d-1) x_j, expands once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import Counter
from functools import cache, reduce
from operator import add, mul

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
    "sums_of_products",
    "substitute_all",
]


def _numerators(scalars):
    """(D, [[n_i]]): each Scalar's coordinates as integer numerators over D, their lcm."""
    den = math.lcm(*[s.den for s in scalars])
    return den, [s.nums if s.den == den else [n * (den // s.den) for n in s.nums] for s in scalars]


def _integer_terms(terms):
    """(D, [(exps, [(i, n_i)])]): `_numerators` of the coefficients, nonzero n_i only."""
    den, coords = _numerators(terms.values())
    return den, [(e, [(i, x) for i, x in enumerate(c) if x]) for e, c in zip(terms, coords)]


def _integer_poly(field: Field, nvars: int, den: int, items, values) -> "MultiPoly":
    """The MultiPoly held as `items` [(exps, [(i, n_i)])], nonzero n_i only, over den > 0,
    each divided by the content gcd of den and `values`, the n_i."""
    g = math.gcd(den, *values)
    if g > 1:
        den, items = den // g, [(e, [(i, x // g) for i, x in c]) for e, c in items]
    poly = MultiPoly.__new__(MultiPoly)
    poly.field, poly.nvars, poly._ints = field, nvars, (den, items)
    return poly


def sums_of_products(field: Field, nvars: int, sums) -> list:
    """For each sum of (w, a, b) triples, sum_k w_k a_k b_k: int w_k, MultiPoly a_k,
    and b_k a MultiPoly or a Scalar, all in the ring (field, nvars)."""
    seen = {}  # id -> (operand, its integer form); holding it keeps the id unique

    def integer(x):
        if id(x) not in seen:
            seen[id(x)] = (x, *((x.den, [(None, [(i, n) for i, n in enumerate(x.nums) if n])])
                                if isinstance(x, Scalar) else x._ints or _integer_terms(x.terms)))
        return seen[id(x)][1:]

    out = []
    for items in sums:
        pairs = [(w, *integer(a), *integer(b)) for w, a, b in items  # a.is_zero(), inline
                 if w and (a.terms if a._ints is None else a._ints[1]) and not b.is_zero()]
        den = math.lcm(*[da * db for _, da, _, db, _ in pairs])
        acc = {}
        if field.degree == 1:
            for w, da, left, db, right in pairs:
                scale = w * (den // (da * db))
                for e1, [(_, a)] in left:
                    a *= scale
                    for e2, [(_, b)] in right:
                        exps = e1 if e2 is None else (*map(add, e1, e2),)
                        acc[exps] = acc.get(exps, 0) + a * b
            found = [(e, [(0, c)]) for e, c in acc.items() if c]
            out.append(_integer_poly(field, nvars, den, found, acc.values()))
            continue
        width = 2 * field.degree - 1
        for w, da, left, db, right in pairs:
            scale = w * (den // (da * db))
            for e1, a in left:
                a = [(i, x * scale) for i, x in a]
                for e2, b in right:
                    exps = e1 if e2 is None else (*map(add, e1, e2),)
                    prod = acc.get(exps)
                    if prod is None:
                        prod = acc[exps] = [0] * width
                    for i, x in a:
                        for j, y in b:
                            prod[i + j] += x * y
        terms = []
        for exps, prod in acc.items():
            coords = [(i, x) for i, x in enumerate(field.reduce(prod)) if x]
            if coords:
                terms.append((exps, coords))
        out.append(_integer_poly(field, nvars, den * field.scale, terms,
                                 [x for _, c in terms for _, x in c]))
    return out


def substitute_all(polys, assignment, nvars: int | None = None) -> list:
    """`polys`, from one ring, with each variable replaced by its MultiPoly or scalar
    entry in `assignment`.  The target ring's nvars is that of the polynomial
    entries, else ``nvars``, else the source ring's.  Each power of an entry, and
    each monomial several of `polys` hold, is built once; one kernel call sums."""
    if not polys:
        return []
    field, source = polys[0].field, polys[0].nvars
    if any(p.field != field or p.nvars != source for p in polys):
        raise ValueError("polynomials live in different rings")
    if len(assignment) != source:
        raise ValueError("assignment must cover all variables")
    entries = [entry for entry in assignment if isinstance(entry, MultiPoly)]
    if any(entry.field != field for entry in entries):
        raise ValueError("substituted polynomial over a different field")
    target_nvars = entries[0].nvars if entries else source if nvars is None else nvars
    if any(entry.nvars != target_nvars for entry in entries) or nvars not in (None, target_nvars):
        raise ValueError("substituted polynomials and nvars disagree on the target ring")

    one = MultiPoly.constant(field, target_nvars, 1)
    powers = [[one, entry if isinstance(entry, MultiPoly)
               else MultiPoly.constant(field, target_nvars, entry)] for entry in assignment]

    def power_of(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    counts, shared = Counter(e for p in polys for e in p.terms), {}

    def pairs(poly):
        for exps, coeff in poly.terms.items():
            *head, last = [power_of(i, e) for i, e in enumerate(exps) if e] or [one]
            if counts[exps] == 1:  # the last power is multiplied inside the sum, unstored
                yield 1, last, reduce(mul, head, coeff)
                continue
            if exps not in shared:
                shared[exps] = reduce(mul, head, last)
            yield 1, shared[exps], coeff

    return sums_of_products(field, target_nvars, [list(pairs(p)) for p in polys])


def evaluate_all(polys, point) -> list:
    """Each of `polys`, from one ring, at a point of scalars: sum_e c_e prod_i x_i^(e_i)."""
    field = polys[0].field
    if len(point) != polys[0].nvars:
        raise ValueError("point must cover all variables")
    point = [_coerce_coeff(field, x) for x in point]
    zeros = [i for i, x in enumerate(point) if x.is_zero()]
    power = cache(lambda i, k: point[i] ** k)
    return [sum((reduce(mul, [power(i, k) for i, k in enumerate(e) if k], c)
                 for e, c in p.terms.items() if not any(e[i] for i in zeros)), field.zero())
            for p in polys]


def _merged(terms: dict, items) -> dict:
    """`terms` with each (exps, Scalar) of `items` added in turn, zero sums dropped."""
    for exps, coeff in items:
        c = terms.get(exps)
        c = coeff if c is None else c + coeff
        if c.is_zero():
            terms.pop(exps, None)
        else:
            terms[exps] = c
    return terms


def _coerce_coeff(field: Field, value) -> Scalar:
    if isinstance(value, Scalar):
        if value.field is not field and value.field != field:
            raise ValueError("coefficient belongs to a different field")
        return value
    return field.scalar(value)


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables over a Field."""

    __slots__ = ("field", "nvars", "terms", "_ints")

    def __init__(self, field: Field, nvars: int, terms: dict):
        # terms must already be normalized; use the classmethods to build.
        self.field = field
        self.nvars = nvars
        self.terms = terms
        self._ints = None

    def __getattr__(self, name):
        """`terms` of a polynomial in integer form (`_integer_poly`), built on first read."""
        if name != "terms" or self._ints is None:
            raise AttributeError(name)
        (den, items), field = self._ints, self.field
        if field.degree == 1:
            terms = {e: field.fraction((x,), den) for e, [(_, x)] in items}
        else:
            terms = {}
            for e, c in items:
                nums = [0] * field.degree
                for i, x in c:
                    nums[i] = x
                terms[e] = field.fraction(nums, den)
        self.terms, self._ints = terms, None
        return terms

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
        exps = tuple([1 if i == index else 0 for i in range(nvars)])
        return cls(field, nvars, {exps: field.one()})

    @classmethod
    def from_terms(cls, field: Field, nvars: int, items) -> "MultiPoly":
        checked = []
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError("bad exponent vector")
            checked.append((exps, _coerce_coeff(field, coeff)))
        return cls(field, nvars, _merged({}, checked))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.terms if self._ints is None else self._ints[1])

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
        return MultiPoly(self.field, self.nvars, _merged(dict(self.terms), rhs.terms.items()))

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
        # a Scalar factor enters the kernel bare, not as a constant polynomial
        rhs = _coerce_coeff(self.field, other) if isinstance(other, Scalar) \
            else self._coerce(other)
        if rhs is None:
            return NotImplemented
        return sums_of_products(self.field, self.nvars, [[(1, self, rhs)]])[0]

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a non-negative integer exponent")
        if exponent > 1 and self.field.scale == 1 and self.terms and all(
                sum(e) <= 1 for e in self.terms):
            return self._affine_power(exponent)
        result, base, k = MultiPoly.constant(self.field, self.nvars, 1), self, exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _affine_power(self, d: int) -> "MultiPoly":
        """(sum_t c_t x^{e_t})^d, each e_t of degree <= 1: the compositions k of d,
        walked depth first on integer coordinates over D^d, give distinct monomials
        sum_t k_t e_t.  c_t^k is tabulated once as (m, v): an integer m joining the
        multinomial coefficient when c_t is rational, else a folded vector v."""
        field = self.field
        den, coords = _numerators(self.terms.values())
        one = [1] + [0] * (field.degree - 1)
        tables = []
        for e, c in zip(self.terms, coords):
            powers = [(1, None)]
            for _ in range(d):
                m, v = powers[-1]
                powers.append((m * c[0], None) if not any(c[1:])
                              else (1, field.times(c, v or one)))
            tables.append((e.index(1) if any(e) else None, powers))
        scale, last, exps, terms = den ** d, len(tables) - 1, [0] * self.nvars, []

        def walk(t, left, coef, prod):
            var, powers = tables[t]
            for k in range(left + 1) if t < last else (left,):
                m, v = powers[k]
                part = prod if v is None else field.times(v, prod)
                if not any(part):
                    continue
                if var is not None:
                    exps[var] = k
                weight = coef * math.comb(left, k) * m
                if t < last:
                    walk(t + 1, left - k, weight, part)
                else:
                    terms.append((tuple(exps), [(i, weight * x) for i, x in enumerate(part) if x]))

        walk(0, d, 1, one)
        del walk  # the recursive closure is a reference cycle: refcounting now frees the tables
        return _integer_poly(field, self.nvars, scale, terms, [x for _, c in terms for _, x in c])

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
            terms[tuple(new)] = self.field.fraction([n * e for n in coeff.nums], coeff.den)
        return MultiPoly(self.field, self.nvars, terms)

    def substitute(self, assignment, nvars: int | None = None) -> "MultiPoly":
        """Substitute every variable; see `substitute_all`."""
        return substitute_all([self], assignment, nvars)[0]

    def evaluate(self, point) -> Scalar:
        """Exact value at a point of scalars; see `evaluate_all`."""
        return evaluate_all([self], point)[0]

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
    pad = (0,) * (field.degree - 1)
    return MultiPoly(field, poly.nvars,
                     {e: field.fraction(c.nums + pad, c.den) for e, c in poly.terms.items()})


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
        diff = tuple([a - b for a, b in zip(lead, den_lead)])
        if any(d < 0 for d in diff):
            return None
        c = rem[lead] / den_lc
        quo[diff] = c
        for exps, coeff in den.terms.items():
            target = tuple([a + b for a, b in zip(diff, exps)])
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
        self.coeffs = tuple([_coerce_coeff(field, c) for c in coeffs])

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
            [(tuple([1 if i == j else 0 for j in range(self.nvars)]), c)
             for i, c in enumerate(self.coeffs) if not c.is_zero()])

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

    With p the first variable that occurs, lam is the coefficient of x_p^d
    and d lam c_j that of x_p^(d-1) x_j, so the candidate is read off two
    kinds of coefficient and one expansion lam (c^t x)^d decides.
    """
    field, nvars = poly.field, poly.nvars
    if poly.is_zero():
        return LinearForm.zero_form(field, nvars), 1, field.zero()
    d = poly.degree()
    if d < 1:
        return None
    lead = max(poly.terms)  # x_p^d when poly is a power
    p = next(i for i, e in enumerate(lead) if e)
    if lead[p] != d:
        return None
    lam = poly.terms[lead]
    coeffs = [field.one() if j == p else field.zero() for j in range(nvars)]
    for j in range(p + 1, nvars):
        near = [0] * nvars
        near[p], near[j] = d - 1, 1
        c = poly.terms.get(tuple(near))
        if c is not None:
            coeffs[j] = c / (lam * d)
    form = LinearForm(field, coeffs)
    if form.to_poly() ** d * lam != poly:
        return None
    return form, d, lam
