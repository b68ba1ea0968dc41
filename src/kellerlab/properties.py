"""Deciders and certificate verifiers for the condition chain on maps x + H.

The chain, strongest first:

    (***)  H = sum of n-1 powers (c_i^t x)^{d_i} b_i, orthogonality
           c_j^t b_i = 0 for i >= j, and independent b_i
    (**)   same with exactly n-1 terms, independence dropped
    (*)    same with any number N of terms
    (JC+)  det of the Jacobian of x+H summed over n generic points is a
           nonzero constant
    (JC)   same with deg-1 points
    (JC-)  x + H is invertible

Each condition has one decider, `_MapAnalysis` -> (verdict, witness, note),
shared by `chain_report` and the public checks: `_decide_sum` for jc and
jc_plus, `_decide_word` for strong_nilpotent, `_decide_level` for the three
certificate levels, `_decide_<condition>` for the rest.  Routes, in order:

    keller, nilpotent  the flag or JH H = 0; else det JF, JH^n
    quasi              JH H, with its first nonzero entry as the witness
    jc_minus           x - H if JH H = 0; forward substitution if JH is
                       triangular; T^{-1} F(Tx) inverted by the flag; else undecided
    jc, jc_plus        the flag; det G; point patterns; the full determinant
    strong_nilpotent   the flag, or its word witness
    star               the certificate; the flag when H(0) = 0
    doublestar, ***    the certificate; the zero map; n = 1; the single-term
                       oracle at n = 2; the component span for ***; the flag's
                       word when H(0) = 0, as *** => ** => *; else undecided

The flag: JH = sum_m x^m A_m is strongly nilpotent, which is linear
triangularizability (van den Essen and Hubbers, JPAA 110, 1996), exactly when
W_0 = K^n, W_{k+1} = sum_m A_m W_k reaches 0; a basis adapted to it is a T
with T^{-1} H(Tx) strictly triangular, and otherwise a nonzero word of n
matrices A_m is the witness (`_strong_nilpotence_flag`, `linalg.flag`).

JH H = 0 exactly when x + H is a quasi-translation, H(x - H) = H (de Bondt,
Proc. AMS 134, 2006): H is then constant along the flow x + tH of the vector
field H, in any Q-algebra; put t = -1.  As tH also has J(tH) tH = 0, x - tH
inverts x + tH over K[t]: det(I + t JH) is a unit of K[t][x], so 1, its value
at t = 0.  So det JF = 1 and JH is nilpotent.

JC and JC+ write JF = sum_m x^m B_m: the sum of JF at count points v_k is
G(p(v)) for G(lam) = count B_0 + sum_{m != 0} lam_m B_m and
p_m(v) = sum_k v_k^m, so a nonzero constant det G proves holds; a
non-constant one proves nothing.  When the flag holds, T^{-1} G T is count I
plus a strictly lower triangular matrix, so det G = count^n.  Failure is
sought at point patterns, substitutions into det G (`_point_witness`), and
last det G at the power sums, which is det(G(p(v))), the determinant at
fresh points; past 64 points, undecided.

(**) and (***) fail by two sound oracles (single-term matching in dimension
2, and the one-dimensional component-span argument) or because (*) fails, and
(JC-) never fails.  A certificate's orthogonality clause is tested on integer
numerators: each c_j and b_i is scaled once to integer coordinates, and each
pairing is an integer convolution folded by `Field.reduce`.
"""

from __future__ import annotations

import operator
from functools import cache, cached_property, partial, reduce
from itertools import repeat

from . import linalg
from .exactfield import Field, Scalar, rational_roots
from .multipoly import (LinearForm, MultiPoly, _numerators, evaluate_all, is_pure_power,
                        lift_to_field, sums_of_products, variables)
from .polymap import (PolyMap, PolyMatrix, _forward_substitution, change_basis,
                      conjugation_grids, jacobian, linear_combinations, matrix_det,
                      invert_triangular, nonlinear_part, plus_identity)

__all__ = [
    "HOLDS",
    "FAILS",
    "UNDECIDED",
    "PropertyReport",
    "StarCertificate",
    "is_quasi_translation",
    "substituted_jacobian_sum",
    "strong_nilpotence_product",
    "check_sum_condition",
    "is_strongly_nilpotent",
    "verify_star_certificate",
    "certificate_failure",
    "triangularization_from_certificate",
    "certificate_from_triangularization",
    "conjugated_power_term",
    "chain_report",
    "CHAIN_CONDITIONS",
]

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"

# Past this many points the sum condition, whose work grows with them, is undecided.
_MAX_SUM_POINTS = 64

CHAIN_CONDITIONS = (
    "keller", "nilpotent", "quasi", "jc_minus", "jc", "jc_plus",
    "strong_nilpotent", "star", "doublestar", "triplestar",
)


class PropertyReport:
    """Per-condition verdicts with witnesses that re-verify on failure."""

    def __init__(self):
        self.conditions = {}
        self.witnesses = {}
        self.notes = {}

    def record(self, name: str, verdict: str, witness=None, note: str | None = None):
        if verdict not in (HOLDS, FAILS, UNDECIDED):
            raise ValueError(f"unknown verdict {verdict!r}")
        self.conditions[name] = verdict
        if witness is not None:
            self.witnesses[name] = witness
        if note is not None:
            self.notes[name] = note
        return self

    def verdict(self, name: str) -> str:
        return self.conditions[name]

    def witness(self, name: str):
        return self.witnesses.get(name)

    @property
    def sole_verdict(self) -> str:
        if len(self.conditions) != 1:
            raise ValueError("report covers more than one condition")
        return next(iter(self.conditions.values()))

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.conditions.items()))
        return f"PropertyReport({body})"


# -- basic map-level checks -------------------------------------------------

def _quasi(jh: PolyMatrix, h: PolyMap):
    """The first nonzero entry (i, (JH H)_i), or None when JH H = 0 (a quasi-translation)."""
    for index, row in enumerate(jh.entries):
        value = sums_of_products(h.field, h.nvars, [zip(repeat(1), row, h.components)])[0]
        if not value.is_zero():
            return index, value
    return None


def is_quasi_translation(map_: PolyMap) -> bool:
    """F = x + H with H(x - H) = H, equivalently (x+H) o (x-H) = x."""
    return _MapAnalysis(map_).jh_h_entry is None


# -- sums and products of substituted Jacobians ------------------------------

def substituted_jacobian_sum(map_: PolyMap, count: int) -> PolyMatrix:
    """Sum of JF at `count` tuples of fresh indeterminates, in n + count*n variables."""
    if not map_.is_square:
        raise ValueError("Jacobian sums need a square map")
    if count < 1:
        raise ValueError("need at least one substitution point")
    return _at_power_sums(*_generic_sum(jacobian(map_), count), map_.nvars, count)


def _univariate_rational_roots(poly: MultiPoly):
    """`rational_roots` of a univariate polynomial over Q."""
    if poly.nvars != 1 or not poly.field.is_rational:
        raise ValueError("rational root search needs a univariate rational polynomial")
    return rational_roots({e: coeff.as_rational() for (e,), coeff in poly.terms.items()})


def _generic_sum(jf: PolyMatrix, count: int):
    """(G, ms): G(lam) = count B_0 + sum_{m != 0} lam_m B_m for JF = sum_m x^m B_m,
    one lam per distinct nonconstant monomial m of JF, listed in `ms`."""
    monomials = sorted({m for row in jf.entries for e in row for m in e.terms if any(m)})
    lam = {m: tuple([int(m == k) for k in monomials]) for m in monomials}
    lam[(0,) * jf.nvars] = (0,) * len(monomials)
    return jf.map_entries(lambda e: MultiPoly(e.field, len(monomials), {
        lam[m]: c if any(m) else c * count for m, c in e.terms.items()})), monomials


def _at_power_sums(poly, monomials, n: int, count: int):
    """A polynomial or matrix in lam (`_generic_sum`) at lam_m = p_m(v) = sum_k v_k^m,
    in n + count n variables: the original ones, then v_1, ..., v_count."""
    total, one = n + count * n, poly.field.one()
    return poly.substitute([MultiPoly(poly.field, total, {
        (0,) * (n + k * n) + m + (0,) * ((count - 1 - k) * n): one for k in range(count)})
        for m in monomials], nvars=total)


def _point_witness(det: MultiPoly, monomials, n: int, count: int, full_det):
    """Search for concrete points where the summed-Jacobian determinant is 0.

    Pattern (m, j): repeat a unit point e_m and perturb the last point to
    e_m + s e_j for a single coordinate s.  At those points p_k(v) is 0 when
    k uses a variable outside {x_m, x_j}, s^{k_j} when k_j > 0 and count
    otherwise, so det G (`_generic_sum`) at lam = p(v) is the full
    determinant restricted, univariate in s.  A rational root gives a
    base-field witness; a rootless quadratic gives a witness in the
    corresponding quadratic extension.  Only a restriction that vanishes
    identically, or no witness (and every field but Q), calls `full_det`: an
    identically zero determinant is witnessed by zero points instead.
    """
    field = det.field
    zeros = field, [[field.zero()] * n for _ in range(count)]
    for m in range(n if field.is_rational else 0):
        for j in range(n):
            if j == m:
                continue
            restricted = det.substitute([
                0 if any(e for i, e in enumerate(k) if i not in (m, j)) else
                MultiPoly(field, 1, {(k[j],): field.one()}) if k[j] else count
                for k in monomials], nvars=1)
            if restricted.is_zero():
                if full_det().is_zero():
                    return zeros
                roots = [0]
            elif restricted.is_constant():
                continue
            else:
                roots = _univariate_rational_roots(restricted)
                if roots is None:
                    continue  # too large to search; rootless is not known either
            if roots:
                s_value = field.scalar(roots[0])
                return field, _pattern_points(field, n, count, m, j, s_value)
            # rootless quadratic: adjoin a root exactly
            if restricted.degree() == 2:
                c2 = restricted.terms.get((2,), field.zero()).as_rational()
                c1 = restricted.terms.get((1,), field.zero()).as_rational()
                c0 = restricted.terms.get((0,), field.zero()).as_rational()
                ext = Field([c0 / c2, c1 / c2, 1])
                s_value = ext.generator()
                return ext, _pattern_points(ext, n, count, m, j, s_value)
    return zeros if full_det().is_zero() else None


def _pattern_points(field: Field, n: int, count: int, m: int, j: int, s_value: Scalar):
    points = []
    for b in range(count):
        point = [field.zero()] * n
        point[m] = field.one()
        if b == count - 1:
            point[j] = point[j] + s_value
        points.append(point)
    return points


def _sum_vanishes_at(jf: PolyMatrix, field: Field, points) -> bool:
    """Is the sum of JF at the points, a scalar matrix over `field`, singular?"""
    entries = [lift_to_field(e, field) for row in jf.entries for e in row]
    weighted = [[v * m if m > 1 else v for v in evaluate_all(entries, p)]  # each point once
                for k, p in enumerate(points) if p not in points[:k] for m in [points.count(p)]]
    total = [sum(values, field.zero()) for values in zip(*weighted)]
    return linalg.rank([total[i:i + jf.cols] for i in range(0, len(total), jf.cols)]) < jf.rows


def check_sum_condition(map_: PolyMap, count: int, label: str = "sum_condition") -> PropertyReport:
    """Decide whether det(sum of JF at `count` generic points) is a nonzero constant.

    count = deg F - 1 realizes the deg-1-point condition, count = n the
    full condition.  Since the field is infinite and algebraically closed
    points are allowed, a non-constant symbolic determinant means failure.
    The decider is chain_report's `_decide_sum`, undecided past `_MAX_SUM_POINTS`.
    """
    if not map_.is_square:
        raise ValueError("sum condition needs a square map")
    if count < 1:
        raise ValueError("need at least one substitution point")
    return PropertyReport().record(label, *_decide_sum(_MapAnalysis(map_), count))


def _sum_condition(jf: PolyMatrix, count: int):
    """(verdict, witness, note): det G (`_generic_sum`) for holds, then the point
    patterns for fails, then det G at the power sums, the determinant at fresh
    points: det(G(p(v))) = (det G)(p(v)).  It can have count^n times the terms
    of det G, so it is built once, when asked for."""
    g, monomials = _generic_sum(jf, count)
    det = matrix_det(g)
    full_det = cache(partial(_at_power_sums, det, monomials, jf.nvars, count))
    if not det.is_constant() or det.is_zero():
        found = _point_witness(det, monomials, jf.nvars, count, full_det)
        if found is not None:
            field, points = found
            if not _sum_vanishes_at(jf, field, points):
                raise ArithmeticError("witness points failed re-verification")
            return (FAILS, {"kind": "points", "field": field, "points": points},
                    "determinant vanishes at the witness points")
        det = full_det()
    if det.is_constant() and not det.is_zero():
        return HOLDS, None, f"determinant is the constant {det.constant_value()!r}"
    return (FAILS, {"kind": "symbolic_determinant", "determinant": det},
            "determinant is not a nonzero constant")


def strong_nilpotence_product(map_: PolyMap, count: int | None = None) -> PolyMatrix:
    """Product of JH at `count` (default n) tuples of fresh indeterminates.

    With JH = sum_m x^m A_m, the coefficient of v_1^{m_1} ... v_n^{m_n} in the
    n-fold product is the word A_{m_1} ... A_{m_n}; this is the reference the
    flag decider is tested against.
    """
    if not map_.is_square:
        raise ValueError("strong nilpotence needs a square map")
    jac, n = jacobian(map_), map_.nvars
    count = n if count is None else count
    points = variables(map_.field, n + count * n)
    return reduce(operator.matmul, [jac.substitute(points[n + b * n:n + b * n + n])
                                    for b in range(count)])


def is_strongly_nilpotent(map_: PolyMap) -> PropertyReport:
    """Does every product of n copies of JH at independent points vanish?

    Decided by the flag of constant coefficient matrices (see
    `_strong_nilpotence_flag`), through chain_report's `_decide_word`.  On
    failure the witness is a word of n exponent vectors with the nonzero
    image of one unit vector under it.
    """
    if not map_.is_square:
        raise ValueError("strong nilpotence needs a square map")
    return PropertyReport().record("strong_nilpotent",
                                   *_decide_word(_MapAnalysis(plus_identity(map_))))


def _strong_nilpotence_flag(jac: PolyMatrix):
    """(T, None) when JH is strongly nilpotent, (None, word witness) otherwise:
    `linalg.flag` on the A_m of JH = sum_m x^m A_m, by monomial m, sorted, so
    T^{-1} H(Tx) is strictly triangular, or a word of n exponent vectors
    sends e_unit to a nonzero image."""
    field, n = jac.field, jac.nvars
    if jac.is_lower_triangular(strict=True):
        return PolyMatrix.identity(field, n, n), None
    entries = {}
    for i, row in enumerate(jac.entries):
        for j, entry in enumerate(row):
            for m, c in entry.terms.items():
                entries.setdefault(m, []).append((i, j, c))
    t_grid, word = linalg.flag(field, n, dict(sorted(entries.items())))
    if word is None:
        return PolyMatrix.from_scalars(field, n, t_grid), None
    letters, j, image = word
    return None, {"kind": "word", "word": list(letters), "unit": j, "image": image}


def _entry_witness(matrix: PolyMatrix) -> dict:
    """The first nonzero entry of a matrix, in row order, as a witness."""
    for i, row in enumerate(matrix.entries):
        for j, value in enumerate(row):
            if not value.is_zero():
                return {"kind": "matrix_entry", "row": i, "col": j, "value": value}
    raise ValueError("matrix is zero")


# -- star certificates --------------------------------------------------------

LEVELS = ("star", "doublestar", "triplestar")


class StarCertificate:
    """Triples (c_i, d_i, b_i) witnessing H = sum (c_i^t x)^{d_i} b_i.

    The declared level is one of star, doublestar, triplestar; the listed
    order is the order in which the orthogonality condition c_j^t b_i = 0
    for i >= j is checked.
    """

    __slots__ = ("level", "triples")

    def __init__(self, level: str, triples):
        if level not in LEVELS:
            raise ValueError(f"unknown certificate level {level!r}")
        normalized = []
        nvars = None
        for c, d, b in triples:
            if not isinstance(c, LinearForm):
                raise TypeError("certificate forms must be LinearForm values")
            if not isinstance(d, int) or d < 1:
                raise ValueError("certificate powers must be integers >= 1")
            b = tuple([c.field.scalar(v) for v in b])
            if nvars is None:
                nvars = c.nvars
            if c.nvars != nvars or len(b) != nvars:
                raise ValueError("certificate triples disagree on dimension")
            normalized.append((c, d, b))
        self.level = level
        self.triples = tuple(normalized)

    @property
    def count(self) -> int:
        return len(self.triples)

    @property
    def nvars(self):
        return self.triples[0][0].nvars if self.triples else None

    @property
    def field(self):
        return self.triples[0][0].field if self.triples else None

    def __eq__(self, other):
        if not isinstance(other, StarCertificate):
            return NotImplemented
        return self.level == other.level and self.triples == other.triples

    def __repr__(self):
        return f"StarCertificate({self.level}, {self.count} triples)"


def _certificate_sum(cert: StarCertificate, field: Field, n: int) -> PolyMap:
    powers = [c.to_poly() ** d for c, d, _ in cert.triples]
    b_columns = [[b[i] for _, _, b in cert.triples] for i in range(n)]
    return PolyMap(linear_combinations(b_columns, powers, MultiPoly.zero(field, n)))


def certificate_failure(map_: PolyMap, cert: StarCertificate, level: str | None = None):
    """The first violated clause as a diagnostic string, or None if valid.

    Clause order: sum mismatch, orthogonality (i,j), count, independence.
    Indices in diagnostics are 1-based.
    """
    if not map_.is_square:
        raise ValueError("certificates apply to square maps")
    n = map_.nvars
    field = map_.field
    if cert.triples and (cert.nvars != n or cert.field != field):
        raise ValueError("certificate dimension or field mismatch")
    level = level or cert.level
    if level not in LEVELS:
        raise ValueError(f"unknown certificate level {level!r}")
    if _certificate_sum(cert, field, n) != map_:
        return "sum mismatch"
    violated = _orthogonality_failure(cert)
    if violated is not None:
        return f"orthogonality {violated}"
    if level in ("doublestar", "triplestar") and cert.count != n - 1:
        return "count"
    if level == "triplestar":
        b_rows = [list(b) for _, _, b in cert.triples]
        if linalg.rank(b_rows) != n - 1:
            return "independence"
    return None


def _orthogonality_failure(cert: StarCertificate):
    """The first "(i,j)", 1-based, with i >= j and c_j^t b_i != 0, or None, on
    integer numerators of each c_j and b_i: a common scale keeps a zero test."""
    field = cert.field
    forms = [[(k, a) for k, a in enumerate(_numerators(c.coeffs)[1]) if any(a)]
             for c, _, _ in cert.triples]
    for i, (_, _, b) in enumerate(cert.triples):
        b = _numerators(b)[1]
        for j in range(i + 1):
            if any(map(sum, zip(*[field.times(a, b[k]) for k, a in forms[j]]))):
                return f"({i + 1},{j + 1})"
    return None


def verify_star_certificate(map_: PolyMap, cert: StarCertificate,
                            level: str | None = None) -> bool:
    return certificate_failure(map_, cert, level=level) is None


def _conjugated_vectors(c: LinearForm, b, grid, inv):
    """T^t c and T^{-1} b."""
    zero = c.field.zero()
    return linear_combinations(zip(*grid), c.coeffs, zero), linear_combinations(inv, b, zero)


def conjugated_power_term(c: LinearForm, d: int, b, t_matrix: PolyMatrix) -> PolyMap:
    """The map T^{-1} (c^t T x)^d b, one certificate term after conjugation."""
    grid, inv = conjugation_grids(t_matrix, c.field, c.nvars)
    tc, tinv_b = _conjugated_vectors(c, b, grid, inv)
    power = LinearForm(c.field, tc).to_poly() ** d
    return PolyMap([power * coeff for coeff in tinv_b])


def _term_is_triangular(c: LinearForm, b, grid, inv) -> bool:
    """Does T^{-1} (c^t T x)^d b have a strictly lower triangular Jacobian?

    With c' = T^t c and b' = T^{-1} b the Jacobian is d (c'^t x)^{d-1} b' c'^t,
    whose entry (i, j) is nonzero exactly when b'_i and c'_j are; so the test
    is exact: b' vanishes up to the last nonzero entry of c'.
    """
    tc, tinv_b = _conjugated_vectors(c, b, grid, inv)
    last = max((m for m, v in enumerate(tc) if not v.is_zero()), default=-1)
    return all(v.is_zero() for v in tinv_b[:last + 1])


def triangularization_from_certificate(cert: StarCertificate, n: int,
                                        field: Field | None = None) -> PolyMatrix:
    """A constant invertible T that triangularizes every certificate term.

    The flag's basis routine `linalg.adapted_basis`, run on b_N, ..., b_1, keeps
    each b_i independent of the later kept ones; they are the last columns
    of T, in certificate order, after the unit vectors that complete them,
    ascending.  Every term is re-checked with the one T^{-1}.  The field
    only needs to be passed for an empty certificate.
    """
    field = cert.field or field or Field([0, 1])
    if cert.triples and cert.nvars != n:
        raise ValueError("certificate dimension mismatch")
    violated = _orthogonality_failure(cert)
    if violated is not None:
        raise ValueError(f"orthogonality violated at {violated}")
    t_matrix = PolyMatrix.from_scalars(field, n, linalg.adapted_basis(
        field, n, [b for _, _, b in reversed(cert.triples)]))
    grid, inv = conjugation_grids(t_matrix, field, n)
    for c, _, b in cert.triples:
        if not _term_is_triangular(c, b, grid, inv):
            raise ArithmeticError("constructed matrix failed to triangularize a term")
    return t_matrix


def _pure_power_summands(poly: MultiPoly):
    """Split a polynomial into powers of linear forms, layer by layer.

    Each homogeneous part is taken whole when it is a single power of a
    linear form; otherwise its monomials must be powers of single variables.
    """
    out = []
    for degree, layer in poly.homogeneous_parts().items():
        if degree == 0:
            raise ValueError("nonzero constant part cannot be a power of a linear form")
        detected = is_pure_power(layer)
        if detected is not None:
            out.append(detected)
            continue
        for exps, coeff in layer.sorted_terms():
            support = [i for i, e in enumerate(exps) if e]
            if len(support) != 1:
                raise ValueError("component summand is not a power of a linear form")
            idx = support[0]
            out.append((LinearForm.unit(poly.field, poly.nvars, idx), exps[idx], coeff))
    return out


def certificate_from_triangularization(map_: PolyMap, t_matrix: PolyMatrix) -> StarCertificate:
    """Read a star certificate off a strict triangularization of H.

    With G = T^{-1} H(Tx) strictly triangular, every summand lam (g^t x)^d of
    a component G_{i+1} contributes the triple (T^{-t} g, d, lam T e_{i+1});
    ordering the triples by component index satisfies the orthogonality
    condition with the identity permutation.
    """
    if not map_.is_square:
        raise ValueError("triangularization applies to square maps")
    field, n = map_.field, map_.nvars
    grid, inv = conjugation_grids(t_matrix, field, n)
    conjugated = change_basis(map_, grid, inv)
    if not jacobian(conjugated).is_lower_triangular(strict=True):
        raise ValueError("conjugated Jacobian is not strictly lower triangular")
    triples = []
    for idx, comp in enumerate(conjugated.components):
        if comp.is_zero():
            continue
        col = [grid[r][idx] for r in range(n)]
        for gamma, d, lam in _pure_power_summands(comp):
            c_vec = linear_combinations(zip(*inv), gamma.coeffs, field.zero())  # T^{-t} gamma
            triples.append((LinearForm(field, c_vec), d, [lam * v for v in col]))
    cert = StarCertificate("star", triples)
    failure = certificate_failure(map_, cert)
    if failure is not None:
        raise ArithmeticError(f"reconstructed certificate does not verify: {failure}")
    return cert


def _span_generator(map_: PolyMap):
    """(g, v) with H = g v and g normalized to 1 at its smallest monomial, when
    the components' span is a line; None otherwise.  H must be nonzero."""
    first = next(comp for comp in map_.components if not comp.is_zero())
    low = min(first.terms)
    generator = first * first.terms[low].inverse()
    v = [comp.terms.get(low, map_.field.zero()) for comp in map_.components]
    if any(not comp.is_zero() and (c.is_zero() or comp != generator * c)
           for comp, c in zip(map_.components, v)):
        return None
    return generator, v


# -- the aggregated chain ------------------------------------------------------

class _MapAnalysis:
    """The per-map objects that the deciders of one chain_report call share.

    Each object is built on first use, so a call restricted to one check
    builds only what that check reads.
    """

    def __init__(self, map_: PolyMap, cert: StarCertificate | None = None):
        self.map = map_
        self.cert = cert
        self.h = nonlinear_part(map_)

    @cached_property
    def jh(self) -> PolyMatrix:
        return jacobian(self.h)

    @cached_property
    def jf(self) -> PolyMatrix:
        n = self.map.nvars
        return PolyMatrix.identity(self.map.field, n, n) + self.jh

    @cached_property
    def jh_h_entry(self):
        return _quasi(self.jh, self.h)

    @cached_property
    def flag(self):
        """(T, None) when JH is strongly nilpotent, else (None, word witness)."""
        return _strong_nilpotence_flag(self.jh)

    @cached_property
    def span(self):
        """(g, v, is_pure_power(g)) when H = g v spans a line (`_span_generator`),
        else None; read once for every level.  H must be nonzero."""
        line = _span_generator(self.h)
        return None if line is None else (*line, is_pure_power(line[0]))

    @property
    def strongly_nilpotent(self) -> bool:
        return self.flag[0] is not None

    @property
    def unipotent(self) -> bool:
        """det(I + t JH) = 1, by the flag or by JH H = 0 (module docstring)."""
        return self.strongly_nilpotent or self.jh_h_entry is None


# Each decider maps a _MapAnalysis to (verdict, witness, note).

def _decide_keller(shared: _MapAnalysis):
    det = None if shared.unipotent else matrix_det(shared.jf)
    if det is None or (det.is_constant() and not det.is_zero()):
        return HOLDS, None, None
    return FAILS, {"kind": "symbolic_determinant", "determinant": det}, None


def _decide_nilpotent(shared: _MapAnalysis):
    power = None if shared.unipotent else shared.jh.power(shared.map.nvars)
    if power is None or power.is_zero():
        return HOLDS, None, None
    return FAILS, _entry_witness(power), "JH^n has a nonzero entry"


def _decide_quasi(shared: _MapAnalysis):
    if shared.jh_h_entry is None:
        return HOLDS, None, None
    index, value = shared.jh_h_entry
    return (FAILS, {"kind": "jh_h_entry", "index": index, "value": value},
            "JH H has a nonzero entry")


def _decide_jc_minus(shared: _MapAnalysis):
    """Holds with an exhibited inverse: quasi-translation, direct triangular
    inversion, or inversion of T^{-1} F(Tx) for the flag's T."""
    map_ = shared.map
    if shared.jh_h_entry is None:
        inverse = PolyMap.identity(map_.field, map_.nvars) - shared.h
        how = "quasi-translation: x - H inverts x + H"
    elif shared.jh.is_lower_triangular(strict=True):
        inverse = _forward_substitution(shared.h)  # JH is checked: no second Jacobian
        how = "forward substitution on the triangular form"
    elif shared.strongly_nilpotent:
        grid, inv = conjugation_grids(shared.flag[0], map_.field, map_.nvars)
        # F^{-1} = T G^{-1}(T^{-1} x) for the triangular G = T^{-1} F(Tx)
        inverse = change_basis(invert_triangular(change_basis(map_, grid, inv)), inv, grid)
        how = "inverted after triangularization by the strong-nilpotence flag"
    else:
        return UNDECIDED, None, "no inverse exhibited"
    return HOLDS, {"kind": "inverse_map", "map": inverse}, how


def _decide_sum(shared: _MapAnalysis, count: int):
    if shared.strongly_nilpotent:
        # T^-1 (sum of JH at the points) T is strictly triangular: det = count^n
        n = shared.map.nvars
        return HOLDS, None, f"determinant is the constant {shared.map.field.scalar(count) ** n!r}"
    if count > _MAX_SUM_POINTS:
        return UNDECIDED, None, f"more than {_MAX_SUM_POINTS} points: the sum is not expanded"
    return _sum_condition(shared.jf, count)


def _decide_word(shared: _MapAnalysis):
    word = shared.flag[1]
    if word is None:
        return HOLDS, None, None
    return FAILS, word, "a word of n coefficient matrices of JH is nonzero"


def _decide_level(shared: _MapAnalysis, level: str):
    """The routes of the module docstring, in order: the chain *** => ** => *
    comes after every oracle, which decides without the flag."""
    h, cert, field, n = shared.h, shared.cert, shared.map.field, shared.map.nvars
    if cert is not None and verify_star_certificate(h, cert, level=level):
        return HOLDS, {"kind": "certificate", "certificate": cert}, None
    if level == "star":
        if h.vanishes_at_origin():
            return HOLDS if shared.strongly_nilpotent else FAILS, shared.flag[1], None
        return UNDECIDED, None, "H(0) != 0: only the triangularizability reading applies"
    if h.is_zero():
        units = linalg.identity_grid(field, n)
        cert = StarCertificate(level, [(LinearForm.zero_form(field, n), 1, units[i + 1])
                                       for i in range(n - 1)])
        return HOLDS, {"kind": "certificate", "certificate": cert}, "zero map"
    if n == 1:
        return FAILS, None, "a nonzero one-variable map is no empty sum"
    line = shared.span if n == 2 or level == "triplestar" else None
    detected = None if line is None else line[2]
    if n == 2:
        # one term (c^t x)^d b, unique up to scaling c: H = g v with g = lam (c^t x)^d
        # gives b = lam v, so checking c^t b = 0 is a complete test
        if detected is not None:
            form, d, lam = detected
            cert = StarCertificate(level, [(form, d, [lam * v for v in line[1]])])
            # c^t b = 0 first: it fails without expanding (c^t x)^d again
            if _orthogonality_failure(cert) is None and certificate_failure(h, cert) is None:
                return HOLDS, {"kind": "certificate", "certificate": cert}, "single-term oracle"
        return FAILS, None, "single-term oracle: no orthogonal decomposition with one power exists"
    if line is not None and detected is None:
        return (FAILS, {"kind": "span_generator", "generator": line[0]},
                "component-span oracle: with independent b_i every form power lies in "
                "the span, but its generator is not a power of a linear form")
    if h.vanishes_at_origin() and not shared.strongly_nilpotent:
        return (FAILS, shared.flag[1],
                "(*) fails: JH is not strongly nilpotent, so (**) and (***) fail")
    return UNDECIDED, None, "no verifying certificate; outside the oracles"


# Run order: jc_minus, whose inverse is the largest object a report keeps, runs late.
_DECIDERS = {
    "keller": _decide_keller,
    "nilpotent": _decide_nilpotent,
    "quasi": _decide_quasi,
    "jc": lambda shared: _decide_sum(shared, max(shared.map.degree() - 1, 1)),
    "jc_plus": lambda shared: _decide_sum(shared, shared.map.nvars),
    "strong_nilpotent": _decide_word,
    "jc_minus": _decide_jc_minus,
    **{level: partial(_decide_level, level=level) for level in LEVELS},
}


def chain_report(map_: PolyMap, cert: StarCertificate | None = None,
                 checks=None) -> PropertyReport:
    """Run the condition chain on F = x + H and aggregate the verdicts.

    `checks` restricts the work to a subset of CHAIN_CONDITIONS; each one is
    recorded from its decider (module docstring).  H, JH, JF = I + JH, the
    quasi-translation test JH H = 0, the strong-nilpotence flag and the reading
    of the component span are each computed at most once per call, and only
    for the checks that read them.
    """
    if not map_.is_square:
        raise ValueError("chain analysis needs a square map F = x + H")
    wanted = set(CHAIN_CONDITIONS if checks is None else checks)
    unknown = wanted.difference(CHAIN_CONDITIONS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    shared = _MapAnalysis(map_, cert)
    report = PropertyReport()
    for name, decide in _DECIDERS.items():
        if name in wanted:
            report.record(name, *decide(shared))
    return report
