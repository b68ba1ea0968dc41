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

(*) is decided through strong nilpotence of JH, which is the same as linear
triangularizability (van den Essen and Hubbers, JPAA 110, 1996).  Writing
JH = sum_m x^m A_m with constant matrices A_m, the flag W_0 = K^n,
W_{k+1} = sum_m A_m W_k reaches 0 exactly when H is strongly nilpotent; a
basis adapted to it is a T with T^{-1} H(Tx) strictly triangular, and
otherwise a nonzero word of n matrices A_m is the witness.  When the flag
holds, the rest of the chain follows from it: keller, nilpotent, JC and
JC+ hold, and JC- holds by inverting T^{-1} F(Tx).  Maps that fail it go
through symbolic determinants and nilpotency.  (**) and (***) are verified
via explicit certificates; their failure is asserted only by two sound
desk-scale oracles (single-term matching in dimension 2, and the
one-dimensional component-span argument).  (JC-) is never decided in the
negative: the verdict is holds only when an inverse is exhibited.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from . import linalg
from .exactfield import Field, Scalar
from .multipoly import (LinearForm, MultiPoly, is_pure_power, lift_to_field,
                        rename_variables)
from .polymap import (PolyMap, PolyMatrix, change_basis, conjugate, jacobian,
                      linear_combinations, map_compose, matrix_det, invert_triangular,
                      nonlinear_part)

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
    "verify_sum_witness",
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

    def holds(self, name: str) -> bool:
        return self.conditions[name] == HOLDS

    def witness(self, name: str):
        return self.witnesses.get(name)

    @property
    def sole_verdict(self) -> str:
        if len(self.conditions) != 1:
            raise ValueError("report covers more than one condition")
        return next(iter(self.conditions.values()))

    def merge(self, other: "PropertyReport") -> "PropertyReport":
        self.conditions.update(other.conditions)
        self.witnesses.update(other.witnesses)
        self.notes.update(other.notes)
        return self

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.conditions.items()))
        return f"PropertyReport({body})"


# -- basic map-level checks -------------------------------------------------

def _quasi_residual(h: PolyMap) -> PolyMap:
    """H(x - H) - H, which is zero exactly when x + H is a quasi-translation."""
    return map_compose(h, PolyMap.identity(h.field, h.nvars) - h) - h


def is_quasi_translation(map_: PolyMap) -> bool:
    """F = x + H with H(x - H) = H, equivalently (x+H) o (x-H) = x."""
    return _quasi_residual(nonlinear_part(map_)).is_zero()


# -- sums and products of substituted Jacobians ------------------------------

def _fresh_copies(jac: PolyMatrix, count: int, combine) -> PolyMatrix:
    """Fold `combine` over copies of `jac` at `count` tuples of fresh indeterminates.

    The result lives in n + count*n variables: the original ones followed by
    the points v_1, ..., v_count in a fixed order.
    """
    n = jac.nvars
    total = n + count * n
    acc = None
    for b in range(count):
        mapping = [n + b * n + j for j in range(n)]  # x_j -> coordinate j of point b
        block = jac.map_entries(lambda e: rename_variables(e, mapping, total))
        acc = block if acc is None else combine(acc, block)
    return acc


def substituted_jacobian_sum(map_: PolyMap, count: int) -> PolyMatrix:
    """Sum of JF at `count` tuples of fresh indeterminates, in n + count*n variables."""
    if not map_.is_square:
        raise ValueError("Jacobian sums need a square map")
    if count < 1:
        raise ValueError("need at least one substitution point")
    return _fresh_copies(jacobian(map_), count, operator.add)


# Candidate roots p/q need the divisors of the constant and the leading
# coefficient, found by trial division up to their square roots; past this
# bound (about 10^5 divisions) the search is not run at all.
_ROOT_SEARCH_LIMIT = 10 ** 10


def _univariate_rational_roots(poly: MultiPoly):
    """All rational roots of a univariate polynomial over Q, ascending.

    None when a coefficient that bounds the candidates exceeds
    _ROOT_SEARCH_LIMIT, so the roots are not known.
    """
    if poly.nvars != 1 or not poly.field.is_rational:
        raise ValueError("rational root search needs a univariate rational polynomial")
    coeffs = {}
    for exps, coeff in poly.terms.items():
        coeffs[exps[0]] = coeff.as_rational()
    if not coeffs:
        return []
    low = min(coeffs)
    if low > 0:
        # factor out t^low; t = 0 is a root
        coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return [Fraction(0)] if low > 0 else []
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
            for cand in (Fraction(p, q), Fraction(-p, q)):
                val = sum(c * cand ** e for e, c in ints.items())
                if val == 0:
                    roots.add(cand)
    return sorted(roots)


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


def _point_witness(jf: PolyMatrix, det: MultiPoly, count: int):
    """Search for concrete points where the summed-Jacobian determinant is 0.

    Pattern: repeat a unit point e_m and perturb the last point to
    e_m + s e_j for a single coordinate s; the restricted determinant is
    univariate in s.  A rational root gives a base-field witness; a rootless
    quadratic gives a witness in the corresponding quadratic extension.
    """
    n = jf.nvars
    field = jf.field
    total = n + count * n
    if det.is_zero():
        zero = field.zero()
        return field, [[zero] * n for _ in range(count)]
    if not field.is_rational:
        return None
    for m in range(n):
        for j in range(n):
            if j == m:
                continue
            # coordinates: originals 0, points e_m, last point e_m + s e_j
            values = [MultiPoly.zero(field, 1)] * total
            for b in range(count):
                values[n + b * n + m] = MultiPoly.constant(field, 1, 1)
            values[total - n + j] = MultiPoly.variable(field, 1, 0)
            restricted = det.substitute(values)
            if restricted.is_zero():
                roots = [Fraction(0)]
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
    return None


def _pattern_points(field: Field, n: int, count: int, m: int, j: int, s_value: Scalar):
    points = []
    for b in range(count):
        point = [field.zero()] * n
        point[m] = field.one()
        if b == count - 1:
            point[j] = point[j] + s_value
        points.append(point)
    return points


def verify_sum_witness(map_: PolyMap, field: Field, points) -> bool:
    """Re-run the determinant at the witness points; must be exactly zero."""
    return _sum_vanishes_at(jacobian(map_), field, points)


def _sum_vanishes_at(jf: PolyMatrix, field: Field, points) -> bool:
    """Is the sum of JF at the points, a scalar matrix over `field`, singular?"""
    total = [[field.zero()] * jf.cols for _ in range(jf.rows)]
    for point in points:
        total = [[acc + lift_to_field(e, field).evaluate(point) for acc, e in zip(sums, row)]
                 for sums, row in zip(total, jf.entries)]
    return linalg.rank(total) < jf.rows


def check_sum_condition(map_: PolyMap, count: int, label: str = "sum_condition") -> PropertyReport:
    """Decide whether det(sum of JF at `count` generic points) is a nonzero constant.

    count = deg F - 1 realizes the deg-1-point condition, count = n the
    full condition.  Since the field is infinite and algebraically closed
    points are allowed, a non-constant symbolic determinant means failure.
    """
    if not map_.is_square:
        raise ValueError("sum condition needs a square map")
    if count < 1:
        raise ValueError("need at least one substitution point")
    return _sum_condition(jacobian(map_), count, label)


def _sum_condition(jf: PolyMatrix, count: int, label: str) -> PropertyReport:
    det = matrix_det(_fresh_copies(jf, count, operator.add))
    report = PropertyReport()
    if det.is_constant() and not det.is_zero():
        return report.record(label, HOLDS,
                             note=f"determinant is the constant {det.constant_value()!r}")
    found = _point_witness(jf, det, count)
    if found is not None:
        field, points = found
        if not _sum_vanishes_at(jf, field, points):
            raise ArithmeticError("witness points failed re-verification")
        witness = {"kind": "points", "field": field, "points": points}
        return report.record(label, FAILS, witness=witness,
                             note="determinant vanishes at the witness points")
    witness = {"kind": "symbolic_determinant", "determinant": det}
    return report.record(label, FAILS, witness=witness,
                         note="determinant is not a nonzero constant")


def strong_nilpotence_product(map_: PolyMap, count: int | None = None) -> PolyMatrix:
    """Product of JH at `count` (default n) tuples of fresh indeterminates.

    With JH = sum_m x^m A_m, the coefficient of v_1^{m_1} ... v_n^{m_n} in the
    n-fold product is the word A_{m_1} ... A_{m_n}; this is the reference the
    flag decider is tested against.
    """
    if not map_.is_square:
        raise ValueError("strong nilpotence needs a square map")
    return _fresh_copies(jacobian(map_), map_.nvars if count is None else count,
                         operator.matmul)


def is_strongly_nilpotent(map_: PolyMap) -> PropertyReport:
    """Does every product of n copies of JH at independent points vanish?

    Decided by the flag of constant coefficient matrices (see
    `_strong_nilpotence_flag`).  On failure the witness is a word of n
    exponent vectors with the nonzero image of one unit vector under it.
    """
    if not map_.is_square:
        raise ValueError("strong nilpotence needs a square map")
    return _strong_report(_strong_nilpotence_flag(jacobian(map_))[1])


def _strong_report(word) -> PropertyReport:
    report = PropertyReport()
    if word is None:
        return report.record("strong_nilpotent", HOLDS)
    return report.record("strong_nilpotent", FAILS, witness=word,
                         note="a word of n coefficient matrices of JH is nonzero")


def _coefficient_matrices(jac: PolyMatrix) -> dict:
    """JH = sum_m x^m A_m, each A_m as its nonzero entries (i, j, value), by m."""
    mats = {}
    for i, row in enumerate(jac.entries):
        for j, entry in enumerate(row):
            for m, value in entry.terms.items():
                mats.setdefault(m, []).append((i, j, value))
    return dict(sorted(mats.items()))


def _apply(entries, vector, zero):
    """A v for a sparse constant matrix A, skipping the zero coordinates of v."""
    out = [zero] * len(vector)
    for i, j, value in entries:
        if not vector[j].is_zero():
            out[i] = out[i] + value * vector[j]
    return out


def _pivots(vectors) -> list:
    """Indices of the first maximal linearly independent subset of `vectors`."""
    return linalg.rref([list(row) for row in zip(*vectors)])[1]


def _strong_nilpotence_flag(jac: PolyMatrix):
    """(T, None) when JH is strongly nilpotent, (None, word witness) otherwise.

    With JH = sum_m x^m A_m, the flag W_0 = K^n, W_{k+1} = sum_m A_m W_k
    reaches 0 exactly when every word of n matrices A_m vanishes, which is
    strong nilpotence (van den Essen and Hubbers, JPAA 110, 1996).  The
    columns of T run through a basis adapted to the flag, deepest level
    last, so every T^{-1} A_m T is strictly lower triangular.  Each basis
    vector of W_k is kept as the image of a unit vector under a word of k
    matrices, so a nonzero W_n yields a witness word of exactly n letters.
    """
    field, n = jac.field, jac.nvars
    if jac.is_lower_triangular(strict=True):
        return PolyMatrix.identity(field, n, n), None
    zero = field.zero()
    mats = _coefficient_matrices(jac)
    units = linalg.identity_grid(field, n)
    levels = [[((), j, units[j]) for j in range(n)]]
    for _ in range(n):
        images = [((m,) + word, j, _apply(entries, v, zero))
                  for word, j, v in levels[-1] for m, entries in mats.items()]
        level = [images[p] for p in _pivots([v for _, _, v in images])]
        if not level:
            deepest_first = [v for step in reversed(levels[1:]) for _, _, v in step]
            return _adapted_basis(deepest_first, field, n), None
        levels.append(level)
    word, j, image = levels[-1][0]
    # re-check against the Jacobian entries themselves
    check = units[j]
    for m in reversed(word):
        check = [sum((row[c].terms.get(m, zero) * check[c] for c in range(n)), zero)
                 for row in jac.entries]
    if check != image or all(a.is_zero() for a in image):
        raise ArithmeticError("strong-nilpotence word failed re-verification")
    return None, {"kind": "word", "word": list(word), "unit": j, "image": image}


def _adapted_basis(chain, field: Field, n: int) -> PolyMatrix:
    """An invertible T whose last columns span chain[:k] for every k.

    One pivot pass over `chain`, then the unit vectors; the columns of T are
    the picked unit vectors, ascending, then the picked chain vectors in reverse."""
    vectors = chain + linalg.identity_grid(field, n)
    picked = _pivots(vectors)
    cols = ([vectors[p] for p in picked if p >= len(chain)]
            + [vectors[p] for p in reversed(picked) if p < len(chain)])
    return PolyMatrix.from_scalars(field, n, [[cols[j][i] for j in range(n)] for i in range(n)])


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
            b = tuple(c.field.scalar(v) for v in b)
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

    def with_level(self, level: str) -> "StarCertificate":
        return StarCertificate(level, self.triples)

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
    """The first "(i,j)", 1-based, with i >= j and c_j^t b_i != 0, or None."""
    for i in range(cert.count):
        for j in range(i + 1):
            if not cert.triples[j][0].dot(cert.triples[i][2]).is_zero():
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
    grid = t_matrix.constant_grid()
    inv = linalg.invert(grid, c.field)
    if inv is None:
        raise ValueError("conjugating matrix is singular")
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

    The flag's basis routine `_adapted_basis`, run on b_N, ..., b_1, keeps
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
    t_matrix = _adapted_basis([b for _, _, b in reversed(cert.triples)], field, n)
    grid = t_matrix.constant_grid()
    inv = linalg.invert(grid, field)
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
    conjugated = conjugate(map_, t_matrix)
    if not jacobian(conjugated).is_lower_triangular(strict=True):
        raise ValueError("conjugated Jacobian is not strictly lower triangular")
    grid = t_matrix.constant_grid()
    inv = linalg.invert(grid, field)
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


# -- desk-scale oracles for the stronger forms --------------------------------

def _single_term_certificate(map_: PolyMap):
    """In dimension 2 the n-1 = 1 term forms are decidable exhaustively.

    A single-term decomposition H = (c^t x)^d b is unique up to the
    normalization of c, so matching against the detected pure power and
    checking c^t b = 0 is a complete test.  H must be nonzero.
    """
    field = map_.field
    base = next(comp for comp in map_.components if not comp.is_zero())
    detected = is_pure_power(base)
    if detected is None:
        return None
    form, d, lam = detected
    lead = max(base.terms)
    ratios = []
    for comp in map_.components:
        if comp.is_zero():
            ratios.append(field.zero())
            continue
        # comp must be a constant multiple of base
        if comp.degree() != base.degree() or lead not in comp.terms:
            return None
        ratio = comp.terms[lead] / base.terms[lead]
        if comp != base * ratio:
            return None
        ratios.append(ratio)
    b = [lam * r for r in ratios]
    cert = StarCertificate("doublestar", [(form, d, b)])
    if certificate_failure(map_, cert) is not None:
        return None
    return cert


def _component_span(map_: PolyMap):
    """A basis of the linear span of the components, as polynomials."""
    monomials = sorted({e for comp in map_.components for e in comp.terms})
    rows = [[comp.terms.get(e, map_.field.zero()) for e in monomials]
            for comp in map_.components]
    reduced, pivots = linalg.rref(rows)
    basis = []
    for r in range(len(pivots)):
        terms = {}
        for e, v in zip(monomials, reduced[r]):
            if not v.is_zero():
                terms[e] = v
        basis.append(MultiPoly(map_.field, map_.nvars, terms))
    return basis


def _decide_level_oracle(map_: PolyMap, level: str):
    """(verdict, witness, note) for the n-1 term form at `level`, undecided out of scope."""
    field, n = map_.field, map_.nvars
    if map_.is_zero():
        units = linalg.identity_grid(field, n)
        cert = StarCertificate(level, [(LinearForm.zero_form(field, n), 1, units[i + 1])
                                       for i in range(n - 1)])
        return HOLDS, {"kind": "certificate", "certificate": cert}, "zero map"
    if n == 1:
        return FAILS, None, "a nonzero one-variable map is no empty sum"
    if n == 2:
        cert = _single_term_certificate(map_)
        if cert is None:
            return (FAILS, None,
                    "single-term oracle: no orthogonal decomposition with one power exists")
        return (HOLDS, {"kind": "certificate", "certificate": cert.with_level(level)},
                "single-term oracle")
    if level == "triplestar":
        basis = _component_span(map_)
        if len(basis) == 1 and is_pure_power(basis[0]) is None:
            return (FAILS, {"kind": "span_generator", "generator": basis[0]},
                    "component-span oracle: with independent b_i every form power lies in "
                    "the span, but its generator is not a power of a linear form")
    return UNDECIDED, None, "no verifying certificate; outside the oracles"


# -- the aggregated chain ------------------------------------------------------

class _MapAnalysis:
    """The per-map objects that the checks of one chain_report call share.

    Each object is built on first use, so a call restricted to one check
    builds only what that check reads.
    """

    def __init__(self, map_: PolyMap):
        self.map = map_
        self.h = nonlinear_part(map_)

    @cached_property
    def jh(self) -> PolyMatrix:
        return jacobian(self.h)

    @cached_property
    def jf(self) -> PolyMatrix:
        n = self.map.nvars
        return PolyMatrix.identity(self.map.field, n, n) + self.jh

    @cached_property
    def quasi_residual(self) -> PolyMap:
        return _quasi_residual(self.h)

    @cached_property
    def flag(self):
        """(T, None) when JH is strongly nilpotent, else (None, word witness)."""
        return _strong_nilpotence_flag(self.jh)

    @property
    def strongly_nilpotent(self) -> bool:
        return self.flag[0] is not None


def _exhibit_inverse(shared: _MapAnalysis):
    """Try to exhibit an inverse: quasi-translation, direct triangular
    inversion, or inversion of T^{-1} F(Tx) for the flag's T."""
    map_ = shared.map
    if shared.quasi_residual.is_zero():
        inverse = PolyMap.identity(map_.field, map_.nvars) - shared.h
        return inverse, "quasi-translation: x - H inverts x + H"
    if shared.jh.is_lower_triangular(strict=True):
        return invert_triangular(map_), "forward substitution on the triangular form"
    t_matrix = shared.flag[0]
    if t_matrix is not None:
        grid = t_matrix.constant_grid()
        inv = linalg.invert(grid, map_.field)
        # F^{-1} = T G^{-1}(T^{-1} x) for the triangular G = T^{-1} F(Tx)
        inverse = change_basis(invert_triangular(change_basis(map_, grid, inv)), inv, grid)
        return inverse, "inverted after triangularization by the strong-nilpotence flag"
    return None


def chain_report(map_: PolyMap, cert: StarCertificate | None = None,
                 checks=None) -> PropertyReport:
    """Run the condition chain on F = x + H and aggregate the verdicts.

    `checks` restricts the work to a subset of CHAIN_CONDITIONS.  H, JH,
    JF = I + JH, the quasi residual H(x - H) - H and the strong-nilpotence
    flag are each computed at most once per call, and only for the checks
    that read them.  When the flag holds, keller, nilpotent, jc, jc_plus,
    strong_nilpotent and star read their verdict from it, and jc_minus
    inverts the triangularized map.  The stronger forms hold only with a
    verifying certificate or through the desk-scale oracles, and the
    invertibility condition holds only when an inverse is actually
    exhibited; neither is ever decided negative beyond the sound oracles.
    """
    if not map_.is_square:
        raise ValueError("chain analysis needs a square map F = x + H")
    wanted = set(CHAIN_CONDITIONS if checks is None else checks)
    unknown = wanted.difference(CHAIN_CONDITIONS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    shared = _MapAnalysis(map_)
    h = shared.h
    n = map_.nvars
    report = PropertyReport()

    if "keller" in wanted:
        det = None if shared.strongly_nilpotent else matrix_det(shared.jf)
        if det is None or (det.is_constant() and not det.is_zero()):
            report.record("keller", HOLDS)
        else:
            report.record("keller", FAILS,
                          witness={"kind": "symbolic_determinant", "determinant": det})
    if "nilpotent" in wanted:
        power = None if shared.strongly_nilpotent else shared.jh.power(n)
        if power is None or power.is_zero():
            report.record("nilpotent", HOLDS)
        else:
            report.record("nilpotent", FAILS, witness=_entry_witness(power),
                          note="JH^n has a nonzero entry")
    if "quasi" in wanted:
        residual = shared.quasi_residual
        if residual.is_zero():
            report.record("quasi", HOLDS)
        else:
            index = next(i for i, c in enumerate(residual.components) if not c.is_zero())
            report.record("quasi", FAILS,
                          witness={"kind": "component", "index": index,
                                   "value": residual.components[index]},
                          note="H(x - H) - H is nonzero")
    for label, count in (("jc", max(map_.degree() - 1, 1)), ("jc_plus", n)):
        if label not in wanted:
            continue
        if shared.strongly_nilpotent:
            # T^-1 (sum of JH at the points) T is strictly triangular: det = count^n
            report.record(label, HOLDS,
                          note=f"determinant is the constant {map_.field.scalar(count) ** n!r}")
        else:
            report.merge(_sum_condition(shared.jf, count, label))
    if "strong_nilpotent" in wanted:
        report.merge(_strong_report(shared.flag[1]))
    if "jc_minus" in wanted:
        exhibited = _exhibit_inverse(shared)
        if exhibited is not None:
            inverse, how = exhibited
            report.record("jc_minus", HOLDS,
                          witness={"kind": "inverse_map", "map": inverse}, note=how)
        else:
            report.record("jc_minus", UNDECIDED, note="no inverse exhibited")
    for level in LEVELS:
        if level not in wanted:
            continue
        if cert is not None and verify_star_certificate(h, cert, level=level):
            report.record(level, HOLDS, witness={"kind": "certificate", "certificate": cert})
        elif level == "star" and h.vanishes_at_origin():
            report.record("star", HOLDS if shared.strongly_nilpotent else FAILS,
                          witness=shared.flag[1])
        elif level == "star":
            report.record("star", UNDECIDED,
                          note="H(0) != 0: only the triangularizability reading applies")
        else:
            report.record(level, *_decide_level_oracle(h, level))
    return report
