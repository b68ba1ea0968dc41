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
otherwise a nonzero word of n matrices A_m is the witness.  The flag runs on
K^n = Q^{n e}, e = [K : Q]: a vector is one flat list of n e integers over
one denominator, each A_m acts by its regular representation, a sparse
integer matrix, and a vector is K-independent of those kept when fraction-free
elimination over Q finds it outside their span with their multiples by
t, ..., t^{e-1}.  A level stops once it is as large as the level before,
since W_{k+1} lies in W_k.  When the flag holds, keller, nilpotent, JC and
JC+ hold, and JC- holds by inverting T^{-1} F(Tx).

Otherwise keller and nilpotent hold when x + H is a quasi-translation (below),
and go through det JF and JH^n when it is not.  JC and JC+ write
JF = sum_m x^m B_m: the sum of JF at count points v_k is G(p(v)) for
G(lam) = count B_0 + sum_{m != 0} lam_m B_m and p_m(v) = sum_k v_k^m, so a
nonzero constant det G proves holds, since its value is the summed
determinant's (a nilpotent span of the A_m, Gerstenhaber, Amer. J. Math. 80,
1958, gives count^n); a non-constant one proves nothing.  Failure is then
sought at point patterns whose summed JF is univariate, in the order of
`_point_witness`, and the determinant in n + count n variables is expanded
last, for the witness when no pattern gives one.  (**) and (***) are
verified via explicit certificates; their failure is asserted only by two
sound desk-scale oracles (single-term matching in dimension 2, and the
one-dimensional component-span argument, whose generator is the first
nonzero component once every other one is a multiple of it).  (JC-) is
never decided in the negative: the verdict is holds only when an inverse is
exhibited.  A certificate's orthogonality clause is tested on integer
numerators: each c_j and b_i is scaled once to integer coordinates, and each
pairing is an integer convolution folded by `Field.reduce`.

x + H is a quasi-translation, H(x - H) = H, exactly when JH H = 0 (de
Bondt, Proc. AMS 134, 2006).  If JH H = 0, H is constant along the flow of
the vector field H, so that flow is x + tH and H(x + tH) = H, in any
Q-algebra; put t = -1.  By the converse, when JH H != 0 some component of
H(x - H) - H is nonzero, and the first one is the failure witness.  As tH
also has J(tH) tH = 0, x - tH inverts x + tH over K[t]: det(I + t JH) is a
unit of K[t][x], so 1, its value at t = 0.  So det JF = 1 and JH is nilpotent.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat

from . import linalg
from .exactfield import Field, Scalar, rational_roots
from .linalg import _extends, _image, _ring, _scalars, _times_t
from .multipoly import (LinearForm, MultiPoly, _numerators, is_pure_power,
                        lift_to_field, rename_variables, sums_of_products)
from .polymap import (PolyMap, PolyMatrix, change_basis, conjugation_grids, jacobian,
                      linear_combinations, matrix_det, invert_triangular,
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

def _quasi(jh: PolyMatrix, h: PolyMap) -> bool:
    """JH H = 0, which holds exactly when x + H is a quasi-translation."""
    return all(sums_of_products(h.field, h.nvars, [zip(repeat(1), row, h.components)])[0].is_zero()
               for row in jh.entries)


def _quasi_witness(h: PolyMap) -> dict:
    """The first nonzero component of H(x - H) - H, for an H with JH H != 0."""
    inner = (PolyMap.identity(h.field, h.nvars) - h).components
    for index, comp in enumerate(h.components):
        value = comp.substitute(inner, nvars=h.nvars) - comp
        if not value.is_zero():
            return {"kind": "component", "index": index, "value": value}
    raise ArithmeticError("JH H is nonzero, yet H(x - H) = H")


def is_quasi_translation(map_: PolyMap) -> bool:
    """F = x + H with H(x - H) = H, equivalently (x+H) o (x-H) = x."""
    return _MapAnalysis(map_).quasi


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


def _univariate_rational_roots(poly: MultiPoly):
    """`rational_roots` of a univariate polynomial over Q."""
    if poly.nvars != 1 or not poly.field.is_rational:
        raise ValueError("rational root search needs a univariate rational polynomial")
    dense = [Fraction(0)] * (max((e for (e,) in poly.terms), default=-1) + 1)
    for (e,), coeff in poly.terms.items():
        dense[e] = coeff.as_rational()
    return rational_roots(dense)


def _generic_sum(jf: PolyMatrix, count: int) -> PolyMatrix:
    """G(lam) = count B_0 + sum_{m != 0} lam_m B_m for JF = sum_m x^m B_m, one lam
    per distinct nonconstant monomial m of JF."""
    monomials = sorted({m for row in jf.entries for e in row for m in e.terms if any(m)})
    lam = {m: tuple(int(m == k) for k in monomials) for m in monomials}
    lam[(0,) * jf.nvars] = (0,) * len(monomials)
    return jf.map_entries(lambda e: MultiPoly(e.field, len(monomials), {
        lam[m]: c if any(m) else c * count for m, c in e.terms.items()}))


def _pattern_sum(jf: PolyMatrix, count: int, m: int, j: int) -> PolyMatrix:
    """(count - 1) JF(e_m) + JF(e_m + s e_j), univariate in s: JF summed at the
    points of the pattern (m, j) of `_point_witness`."""
    others = [i for i in range(jf.nvars) if i not in (m, j)]
    return jf.map_entries(lambda e: MultiPoly.from_terms(e.field, 1, [
        ((exps[j],), c if exps[j] else c * count)
        for exps, c in e.terms.items() if not any(exps[i] for i in others)]))


def _point_witness(jf: PolyMatrix, count: int, full_det):
    """Search for concrete points where the summed-Jacobian determinant is 0.

    Pattern: repeat a unit point e_m and perturb the last point to
    e_m + s e_j for a single coordinate s; the determinant of the matrix
    summed at those points (`_pattern_sum`) is the full determinant
    restricted, univariate in s.  A rational root gives a base-field witness;
    a rootless quadratic gives a witness in the corresponding quadratic
    extension.  Only a restriction that vanishes identically, or no witness
    (and every field but Q), calls `full_det`: an identically zero
    determinant is witnessed by zero points instead.
    """
    n = jf.nvars
    field = jf.field
    zeros = field, [[field.zero()] * n for _ in range(count)]
    for m in range(n if field.is_rational else 0):
        for j in range(n):
            if j == m:
                continue
            restricted = matrix_det(_pattern_sum(jf, count, m, j))
            if restricted.is_zero():
                if full_det().is_zero():
                    return zeros
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


def verify_sum_witness(map_: PolyMap, field: Field, points) -> bool:
    """Re-run the determinant at the witness points; must be exactly zero."""
    return _sum_vanishes_at(jacobian(map_), field, points)


def _sum_vanishes_at(jf: PolyMatrix, field: Field, points) -> bool:
    """Is the sum of JF at the points, a scalar matrix over `field`, singular?"""
    lifted = jf.map_entries(lambda e: lift_to_field(e, field))
    total = [[field.zero()] * jf.cols for _ in range(jf.rows)]
    for point in points:
        total = [[acc + e.constant_term() for acc, e in zip(sums, row)]
                 for sums, row in zip(total, lifted.substitute(point, nvars=0).entries)]
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
    """det G (`_generic_sum`) for holds, then the point patterns for fails; the
    determinant in n + count n variables is built once, when asked for."""
    report = PropertyReport()
    full_det = cache(lambda: matrix_det(_fresh_copies(jf, count, operator.add)))
    det = matrix_det(_generic_sum(jf, count))
    if not det.is_constant() or det.is_zero():
        found = _point_witness(jf, count, full_det)
        if found is not None:
            field, points = found
            if not _sum_vanishes_at(jf, field, points):
                raise ArithmeticError("witness points failed re-verification")
            witness = {"kind": "points", "field": field, "points": points}
            return report.record(label, FAILS, witness=witness,
                                 note="determinant vanishes at the witness points")
        det = full_det()
    if det.is_constant() and not det.is_zero():
        return report.record(label, HOLDS,
                             note=f"determinant is the constant {det.constant_value()!r}")
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


def _coefficient_matrices(jac: PolyMatrix, ring) -> dict:
    """JH = sum_m x^m A_m: by m, the regular representation (D, [(row, col, a)]) of
    A_m, its Q-linear map on Q^{n e}, as integers a over one denominator D."""
    (e, s, _), mats = ring, {}
    items = [(m, i, j, c) for i, row in enumerate(jac.entries)
             for j, entry in enumerate(row) for m, c in entry.terms.items()]
    den, coords = _numerators([c for *_, c in items])
    for (m, i, j, _), a in zip(items, coords):
        for l in range(e):  # column l of the block is t^l a, over den s^l
            a = _times_t(ring, a) if l else a
            mats.setdefault(m, []).extend((i * e + r, j * e + l, x * s ** (e - 1 - l))
                                          for r, x in enumerate(a) if x)
    return {m: (den * s ** (e - 1), mats[m]) for m in sorted(mats)}


def _strong_nilpotence_flag(jac: PolyMatrix):
    """(T, None) when JH is strongly nilpotent, (None, word witness) otherwise.

    With JH = sum_m x^m A_m, the flag W_0 = K^n, W_{k+1} = sum_m A_m W_k
    reaches 0 exactly when every word of n matrices A_m vanishes, which is
    strong nilpotence (van den Essen and Hubbers, JPAA 110, 1996).  The
    columns of T run through a basis adapted to the flag, deepest level
    last, so every T^{-1} A_m T is strictly lower triangular.  Each basis
    vector of W_k is kept as the image of a unit vector under a word of k
    matrices, so a nonzero W_n yields a witness word of exactly n letters.

    A vector of K^n = Q^{n e} is n e integers over one denominator, and A_m
    acts by its regular representation.  A level keeps, in image order, each
    image K-independent of those kept (`_extends`), and stops once it is as
    large as the level before: W_{k+1} lies in W_k.
    """
    field, n = jac.field, jac.nvars
    if jac.is_lower_triangular(strict=True):
        return PolyMatrix.identity(field, n, n), None
    zero, ring, e = field.zero(), _ring(field), field.degree
    mats = _coefficient_matrices(jac, ring)
    levels = [[((), j, (1, [int(k == j * e) for k in range(n * e)])) for j in range(n)]]
    for _ in range(n):
        images = (((m,) + word, j, _image(mat, v))
                  for word, j, v in levels[-1] for m, mat in mats.items())
        level, basis = [], []
        for word, j, image in images:
            if _extends(ring, basis, image[1]):
                level.append((word, j, image))
                if len(level) == len(levels[-1]):
                    break
        if not level:
            deepest_first = [v for step in reversed(levels[1:]) for _, _, v in step]
            return _adapted_basis(deepest_first, field, n), None
        levels.append(level)
    word, j, (den, image) = levels[-1][0]
    # re-check against the Jacobian entries themselves, on integer numerators
    scale, check = 1, [[int(i == j)] + [0] * (e - 1) for i in range(n)]
    for m in reversed(word):
        step, entries = _numerators([entry.terms.get(m, zero) for row in jac.entries
                                     for entry in row])
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        scale, check = scale * step, [list(map(sum, zip(*map(field.times, row, check))))
                                      for row in rows]
    if not any(image) or any(x * den != y * scale for x, y in zip(sum(check, []), image)):
        raise ArithmeticError("strong-nilpotence word failed re-verification")
    return None, {"kind": "word", "word": list(word), "unit": j,
                  "image": _scalars(field, (den, image))}


def _adapted_basis(chain, field: Field, n: int) -> PolyMatrix:
    """An invertible T whose last columns span chain[:k] for every k.

    `chain` holds (den, flat integer coordinates) vectors.  The chain vectors,
    then the unit vectors, are picked in order when K-independent of those
    picked before (`_extends`); the columns of T are the picked unit vectors,
    ascending, then the picked chain vectors in reverse."""
    ring, e = _ring(field), field.degree
    vectors = chain + [(1, [int(k == j * e) for k in range(n * e)]) for j in range(n)]
    basis, picked = [], []
    for k, (_, coords) in enumerate(vectors):
        if len(picked) < n and _extends(ring, basis, coords):
            picked.append(k)
    cols = [_scalars(field, vectors[p]) for p in picked if p >= len(chain)] + \
        [_scalars(field, vectors[p]) for p in reversed(picked) if p < len(chain)]
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
    """The first "(i,j)", 1-based, with i >= j and c_j^t b_i != 0, or None, on
    integer numerators of each c_j and b_i: a common scale keeps a zero test."""
    field = cert.field
    forms = [[(k, a) for k, a in enumerate(_numerators(c.coeffs)[1]) if any(a)]
             for c, _, _ in cert.triples]
    for i, (_, _, b) in enumerate(cert.triples):
        b = _numerators(b)[1]
        for j in range(i + 1):
            if any(map(sum, zip(*(field.times(a, b[k]) for k, a in forms[j])))):
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
    chain = map(_numerators, (b for _, _, b in reversed(cert.triples)))
    t_matrix = _adapted_basis([(den, sum(coords, [])) for den, coords in chain], field, n)
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


def _span_generator(map_: PolyMap):
    """The generator of the components' span, normalized to 1 at its smallest
    monomial, when that span is a line; None otherwise.  H must be nonzero."""
    first, *rest = (comp for comp in map_.components if not comp.is_zero())
    low = min(first.terms)
    generator = first * first.terms[low].inverse()
    for comp in rest:
        coeff = comp.terms.get(low)
        if coeff is None or comp != generator * coeff:
            return None
    return generator


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
        generator = _span_generator(map_)
        if generator is not None and is_pure_power(generator) is None:
            return (FAILS, {"kind": "span_generator", "generator": generator},
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
    def quasi(self) -> bool:
        return _quasi(self.jh, self.h)

    @cached_property
    def flag(self):
        """(T, None) when JH is strongly nilpotent, else (None, word witness)."""
        return _strong_nilpotence_flag(self.jh)

    @property
    def strongly_nilpotent(self) -> bool:
        return self.flag[0] is not None

    @property
    def unipotent(self) -> bool:
        """det(I + t JH) = 1, by the flag or by quasi (module docstring)."""
        return self.strongly_nilpotent or self.quasi


def _exhibit_inverse(shared: _MapAnalysis):
    """Try to exhibit an inverse: quasi-translation, direct triangular
    inversion, or inversion of T^{-1} F(Tx) for the flag's T."""
    map_ = shared.map
    if shared.quasi:
        inverse = PolyMap.identity(map_.field, map_.nvars) - shared.h
        return inverse, "quasi-translation: x - H inverts x + H"
    if shared.jh.is_lower_triangular(strict=True):
        return invert_triangular(map_), "forward substitution on the triangular form"
    t_matrix = shared.flag[0]
    if t_matrix is not None:
        grid, inv = conjugation_grids(t_matrix, map_.field, map_.nvars)
        # F^{-1} = T G^{-1}(T^{-1} x) for the triangular G = T^{-1} F(Tx)
        inverse = change_basis(invert_triangular(change_basis(map_, grid, inv)), inv, grid)
        return inverse, "inverted after triangularization by the strong-nilpotence flag"
    return None


def chain_report(map_: PolyMap, cert: StarCertificate | None = None,
                 checks=None) -> PropertyReport:
    """Run the condition chain on F = x + H and aggregate the verdicts.

    `checks` restricts the work to a subset of CHAIN_CONDITIONS.  H, JH,
    JF = I + JH, the quasi-translation test JH H = 0 and the strong-nilpotence
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
        det = None if shared.unipotent else matrix_det(shared.jf)
        if det is None or (det.is_constant() and not det.is_zero()):
            report.record("keller", HOLDS)
        else:
            report.record("keller", FAILS,
                          witness={"kind": "symbolic_determinant", "determinant": det})
    if "nilpotent" in wanted:
        power = None if shared.unipotent else shared.jh.power(n)
        if power is None or power.is_zero():
            report.record("nilpotent", HOLDS)
        else:
            report.record("nilpotent", FAILS, witness=_entry_witness(power),
                          note="JH^n has a nonzero entry")
    if "quasi" in wanted:
        if shared.quasi:
            report.record("quasi", HOLDS)
        else:
            report.record("quasi", FAILS, witness=_quasi_witness(h),
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
