"""Symbolic verification of the power-sum identities and relation kernels.

The identity names form a closed enumeration:

    eq666   alternating binomial sums of (x1 + i x3)^d and (x2 + i x3)^d agree
    eq667   the two root-of-unity averages of (z^i x1 + x2 +- x3)^d sum to
            2 d^2 x1^{d-1} x2
    eq667h  sum of z^i (z^i x1 + x2)^d equals d^2 x1^{d-1} x2
    pl666   d (x1 + x3)^d as an alternating binomial combination of the
            f666 components
    pl667   (x1 + x2 + x3)^d as a root-of-unity combination of the f667
            components
"""

from __future__ import annotations

from math import comb

from . import linalg
from .exactfield import Field, QQ, cyclotomic
from .multipoly import MultiPoly
from .properties import FAILS, HOLDS, PropertyReport

__all__ = ["IDENTITY_NAMES", "verify_identity", "relation_kernel",
           "check_alem_instance", "waring_sufficiency"]

IDENTITY_NAMES = ("eq666", "eq667", "eq667h", "pl666", "pl667")


def _alternating_sum(field: Field, nvars: int, base: int, step: int, d: int) -> MultiPoly:
    """sum_{i=0}^{d} (-1)^i C(d,i) (x_base + i x_step)^d."""
    xb = MultiPoly.variable(field, nvars, base)
    xs = MultiPoly.variable(field, nvars, step)
    total = MultiPoly.zero(field, nvars)
    for i in range(d + 1):
        sign = comb(d, i) if i % 2 == 0 else -comb(d, i)
        total = total + (xb + xs * i) ** d * sign
    return total


def _root_average(field: Field, nvars: int, d: int, shift_sign: int) -> MultiPoly:
    """sum_{i=0}^{d-1} z^i (z^i x1 + x2 + shift_sign * x3)^d over Q(z)."""
    zeta = field.generator()
    x1 = MultiPoly.variable(field, nvars, 0)
    x2 = MultiPoly.variable(field, nvars, 1)
    x3 = MultiPoly.variable(field, nvars, 2) if nvars >= 3 else None
    total = MultiPoly.zero(field, nvars)
    for i in range(d):
        zi = zeta ** i
        inner = x1 * zi + x2
        if shift_sign and x3 is not None:
            inner = inner + x3 * shift_sign
        total = total + inner ** d * zi
    return total


def verify_identity(name: str, d: int) -> bool:
    """Build both sides exactly and compare; True iff the difference is zero."""
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity {name!r}")
    if d < 2:
        raise ValueError("identities require degree >= 2")
    if name == "eq666":
        lhs = _alternating_sum(QQ, 3, 0, 2, d)
        rhs = _alternating_sum(QQ, 3, 1, 2, d)
        return lhs == rhs
    if name == "eq667":
        field = Field(cyclotomic(d))
        lhs = _root_average(field, 3, d, 1) + _root_average(field, 3, d, -1)
        x1 = MultiPoly.variable(field, 3, 0)
        x2 = MultiPoly.variable(field, 3, 1)
        rhs = x1 ** (d - 1) * x2 * (2 * d * d)
        return lhs == rhs
    if name == "eq667h":
        field = Field(cyclotomic(d))
        lhs = _root_average(field, 2, d, 0)
        x1 = MultiPoly.variable(field, 2, 0)
        x2 = MultiPoly.variable(field, 2, 1)
        rhs = x1 ** (d - 1) * x2 * (d * d)
        return lhs == rhs

    # the power-linearization identities substitute the family components
    from .constructions import FamilySpec, make_family

    if name == "pl666":
        family = make_family(FamilySpec("f666", d))
        comps = family.components
        x1 = MultiPoly.variable(QQ, 2 * d + 2, 0)
        x3 = MultiPoly.variable(QQ, 2 * d + 2, 2)
        lhs = (x1 + x3) ** d * d
        rhs = comps[2]
        for i in range(2, d + 1):
            sign = comb(d, i) if i % 2 == 0 else -comb(d, i)
            rhs = rhs + comps[i + 1] * sign
        for i in range(1, d + 1):
            sign = comb(d, i) if i % 2 == 0 else -comb(d, i)
            rhs = rhs - comps[i + d + 1] * sign
        return lhs == rhs
    # pl667
    family = make_family(FamilySpec("f667", d))
    field = family.field
    comps = family.components
    n = 2 * d + 2
    zeta = field.generator()
    x1 = MultiPoly.variable(field, n, 0)
    x2 = MultiPoly.variable(field, n, 1)
    x3 = MultiPoly.variable(field, n, 2)
    lhs = (x1 + x2 + x3) ** d
    rhs = comps[2] * (2 * d * d)
    for k in range(4, n + 1):
        rhs = rhs - comps[k - 1] * zeta ** (k - 3)
    return lhs == rhs


def relation_kernel(forms, d: int) -> list:
    """Basis of {lambda : sum_i lambda_i (a_i^t x)^d = 0}, echelon-normalized.

    Computed as the null space of the matrix whose columns hold the monomial
    coefficients of the d-th powers.
    """
    if not forms:
        return []
    if d < 1:
        raise ValueError("power must be at least 1")
    field = forms[0].field
    nvars = forms[0].nvars
    for f in forms:
        if f.field != field or f.nvars != nvars:
            raise ValueError("forms live in different spaces")
    powers = [f.to_poly() ** d for f in forms]
    monomials = sorted({e for p in powers for e in p.terms})
    rows = [[p.terms.get(e, field.zero()) for p in powers] for e in monomials]
    if not rows:
        rows = [[field.zero() for _ in powers]]
    return linalg.nullspace(rows, len(forms), field)


def check_alem_instance(forms, d: int) -> PropertyReport:
    """Check the two-leading-coefficient property of power-sum relations.

    Hypotheses on the 2d+2 forms are tested first (pairwise independence,
    then the triple conditions for j >= min(3, d^2) and 3 <= k <= d+2);
    violations fail with a distinct kind in the note.  The conclusion holds
    iff no nonzero kernel vector has a zero first or second coordinate,
    decided by intersecting the kernel with each coordinate hyperplane.
    """
    report = PropertyReport()
    if d < 1:
        raise ValueError("power must be at least 1")
    if len(forms) != 2 * d + 2:
        raise ValueError(f"expected {2 * d + 2} forms, got {len(forms)}")
    field = forms[0].field
    for i in range(len(forms)):
        for j in range(i + 1, len(forms)):
            if linalg.rank([list(forms[i].coeffs), list(forms[j].coeffs)]) != 2:
                return report.record(
                    "alem", FAILS,
                    witness={"kind": "dependent_pair", "indices": (i + 1, j + 1)},
                    note=f"hypothesis: pairwise independence ({i + 1},{j + 1})")
    j_low = min(3, d * d)
    for j in range(j_low, 2 * d + 3):
        for k in range(3, d + 3):
            trio = {j, k, k + d}
            if linalg.rank([list(forms[t - 1].coeffs) for t in sorted(trio)]) != len(trio):
                return report.record(
                    "alem", FAILS,
                    witness={"kind": "dependent_triple", "indices": tuple(sorted(trio))},
                    note=f"hypothesis: triple independence (j={j}, k={k})")
    basis = relation_kernel(forms, d)
    if not basis:
        return report.record("alem", HOLDS, note="kernel is trivial; holds vacuously")
    for coord in (0, 1):
        vanishing = _kernel_hyperplane_vector(basis, coord, field)
        if vanishing is not None:
            return report.record(
                "alem", FAILS,
                witness={"kind": "kernel_vector", "vector": vanishing,
                         "zero_coordinate": coord + 1},
                note=f"conclusion: a nonzero relation has lambda_{coord + 1} = 0")
    return report.record("alem", HOLDS)


def _kernel_hyperplane_vector(basis, coord: int, field):
    """A nonzero kernel vector with the given coordinate zero, if any."""
    nonzero = [v for v in basis if not v[coord].is_zero()]
    zeroed = [v for v in basis if v[coord].is_zero()]
    if zeroed:
        return list(zeroed[0])
    if len(nonzero) >= 2:
        a, b = nonzero[0], nonzero[1]
        f = a[coord] / b[coord]
        return [x - f * y for x, y in zip(a, b)]
    return None


def waring_sufficiency(d: int) -> bool:
    """x1^{d-1} x2 is exactly a combination of d powers of linear forms.

    The witness combination is (1/d^2) sum_i z^i (z^i x1 + x2)^d over a
    primitive d-th root of unity z: the identity eq667h divided by d^2.
    """
    if d < 2:
        raise ValueError("needs degree >= 2")
    return verify_identity("eq667h", d)
