"""Generators for the built-in map families and the 13-dimensional pairing example.

Families, with 1-based variable names and H always the nonlinear part:

    n4           (0, 0, x1^{d-3} x2 (x1 x3 - x2 x4), x1^{d-3} x1 (x1 x3 - x2 x4)),
                 d >= 3, four variables, homogeneous of degree d
    n5           (0, 0, x2^{d-1} x4, x1^{d-1} x3 - x2^{d-1} x5, x1^{d-1} x4),
                 d >= 2, five variables
    f666         (0, nu x1^d, x1^d - x2^d, (x1 + 2 x3)^d, ..., (x1 + d x3)^d,
                 (x2 + x3)^d, ..., (x2 + d x3)^d), truncatable to 3 <= n <= 2d+2
    f667         (0, nu x1^d, x1^{d-1} x2, (z x1 + x2 + x3)^d, ...,
                 (z^{d-1} x1 + x2 + x3)^d, (x1 + x2 - x3)^d, ...,
                 (z^{d-1} x1 + x2 - x3)^d) over Q(z) for a primitive d-th
                 root of unity z
    nonhomog_n4  n4 with x2 := 1, the second component removed and the
                 variables above it shifted down
    nonhomog_n5  n5 with x2^{d-1} replaced by x1^{d-2}, the second component
                 removed and the variables shifted down
    small2       (0, x1^d - x1^{d-1})
    small3       (0, 0, x1^d - x1^{d-1})
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exactfield import QQ, Field, Scalar, cyclotomic
from .multipoly import LinearForm, MultiPoly, extend_variables, rename_variables
from .polymap import PolyMap, jacobian, linear_combinations, matrix_rank
from .properties import (FAILS, HOLDS, PropertyReport, StarCertificate)

__all__ = ["FamilySpec", "FAMILY_KINDS", "make_family", "family_certificate",
           "GZInstance", "gz_example", "gz_verify"]

FAMILY_KINDS = ("n4", "n5", "f666", "f667", "nonhomog_n4", "nonhomog_n5",
                "small2", "small3")

_TRUNCATABLE = ("f666", "f667")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one concrete family member."""

    kind: str
    d: int
    n: int | None = None
    nu: Fraction | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}")
        min_d = 3 if self.kind in ("n4", "nonhomog_n4") else 2
        if self.d < min_d:
            raise ValueError(f"family {self.kind} needs degree >= {min_d}")
        if self.kind in _TRUNCATABLE:
            full = 2 * self.d + 2
            n = full if self.n is None else self.n
            if not 3 <= n <= full:
                raise ValueError(f"family {self.kind} needs 3 <= n <= {full}")
        elif self.n is not None:
            raise ValueError(f"family {self.kind} does not take a dimension")
        if self.nu is not None and self.kind not in _TRUNCATABLE:
            raise ValueError(f"family {self.kind} does not take nu")

    @property
    def dim(self) -> int:
        if self.kind in _TRUNCATABLE:
            return 2 * self.d + 2 if self.n is None else self.n
        return {"n4": 4, "n5": 5, "nonhomog_n4": 3, "nonhomog_n5": 4,
                "small2": 2, "small3": 3}[self.kind]

    @property
    def nu_value(self) -> Fraction:
        return Fraction(1) if self.nu is None else Fraction(self.nu)


def _family_field(spec: FamilySpec) -> Field:
    if spec.kind == "f667":
        return Field(cyclotomic(spec.d))
    return QQ


def _tail_form(spec: FamilySpec, field: Field, m: int) -> LinearForm:
    """The linear form a_m with H_m = (a_m^t x)^d, for 1-based m >= 4."""
    n, d = spec.dim, spec.d
    coeffs = [field.zero()] * n
    if spec.kind == "f666":
        if m <= d + 2:
            coeffs[0] = field.one()
            coeffs[2] = field.scalar(m - 2)
        else:
            coeffs[1] = field.one()
            coeffs[2] = field.scalar(m - d - 2)
    elif spec.kind == "f667":
        zeta = field.generator()
        if m <= d + 2:
            coeffs[0] = zeta ** (m - 3)
            coeffs[1] = field.one()
            coeffs[2] = field.one()
        else:
            coeffs[0] = zeta ** (m - d - 3)
            coeffs[1] = field.one()
            coeffs[2] = -field.one()
    else:
        raise ValueError("tail forms exist only for the truncatable families")
    return LinearForm(field, coeffs)


def make_family(spec: FamilySpec) -> PolyMap:
    """The nonlinear part H of the requested family, in its defining form."""
    d = spec.d
    if spec.kind == "n4":
        x1, x2, x3, x4 = (MultiPoly.variable(QQ, 4, i) for i in range(4))
        core = x1 * x3 - x2 * x4
        scale = x1 ** (d - 3)
        zero = MultiPoly.zero(QQ, 4)
        return PolyMap([zero, zero, scale * x2 * core, scale * x1 * core])
    if spec.kind == "n5":
        x1, x2, x3, x4, x5 = (MultiPoly.variable(QQ, 5, i) for i in range(5))
        zero = MultiPoly.zero(QQ, 5)
        return PolyMap([zero, zero,
                        x2 ** (d - 1) * x4,
                        x1 ** (d - 1) * x3 - x2 ** (d - 1) * x5,
                        x1 ** (d - 1) * x4])
    if spec.kind == "nonhomog_n4":
        parent = make_family(FamilySpec("n4", d))
        ones = MultiPoly.constant(QQ, 4, 1)
        xs = [MultiPoly.variable(QQ, 4, i) for i in range(4)]
        substituted = [c.substitute([xs[0], ones, xs[2], xs[3]])
                       for c in parent.components]
        kept = [substituted[0], substituted[2], substituted[3]]
        return PolyMap([rename_variables(c, [0, 1, 1, 2], 3) for c in kept])
    if spec.kind == "nonhomog_n5":
        x1, x2, x3, x4 = (MultiPoly.variable(QQ, 4, i) for i in range(4))
        zero = MultiPoly.zero(QQ, 4)
        return PolyMap([zero,
                        x1 ** (d - 2) * x3,
                        x1 ** (d - 1) * x2 - x1 ** (d - 2) * x4,
                        x1 ** (d - 1) * x3])
    if spec.kind == "small2":
        x1 = MultiPoly.variable(QQ, 2, 0)
        return PolyMap([MultiPoly.zero(QQ, 2), x1 ** d - x1 ** (d - 1)])
    if spec.kind == "small3":
        x1 = MultiPoly.variable(QQ, 3, 0)
        zero = MultiPoly.zero(QQ, 3)
        return PolyMap([zero, zero, x1 ** d - x1 ** (d - 1)])

    field = _family_field(spec)
    n = spec.dim
    x1 = MultiPoly.variable(field, n, 0)
    x2 = MultiPoly.variable(field, n, 1)
    comps = [MultiPoly.zero(field, n),
             x1 ** d * field.scalar(spec.nu_value)]
    if spec.kind == "f666":
        comps.append(x1 ** d - x2 ** d)
    else:
        comps.append(x1 ** (d - 1) * x2)
    for m in range(4, n + 1):
        comps.append(_tail_form(spec, field, m).to_poly() ** d)
    return PolyMap(comps)


def _unit_b(field: Field, n: int, index: int, scale=1):
    return [field.scalar(scale) if i == index else field.zero() for i in range(n)]


def family_certificate(spec: FamilySpec) -> StarCertificate:
    """The explicit certificate at the strongest level the family admits.

    f666 carries b_1 = nu e2 + e3 and b_2 = -e3 against c_1 = e1, c_2 = e2
    (the sign on b_2 makes the sum reproduce x1^d - x2^d); the tail uses the
    forms read off the components.  f667 reaches n-1 terms only in the
    quadratic case without the x1^d component, via the split of 4 x1 x2 into
    (x1+x2)^2 - (x1-x2)^2; otherwise the cube-root average of (z^i x1 + x2)^d
    realizes x1^{d-1} x2 with d terms and the level stays at star.
    """
    if spec.kind not in ("f666", "f667", "small2", "small3"):
        raise ValueError(f"no built-in certificate for family {spec.kind!r}")
    d = spec.d
    field = _family_field(spec)
    n = spec.dim
    if spec.kind == "small2":
        e1 = LinearForm.unit(QQ, 2, 0)
        return StarCertificate("star", [
            (e1, d, _unit_b(QQ, 2, 1)),
            (e1, d - 1, _unit_b(QQ, 2, 1, -1)),
        ])
    if spec.kind == "small3":
        e1 = LinearForm.unit(QQ, 3, 0)
        return StarCertificate("doublestar", [
            (e1, d, _unit_b(QQ, 3, 2)),
            (e1, d - 1, _unit_b(QQ, 3, 2, -1)),
        ])
    nu = spec.nu_value
    tail = [(_tail_form(spec, field, m), d, _unit_b(field, n, m - 1))
            for m in range(4, n + 1)]
    if spec.kind == "f666":
        b1 = _unit_b(field, n, 2)
        b1[1] = field.scalar(nu)
        triples = [(LinearForm.unit(field, n, 0), d, b1),
                   (LinearForm.unit(field, n, 1), d, _unit_b(field, n, 2, -1))]
        level = "triplestar" if nu != 0 else "doublestar"
        return StarCertificate(level, triples + tail)
    if d == 2 and nu == 0:
        plus = LinearForm(field, [1, 1] + [0] * (n - 2))
        minus = LinearForm(field, [1, -1] + [0] * (n - 2))
        triples = [(plus, 2, _unit_b(field, n, 2, Fraction(1, 4))),
                   (minus, 2, _unit_b(field, n, 2, Fraction(-1, 4)))]
        return StarCertificate("doublestar", triples + tail)
    zeta = field.generator()
    triples = []
    if nu != 0:
        triples.append((LinearForm.unit(field, n, 0), d, _unit_b(field, n, 1, nu)))
    inv_d2 = field.scalar(Fraction(1, d * d))
    for i in range(d):
        zi = zeta ** i
        form = LinearForm(field, [zi, field.one()] + [field.zero()] * (n - 2))
        b = [field.zero()] * n
        b[2] = zi * inv_d2
        triples.append((form, d, b))
    return StarCertificate("star", triples + tail)


# -- the 13-dimensional pairing example ---------------------------------------

@dataclass(frozen=True)
class GZInstance:
    """The worked pairing between the five-variable map and 13 cubes.

    scale * H = B G, B C = I_5, B has full rank and the Jacobian of G in the
    first five variables has rank five.
    """

    H: PolyMap
    G: PolyMap
    B: tuple
    C: tuple
    scale: Scalar


def gz_example() -> GZInstance:
    """Exact instance: H is the n5 family at degree 3, G its 13 paired cubes."""
    h_map = make_family(FamilySpec("n5", 3))
    x = [MultiPoly.variable(QQ, 13, i) for i in range(5)]
    x1, x2, x3, x4, x5 = x
    comps = [MultiPoly.zero(QQ, 13), MultiPoly.zero(QQ, 13),
             (x4 - x1) ** 3, (x4 + x1) ** 3, x4 ** 3,
             (x4 - x2) ** 3, (x4 + x2) ** 3,
             (x3 - x1) ** 3, (x3 + x1) ** 3, x3 ** 3,
             (x5 - x2) ** 3, (x5 + x2) ** 3, x5 ** 3]
    g_map = PolyMap(comps)
    rows = [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -2, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, -2, -1, -1, 2],
        [0, 0, 1, 1, -2, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    b_grid = tuple([tuple([QQ.scalar(v) for v in row]) for row in rows])
    c_grid = tuple([tuple(row) for row in linalg.right_inverse([list(r) for r in b_grid], QQ)])
    return GZInstance(H=h_map, G=g_map, B=b_grid, C=c_grid, scale=QQ.scalar(6))


def gz_verify(inst: GZInstance) -> PropertyReport:
    """Check the four pairing invariants exactly."""
    report = PropertyReport()
    failures = []
    n_small = inst.H.n_out
    n_big = inst.G.n_out
    if len(inst.B) != n_small or any(len(r) != n_big for r in inst.B):
        raise ValueError("B has the wrong shape")
    if len(inst.C) != n_big or any(len(r) != n_small for r in inst.C):
        raise ValueError("C has the wrong shape")

    lifted = [extend_variables(c, inst.G.nvars) for c in inst.H.components]
    bg = linear_combinations(inst.B, inst.G.components,
                             MultiPoly.zero(inst.G.field, inst.G.nvars))
    for i, (lhs, rhs) in enumerate(zip(lifted, bg)):
        if lhs * inst.scale != rhs:
            failures.append(f"scale*H != BG in row {i + 1}")
            break

    b_rows = [list(r) for r in inst.B]
    if linalg.rank(b_rows) != n_small:
        failures.append("B does not have full rank")

    # the columns of BC, compared with the (symmetric) identity
    bc_columns = [linear_combinations(inst.B, col, QQ.zero()) for col in zip(*inst.C)]
    if bc_columns != linalg.identity_grid(QQ, n_small):
        failures.append("BC != I")

    jac = jacobian(inst.G)
    if matrix_rank(jac) != n_small:
        failures.append("Jacobian of G does not have rank 5")

    if failures:
        return report.record("gz", FAILS, witness={"kind": "failed_invariants",
                                                   "which": failures},
                             note="; ".join(failures))
    return report.record("gz", HOLDS)
