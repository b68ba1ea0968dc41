"""Family generators, their certificates, and the pairing example."""

from fractions import Fraction

import pytest

from kellerlab.exactfield import QQ
from kellerlab.multipoly import MultiPoly, extend_variables, variables
from kellerlab.polymap import (PolyMap, jacobian, matrix_rank, plus_identity)
from kellerlab.properties import (FAILS, HOLDS, chain_report, verify_star_certificate)
from kellerlab.constructions import (FamilySpec, GZInstance,
                                     family_certificate, gz_example, gz_verify,
                                     make_family)
from kellerlab import linalg


def test_family_n4_explicit_form():
    h = make_family(FamilySpec("n4", 3))
    x1, x2, x3, x4 = variables(QQ, 4)
    core = x1 * x3 - x2 * x4
    assert h == PolyMap([MultiPoly.zero(QQ, 4), MultiPoly.zero(QQ, 4),
                         x2 * core, x1 * core])


def test_family_small2_explicit_form():
    h = make_family(FamilySpec("small2", 3))
    x1, x2 = variables(QQ, 2)
    assert h == PolyMap([MultiPoly.zero(QQ, 2), x1 ** 3 - x1 ** 2])


def test_family_f666_explicit_form_nu0():
    h = make_family(FamilySpec("f666", 2, nu=0, n=6))
    x1, x2, x3 = (MultiPoly.variable(QQ, 6, i) for i in range(3))
    zero = MultiPoly.zero(QQ, 6)
    assert h == PolyMap([zero, zero, x1 ** 2 - x2 ** 2, (x1 + 2 * x3) ** 2,
                         (x2 + x3) ** 2, (x2 + 2 * x3) ** 2])


def test_family_f667_field_and_leading_terms():
    h = make_family(FamilySpec("f667", 3))
    assert h.field.min_poly == (Fraction(1), Fraction(1), Fraction(1))
    assert h.nvars == 8 and h.n_out == 8
    z = h.field.generator()
    x1 = MultiPoly.variable(h.field, 8, 0)
    x2 = MultiPoly.variable(h.field, 8, 1)
    x3 = MultiPoly.variable(h.field, 8, 2)
    assert h.components[2] == x1 ** 2 * x2
    assert h.components[3] == (x1 * z + x2 + x3) ** 3
    assert h.components[5] == (x1 + x2 - x3) ** 3
    assert h.components[7] == (x1 * z ** 2 + x2 - x3) ** 3


def test_family_truncation_keeps_prefix():
    full = make_family(FamilySpec("f666", 3))
    for n in range(3, 9):
        part = make_family(FamilySpec("f666", 3, n=n))
        assert part.n_out == n and part.nvars == n
        for i in range(n):
            assert part.components[i].terms == {
                e[:n]: c for e, c in full.components[i].terms.items()}


def test_family_nonhomog_n4_explicit_form():
    h = make_family(FamilySpec("nonhomog_n4", 3))
    x1, x2, x3 = variables(QQ, 3)
    r = x1 * x2 - x3
    assert h == PolyMap([MultiPoly.zero(QQ, 3), r, x1 * r])
    h4 = make_family(FamilySpec("nonhomog_n4", 4))
    assert h4.components[1] == x1 * r
    assert h4.components[2] == x1 ** 2 * r


def test_family_nonhomog_n5_explicit_form():
    h = make_family(FamilySpec("nonhomog_n5", 3))
    x1, x2, x3, x4 = variables(QQ, 4)
    assert h == PolyMap([MultiPoly.zero(QQ, 4), x1 * x3,
                         x1 ** 2 * x2 - x1 * x4, x1 ** 2 * x3])


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("n4", 2)
    with pytest.raises(ValueError):
        FamilySpec("f666", 2, n=7)
    with pytest.raises(ValueError):
        FamilySpec("f666", 2, n=2)
    with pytest.raises(ValueError):
        FamilySpec("n5", 2, nu=1)
    with pytest.raises(ValueError):
        FamilySpec("bogus", 3)
    with pytest.raises(ValueError):
        FamilySpec("small2", 1)


def test_all_families_are_keller_after_adding_identity():
    specs = []
    for d in (3, 4):
        specs.append(FamilySpec("n4", d))
        specs.append(FamilySpec("nonhomog_n4", d))
    for d in (2, 3, 4):
        specs.extend([FamilySpec("n5", d), FamilySpec("nonhomog_n5", d),
                      FamilySpec("small2", d), FamilySpec("small3", d),
                      FamilySpec("f666", d), FamilySpec("f667", d),
                      FamilySpec("f666", d, n=3), FamilySpec("f667", d, n=d + 2)])
    for spec in specs:
        h = make_family(spec)
        keller = chain_report(plus_identity(h), checks=["keller"])
        assert keller.verdict("keller") == HOLDS, spec


def test_family_jacobians_strictly_lower_triangular():
    for d in (2, 3):
        for kind in ("f666", "f667"):
            h = make_family(FamilySpec(kind, d))
            assert jacobian(h).is_lower_triangular(strict=True), (kind, d)


def test_family_certificates_verify_at_declared_level():
    specs = [FamilySpec("f666", 2, nu=1), FamilySpec("f666", 3, nu=0),
             FamilySpec("f667", 2, nu=0), FamilySpec("f667", 2, nu=1),
             FamilySpec("f667", 3, nu=1), FamilySpec("small2", 2),
             FamilySpec("small2", 4), FamilySpec("small3", 3)]
    expected_levels = ["triplestar", "doublestar", "doublestar", "star",
                       "star", "star", "star", "doublestar"]
    for spec, level in zip(specs, expected_levels):
        cert = family_certificate(spec)
        assert cert.level == level, spec
        assert verify_star_certificate(make_family(spec), cert), spec


def test_family_certificate_f667_quadratic_vectors():
    cert = family_certificate(FamilySpec("f667", 2, nu=0))
    (c1, d1, b1), (c2, d2, b2) = cert.triples[:2]
    assert [v.as_rational() for v in c1.coeffs[:2]] == [1, 1]
    assert [v.as_rational() for v in c2.coeffs[:2]] == [1, -1]
    assert b1[2].as_rational() == Fraction(1, 4)
    assert b2[2].as_rational() == Fraction(-1, 4)
    assert d1 == d2 == 2


def test_family_certificate_unsupported_kind():
    with pytest.raises(ValueError, match="certificate"):
        family_certificate(FamilySpec("n4", 3))


def test_gz_example_row3_expansion():
    inst = gz_example()
    # row 3 of B against G: -2 G5 + G6 + G7 = 6 x2^2 x4
    g = inst.G.components
    combo = g[4] * (-2) + g[5] + g[6]
    xs = variables(QQ, 13)
    assert combo == 6 * xs[1] ** 2 * xs[3]
    assert combo == extend_variables(inst.H.components[2], 13) * 6


def test_gz_example_invariants():
    inst = gz_example()
    assert linalg.rank([list(r) for r in inst.B]) == 5
    product = [[sum((inst.B[i][k] * inst.C[k][j] for k in range(13)), QQ.zero())
                for j in range(5)] for i in range(5)]
    assert product == linalg.identity_grid(QQ, 5)
    assert matrix_rank(jacobian(inst.G)) == 5
    # the 13 x 5 slice in the used variables has trivial kernel
    slice_ = jacobian(inst.G).submatrix(range(13), range(5))
    assert matrix_rank(slice_) == 5


def test_gz_verify_holds():
    assert gz_verify(gz_example()).verdict("gz") == HOLDS


def test_gz_verify_detects_corruption():
    inst = gz_example()
    zero_row = tuple(QQ.zero() for _ in range(13))
    corrupt_b = GZInstance(H=inst.H, G=inst.G,
                           B=(inst.B[0], inst.B[1], zero_row, inst.B[3], inst.B[4]),
                           C=inst.C, scale=inst.scale)
    rep = gz_verify(corrupt_b)
    assert rep.verdict("gz") == FAILS
    assert any("scale*H != BG" in note for note in rep.witness("gz")["which"])
    zero_c = tuple(tuple(QQ.zero() for _ in range(5)) for _ in range(13))
    corrupt_c = GZInstance(H=inst.H, G=inst.G, B=inst.B, C=zero_c, scale=inst.scale)
    rep2 = gz_verify(corrupt_c)
    assert rep2.verdict("gz") == FAILS
    assert "BC != I" in rep2.witness("gz")["which"]
