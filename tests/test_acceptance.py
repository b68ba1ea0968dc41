"""Acceptance gate: every criterion at its pinned tolerance.

All tolerances are exact (zero difference); the only numeric limits are the
pinned wall-clock budgets.  Each criterion prints one pass/fail line; run
with -s to see them.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from kellerlab.exactfield import QQ, Field
from kellerlab.multipoly import (LinearForm, MultiPoly, is_pure_power,
                                 lift_to_field, variables)
from kellerlab.polymap import (PolyMap, PolyMatrix, conjugate,
                               hadamard_power_map, jacobian, matrix_det,
                               matrix_is_nilpotent, plus_identity)
from kellerlab.properties import (FAILS, HOLDS, chain_report,
                                  check_sum_condition, conjugated_power_term,
                                  is_quasi_translation,
                                  is_strongly_nilpotent,
                                  substituted_jacobian_sum,
                                  triangularization_from_certificate,
                                  verify_star_certificate)
from kellerlab.constructions import (FamilySpec, family_certificate,
                                     gz_example, gz_verify, make_family)
from kellerlab.identities import IDENTITY_NAMES, verify_identity


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_identity_suite():
    with criterion(1, "identity suite", 30.0):
        for name in IDENTITY_NAMES:
            for d in (2, 3, 4, 5, 6):
                assert verify_identity(name, d), (name, d)


def test_criterion_2_quasi_translation_versus_jc():
    for d in (3, 4, 5):
        with criterion(2, f"(JC-) without (JC), d={d}", 10.0):
            h = make_family(FamilySpec("n4", d))
            f = plus_identity(h)
            assert is_quasi_translation(f)
            report = check_sum_condition(f, d - 1, label="jc")
            assert report.verdict("jc") == FAILS

            # trailing 2x2 minor of (d-1) I + (d-2) JH|e1 + JH|(1,s,0,0),
            # symbolically in s, must be the predicted block and determinant
            jac = jacobian(h)
            s = MultiPoly.variable(QQ, 1, 0)
            one = MultiPoly.constant(QQ, 1, 1)
            zero = MultiPoly.zero(QQ, 1)
            at_e1 = jac.substitute([one, zero, zero, zero], nvars=1)
            at_pert = jac.substitute([one, s, zero, zero], nvars=1)
            eye = PolyMatrix.identity(QQ, 1, 4).scale(d - 1)
            total = eye + at_e1.scale(d - 2) + at_pert
            minor = total.submatrix([2, 3], [2, 3])
            assert minor.entries[0][0] == (d - 1) + s
            assert minor.entries[0][1] == -(s ** 2)
            assert minor.entries[1][0] == MultiPoly.constant(QQ, 1, d - 1)
            assert minor.entries[1][1] == (d - 1) - s
            minor_det = matrix_det(minor)
            assert minor_det == (d - 2) * s ** 2 + (d - 1) ** 2

            # the witness scalar c with c^2 (d-2) + (d-1)^2 = 0 kills both
            ext = Field([Fraction((d - 1) ** 2, d - 2), 0, 1])
            c = ext.generator()
            assert c * c * (d - 2) + (d - 1) ** 2 == ext.zero()
            full_det = matrix_det(total)
            assert lift_to_field(full_det, ext).evaluate([c]) == ext.zero()
            assert lift_to_field(minor_det, ext).evaluate([c]) == ext.zero()

            # the checker's own witness re-verifies against the same pattern
            witness = report.witness("jc")
            assert witness["kind"] == "points"
            wf = witness["field"]
            assert wf.min_poly == (Fraction((d - 1) ** 2, d - 2),
                                   Fraction(0), Fraction(1))
            expected_points = [[wf.one(), wf.zero(), wf.zero(), wf.zero()]
                               for _ in range(d - 2)]
            expected_points.append([wf.one(), wf.generator(), wf.zero(), wf.zero()])
            assert witness["points"] == expected_points


def test_criterion_3_jc_plus_versus_star():
    for d in (2, 3, 4):
        with criterion(3, f"(JC+) without (*), d={d}", 60.0):
            h = make_family(FamilySpec("n5", d))
            f = plus_identity(h)
            assert check_sum_condition(f, 5).sole_verdict == HOLDS
            summed = substituted_jacobian_sum(h, 5)
            assert matrix_is_nilpotent(summed)
            assert is_strongly_nilpotent(h).sole_verdict == FAILS

            # explicit two-factor product with the predicted diagonal
            xs = variables(QQ, 5)
            jac = jacobian(h)
            zero = MultiPoly.zero(QQ, 5)
            at_x1 = jac.substitute([zero, xs[1], xs[2], xs[3], xs[4]])
            at_x2 = jac.substitute([xs[0], zero, xs[2], xs[3], xs[4]])
            product = at_x1 @ at_x2
            assert product.is_lower_triangular()
            diag_poly = xs[0] ** (d - 1) * xs[1] ** (d - 1)
            assert product.diagonal() == [zero, zero, diag_poly, -diag_poly, zero]
            assert not matrix_is_nilpotent(product)


def test_criterion_4_star_chain_on_families():
    with criterion(4, "star chain on the 2d+2 families", 120.0):
        for d in (2, 3):
            for kind in ("f666", "f667"):
                for nu in (Fraction(0), Fraction(1)):
                    for n in range(3, 2 * d + 3):
                        spec = FamilySpec(kind, d, n=n, nu=nu)
                        h = make_family(spec)
                        cert = family_certificate(spec)
                        assert verify_star_certificate(h, cert), spec
                        star = chain_report(plus_identity(h), checks=["star"])
                        assert star.verdict("star") == HOLDS, spec
                        t_matrix = triangularization_from_certificate(cert, n)
                        for c, dp, b in cert.triples:
                            term = conjugated_power_term(c, dp, b, t_matrix)
                            # independent route: conjugate the raw term map
                            power = c.to_poly() ** dp
                            raw = PolyMap([power * v if not v.is_zero() else
                                           MultiPoly.zero(h.field, n) for v in b])
                            assert conjugate(raw, t_matrix) == term, spec
                            assert jacobian(term).is_lower_triangular(strict=True), spec
                        if kind == "f666" and nu != 0:
                            assert cert.level == "triplestar", spec
                        if kind == "f667" and d == 2 and nu == 0:
                            assert cert.level == "doublestar", spec
                            b1 = cert.triples[0][2]
                            b2 = cert.triples[1][2]
                            quarter = h.field.scalar(Fraction(1, 4))
                            assert b1[2] == quarter and b2[2] == -quarter
                            assert all(v.is_zero() for i, v in enumerate(b1) if i != 2)
                            assert all(v.is_zero() for i, v in enumerate(b2) if i != 2)


def _verified_certificates():
    specs = []
    for d in (2, 3):
        for kind in ("f666", "f667"):
            for nu in (Fraction(0), Fraction(1)):
                for n in range(3, 2 * d + 3):
                    specs.append(FamilySpec(kind, d, n=n, nu=nu))
    specs.extend([FamilySpec("small2", 3), FamilySpec("small3", 3)])
    for spec in specs:
        h = make_family(spec)
        cert = family_certificate(spec)
        assert verify_star_certificate(h, cert)
        yield spec, h, cert


def test_criterion_5_nilpotent_sum_device():
    with criterion(5, "S^(N+1) = 0 and det(nI + S) = n^n", 240.0):
        for spec, h, cert in _verified_certificates():
            n = h.nvars
            s_matrix = substituted_jacobian_sum(h, n)
            assert s_matrix.power(cert.count + 1).is_zero(), spec
            n_eye = PolyMatrix.identity(h.field, s_matrix.nvars, n).scale(n)
            det = matrix_det(n_eye + s_matrix)
            assert det == MultiPoly.constant(h.field, s_matrix.nvars, n ** n), spec


def test_criterion_6_gz_example():
    with criterion(6, "pairing example", 10.0):
        inst = gz_example()
        report = gz_verify(inst)
        assert report.verdict("gz") == HOLDS


def test_criterion_7_small_counterexamples():
    with criterion(7, "small counterexamples and oracles", 30.0):
        spec2 = FamilySpec("small2", 3)
        h2 = make_family(spec2)
        cert2 = family_certificate(spec2)
        assert cert2.level == "star"
        assert verify_star_certificate(h2, cert2)
        rep2 = chain_report(plus_identity(h2), cert=cert2,
                            checks=["star", "doublestar"])
        assert rep2.verdict("star") == HOLDS
        assert rep2.verdict("doublestar") == FAILS

        spec3 = FamilySpec("small3", 3)
        h3 = make_family(spec3)
        cert3 = family_certificate(spec3)
        assert cert3.level == "doublestar"
        assert verify_star_certificate(h3, cert3)
        rep3 = chain_report(plus_identity(h3), cert=cert3,
                            checks=["doublestar", "triplestar"])
        assert rep3.verdict("doublestar") == HOLDS
        assert rep3.verdict("triplestar") == FAILS


def _random_scalar(rng, field):
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(field.degree)])


def _random_poly(rng, nvars, max_deg=3, max_terms=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        items.append((exps, Fraction(rng.randint(-6, 6))))
    return MultiPoly.from_terms(QQ, nvars, items)


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites", 120.0):
        rng = random.Random(1364)
        fields = [QQ, Field([1, 0, 1]), Field([1, 1, 1])]
        for _ in range(200):
            field = rng.choice(fields)
            a, b, c = (_random_scalar(rng, field) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a

        for _ in range(200):
            nvars = rng.randint(1, 3)
            p = _random_poly(rng, nvars)
            q = _random_poly(rng, nvars)
            i = rng.randrange(nvars)
            j = rng.randrange(nvars)
            assert ((p * q).partial_derivative(i)
                    == p.partial_derivative(i) * q + p * q.partial_derivative(i))
            assert (p.partial_derivative(i).partial_derivative(j)
                    == p.partial_derivative(j).partial_derivative(i))

        for _ in range(200):
            n = rng.randint(2, 3)
            a = PolyMatrix.from_scalars(
                QQ, n, [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                        for _ in range(n)])
            b = PolyMatrix.from_scalars(
                QQ, n, [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                        for _ in range(n)])
            assert matrix_det(a @ b) == matrix_det(a) * matrix_det(b)

        done = 0
        while done < 200:
            nvars = rng.randint(1, 5)
            d = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            lam = Fraction(rng.randint(-5, 5))
            if all(v == 0 for v in coeffs) or lam == 0:
                continue
            poly = LinearForm(QQ, coeffs).to_poly() ** d * lam
            got = is_pure_power(poly)
            assert got is not None
            form, dd, ll = got
            assert dd == d and form.to_poly() ** dd * ll == poly
            done += 1

        for _ in range(200):
            grid = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)]
            a = PolyMatrix.from_scalars(QQ, 3, grid)
            d = 3
            lhs = jacobian(hadamard_power_map(a, d))
            rows = hadamard_power_map(a, d - 1).components
            zero = MultiPoly.zero(QQ, 3)
            diag = PolyMatrix([[rows[i] * d if i == j else zero for j in range(3)]
                               for i in range(3)])
            assert lhs == diag @ a


def test_criterion_9_non_homogeneous_variants():
    with criterion(9, "non-homogeneous variants", 60.0):
        h4 = make_family(FamilySpec("nonhomog_n4", 3))
        rep4 = chain_report(plus_identity(h4), checks=["quasi", "jc"])
        assert rep4.verdict("quasi") == HOLDS
        assert rep4.verdict("jc") == FAILS

        h5 = make_family(FamilySpec("nonhomog_n5", 3))
        rep5 = chain_report(plus_identity(h5),
                            checks=["jc_plus", "strong_nilpotent"])
        assert rep5.verdict("jc_plus") == HOLDS
        assert rep5.verdict("strong_nilpotent") == FAILS
