"""Chain condition checkers, certificates and triangularization."""

from fractions import Fraction

import pytest

from kellerlab import linalg, serialize
from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import LinearForm, MultiPoly, lift_to_field, variables
from kellerlab.polymap import (PolyMap, PolyMatrix, conjugate, jacobian,
                               map_compose, matrix_det, matrix_is_nilpotent,
                               plus_identity)
from kellerlab.properties import (CHAIN_CONDITIONS, FAILS, HOLDS, UNDECIDED,
                                  PropertyReport, StarCertificate,
                                  certificate_failure,
                                  certificate_from_triangularization,
                                  chain_report, check_sum_condition,
                                  conjugated_power_term, is_quasi_translation,
                                  is_strongly_nilpotent,
                                  strong_nilpotence_product,
                                  substituted_jacobian_sum,
                                  triangularization_from_certificate,
                                  verify_star_certificate, verify_sum_witness)
from kellerlab.properties import _strong_nilpotence_flag, _term_is_triangular
from kellerlab.constructions import (FAMILY_KINDS, FamilySpec, family_certificate,
                                     make_family)


def _cube_map():
    x1, x2 = variables(QQ, 2)
    return plus_identity(PolyMap([MultiPoly.zero(QQ, 2), x1 ** 2]))


def _verdict(f, check):
    return chain_report(f, checks=[check]).verdict(check)


def test_is_keller_examples():
    assert _verdict(_cube_map(), "keller") == HOLDS
    x1, x2 = variables(QQ, 2)
    assert _verdict(plus_identity(PolyMap([x1 ** 2 - x1, MultiPoly.zero(QQ, 2)])),
                    "keller") == FAILS
    f5 = plus_identity(make_family(FamilySpec("n5", 3)))
    assert matrix_det(jacobian(f5)) == MultiPoly.constant(QQ, 5, 1)
    assert _verdict(f5, "keller") == HOLDS


def test_quasi_translation_examples():
    assert is_quasi_translation(plus_identity(make_family(FamilySpec("n4", 3))))
    assert is_quasi_translation(_cube_map())
    x1, x2 = variables(QQ, 2)
    h = PolyMap([x2 ** 2, x1 ** 2])
    # independent oracle: expand H(x - H) - H and exhibit a nonzero term
    x_minus_h = PolyMap.identity(QQ, 2) - h
    diff = map_compose(h, x_minus_h) - h
    assert not diff.is_zero()
    assert not is_quasi_translation(plus_identity(h))


def test_sum_condition_keller_cube():
    rep = check_sum_condition(_cube_map(), 1)
    assert rep.sole_verdict == HOLDS


def test_sum_condition_family_failure_and_witness():
    f = plus_identity(make_family(FamilySpec("n4", 3)))
    rep = check_sum_condition(f, 2, label="jc")
    assert rep.verdict("jc") == FAILS
    witness = rep.witness("jc")
    assert witness["kind"] == "points"
    ext = witness["field"]
    assert ext.min_poly == (Fraction(4), Fraction(0), Fraction(1))
    c = ext.generator()
    assert witness["points"][0] == [ext.one(), ext.zero(), ext.zero(), ext.zero()]
    assert witness["points"][1] == [ext.one(), c, ext.zero(), ext.zero()]
    assert verify_sum_witness(f, ext, witness["points"])


def test_sum_condition_holds_for_five_points():
    f = plus_identity(make_family(FamilySpec("n5", 3)))
    rep = check_sum_condition(f, 5)
    assert rep.sole_verdict == HOLDS
    h = make_family(FamilySpec("n5", 3))
    assert matrix_is_nilpotent(substituted_jacobian_sum(h, 5))


def test_strongly_nilpotent_triangular():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([MultiPoly.zero(QQ, 2), x1 ** 3 - x1 ** 2])
    assert is_strongly_nilpotent(h).sole_verdict == HOLDS


def _assert_word_witness(h, witness, product=None):
    # the word must be the coefficient of v_1^{m_1} ... v_n^{m_n} in the
    # n-fold product, applied to the unit vector
    product = strong_nilpotence_product(h) if product is None else product
    assert witness["kind"] == "word"
    assert len(witness["word"]) == h.nvars
    exps = (0,) * h.nvars + tuple(e for m in witness["word"] for e in m)
    column = [row[witness["unit"]].terms.get(exps, h.field.zero()) for row in product.entries]
    assert witness["image"] == column
    assert any(not v.is_zero() for v in column)


def test_strongly_nilpotent_family_failure():
    h = make_family(FamilySpec("n5", 2))
    rep = is_strongly_nilpotent(h)
    assert rep.sole_verdict == FAILS
    witness = rep.witness("strong_nilpotent")
    _assert_word_witness(h, witness)
    assert witness["word"] == [(0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                               (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)]
    assert witness["unit"] == 0
    assert witness["image"] == [QQ.zero(), QQ.zero(), QQ.scalar(-1), QQ.zero(), QQ.zero()]


def test_strongly_nilpotent_rejects_non_nilpotent_jacobian():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([x2 ** 2, x1 ** 2])
    assert not matrix_is_nilpotent(jacobian(h))
    rep = is_strongly_nilpotent(h)
    assert rep.sole_verdict == FAILS
    _assert_word_witness(h, rep.witness("strong_nilpotent"))


def test_decide_star_examples():
    assert _verdict(plus_identity(make_family(FamilySpec("f666", 2, n=6))), "star") == HOLDS
    assert _verdict(plus_identity(make_family(FamilySpec("n5", 3))), "star") == FAILS
    zero = PolyMap.zero(QQ, 2, 2)
    assert _verdict(plus_identity(zero), "star") == HOLDS


def test_decide_star_nonzero_origin_reading():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([MultiPoly.constant(QQ, 2, 1), x1 ** 2])
    rep = chain_report(plus_identity(h), checks=["star", "strong_nilpotent"])
    assert rep.verdict("star") == UNDECIDED
    assert rep.verdict("strong_nilpotent") == HOLDS


def _small2_cert(d=3):
    e1 = LinearForm.unit(QQ, 2, 0)
    return StarCertificate("star", [
        (e1, d, [QQ.zero(), QQ.one()]),
        (e1, d - 1, [QQ.zero(), QQ.scalar(-1)]),
    ])


def test_verify_certificate_small_example():
    h = make_family(FamilySpec("small2", 3))
    assert verify_star_certificate(h, _small2_cert())


def test_verify_certificate_doublestar_single_term_fails():
    h = make_family(FamilySpec("small2", 3))
    # any single triple must reproduce x1^3 - x1^2, which is not a pure power
    e1 = LinearForm.unit(QQ, 2, 0)
    cert = StarCertificate("doublestar", [(e1, 3, [QQ.zero(), QQ.one()])])
    assert certificate_failure(h, cert) == "sum mismatch"


def test_certificate_failure_clauses():
    h = make_family(FamilySpec("f666", 2, nu=1))
    cert = family_certificate(FamilySpec("f666", 2, nu=1))
    assert certificate_failure(h, cert) is None
    # perturb a b vector: sum breaks first
    c0, d0, b0 = cert.triples[0]
    bad = StarCertificate(cert.level,
                          [(c0, d0, [v + 1 for v in b0])] + list(cert.triples[1:]))
    assert certificate_failure(h, bad) == "sum mismatch"
    # orthogonality diagnostic on a self-paired triple
    x1, x2 = variables(QQ, 2)
    h2 = PolyMap([x1 ** 2, MultiPoly.zero(QQ, 2)])
    cert2 = StarCertificate("star", [(LinearForm.unit(QQ, 2, 0), 2,
                                      [QQ.one(), QQ.zero()])])
    assert certificate_failure(h2, cert2) == "orthogonality (1,1)"
    # count clause for doublestar
    h0 = PolyMap.zero(QQ, 3, 3)
    empty = StarCertificate("doublestar", [])
    assert certificate_failure(h0, empty) == "count"
    # independence clause for triplestar
    spec0 = FamilySpec("f666", 2, nu=0)
    h666 = make_family(spec0)
    cert666 = family_certificate(spec0).with_level("triplestar")
    assert certificate_failure(h666, cert666) == "independence"


def test_certificate_level_downgrade():
    spec = FamilySpec("f666", 2, nu=1)
    h = make_family(spec)
    cert = family_certificate(spec)
    assert cert.level == "triplestar"
    for level in ("star", "doublestar", "triplestar"):
        assert verify_star_certificate(h, cert, level=level)


def test_triangularization_trivial_cases():
    cert = StarCertificate("star", [(LinearForm.unit(QQ, 2, 0), 2,
                                     [QQ.zero(), QQ.one()])])
    t = triangularization_from_certificate(cert, 2)
    assert t == PolyMatrix.identity(QQ, 2, 2)
    zeros = StarCertificate("star", [(LinearForm.unit(QQ, 3, 0), 2, [0, 0, 0]),
                                     (LinearForm.unit(QQ, 3, 1), 3, [0, 0, 0])])
    assert triangularization_from_certificate(zeros, 3) == PolyMatrix.identity(QQ, 3, 3)


def test_triangularization_rejects_orthogonality_violation():
    cert = StarCertificate("star", [(LinearForm.unit(QQ, 2, 0), 2,
                                     [QQ.one(), QQ.zero()])])
    with pytest.raises(ValueError, match="orthogonality"):
        triangularization_from_certificate(cert, 2)


def test_triangularization_family_recheck():
    spec = FamilySpec("f666", 2, nu=1)
    cert = family_certificate(spec)
    t = triangularization_from_certificate(cert, 6)
    for c, d, b in cert.triples:
        term_jac = jacobian(conjugated_power_term(c, d, b, t))
        assert term_jac.is_lower_triangular(strict=True)
    # the triangularized sum is then strictly triangular as well
    h = make_family(spec)
    assert jacobian(conjugate(h, t)).is_lower_triangular(strict=True)


def _greedy_rank_scan(cert, n, field):
    """The reference T: a backward rank scan keeps the b_i independent of
    the later kept ones, then unit vectors complete them, ascending."""
    kept = []
    for i in range(cert.count - 1, -1, -1):
        b = list(cert.triples[i][2])
        if linalg.rank(kept + [b]) > linalg.rank(kept):
            kept.append(b)
    tail = kept[::-1]
    units = []
    for unit in linalg.identity_grid(field, n):
        basis = tail + units
        if len(basis) < n and linalg.rank(basis + [unit]) > linalg.rank(basis):
            units.append(unit)
    cols = units + tail
    return PolyMatrix.from_scalars(field, n, [[cols[j][i] for j in range(n)] for i in range(n)])


def _random_orthogonal_certificate(rng, field, n):
    """Triples with c_j^t b_i = 0 for i >= j: the c_j come from a span of
    dimension below n and each b_i from the null space of c_1, ..., c_i,
    so later b_i are often dependent, repeated or zero."""
    values = [field.scalar(v) for v in (-1, 0, 0, 1, 2)]
    if not field.is_rational:
        values.append(field.generator())

    def combination(basis):
        weights = [rng.choice(values) for _ in basis]
        return [sum((w * v[k] for w, v in zip(weights, basis)), field.zero()) for k in range(n)]

    spanning = [[rng.choice(values) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
    triples, forms = [], []
    for _ in range(rng.randint(1, n + 2)):
        forms.append(combination(spanning))
        repeat = triples and LinearForm(field, forms[-1]).dot(triples[-1][2]).is_zero()
        if repeat and rng.random() < 0.2:
            b = list(triples[-1][2])
        elif rng.random() < 0.15:
            b = [field.zero()] * n
        else:
            b = combination(linalg.nullspace(forms, n, field))
        triples.append((LinearForm(field, forms[-1]), rng.randint(1, 3), b))
    return StarCertificate("star", triples)


def test_triangularization_matches_greedy_rank_scan_fuzz():
    import random

    rng = random.Random(31337)
    dropped = 0
    for field, trials in ((QQ, 25), (Field(cyclotomic(3)), 4)):
        for trial in range(trials):
            n = rng.randint(2, 4)
            cert = _random_orthogonal_certificate(rng, field, n)
            t_matrix = triangularization_from_certificate(cert, n)
            assert t_matrix == _greedy_rank_scan(cert, n, field), (trial, cert.triples)
            for c, d, b in cert.triples:
                term = conjugated_power_term(c, d, b, t_matrix)
                assert jacobian(term).is_lower_triangular(strict=True), (trial, cert.triples)
            dropped += linalg.rank([list(b) for _, _, b in cert.triples]) < cert.count
    assert dropped >= 10  # dependent or zero b_i are exercised, not only bases


def test_term_recheck_matches_symbolic_jacobian_fuzz():
    # the support test on T^t c and T^{-1} b against the Jacobian of the
    # conjugated term; c before b and lower triangular T make many pairs
    # triangularize, the other draws mostly do not
    import random

    rng = random.Random(2718)
    outcomes = []
    for trial in range(60):
        n = rng.randint(2, 4)
        split = rng.randint(1, n - 1) if rng.random() < 0.6 else 0
        c = [rng.choice([-1, 0, 1, 2]) if k < (split or n) else 0 for k in range(n)]
        b = [rng.choice([-1, 0, 1, 3]) if k >= split else 0 for k in range(n)]
        while True:
            if rng.random() < 0.5:
                grid = [[rng.choice([-1, 0, 2]) if j < i else int(i == j) for j in range(n)]
                        for i in range(n)]
            else:
                grid = [[rng.choice([-1, 0, 0, 1]) for _ in range(n)] for _ in range(n)]
            grid = [[QQ.scalar(v) for v in row] for row in grid]
            inv = linalg.invert(grid, QQ)
            if inv is not None:
                break
        form, b = LinearForm(QQ, c), [QQ.scalar(v) for v in b]
        term = conjugated_power_term(form, rng.randint(1, 3), b,
                                     PolyMatrix.from_scalars(QQ, n, grid))
        fast = _term_is_triangular(form, b, grid, inv)
        assert fast == jacobian(term).is_lower_triangular(strict=True), (trial, c, b, grid)
        outcomes.append(fast)
    assert 15 <= sum(outcomes) <= 45


def test_certificate_from_triangularization_round_trip():
    h = make_family(FamilySpec("f666", 2, nu=1))
    eye = PolyMatrix.identity(QQ, 6, 6)
    cert = certificate_from_triangularization(h, eye)
    assert cert.level == "star"
    assert verify_star_certificate(h, cert)
    assert _verdict(plus_identity(h), "star") == HOLDS


def test_certificate_from_triangularization_nontrivial_matrix():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([x2 ** 2, MultiPoly.zero(QQ, 2)])
    swap = PolyMatrix.from_scalars(QQ, 2, [[0, 1], [1, 0]])
    cert = certificate_from_triangularization(h, swap)
    assert verify_star_certificate(h, cert)
    (c, d, b), = cert.triples
    assert [v.as_rational() for v in c.coeffs] == [0, 1]
    assert d == 2
    assert [v.as_rational() for v in b] == [1, 0]


def test_certificate_from_triangularization_zero_map():
    cert = certificate_from_triangularization(PolyMap.zero(QQ, 3, 3),
                                              PolyMatrix.identity(QQ, 3, 3))
    assert cert.count == 0
    assert verify_star_certificate(PolyMap.zero(QQ, 3, 3), cert)


def test_certificate_from_triangularization_precondition_error():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([MultiPoly.zero(QQ, 2), x1 ** 2 + x2 ** 2])
    with pytest.raises(ValueError, match="strictly lower triangular"):
        certificate_from_triangularization(h, PolyMatrix.identity(QQ, 2, 2))


def test_nilpotent_sum_device_for_certificates():
    # a verified certificate with N triples forces S^{N+1} = 0 and
    # det(n I + S) = n^n over fresh points
    spec = FamilySpec("f667", 2, nu=0)
    h = make_family(spec)
    cert = family_certificate(spec)
    assert verify_star_certificate(h, cert)
    n = h.nvars
    s = substituted_jacobian_sum(h, n)
    assert s.power(cert.count + 1).is_zero()
    n_eye = PolyMatrix.identity(h.field, s.nvars, n).scale(n)
    assert matrix_det(n_eye + s) == MultiPoly.constant(h.field, s.nvars, n ** n)


def test_strong_nilpotence_product_shape():
    h = make_family(FamilySpec("n5", 2))
    product = strong_nilpotence_product(h, 2)
    assert product.rows == 5 and product.nvars == 5 + 10


def test_chain_report_quasi_family():
    f = plus_identity(make_family(FamilySpec("n4", 3)))
    rep = chain_report(f)
    assert rep.verdict("jc_minus") == HOLDS
    assert rep.verdict("quasi") == HOLDS
    assert rep.verdict("jc") == FAILS
    assert rep.verdict("jc_plus") == FAILS
    assert rep.verdict("keller") == HOLDS
    assert rep.verdict("nilpotent") == HOLDS


def test_chain_report_jc_plus_star_gap():
    f = plus_identity(make_family(FamilySpec("n5", 2)))
    rep = chain_report(f, checks=["jc_plus", "star"])
    assert rep.verdict("jc_plus") == HOLDS
    assert rep.verdict("star") == FAILS


def test_chain_report_small3_span_oracle():
    spec = FamilySpec("small3", 3)
    h = make_family(spec)
    cert = family_certificate(spec)
    rep = chain_report(plus_identity(h), cert=cert)
    assert rep.verdict("doublestar") == HOLDS
    assert rep.verdict("triplestar") == FAILS
    assert "span" in rep.notes["triplestar"]


def test_chain_report_small2_single_term_oracle():
    spec = FamilySpec("small2", 3)
    h = make_family(spec)
    cert = family_certificate(spec)
    rep = chain_report(plus_identity(h), cert=cert)
    assert rep.verdict("star") == HOLDS
    assert rep.verdict("doublestar") == FAILS
    assert rep.verdict("triplestar") == FAILS
    assert rep.verdict("jc_minus") == HOLDS


def test_chain_report_zero_map_everything_holds():
    f = PolyMap.identity(QQ, 3)
    rep = chain_report(f)
    for name in ("keller", "nilpotent", "quasi", "jc_minus", "jc", "jc_plus",
                 "star", "doublestar", "triplestar", "strong_nilpotent"):
        assert rep.verdict(name) == HOLDS, name


def test_chain_report_certificate_drives_inverse():
    spec = FamilySpec("f667", 3, nu=1)
    h = make_family(spec)
    cert = family_certificate(spec)
    rep = chain_report(plus_identity(h), cert=cert, checks=["jc_minus", "star"])
    assert rep.verdict("jc_minus") == HOLDS
    assert rep.verdict("star") == HOLDS
    inverse = rep.witness("jc_minus")["map"]
    assert map_compose(plus_identity(h), inverse) == PolyMap.identity(h.field, h.nvars)


def test_chain_report_undecided_without_certificate():
    # a triangularizable but not obviously decomposable instance stays undecided
    x1, x2, x3 = variables(QQ, 3)
    h = PolyMap([MultiPoly.zero(QQ, 3), x1 ** 2, x1 * x2])
    rep = chain_report(plus_identity(h), checks=["doublestar", "triplestar"])
    assert rep.verdict("doublestar") == UNDECIDED
    assert rep.verdict("triplestar") == UNDECIDED


def test_chain_directions_on_families():
    # certificate at a stronger level verifies at every weaker level, and a
    # verified star certificate comes with holding sum conditions
    for spec in (FamilySpec("f666", 2, nu=1), FamilySpec("f666", 3, nu=0),
                 FamilySpec("f667", 2, nu=0), FamilySpec("f667", 3, nu=1)):
        h = make_family(spec)
        cert = family_certificate(spec)
        level_order = {"star": 0, "doublestar": 1, "triplestar": 2}
        for level, idx in level_order.items():
            if idx <= level_order[cert.level]:
                assert verify_star_certificate(h, cert, level=level), (spec, level)
        f = plus_identity(h)
        assert check_sum_condition(f, h.nvars).sole_verdict == HOLDS
        assert check_sum_condition(f, max(f.degree() - 1, 1)).sole_verdict == HOLDS


def test_jc_failure_implies_jc_plus_failure():
    f = plus_identity(make_family(FamilySpec("n4", 3)))
    jc = check_sum_condition(f, 2)
    jc_plus = check_sum_condition(f, 4)
    assert jc.sole_verdict == FAILS
    assert jc_plus.sole_verdict == FAILS


def test_chain_coherence_fuzz():
    # implications between the computed verdicts must match the theory:
    # star holds => jc_plus holds => jc holds, and jc fails => jc_plus fails;
    # exercised on random conjugates of triangular maps and on generic maps
    import random
    from kellerlab.polymap import conjugate

    rng = random.Random(777213)
    for trial in range(18):
        n = rng.randint(2, 3)
        comps = []
        for i in range(n):
            items = []
            for _ in range(rng.randint(0, 2)):
                exps = [0] * n
                upper = i if rng.random() < 0.7 else n
                for j in range(upper):
                    exps[j] = rng.randint(0, 2)
                items.append((tuple(exps), rng.randint(-3, 3)))
            poly = MultiPoly.from_terms(QQ, n, items)
            comps.append(poly - poly.constant_term())
        h = PolyMap(comps)
        # conjugate by a unipotent transvection: invertible, keeps the
        # symbolic determinants small enough for a fuzz loop
        row, col = rng.sample(range(n), 2)
        grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        grid[row][col] = rng.choice([-1, 1, 2])
        t = PolyMatrix.from_scalars(QQ, n, grid)
        h = conjugate(h, t)
        rep = chain_report(plus_identity(h), checks=["jc", "jc_plus", "star"])
        star, jc_plus, jc = (rep.verdict(k) for k in ("star", "jc_plus", "jc"))
        if star == HOLDS:
            assert jc_plus == HOLDS, (trial, h)
        if jc_plus == HOLDS:
            assert jc == HOLDS, (trial, h)
        if jc == FAILS:
            assert jc_plus == FAILS, (trial, h)


def test_sum_condition_symbolic_witness_over_extension():
    # witness-point search is limited to the rational base field, so a map
    # lifted into an extension reports the symbolic determinant instead
    ext = Field([1, 0, 1])
    h = make_family(FamilySpec("n4", 3))
    lifted = PolyMap([lift_to_field(c, ext) for c in h.components])
    rep = check_sum_condition(plus_identity(lifted), 2)
    assert rep.sole_verdict == FAILS
    witness = rep.witness("sum_condition")
    assert witness["kind"] == "symbolic_determinant"
    det = witness["determinant"]
    assert not det.is_constant()


def test_sum_condition_identically_zero_determinant():
    x1, x2 = variables(QQ, 2)
    degenerate = PolyMap([x1, x1])
    rep = check_sum_condition(degenerate, 1)
    assert rep.sole_verdict == FAILS
    witness = rep.witness("sum_condition")
    assert witness["kind"] == "points"
    assert witness["points"] == [[QQ.zero(), QQ.zero()]]
    assert verify_sum_witness(degenerate, QQ, witness["points"])


def test_chain_report_failure_witnesses_reverify():
    x1, x2 = variables(QQ, 2)
    h = PolyMap([x2 ** 2, x1 ** 2])
    rep = chain_report(plus_identity(h), checks=["nilpotent", "quasi"])
    assert rep.verdict("nilpotent") == FAILS
    entry = rep.witness("nilpotent")
    power = jacobian(h) @ jacobian(h)
    assert power.entries[entry["row"]][entry["col"]] == entry["value"]
    assert not entry["value"].is_zero()
    assert rep.verdict("quasi") == FAILS
    comp = rep.witness("quasi")
    x_minus_h = PolyMap.identity(QQ, 2) - h
    diff = map_compose(h, x_minus_h) - h
    assert diff.components[comp["index"]] == comp["value"]
    assert not comp["value"].is_zero()


def _mix_first_and_last(n, field=QQ):
    """I + e_1 e_n^t - e_n e_1^t: hides a triangular form, determinant 2."""
    grid = [[int(i == j) for j in range(n)] for i in range(n)]
    grid[0][n - 1], grid[n - 1][0] = 1, -1
    return PolyMatrix.from_scalars(field, n, grid)


_SMALLEST = [FamilySpec(kind, 3 if kind in ("n4", "nonhomog_n4") else 2)
             for kind in FAMILY_KINDS]


@pytest.mark.parametrize("spec,hidden", [(spec, False) for spec in _SMALLEST]
                         + [(FamilySpec("small3", 3), True), (FamilySpec("f666", 2, n=4), True)])
def test_chain_report_all_checks_equal_merged_single_checks(spec, hidden):
    # one call shares H, JH, JF and the quasi residual across the checks;
    # ten one-check calls build each of them afresh
    h = make_family(spec)
    if hidden:
        h = conjugate(h, _mix_first_and_last(h.nvars))
    f = plus_identity(h)
    merged = PropertyReport()
    for check in CHAIN_CONDITIONS:
        merged.merge(chain_report(f, checks=[check]))
    assert (serialize.dumps(serialize.report_to_json(chain_report(f)))
            == serialize.dumps(serialize.report_to_json(merged)))


def test_strong_nilpotence_flag_matches_product_fuzz():
    # the flag against the n-fold product on random maps, most of them
    # conjugates of triangular ones; its T must triangularize every map it
    # accepts, and its word must be a coefficient of the product otherwise
    import random

    rng = random.Random(90210)
    verdicts = []
    for trial in range(25):
        n = rng.randint(2, 3)
        comps = []
        for i in range(n):
            items = []
            for _ in range(rng.randint(0, 2)):
                exps = [0] * n
                upper = i if rng.random() < 0.7 else n
                for j in range(upper):
                    exps[j] = rng.randint(0, 2)
                items.append((tuple(exps), rng.randint(-3, 3)))
            comps.append(MultiPoly.from_terms(QQ, n, items))
        while True:
            grid = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(n)] for _ in range(n)]
            if matrix_det(PolyMatrix.from_scalars(QQ, n, grid)) != MultiPoly.zero(QQ, n):
                break
        h = conjugate(PolyMap(comps), PolyMatrix.from_scalars(QQ, n, grid))
        product = strong_nilpotence_product(h)
        t_matrix, word = _strong_nilpotence_flag(jacobian(h))
        assert (t_matrix is not None) == product.is_zero(), (trial, h)
        assert is_strongly_nilpotent(h).sole_verdict == (HOLDS if product.is_zero() else FAILS)
        if t_matrix is not None:
            assert jacobian(conjugate(h, t_matrix)).is_lower_triangular(strict=True), (trial, h)
        else:
            _assert_word_witness(h, word, product)
        verdicts.append(t_matrix is not None)
    assert 5 <= sum(verdicts) <= 20


_FLAG_CHECKS = ["keller", "nilpotent", "quasi", "jc", "jc_plus", "strong_nilpotent", "star"]


@pytest.mark.parametrize("spec", _SMALLEST, ids=lambda spec: spec.kind)
def test_hidden_families_keep_their_verdicts(spec):
    # a change of basis hides the defining form; every verdict that does not
    # read a certificate or the shape of H must survive it
    h = make_family(spec)
    hidden = conjugate(h, _mix_first_and_last(h.nvars, h.field))
    plain = chain_report(plus_identity(h), checks=_FLAG_CHECKS).conditions
    assert UNDECIDED not in plain.values()
    assert chain_report(plus_identity(hidden), checks=_FLAG_CHECKS).conditions == plain


def test_jc_plus_and_jc_minus_hold_on_hidden_full_size_f666():
    h = make_family(FamilySpec("f666", 2))
    assert h.nvars == 6
    f = plus_identity(conjugate(h, _mix_first_and_last(6)))
    rep = chain_report(f, checks=["jc_plus", "jc_minus"])
    assert rep.verdict("jc_plus") == HOLDS
    assert rep.notes["jc_plus"] == "determinant is the constant 46656"
    assert rep.verdict("jc_minus") == HOLDS
    # F o G = x composed symbolically takes seconds here; check it pointwise
    inverse = rep.witness("jc_minus")["map"]
    for point in ([1, 0, -1, 2, 0, 1], [3, -2, 1, 1, -1, 0]):
        point = [QQ.scalar(v) for v in point]
        assert list(f.evaluate(inverse.evaluate(point))) == point


def test_jc_failure_with_large_coefficients_is_fast():
    # diag(10^8, 1, 1, 1) blows up the coefficients of the restricted
    # determinants past the rational-root search bound; the symbolic
    # determinant still proves failure
    import time

    h = make_family(FamilySpec("n4", 3))
    grid = [[10 ** 8 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    hidden = conjugate(h, PolyMatrix.from_scalars(QQ, 4, grid))
    start = time.perf_counter()
    rep = chain_report(plus_identity(hidden), checks=["jc"])
    assert time.perf_counter() - start < 2.0
    assert rep.verdict("jc") == FAILS
    witness = rep.witness("jc")
    assert witness["kind"] == "symbolic_determinant"
    assert not witness["determinant"].is_constant()


@pytest.mark.parametrize("comps", [
    lambda x1, x2: (MultiPoly.zero(QQ, 2), x1 ** 2),
    lambda x1, x2: ((x1 - x2) ** 2, (x1 - x2) ** 2),
], ids=["0,x1^2", "(x1-x2)^2,(x1-x2)^2"])
def test_single_term_oracle_holds_in_two_variables(comps):
    h = PolyMap(comps(*variables(QQ, 2)))
    rep = chain_report(plus_identity(h), checks=["doublestar", "triplestar"])
    for level in ("doublestar", "triplestar"):
        assert rep.verdict(level) == HOLDS
        assert rep.notes[level] == "single-term oracle"
        cert = rep.witness(level)["certificate"]
        assert cert.level == level and cert.count == 1
        assert certificate_failure(h, cert, level=level) is None


def test_one_variable_oracle_fails():
    (x1,) = variables(QQ, 1)
    rep = chain_report(plus_identity(PolyMap([x1 ** 2])), checks=["doublestar", "triplestar"])
    for level in ("doublestar", "triplestar"):
        assert rep.verdict(level) == FAILS
        assert rep.notes[level] == "a nonzero one-variable map is no empty sum"
        assert rep.witness(level) is None


def test_univariate_rational_roots_at_zero():
    from kellerlab.properties import _univariate_rational_roots

    (s,) = variables(QQ, 1)
    assert _univariate_rational_roots(s ** 3 - s ** 2) == [0, 1]
    assert _univariate_rational_roots(s ** 2) == [0]
    assert _univariate_rational_roots(MultiPoly.zero(QQ, 1)) == []


def test_jc_minus_inverts_the_flags_t_once(monkeypatch):
    # G = T^{-1} F(Tx) is inverted and conjugated back with one T^{-1}
    f = plus_identity(conjugate(make_family(FamilySpec("f666", 2, n=4)),
                                _mix_first_and_last(4)))
    calls = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda *args: calls.append(args) or invert(*args))
    rep = chain_report(f, checks=["jc_minus"])
    assert rep.notes["jc_minus"] == "inverted after triangularization by the strong-nilpotence flag"
    assert len(calls) == 1
    assert map_compose(f, rep.witness("jc_minus")["map"]) == PolyMap.identity(QQ, 4)
