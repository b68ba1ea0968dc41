"""Chain condition checkers, certificates and triangularization."""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest

from kellerlab import linalg, serialize
from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import (LinearForm, MultiPoly, _numerators, lift_to_field,
                                 rename_variables, variables)
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
                                  verify_star_certificate)
from kellerlab.properties import _strong_nilpotence_flag, _sum_vanishes_at, _term_is_triangular
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
    assert _sum_vanishes_at(jacobian(f), ext, witness["points"])


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
    cert666 = StarCertificate("triplestar", family_certificate(spec0).triples)
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
        repeat = triples and sum((c * b for c, b in zip(forms[-1], triples[-1][2])),
                                 field.zero()).is_zero()
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


def test_levels_read_the_flags_word_only_when_it_fails():
    # n5 is not strongly nilpotent, so no level holds and all three report the
    # flag's word; small3's flag holds, so its doublestar stays undecided
    rep = chain_report(plus_identity(make_family(FamilySpec("n5", 2))))
    for level in ("doublestar", "triplestar"):
        assert rep.verdict(level) == FAILS
        assert rep.witness(level) == rep.witness("star") == rep.witness("strong_nilpotent")
        assert rep.notes[level] == ("(*) fails: JH is not strongly nilpotent, "
                                    "so (**) and (***) fail")
    rep = chain_report(plus_identity(make_family(FamilySpec("small3", 3))),
                       checks=["strong_nilpotent", "doublestar"])
    assert rep.verdict("strong_nilpotent") == HOLDS
    assert rep.verdict("doublestar") == UNDECIDED


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
    assert _sum_vanishes_at(jacobian(degenerate), QQ, witness["points"])


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
    assert not _residual(h).is_zero()
    _assert_jh_h_witness(h, rep.witness("quasi"))
    assert rep.witness("quasi") == {"kind": "jh_h_entry", "index": 0,
                                    "value": 2 * x2 * x1 ** 2}
    assert rep.notes["quasi"] == "JH H has a nonzero entry"


# perfbench/workloads.conjugating_matrix("f666", 4, 10, QQ, 1): the conjugated
# workload's change of basis at seed 1
_F666_D4_T = [[0, 1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1, 0, 1, 0, 0],
              [0, 0, 0, 0, 1, 0, 0, -1, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0, -1],
              [0, 0, 0, 0, 0, 0, -1, 0, 0, -1], [0, 0, -1, 0, 0, 1, 0, 0, 0, 0],
              [1, 0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, -1, 1, 0],
              [0, 0, 0, 0, 0, -1, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1, 1, 0, 0]]


def test_quasi_fails_fast_on_hidden_f666_d4():
    # the entry of JH H that decides the verdict is the witness; expanding a
    # component of H(x - H) - H of degree d^2 instead took seconds here
    import time

    t_matrix = PolyMatrix.from_scalars(QQ, 10, _F666_D4_T)
    h = conjugate(make_family(FamilySpec("f666", 4)), t_matrix)
    start = time.perf_counter()
    rep = chain_report(plus_identity(h), checks=["quasi"])
    assert time.perf_counter() - start < 2.0
    assert rep.verdict("quasi") == FAILS
    _assert_jh_h_witness(h, rep.witness("quasi"))


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
    # one call shares H, JH, JF, JH H and the flag across the checks;
    # ten one-check calls build each of them afresh
    h = make_family(spec)
    if hidden:
        h = conjugate(h, _mix_first_and_last(h.nvars))
    f = plus_identity(h)
    merged = PropertyReport()
    for check in CHAIN_CONDITIONS:
        r = chain_report(f, checks=[check])
        merged.record(check, r.verdict(check), r.witness(check), r.notes.get(check))
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


def _triple(report, name):
    return report.verdict(name), report.witness(name), report.notes.get(name)


@pytest.mark.parametrize("spec", _SMALLEST, ids=lambda spec: spec.kind)
def test_public_checks_agree_with_chain_report(spec):
    # a public check and a one-check chain_report call record the condition
    # from the same decider; where the flag holds, check_sum_condition reads
    # count^n off it, which must be the note det G gives
    from kellerlab.properties import _MapAnalysis, _sum_condition

    h = make_family(spec)
    for hmap in (h, conjugate(h, _mix_first_and_last(h.nvars, h.field))):
        f = plus_identity(hmap)
        counts = {"jc": max(f.degree() - 1, 1), "jc_plus": f.nvars}
        public = {check: check_sum_condition(f, count, label=check)
                  for check, count in counts.items()}
        public["strong_nilpotent"] = is_strongly_nilpotent(hmap)
        for check, report in public.items():
            assert _triple(report, check) == _triple(chain_report(f, checks=[check]), check)
        assert is_quasi_translation(f) == (_verdict(f, "quasi") == HOLDS)
        if _MapAnalysis(f).strongly_nilpotent:
            for check, count in counts.items():
                assert _triple(public[check], check) == _sum_condition(jacobian(f), count)


def test_one_check_builds_only_what_it_reads(monkeypatch):
    # `analyze` on one check builds only the per-map objects its decider reads
    import collections

    from kellerlab import properties

    assert sorted(properties._DECIDERS) == sorted(CHAIN_CONDITIONS)  # one decider each
    calls = collections.Counter()
    for name in ("_strong_nilpotence_flag", "_quasi", "matrix_det"):
        def counted(*args, _name=name, _original=getattr(properties, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(properties, name, counted)

    def built(h, check):
        calls.clear()
        chain_report(plus_identity(h), checks=[check])
        return {name for name, count in calls.items() if count}

    def hidden(kind, d):
        h = make_family(FamilySpec(kind, d))
        return conjugate(h, _mix_first_and_last(h.nvars, h.field))

    n4, n5, f666 = hidden("n4", 3), hidden("n5", 2), hidden("f666", 2)
    for h in (n4, n5, f666):  # quasi-translation, neither, strongly nilpotent
        assert built(h, "quasi") == {"_quasi"}
        assert built(h, "strong_nilpotent") == built(h, "star") == {"_strong_nilpotence_flag"}
    assert built(f666, "keller") == {"_strong_nilpotence_flag"}
    assert built(n4, "jc_minus") == {"_quasi"}
    assert built(n5, "keller") == {"_strong_nilpotence_flag", "_quasi", "matrix_det"}


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


def test_jc_plus_on_densely_hidden_n5_is_fast():
    # a dense T makes the summed Jacobian a dense 5x5 matrix in 10 variables,
    # where fraction-free elimination took about 30 s
    import time

    grid = [[-1, 0, -1, 0, 0], [0, 0, 0, 1, -1], [0, 1, 1, 0, 0],
            [-1, 0, 0, 0, -1], [-1, -1, 0, 0, 0]]
    hidden = conjugate(make_family(FamilySpec("n5", 2)), PolyMatrix.from_scalars(QQ, 5, grid))
    start = time.perf_counter()
    rep = chain_report(plus_identity(hidden), checks=["jc_plus"])
    assert time.perf_counter() - start < 15.0
    assert rep.verdict("jc_plus") == HOLDS
    assert rep.notes["jc_plus"] == "determinant is the constant 3125"


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


def test_jc_minus_on_a_triangular_jh_reuses_it(monkeypatch):
    # the triangular route substitutes forward from the shared H; it builds no
    # second Jacobian, and gives the inverse the public invert_triangular gives
    from kellerlab import polymap

    f = plus_identity(make_family(FamilySpec("f666", 3)))
    monkeypatch.setattr(polymap, "jacobian", lambda *args: pytest.fail("second Jacobian"))
    rep = chain_report(f, checks=["jc_minus"])
    monkeypatch.undo()
    assert rep.notes["jc_minus"] == "forward substitution on the triangular form"
    assert rep.witness("jc_minus")["map"] == polymap.invert_triangular(f)


def test_single_term_oracle_tests_orthogonality_before_the_sum(monkeypatch):
    # H = (x1^1000000, 0) is x1^1000000 e_1 and c = e_1 is not orthogonal to
    # b = e_1: the oracle fails without expanding (c^t x)^1000000 a second time
    from kellerlab import properties

    h = PolyMap([MultiPoly(QQ, 2, {(1000000, 0): QQ.one()}), MultiPoly.zero(QQ, 2)])
    monkeypatch.setattr(properties, "certificate_failure",
                        lambda *args, **kwargs: pytest.fail("the sum was expanded"))
    rep = chain_report(plus_identity(h), checks=["doublestar"])
    assert rep.verdict("doublestar") == FAILS
    assert rep.notes["doublestar"].startswith("single-term oracle")


def test_component_span_is_read_once_for_both_levels(monkeypatch):
    # H = ((x1 + x2)^2, -(x1 + x2)^2) spans the line of v = (1, -1): doublestar
    # and triplestar share one reading of its generator
    from kellerlab import properties

    calls = []
    read = properties.is_pure_power
    monkeypatch.setattr(properties, "is_pure_power", lambda g: calls.append(g) or read(g))
    x1, x2 = variables(QQ, 2)
    h = PolyMap([(x1 + x2) ** 2, -(x1 + x2) ** 2])
    rep = chain_report(plus_identity(h), checks=["doublestar", "triplestar"])
    assert rep.conditions == {"doublestar": HOLDS, "triplestar": HOLDS}
    assert calls == [(x1 + x2) ** 2]


def test_univariate_rational_roots_passes_the_sparse_terms(monkeypatch):
    # 2 10^6 s^999999 + 4 reaches the root search as two terms, not 10^6 Fractions
    from kellerlab import properties

    seen = []
    search = properties.rational_roots
    monkeypatch.setattr(properties, "rational_roots", lambda c: seen.append(c) or search(c))
    poly = MultiPoly(QQ, 1, {(999999,): QQ.scalar(2 * 10 ** 6), (0,): QQ.scalar(4)})
    assert properties._univariate_rational_roots(poly) is None
    assert seen == [{999999: 2 * 10 ** 6, 0: 4}]


def test_certificate_round_trip_inverts_t_once(monkeypatch):
    # the conjugation and the rows T^{-t} gamma share one T^{-1}
    spec = FamilySpec("f666", 3, nu=1)
    h, cert = make_family(spec), family_certificate(spec)
    t_matrix = triangularization_from_certificate(cert, h.nvars)
    calls = []
    invert = linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda *args: calls.append(args) or invert(*args))
    back = certificate_from_triangularization(h, t_matrix)
    assert len(calls) == 1
    assert verify_star_certificate(h, back)


# -- the flag on integer vectors against the Scalar flag it replaced -----------

def _scalar_coefficient_matrices(jac):
    mats = {}
    for i, row in enumerate(jac.entries):
        for j, entry in enumerate(row):
            for m, value in entry.terms.items():
                mats.setdefault(m, []).append((i, j, value))
    return dict(sorted(mats.items()))


def _scalar_apply(entries, vector, zero):
    out = [zero] * len(vector)
    for i, j, value in entries:
        if not vector[j].is_zero():
            out[i] = out[i] + value * vector[j]
    return out


def _pivots(vectors) -> list:
    """Indices of the first maximal linearly independent subset of `vectors`."""
    return linalg.rref([list(row) for row in zip(*vectors)])[1]


def _adapted_basis(chain, field, n):
    """The flag's basis on Scalar vectors: one rref pass over `chain` plus the
    unit vectors; columns are the picked units, ascending, then the picked
    chain vectors in reverse."""
    vectors = chain + linalg.identity_grid(field, n)
    picked = _pivots(vectors)
    cols = ([vectors[p] for p in picked if p >= len(chain)]
            + [vectors[p] for p in reversed(picked) if p < len(chain)])
    return PolyMatrix.from_scalars(field, n, [[cols[j][i] for j in range(n)] for i in range(n)])


def _reference_flag(jac):
    """The flag on `Scalar` vectors, every level's pivots by one `linalg.rref`."""
    field, n = jac.field, jac.nvars
    if jac.is_lower_triangular(strict=True):
        return PolyMatrix.identity(field, n, n), None
    zero = field.zero()
    mats = _scalar_coefficient_matrices(jac)
    units = linalg.identity_grid(field, n)
    levels = [[((), j, units[j]) for j in range(n)]]
    for _ in range(n):
        images = [((m,) + word, j, _scalar_apply(entries, v, zero))
                  for word, j, v in levels[-1] for m, entries in mats.items()]
        level = [images[p] for p in _pivots([v for _, _, v in images])]
        if not level:
            deepest_first = [v for step in reversed(levels[1:]) for _, _, v in step]
            return _adapted_basis(deepest_first, field, n), None
        levels.append(level)
    word, j, image = levels[-1][0]
    return None, {"kind": "word", "word": list(word), "unit": j, "image": image}


# Q(sqrt(-9/2)) folds t^2 to -9/2, so its products leave the integers
_FLAG_FIELDS = (QQ, Field(cyclotomic(3)), Field(cyclotomic(5)), Field([Fraction(9, 2), 0, 1]))


def _random_scalar(rng, field):
    return field.element([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                          if rng.random() < 0.6 else 0 for _ in range(field.degree)])


def _random_invertible(rng, field, n, values):
    while True:
        grid = [[field.scalar(rng.choice(values)) for _ in range(n)] for _ in range(n)]
        if linalg.invert(grid, field) is not None:
            return PolyMatrix.from_scalars(field, n, grid)


def _random_hidden_triangular(rng, field, n):
    """T^{-1} G(Tx) with G mostly strictly triangular: many maps are strongly
    nilpotent, and those that are not often have a flag that stops shrinking."""
    comps = []
    for i in range(n):
        items = []
        upper = i if rng.random() < 0.75 else n
        for _ in range(rng.randint(0, 2) if upper else 0):
            exps = [0] * n
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(upper)] += 1
            items.append((tuple(exps), _random_scalar(rng, field)))
        comps.append(MultiPoly.from_terms(field, n, items))
    t_matrix = _random_invertible(rng, field, n, (-1, 0, 0, 0, 1, 2, Fraction(1, 2)))
    return conjugate(PolyMap(comps), t_matrix)


def _dense_sign_matrix(rng, field, n):
    return _random_invertible(rng, field, n, (-1, 1))


def test_integer_flag_matches_scalar_flag_fuzz():
    # the same T grid and the same witness, byte for byte, on random JH over
    # four fields and on the paper's families behind dense +-1 T
    import random

    rng = random.Random(4242)
    cases = []
    for field, trials in zip(_FLAG_FIELDS, (80, 50, 30, 50)):
        for _ in range(trials):
            cases.append(_random_hidden_triangular(rng, field, rng.randint(2, 5)))
    # W_1 = W_2 = K^2, but the first vector of W_1 has no nonzero image: a
    # level cut one vector short would read this map strongly nilpotent
    x1, _ = variables(QQ, 2)
    cases.append(PolyMap([x1 ** 2 * Fraction(1, 2), x1]))
    n5_t = PolyMatrix.from_scalars(QQ, 5, [[-1, 0, -1, 0, 0], [0, 0, 0, 1, -1], [0, 1, 1, 0, 0],
                                           [-1, 0, 0, 0, -1], [-1, -1, 0, 0, 0]])
    cases.append(conjugate(make_family(FamilySpec("n5", 2)), n5_t))
    for spec in (FamilySpec("n4", 3), FamilySpec("n5", 2), FamilySpec("n5", 3),
                 FamilySpec("f666", 2, n=4), FamilySpec("f666", 3, n=5),
                 FamilySpec("f667", 3, n=4), FamilySpec("f667", 4, n=4)):
        h = make_family(spec)
        for _ in range(2):
            cases.append(conjugate(h, _dense_sign_matrix(rng, h.field, h.nvars)))
    assert len(cases) >= 200
    holds = {}
    for index, h in enumerate(cases):
        jac = jacobian(h)
        expected = _reference_flag(jac)
        assert _strong_nilpotence_flag(jac) == expected, (index, h)
        holds.setdefault(h.field, []).append(expected[0] is not None)
    for field in _FLAG_FIELDS:
        assert 5 <= sum(holds[field]) <= len(holds[field]) - 5, field


# -- linalg.flag and linalg.adapted_basis on plain Scalar matrices --------------

def _grid_product(a, b, field):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), field.zero())
             for j in range(len(b[0]))] for row in a]


def _sparse(grid):
    return [(i, j, v) for i, row in enumerate(grid) for j, v in enumerate(row) if not v.is_zero()]


@pytest.mark.parametrize("field", _FLAG_FIELDS[:2], ids=["Q", "zeta3"])
def test_linalg_flag_triangularizes_hidden_strictly_triangular_matrices(field):
    # P S_m P^{-1} for strictly lower triangular S_m under keys that are no
    # monomials: T^{-1} A_m T must come out strictly lower triangular again
    import random

    rng = random.Random(316)
    t = field.generator()
    for n in (2, 3, 4):
        p = _random_invertible(rng, field, n, (-1, 0, 1, 2, Fraction(1, 2))).constant_grid()
        p_inv = linalg.invert(p, field)
        mats = {}
        for key in ("b", "a", "c"):
            s_m = [[(field.scalar(rng.randint(-3, 3)) + t * rng.randint(0, 2)) if j < i
                    else field.zero() for j in range(n)] for i in range(n)]
            mats[key] = _grid_product(_grid_product(p, s_m, field), p_inv, field)
        t_grid, word = linalg.flag(field, n, {key: _sparse(a) for key, a in mats.items()})
        assert word is None
        t_inv = linalg.invert(t_grid, field)
        assert t_inv is not None
        for a in mats.values():
            conj = _grid_product(_grid_product(t_inv, a, field), t_grid, field)
            assert all(conj[i][j].is_zero() for i in range(n) for j in range(i, n)), (n, conj)


@pytest.mark.parametrize("field", _FLAG_FIELDS[:2], ids=["Q", "zeta3"])
def test_linalg_flag_word_sends_unit_vector_to_image(field):
    # each A_m is nilpotent, but their span is not: a word of n letters is nonzero
    t, zero, one = field.generator(), field.zero(), field.one()
    for n in (2, 3):
        up = [[one if j == i + 1 else zero for j in range(n)] for i in range(n)]
        down = [[t + 2 if i == j + 1 else zero for j in range(n)] for i in range(n)]
        mats = {"up": up, "down": down}
        t_grid, word = linalg.flag(field, n, {key: _sparse(a) for key, a in mats.items()})
        assert t_grid is None
        letters, j, image = word
        assert len(letters) == n and set(letters) <= set(mats)
        vector = [[one if i == j else zero] for i in range(n)]
        for key in reversed(letters):
            vector = _grid_product(mats[key], vector, field)
        assert [row[0] for row in vector] == image
        assert any(not v.is_zero() for v in image)


def test_properties_imports_no_private_linalg_name():
    # the flat integer vectors of the flag stay behind linalg's public functions
    import ast
    import pathlib

    from kellerlab import properties

    tree = ast.parse(pathlib.Path(properties.__file__).read_text())
    leaked = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "linalg"
              for alias in node.names if alias.name.startswith("_")]
    leaked += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "linalg"
               and node.attr.startswith("_")]
    assert not leaked


# -- the flat-vector basis against the nested-vector basis it replaced ----------

def _nested_primitive(coords, den=0):
    if not all(type(c) is int for e in coords for c in e):
        scale = math.lcm(*(c.denominator for e in coords for c in e))
        coords, den = [[int(c * scale) for c in e] for e in coords], den * scale
    g = math.gcd(den, *(c for e in coords for c in e))
    if g > 1:
        coords, den = [[c // g for c in e] for e in coords], den // g
    return den, coords


def _nested_extends(field, basis, coords):
    """Echelon over K on lists of per-entry coordinate lists, products by Field.times."""
    v = _nested_primitive(coords)[1]
    for p, row in basis:
        c = v[p]
        if any(c):
            v = _nested_primitive([[x - y for x, y in zip(field.times(row[p], a),
                                                          field.times(c, b))]
                                   for a, b in zip(v, row)])[1]
    p = next((k for k, e in enumerate(v) if any(e)), None)
    if p is not None:
        basis.append((p, v))
    return p is not None


def _nested_adapted_basis(chain, field, n):
    """The basis routine on (den, [[n_k] per entry]) vectors, as it was before the
    vectors were flattened."""
    units = [(1, [[int(i == j)] + [0] * (field.degree - 1) for i in range(n)])
             for j in range(n)]
    vectors, basis, picked = chain + units, [], []
    for k, (_, coords) in enumerate(vectors):
        if len(picked) < n and _nested_extends(field, basis, coords):
            picked.append(k)
    cols = ([vectors[p] for p in picked if p >= len(chain)]
            + [vectors[p] for p in reversed(picked) if p < len(chain)])
    return PolyMatrix.from_scalars(field, n, [
        [field.element([Fraction(c, den) for c in coords[i]]) for den, coords in cols]
        for i in range(n)])


def _random_orthogonal_certificate(rng, field, n):
    """c_j^t b_i = 0 for i >= j: c_i lives on the coordinates before a cut p_i and
    b_i from p_i on, p nondecreasing; a b_i may be a multiple in K of the b before
    it (same cut), so Q-independent vectors can be K-dependent.  Most are then
    moved by b -> S b, c -> S^{-t} c for a random invertible S."""
    cuts = sorted(rng.randint(1, n - 1) for _ in range(rng.randint(1, n + 1)))
    triples = []
    for p in cuts:
        if triples and triples[-1][0] == p and rng.random() < 0.4:
            b = [x * _random_scalar(rng, field) for x in triples[-1][2]]
        else:
            b = [_random_scalar(rng, field) if k >= p else field.zero() for k in range(n)]
        c = [_random_scalar(rng, field) if k < p else field.zero() for k in range(n)]
        triples.append((p, c, b))
    s_grid = linalg.identity_grid(field, n)
    if rng.random() < 0.7:
        s_grid = _random_invertible(rng, field, n, (-1, 0, 0, 1, 2, Fraction(1, 2))).constant_grid()
    inv = linalg.invert(s_grid, field)
    zero = field.zero()
    moved = [(LinearForm(field, [sum((inv[r][k] * c[r] for r in range(n)), zero)
                                 for k in range(n)]),
              rng.randint(1, 3),
              [sum((s_grid[k][r] * b[r] for r in range(n)), zero) for k in range(n)])
             for _, c, b in triples]
    return StarCertificate("star", moved)


def test_flat_adapted_basis_matches_nested_basis_fuzz():
    # triangularization_from_certificate on flat vectors with t-multiples gives
    # the T of the nested-vector routine, byte for byte, over four fields
    import random

    rng = random.Random(1996)
    dependent = {}
    for field, trials in zip(_FLAG_FIELDS, (60, 50, 30, 50)):
        for _ in range(trials):
            n = rng.randint(2, 5)
            cert = _random_orthogonal_certificate(rng, field, n)
            chain = [_numerators(b) for _, _, b in reversed(cert.triples)]
            expected = _nested_adapted_basis(chain, field, n)
            t_matrix = triangularization_from_certificate(cert, n)
            assert (serialize.dumps(serialize.matrix_to_json(t_matrix))
                    == serialize.dumps(serialize.matrix_to_json(expected))), (field, cert.triples)
            t_grid = linalg.adapted_basis(field, n, [b for _, _, b in reversed(cert.triples)])
            assert (serialize.dumps(serialize.matrix_to_json(PolyMatrix.from_scalars(field, n, t_grid)))
                    == serialize.dumps(serialize.matrix_to_json(expected))), (field, cert.triples)
            # K-dependent b_i, mostly by a multiple outside Q: the t-multiples decide them
            nonzero = [b for _, _, b in cert.triples if any(not x.is_zero() for x in b)]
            dependent[field] = dependent.get(field, 0) + (
                linalg.rank([list(b) for b in nonzero]) < len(nonzero))
    for field in _FLAG_FIELDS:
        assert dependent[field] >= 5, field


# -- quasi-translation by JH H = 0 against the residual H(x - H) - H -----------

def _residual(h):
    return map_compose(h, PolyMap.identity(h.field, h.nvars) - h) - h


def _jh_h(h):
    """The rows of JH H, by the operators alone."""
    return [sum((e * c for e, c in zip(row, h.components)), MultiPoly.zero(h.field, h.nvars))
            for row in jacobian(h).entries]


def _assert_jh_h_witness(h, witness):
    rows = _jh_h(h)
    index = next(i for i, row in enumerate(rows) if not row.is_zero())
    assert witness == {"kind": "jh_h_entry", "index": index, "value": rows[index]}, h


def _assert_quasi_agrees(h):
    residual = _residual(h)
    f = plus_identity(h)
    assert is_quasi_translation(f) == residual.is_zero(), h
    assert all(row.is_zero() for row in _jh_h(h)) == residual.is_zero(), h
    rep = chain_report(f, checks=["quasi", "jc_minus"])
    if residual.is_zero():
        assert rep.verdict("quasi") == HOLDS
        assert rep.witness("jc_minus")["map"] == PolyMap.identity(h.field, h.nvars) - h
    else:
        assert rep.verdict("quasi") == FAILS
        _assert_jh_h_witness(h, rep.witness("quasi"))
    return residual.is_zero()


def _random_map(rng, field, n, degree=2):
    """Any monomials up to `degree`, constant and linear terms included."""
    comps = []
    for _ in range(n):
        items = []
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(n)] += 1
            items.append((tuple(exps), _random_scalar(rng, field)))
        comps.append(MultiPoly.from_terms(field, n, items))
    return PolyMap(comps)


def _first_row_quasi(rng, field, n):
    """H = f(x2, ..., xn) e1, constant and linear terms of f included."""
    f = _random_map(rng, field, n, degree=3).components[0]
    f = MultiPoly(field, n, {e: c for e, c in f.terms.items() if e[0] == 0})
    return PolyMap([f] + [MultiPoly.zero(field, n)] * (n - 1))


def test_quasi_by_jh_h_matches_residual_fuzz():
    import random

    rng = random.Random(1996)
    zeta3 = Field(cyclotomic(3))
    quasi = []
    for field in (QQ, zeta3):
        for _ in range(30):
            quasi.append(_assert_quasi_agrees(_random_map(rng, field, rng.randint(1, 4))))
        for spec in (FamilySpec("n4", 3), FamilySpec("small2", 3), FamilySpec("small3", 3),
                     FamilySpec("nonhomog_n4", 3)):
            h = PolyMap([lift_to_field(c, field) for c in make_family(spec).components])
            t_matrix = _random_invertible(rng, field, h.nvars, (-1, 0, 1, 1, 2))
            assert _assert_quasi_agrees(conjugate(h, t_matrix)), spec
        for _ in range(6):
            n = rng.randint(2, 4)
            h = _first_row_quasi(rng, field, n)
            t_matrix = _random_invertible(rng, field, n, (-1, 0, 1, 1, 2))
            assert _assert_quasi_agrees(conjugate(h, t_matrix))
            # one more term in another component spoils it, mostly
            spoiled = PolyMap([h.components[0], *h.components[1:-1],
                               h.components[-1] + _random_map(rng, field, n).components[0]])
            quasi.append(_assert_quasi_agrees(conjugate(spoiled, t_matrix)))
    assert 5 <= sum(quasi) <= len(quasi) - 30


def _hypothesis_maps():
    from hypothesis import strategies as st

    def build(n, items):
        comps = [MultiPoly.from_terms(QQ, n, [(exps, c) for i, exps, c in items if i == k])
                 for k in range(n)]
        return PolyMap(comps)

    def for_n(n):
        term = st.tuples(st.integers(0, n - 1),
                         st.tuples(*[st.integers(0, 2)] * n),
                         st.fractions(min_value=-3, max_value=3, max_denominator=3))
        return st.lists(term, max_size=4).map(lambda items: build(n, items))

    return st.integers(1, 3).flatmap(for_n)


def test_quasi_by_jh_h_matches_residual_property():
    from hypothesis import given, settings

    @settings(max_examples=150, deadline=None)
    @given(_hypothesis_maps())
    def check(h):
        _assert_quasi_agrees(h)

    check()


def test_levels_follow_the_chain_property():
    # *** => ** => *, and (*) needs strong nilpotence once H(0) = 0
    from hypothesis import given, settings

    @settings(max_examples=150, deadline=None)
    @given(_hypothesis_maps())
    def check(h):
        rep = chain_report(plus_identity(h),
                           checks=["strong_nilpotent", "star", "doublestar", "triplestar"])
        if HOLDS in (rep.verdict("doublestar"), rep.verdict("triplestar")):
            assert rep.verdict("star") == HOLDS, h
        if rep.verdict("strong_nilpotent") == FAILS and h.vanishes_at_origin():
            assert {rep.verdict(level) for level in ("star", "doublestar", "triplestar")} \
                == {FAILS}, h

    check()


# -- the sum condition against the symbolic determinant it replaced ------------

def _reference_point_witness(jf, det, count):
    """The pattern search on the determinant in n + count n variables."""
    from kellerlab.properties import _pattern_points, _univariate_rational_roots

    n, field = jf.nvars, jf.field
    total = n + count * n
    if det.is_zero():
        return field, [[field.zero()] * n for _ in range(count)]
    if not field.is_rational:
        return None
    for m in range(n):
        for j in range(n):
            if j == m:
                continue
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
                    continue
            if roots:
                return field, _pattern_points(field, n, count, m, j, field.scalar(roots[0]))
            if restricted.degree() == 2:
                c2, c1, c0 = (restricted.terms.get((k,), field.zero()).as_rational()
                              for k in (2, 1, 0))
                ext = Field([c0 / c2, c1 / c2, 1])
                return ext, _pattern_points(ext, n, count, m, j, ext.generator())
    return None


def _at_fresh_points(jac, count):
    """Copies of `jac` at `count` tuples of fresh indeterminates, by renaming x_j to
    coordinate j of point b: n + count n variables, x and then v_1, ..., v_count."""
    n = jac.nvars
    total = n + count * n
    return [jac.map_entries(lambda e, b=b: rename_variables(e, range(n + b * n, n + b * n + n),
                                                            total))
            for b in range(count)]


def _reference_sum_condition(jf, count, label):
    """The route before the generic sum: the determinant in n + count n
    variables decides holds, and the patterns are substituted into it."""
    det = matrix_det(reduce(operator.add, _at_fresh_points(jf, count)))
    report = PropertyReport()
    if det.is_constant() and not det.is_zero():
        return report.record(label, HOLDS,
                             note=f"determinant is the constant {det.constant_value()!r}")
    found = _reference_point_witness(jf, det, count)
    if found is not None:
        field, points = found
        assert _sum_vanishes_at(jf, field, points)
        return report.record(label, FAILS, witness={"kind": "points", "field": field,
                                                    "points": points},
                             note="determinant vanishes at the witness points")
    return report.record(label, FAILS, witness={"kind": "symbolic_determinant",
                                                "determinant": det},
                         note="determinant is not a nonzero constant")


def _random_jacobian_map(rng, field, n, degree):
    """x + H with H of degree <= `degree`, linear terms included; a third of the
    draws strictly triangular, so their summed determinant is count^n."""
    triangular = rng.random() < 0.35
    comps = []
    for i in range(n):
        items = []
        upper = i if triangular else n
        for _ in range(rng.randint(0, 3) if upper else 0):
            exps = [0] * n
            for _ in range(rng.randint(1, degree)):
                exps[rng.randrange(upper)] += 1
            items.append((tuple(exps), _random_scalar(rng, field)))
        comps.append(MultiPoly.from_terms(field, n, items))
    return plus_identity(PolyMap(comps))


def _assert_sum_condition_agrees(f, count, outcomes):
    from kellerlab.properties import _sum_condition

    jf = jacobian(f)
    got = PropertyReport().record("jc", *_sum_condition(jf, count))
    expected = _reference_sum_condition(jf, count, "jc")
    assert (got.conditions, got.witnesses, got.notes) == \
        (expected.conditions, expected.witnesses, expected.notes), (count, f)
    assert (serialize.dumps(serialize.report_to_json(got))
            == serialize.dumps(serialize.report_to_json(expected)))
    witness = got.witness("jc")
    kind = None if witness is None else witness["kind"]
    if kind == "points":
        kind = ("zero points" if all(v.is_zero() for p in witness["points"] for v in p)
                else "extension points" if witness["field"] != f.field else "points")
    outcomes.append((got.verdict("jc"), kind))


def test_sum_condition_matches_symbolic_determinant_fuzz():
    # the generic sum, the restricted patterns and the fallback give the whole
    # report of the determinant in n + count n variables, byte for byte
    import random

    rng = random.Random(1958)
    outcomes = []
    zeta3 = Field(cyclotomic(3))
    for spec, counts in ((FamilySpec("n4", 3), (1, 2, 4)), (FamilySpec("n5", 2), (1, 2)),
                         (FamilySpec("nonhomog_n4", 3), (1, 2, 4)),
                         (FamilySpec("nonhomog_n5", 2), (1, 3))):
        h = make_family(spec)
        for _ in range(3):
            hidden = plus_identity(conjugate(h, _dense_sign_matrix(rng, QQ, h.nvars)))
            for count in counts:
                _assert_sum_condition_agrees(hidden, count, outcomes)
    for field, trials in ((QQ, 60), (zeta3, 12)):
        for _ in range(trials):
            n = rng.randint(1, 3)
            f = _random_jacobian_map(rng, field, n, rng.choice((2, 3)))
            _assert_sum_condition_agrees(f, rng.randint(1, n), outcomes)
    lifted = PolyMap([lift_to_field(c, zeta3) for c in make_family(FamilySpec("n4", 3)).components])
    _assert_sum_condition_agrees(plus_identity(lifted), 2, outcomes)
    # det JF = 1 - x1 vanishes on the first pattern, e_1 + s e_2, but not identically
    x1, x2 = variables(QQ, 2)
    for count in (1, 2):
        _assert_sum_condition_agrees(PolyMap([x1 - x1 ** 2 * Fraction(1, 2), x2]), count,
                                     outcomes)
        assert outcomes[-1] == (FAILS, "points")
    # summed determinants that vanish identically, over Q and over Q(zeta_3)
    for field in (QQ, zeta3):
        _assert_sum_condition_agrees(PolyMap([MultiPoly.zero(field, 1)]), 1, outcomes)
        x1, x2, x3 = variables(field, 3)
        for count in (1, 2, 3):
            _assert_sum_condition_agrees(PolyMap([x1, x1, x3]), count, outcomes)
            _assert_sum_condition_agrees(PolyMap([x1 ** 2, x2, x1 * x2 * 2]), count, outcomes)
    kinds = {kind for _, kind in outcomes}
    assert {None, "points", "zero points", "extension points", "symbolic_determinant"} <= kinds
    assert 20 <= sum(verdict == HOLDS for verdict, _ in outcomes) <= len(outcomes) - 40


def test_fresh_point_constructions_match_renamed_copies():
    # the sum through G at the power sums and the product of JH at the point
    # blocks equal copies of JF and JH renamed into n + count n variables
    import random

    rng = random.Random(2013)
    zeta3 = Field(cyclotomic(3))
    n4 = make_family(FamilySpec("n4", 3))
    maps = [make_family(FamilySpec(kind, d)) for kind, d in (("n4", 3), ("n5", 2),
                                                             ("nonhomog_n4", 3))]
    maps.append(PolyMap([lift_to_field(c, zeta3) for c in n4.components]))
    for h in maps:
        hidden = conjugate(h, _dense_sign_matrix(rng, h.field, h.nvars))
        jf, jh = jacobian(plus_identity(hidden)), jacobian(hidden)
        for count in range(1, h.nvars + 1):
            assert (substituted_jacobian_sum(plus_identity(hidden), count)
                    == reduce(operator.add, _at_fresh_points(jf, count))), (count, h)
            assert (strong_nilpotence_product(hidden, count)
                    == reduce(operator.matmul, _at_fresh_points(jh, count))), (count, h)


def test_quasi_translations_are_keller_and_nilpotent():
    # JH H = 0 proves keller and nilpotent without a determinant or a power;
    # both agree with matrix_det(JF) and JH^n, also where the flag fails (n4)
    import random

    rng = random.Random(2006)
    zeta3 = Field(cyclotomic(3))
    maps = []
    for field in (QQ, zeta3):
        for spec in (FamilySpec("n4", 3), FamilySpec("n4", 4), FamilySpec("nonhomog_n4", 3),
                     FamilySpec("small3", 3)):
            h = PolyMap([lift_to_field(c, field) for c in make_family(spec).components])
            maps.append(conjugate(h, _random_invertible(rng, field, h.nvars, (-1, 0, 1, 1, 2))))
        for _ in range(8):
            n = rng.randint(2, 4)
            t_matrix = _random_invertible(rng, field, n, (-1, 0, 1, 1, 2))
            maps.append(conjugate(_first_row_quasi(rng, field, n), t_matrix))
    flag_fails = 0
    for h in maps:
        f = plus_identity(h)
        assert is_quasi_translation(f), h
        rep = chain_report(f, checks=["keller", "nilpotent"])
        det = matrix_det(jacobian(f))
        assert rep.verdict("keller") == (HOLDS if det.is_constant() and not det.is_zero()
                                         else FAILS), h
        assert det == MultiPoly.constant(h.field, h.nvars, 1)
        assert rep.verdict("nilpotent") == (HOLDS if jacobian(h).power(h.nvars).is_zero()
                                            else FAILS), h
        assert rep.witnesses == {} and rep.notes == {}
        flag_fails += _strong_nilpotence_flag(jacobian(h))[0] is None
    assert flag_fails >= 4
