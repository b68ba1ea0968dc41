"""The integer kernels of the certificate layer against the scalar code they replaced.

Powers of affine forms (the multinomial expansion in `MultiPoly.__pow__`),
`is_pure_power` by one expansion, the orthogonality test on numerators, the
component-span generator and the strong-nilpotence word re-check.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab import cli, linalg
from kellerlab.constructions import FamilySpec, family_certificate, make_family
from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import LinearForm, MultiPoly, divide_exact, is_pure_power
from kellerlab.polymap import PolyMap, PolyMatrix, conjugate, jacobian
from kellerlab.properties import (StarCertificate, _orthogonality_failure, _span_generator,
                                  _strong_nilpotence_flag, certificate_failure)

# Q, two cyclotomic fields, a non-integral fold t^2 = -9/2 and the ring Q[t]/(t^2)
_POWER_RINGS = (QQ, Field(cyclotomic(3)), Field(cyclotomic(5)),
                Field([Fraction(9, 2), 0, 1]), Field([0, 0, 1]))
_FIELDS = _POWER_RINGS[:3]


def _random_element(rng, field, zero_rate=1 / 3):
    """Zero with probability zero_rate, otherwise a nonzero element."""
    if rng.random() < zero_rate:
        return field.zero()
    while True:
        value = field.element([0 if rng.random() < 1 / 3
                               else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(field.degree)])
        if not value.is_zero():
            return value


def _repeated_product(poly, d):
    result = MultiPoly.constant(poly.field, poly.nvars, 1)
    for _ in range(d):
        result = result * poly
    return result


def _check_power(poly, d):
    got = poly ** d
    assert got.terms == _repeated_product(poly, d).terms
    assert all(type(c) is Fraction for s in got.terms.values() for c in s.coords)
    assert all(not s.is_zero() for s in got.terms.values())


# -- powers of affine forms ------------------------------------------------------

def _random_affine(rng, field, nvars):
    items = [(tuple(int(i == j) for i in range(nvars)), _random_element(rng, field, 0.4))
             for j in range(nvars)]
    if rng.random() < 0.5:
        items.append(((0,) * nvars, _random_element(rng, field, 0)))
    return MultiPoly.from_terms(field, nvars, items)


def test_affine_power_matches_repeated_product_fuzz():
    rng = random.Random(1010)
    for trial in range(400):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        poly = _random_affine(rng, field, rng.randint(1, 6))
        d = rng.randint(0, 8)
        while d > 1 and math.comb(d + len(poly.terms) - 1, d) > 500:
            d -= 1  # keeps the reference product quick
        _check_power(poly, d)


def test_affine_power_examples():
    field = Field(cyclotomic(3))
    zeta = field.generator()
    x1, x2 = (MultiPoly.variable(field, 2, i) for i in range(2))
    # (x1 + zeta x2)^3 = x1^3 + 3 zeta x1^2 x2 + 3 zeta^2 x1 x2^2 + x2^3
    assert (x1 + x2 * zeta) ** 3 == x1 ** 3 + x1 * x1 * x2 * (zeta * 3) \
        + x1 * x2 * x2 * (zeta * zeta * 3) + x2 * x2 * x2
    # (t x1 + 1)^4 = 4 t x1 + 1 modulo t^2
    ring = Field([0, 0, 1])
    t = ring.generator()
    y = MultiPoly.variable(ring, 1, 0)
    assert (y * t + 1) ** 4 == y * (t * 4) + 1
    assert (y * t) ** 2 == MultiPoly.zero(ring, 1)
    # a lone constant and a lone monomial take the same path
    third = MultiPoly.constant(QQ, 3, Fraction(2, 3))
    assert third ** 5 == MultiPoly.constant(QQ, 3, Fraction(32, 243))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_POWER_RINGS), st.integers(1, 4), st.integers(0, 6), st.data())
def test_affine_power_matches_repeated_product_property(field, nvars, d, data):
    coords = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=8),
                      min_size=field.degree, max_size=field.degree)
    items = data.draw(st.lists(st.tuples(st.integers(-1, nvars - 1), coords), max_size=nvars + 1))
    poly = MultiPoly.from_terms(field, nvars, [(tuple(int(i == v) for i in range(nvars)),
                                                field.element(c)) for v, c in items])
    _check_power(poly, d)


# -- is_pure_power by one expansion --------------------------------------------

def _pure_power_by_derivatives(poly):
    """The derivative-quotient version `is_pure_power` replaced."""
    field, nvars = poly.field, poly.nvars
    if poly.is_zero():
        return LinearForm.zero_form(field, nvars), 1, field.zero()
    d = poly.degree()
    if d < 1:
        return None
    derivs = [poly.partial_derivative(i) for i in range(nvars)]
    pivot = next((i for i, g in enumerate(derivs) if not g.is_zero()), None)
    if pivot is None:
        return None
    coeffs = [field.zero()] * nvars
    coeffs[pivot] = field.one()
    for j in range(nvars):
        if j == pivot or derivs[j].is_zero():
            continue
        ratio = divide_exact(derivs[j], derivs[pivot])
        if ratio is None or not ratio.is_constant():
            return None
        coeffs[j] = ratio.constant_value()
    form = LinearForm(field, coeffs)
    base = _repeated_product(form.to_poly(), d)
    lead = max(poly.terms)
    base_lead = base.terms.get(lead)
    if base_lead is None:
        return None
    lam = poly.terms[lead] / base_lead
    if poly != base * lam:
        return None
    return form, d, lam


def _random_form(rng, field, nvars):
    return LinearForm(field, [_random_element(rng, field, 0.5) for _ in range(nvars)])


def _pure_power_cases(rng, field, nvars):
    d = rng.randint(1, 5)
    lam = _random_element(rng, field, 0)
    power = _random_form(rng, field, nvars).to_poly() ** d * lam
    other = _random_form(rng, field, nvars).to_poly() ** d * _random_element(rng, field, 0)
    bump = MultiPoly.from_terms(field, nvars, [(tuple(rng.randint(0, d) for _ in range(nvars)),
                                                _random_element(rng, field, 0))])
    lower = _random_form(rng, field, nvars).to_poly() ** rng.randint(0, d)
    return [power, power + bump, power + other, power + lower, power * lam + lower * lam]


def test_pure_power_matches_derivative_quotients_fuzz():
    rng = random.Random(2020)
    found = 0
    for trial in range(150):
        field = _FIELDS[trial % len(_FIELDS)]
        for poly in _pure_power_cases(rng, field, rng.randint(1, 5)):
            got, want = is_pure_power(poly), _pure_power_by_derivatives(poly)
            assert (got is None) == (want is None), poly
            if got is not None:
                found += 1
                assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
    assert found > 150


def test_pure_power_reads_the_factor_d():
    x1, x2, x3 = (MultiPoly.variable(QQ, 3, i) for i in range(3))
    poly = (x1 + x2 * 2 - x3) ** 4 * Fraction(3, 2)
    form, d, lam = is_pure_power(poly)
    assert d == 4 and lam == QQ.scalar(Fraction(3, 2))
    assert form == LinearForm(QQ, [1, 2, -1])
    assert is_pure_power(poly + x2 ** 3) is None
    assert is_pure_power(poly + x3 ** 4) is None


# -- orthogonality on numerators -------------------------------------------------

def _orthogonality_by_dot(cert):
    """The `LinearForm.dot` loop `_orthogonality_failure` replaced."""
    for i in range(cert.count):
        for j in range(i + 1):
            if not cert.triples[j][0].dot(cert.triples[i][2]).is_zero():
                return f"({i + 1},{j + 1})"
    return None


def _random_orthogonal_certificate(rng, field, n):
    """N <= n - 1 triples with c_j^t b_i = 0 for i >= j, b_i from the null space."""
    forms, triples = [], []
    for _ in range(rng.randint(1, n - 1)):
        forms.append(_random_form(rng, field, n))
        null = linalg.nullspace([list(c.coeffs) for c in forms], n, field)
        b = [field.zero()] * n
        for v in null:
            scale = _random_element(rng, field, 0.3)
            b = [x + scale * y for x, y in zip(b, v)]
        triples.append((forms[-1], rng.randint(1, 3), b))
    return triples


def test_orthogonality_matches_dot_loop_fuzz():
    rng = random.Random(3030)
    broken = 0
    for trial in range(240):
        field = _FIELDS[trial % len(_FIELDS)]
        triples = _random_orthogonal_certificate(rng, field, rng.randint(2, 6))
        cert = StarCertificate("star", triples)
        assert _orthogonality_failure(cert) == _orthogonality_by_dot(cert)
        i = rng.randrange(len(triples))
        j = rng.randint(0, i)
        c, d, b = triples[i]
        form = triples[j][0]
        k = next((k for k, v in enumerate(form.coeffs) if not v.is_zero()), None)
        if k is None:
            continue
        b = list(b)
        b[k] = b[k] + _random_element(rng, field, 0)
        cert = StarCertificate("star", triples[:i] + [(c, d, b)] + triples[i + 1:])
        want = _orthogonality_by_dot(cert)
        assert want is not None
        assert _orthogonality_failure(cert) == want
        broken += 1
    assert broken > 150


def test_orthogonality_needs_the_fold():
    # c^t b = zeta * zeta + (1 + zeta) = zeta^2 + zeta + 1 = 0 only modulo m
    field = Field(cyclotomic(3))
    zeta = field.generator()
    c = LinearForm(field, [zeta, 1, 0])
    b = [zeta, 1 + zeta, 0]
    cert = StarCertificate("star", [(c, 2, b)])
    assert _orthogonality_failure(cert) is None
    cert = StarCertificate("star", [(c, 2, [zeta, zeta, 0])])
    assert _orthogonality_failure(cert) == "(1,1)"


def test_family_certificates_keep_their_diagnostics():
    for spec in (FamilySpec("f666", 6), FamilySpec("f667", 4), FamilySpec("f666", 3, nu=0)):
        cert = family_certificate(spec)
        assert _orthogonality_failure(cert) is None
        c, d, b = cert.triples[0]
        swapped = StarCertificate(cert.level,
                                  [(c, d, cert.triples[-1][2])] + list(cert.triples[1:]))
        assert _orthogonality_failure(swapped) == _orthogonality_by_dot(swapped)
        assert certificate_failure(PolyMap([MultiPoly.zero(cert.field, cert.nvars)] * cert.nvars),
                                   swapped) == "sum mismatch"


# -- the component span without rref -------------------------------------------

def _component_span(map_):
    """The rref basis of the components' span that `_span_generator` replaced."""
    monomials = sorted({e for comp in map_.components for e in comp.terms})
    rows = [[comp.terms.get(e, map_.field.zero()) for e in monomials] for comp in map_.components]
    reduced, pivots = linalg.rref(rows)
    return [MultiPoly(map_.field, map_.nvars, {e: v for e, v in zip(monomials, reduced[r])
                                               if not v.is_zero()})
            for r in range(len(pivots))]


def _random_poly(rng, field, nvars):
    items = [(tuple(rng.randint(0, 3) for _ in range(nvars)), _random_element(rng, field, 0))
             for _ in range(rng.randint(1, 5))]
    return MultiPoly.from_terms(field, nvars, items)


def test_span_generator_matches_rref_fuzz():
    rng = random.Random(4040)
    lines = 0
    for trial in range(200):
        field = _FIELDS[trial % len(_FIELDS)]
        n = rng.randint(2, 5)
        g = _random_poly(rng, field, n)
        comps = [g * _random_element(rng, field, 0.3) for _ in range(n)]
        if trial % 2:
            k = rng.randrange(n)  # a second direction, or the same one again
            comps[k] = comps[k] + (_random_poly(rng, field, n) if trial % 4 == 1 else g)
        if all(c.is_zero() for c in comps):
            continue
        map_ = PolyMap(comps)
        basis = _component_span(map_)
        got = _span_generator(map_)
        if len(basis) == 1:
            lines += 1
            assert got is not None and got.terms == basis[0].terms
        else:
            assert got is None
    assert 60 < lines < 190


# -- the strong-nilpotence word re-check ---------------------------------------

def test_word_recheck_on_hidden_families():
    # rejected with a word witness: its image is the word applied to the unit
    for kind, d, t in (("n5", 2, [[-1, 0, -1, 0, 0], [0, 0, 0, 1, -1], [0, 1, 1, 0, 0],
                                  [-1, 0, 0, 0, -1], [-1, -1, 0, 0, 0]]),
                       ("n4", 3, [[0, 1, -1, 0], [1, 0, 1, 0], [0, 0, -1, 1], [0, -1, -1, 0]])):
        h = make_family(FamilySpec(kind, d))
        jh = jacobian(conjugate(h, PolyMatrix.from_scalars(h.field, h.nvars, t)))
        t_matrix, word = _strong_nilpotence_flag(jh)
        assert t_matrix is None and len(word["word"]) == h.nvars
        zero = h.field.zero()
        check = [h.field.one() if i == word["unit"] else zero for i in range(h.nvars)]
        for m in reversed(word["word"]):
            check = [sum((row[c].terms.get(tuple(m), zero) * check[c]
                          for c in range(h.nvars)), zero)
                     for row in jh.entries]
        assert check == word["image"] and any(not v.is_zero() for v in check)


# -- the parser ---------------------------------------------------------------

def test_parser_is_built_once_and_reused(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["gz-verify"]) == 0
    assert cli.main(["gz-verify"]) == 0
    assert capsys.readouterr().out == "gz example: holds\n" * 2
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
