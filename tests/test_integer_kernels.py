"""The integer kernels against the scalar code they replaced.

The sum-of-products kernel and the loops it replaced in determinants, matrix
products, substitution and linear combinations; substitution of many
polynomials under one assignment and the batched triangular inverse;
partial derivatives on coordinates; powers of affine forms (the
multinomial expansion in `MultiPoly.__pow__`), `is_pure_power` by one
expansion, the orthogonality test on numerators, the component-span generator
and the single-term oracle built on it, and the strong-nilpotence word re-check.
"""

import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab import cli, linalg
from kellerlab.constructions import FamilySpec, family_certificate, make_family
from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import (LinearForm, MultiPoly, divide_exact, is_pure_power,
                                 substitute_all, sums_of_products)
from kellerlab.polymap import (PolyMap, PolyMatrix, conjugate, invert_triangular, jacobian,
                               linear_combinations, map_compose, matrix_det, plus_identity)
from kellerlab.properties import (FAILS, HOLDS, StarCertificate, _orthogonality_failure,
                                  _span_generator, _strong_nilpotence_flag,
                                  certificate_failure, chain_report)

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


# -- the sum-of-products kernel ----------------------------------------------------

def _term_product(a, b):
    """a b term by term on Scalars, b a MultiPoly or a Scalar: no integer kernel."""
    right = b.terms if isinstance(b, MultiPoly) else {(0,) * a.nvars: b}
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in right.items():
            exps = tuple(map(add, e1, e2))
            terms[exps] = terms.get(exps, a.field.zero()) + c1 * c2
    return MultiPoly(a.field, a.nvars, {e: c for e, c in terms.items() if not c.is_zero()})


def _loop_sum(field, nvars, items):
    """The `acc = acc + a * b` loop the kernel replaced, weights as Scalars."""
    acc = MultiPoly.zero(field, nvars)
    for w, a, b in items:
        acc = acc + _term_product(_term_product(a, b), field.scalar(w))
    return acc


def _check_canonical(poly):
    assert all(not s.is_zero() for s in poly.terms.values())
    assert all(type(c) is Fraction for s in poly.terms.values() for c in s.coords)


def _check_sums(field, nvars, sums):
    got = sums_of_products(field, nvars, sums)
    assert len(got) == len(sums)
    for poly, items in zip(got, sums):
        assert poly.terms == _loop_sum(field, nvars, items).terms
        _check_canonical(poly)


def _random_operand(rng, field, nvars):
    shape = rng.random()
    if shape < 0.1:
        return MultiPoly.zero(field, nvars)
    if shape < 0.3:
        return _random_element(rng, field, 0.2)  # a bare Scalar
    return _random_poly(rng, field, nvars)


def _random_sum(rng, field, nvars):
    items = []
    for _ in range(rng.randint(0, 5)):
        w = rng.choice([1, -1, 0, rng.randint(-9, 9), rng.randint(-10 ** 30, 10 ** 30)])
        a, b = _random_poly(rng, field, nvars), _random_operand(rng, field, nvars)
        if rng.random() < 0.1:
            a = MultiPoly.zero(field, nvars)
        items.append((w, a, b))
        if rng.random() < 0.3:  # the same product again, weighted to cancel
            items += [(-w, a, b)] if rng.random() < 0.5 else [(-2 * w, a, b), (w, a, b)]
    return items


def test_sums_of_products_match_the_loop_fuzz():
    rng = random.Random(5050)
    for trial in range(300):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        nvars = rng.randint(1, 4)
        _check_sums(field, nvars, [_random_sum(rng, field, nvars) for _ in range(rng.randint(1, 3))])


def test_sums_of_products_edge_cases():
    field = Field([Fraction(9, 2), 0, 1])
    x, y = (MultiPoly.variable(field, 2, i) for i in range(2))
    half_t = field.element([0, Fraction(1, 2)])
    a = x * half_t + Fraction(1, 3)
    assert sums_of_products(field, 2, []) == []
    assert sums_of_products(field, 2, [[]]) == [MultiPoly.zero(field, 2)]
    zero = MultiPoly.zero(field, 2)
    assert sums_of_products(field, 2, [[(1, zero, a), (1, a, zero), (0, a, a),
                                        (1, a, field.zero())]])[0].is_zero()
    # weights cancelling to zero, and a difference of squares that cancels inside one sum
    assert sums_of_products(field, 2, [[(3, a, y), (-1, a, y), (-2, y, a)]])[0].is_zero()
    assert sums_of_products(field, 2, [[(1, a, a), (-1, x * half_t, x * half_t),
                                        (-2, x * half_t, field.scalar(Fraction(1, 3))),
                                        (-1, a - a + Fraction(1, 3), field.scalar(Fraction(1, 3)))]
                                       ])[0].is_zero()
    big = 10 ** 40 + 7
    _check_sums(field, 2, [[(big, a, y), (-big + 1, a, y)], [(big, a, half_t), (1, y, a)]])
    # pairs over very different denominators share one lcm
    _check_sums(QQ, 1, [[(1, MultiPoly.constant(QQ, 1, Fraction(1, 6)), QQ.scalar(Fraction(1, 10))),
                         (-1, MultiPoly.constant(QQ, 1, Fraction(1, 4)), QQ.scalar(Fraction(1, 15))),
                         (5, MultiPoly.variable(QQ, 1, 0), QQ.scalar(Fraction(1, 7)))]])


_PROPERTY_COORDS = st.fractions(min_value=-12, max_value=12, max_denominator=10)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_POWER_RINGS), st.data())
def test_sums_of_products_match_the_loop_property(field, data):
    coords = st.lists(_PROPERTY_COORDS, min_size=field.degree, max_size=field.degree)
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 2), coords), max_size=4)
    poly = terms.map(lambda items: MultiPoly.from_terms(
        field, 2, [(e, field.element(c)) for e, c in items]))
    operand = st.one_of(poly, coords.map(field.element))
    weight = st.one_of(st.integers(-3, 3), st.integers(-10 ** 25, 10 ** 25))
    sums = data.draw(st.lists(st.lists(st.tuples(weight, poly, operand), max_size=4),
                              min_size=1, max_size=3))
    _check_sums(field, 2, sums)


def _det_by_loop(grid, field, nvars):
    """Laplace expansion along the first row with the `acc = acc + a * b` loop."""
    if len(grid) == 1:
        return grid[0][0]
    acc = MultiPoly.zero(field, nvars)
    for j, e in enumerate(grid[0]):
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        acc = acc + _term_product(_term_product(e, _det_by_loop(minor, field, nvars)),
                                  field.scalar((-1) ** j))
    return acc


def _random_sparse_matrix(rng, field, rows, cols, nvars):
    return PolyMatrix([[MultiPoly.zero(field, nvars) if rng.random() < 0.3
                        else _random_poly(rng, field, nvars) for _ in range(cols)]
                       for _ in range(rows)])


def test_determinant_matches_the_loop_fuzz():
    rng = random.Random(6060)
    for trial in range(60):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        n, nvars = rng.randint(1, 4), rng.randint(1, 2)
        matrix = _random_sparse_matrix(rng, field, n, n, nvars)
        if trial % 4 == 0 and n > 1:  # a repeated row: the determinant is zero
            matrix = PolyMatrix(list(matrix.entries[:-1]) + [matrix.entries[0]])
        got = matrix_det(matrix)
        assert got.terms == _det_by_loop([list(r) for r in matrix.entries], field, nvars).terms
        _check_canonical(got)


def test_matrix_product_matches_the_loop_fuzz():
    rng = random.Random(7070)
    for trial in range(60):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        rows, inner, cols, nvars = (rng.randint(1, 3) for _ in range(4))
        a = _random_sparse_matrix(rng, field, rows, inner, nvars)
        b = _random_sparse_matrix(rng, field, inner, cols, nvars)
        got = a @ b
        for i in range(rows):
            for j in range(cols):
                want = _loop_sum(field, nvars, [(1, a.entries[i][k], b.entries[k][j])
                                                for k in range(inner)])
                assert got.entries[i][j].terms == want.terms
                _check_canonical(got.entries[i][j])


def _substitute_by_loop(poly, values, nvars):
    """The old substitution: one product per variable power, one addition per monomial."""
    acc = MultiPoly.zero(poly.field, nvars)
    for exps, coeff in poly.terms.items():
        term = MultiPoly.constant(poly.field, nvars, coeff)
        for value, e in zip(values, exps):
            for _ in range(e):
                term = _term_product(term, value)
        acc = acc + term
    return acc


def test_substitute_and_linear_combinations_match_the_loop_fuzz():
    rng = random.Random(8080)
    for trial in range(80):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        nvars, target = rng.randint(1, 3), rng.randint(1, 3)
        poly = _random_poly(rng, field, nvars)
        values = [_random_poly(rng, field, target) if rng.random() < 0.8
                  else MultiPoly.zero(field, target) for _ in range(nvars)]
        got = poly.substitute(values)
        assert got.terms == _substitute_by_loop(poly, values, target).terms
        _check_canonical(got)
        grid = [[_random_element(rng, field) for _ in range(nvars)] for _ in range(target)]
        got = linear_combinations(grid, values, MultiPoly.zero(field, target))
        for row, comb in zip(grid, got):
            assert comb.terms == _loop_sum(field, target, [(1, p, c)
                                                           for c, p in zip(row, values)]).terms
            _check_canonical(comb)


# -- many polynomials under one assignment ---------------------------------------

def _random_batch(rng, field, nvars):
    """Polynomials drawing most monomials from one small pool, some of them zero."""
    pool = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 4))]
    batch = []
    for _ in range(rng.randint(1, 5)):
        items = [(rng.choice(pool) if rng.random() < 0.7
                  else tuple(rng.randint(0, 3) for _ in range(nvars)),
                  _random_element(rng, field, 0)) for _ in range(rng.randint(0, 5))]
        batch.append(MultiPoly.from_terms(field, nvars, items))
    return batch


def test_substitute_all_matches_the_loop_fuzz():
    rng = random.Random(9191)
    for trial in range(200):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        nvars = rng.randint(0, 3)
        batch = _random_batch(rng, field, nvars)
        if trial % 3 == 0:  # a point of scalars, some zero, into the ring with no variables
            target, point = 0, [_random_element(rng, field) for _ in range(nvars)]
            got = substitute_all(batch, point, nvars=0)
            values = [MultiPoly.constant(field, 0, v) for v in point]
        else:
            target = rng.randint(1, 3)
            values = [_random_poly(rng, field, target) if rng.random() < 0.8
                      else MultiPoly.zero(field, target) for _ in range(nvars)]
            got = substitute_all(batch, values, nvars=target if not values else None)
        assert len(got) == len(batch)
        for poly, image in zip(batch, got):
            assert image.nvars == target
            assert image.terms == _substitute_by_loop(poly, values, target).terms
            assert image == poly.substitute(values, nvars=target)
            _check_canonical(image)


def test_substitute_all_checks_its_rings():
    x, y = (MultiPoly.variable(QQ, 2, i) for i in range(2))
    assert substitute_all([], [x, y]) == []
    with pytest.raises(ValueError, match="different rings"):
        substitute_all([x, MultiPoly.variable(QQ, 1, 0)], [x, y])
    with pytest.raises(ValueError, match="cover all variables"):
        substitute_all([x, y], [x])


def _invert_by_loop(f_map):
    """The sequential forward substitution G_i = x_i - H_i(G_1, ..., G_{i-1}, x_i, ...)."""
    field, n = f_map.field, f_map.nvars
    xs = [MultiPoly.variable(field, n, i) for i in range(n)]
    out = []
    for i in range(n):
        h_i = f_map.components[i] - xs[i]
        out.append(xs[i] - _substitute_by_loop(h_i, out + xs[i:], n))
    return PolyMap(out)


def _random_triangular(rng, field, n, shape):
    """x + H with H_i in earlier variables: a chain (H_i holds x_{i-1}), components
    that share the first two variables, or random supports; some H_i are zero."""
    comps = []
    for i in range(n):
        if shape == "chain":
            allowed, needed = [i - 1] if i else [], i - 1
        elif shape == "shared":
            allowed, needed = [j for j in (0, 1) if j < i], None
        else:
            allowed, needed = rng.sample(range(i), rng.randint(0, i)), None
        items = [(tuple(rng.randint(j == needed, 2) if j in allowed else 0 for j in range(n)),
                  _random_element(rng, field, 0))
                 for _ in range(0 if shape != "chain" and rng.random() < 0.2 else rng.randint(1, 3))]
        comps.append(MultiPoly.from_terms(field, n, items))
    return plus_identity(PolyMap(comps))


def test_invert_triangular_matches_the_sequential_loop_fuzz():
    rng = random.Random(2121)
    for trial in range(90):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        shape = ("chain", "shared", "random")[trial % 3]
        f_map = _random_triangular(rng, field, rng.randint(1, 4 if shape == "chain" else 5), shape)
        got = invert_triangular(f_map)
        assert got == _invert_by_loop(f_map)
        assert map_compose(f_map, got) == PolyMap.identity(field, f_map.nvars)
        for comp in got.components:
            _check_canonical(comp)


# -- partial derivatives on coordinates ----------------------------------------------

def test_partial_derivative_matches_scalar_products_fuzz():
    rng = random.Random(3131)
    for trial in range(100):
        field = _POWER_RINGS[trial % len(_POWER_RINGS)]
        nvars = rng.randint(1, 3)
        poly = _random_poly(rng, field, nvars)
        for index in range(nvars):
            got = poly.partial_derivative(index)
            want = {}
            for exps, coeff in poly.terms.items():
                if exps[index]:
                    lowered = exps[:index] + (exps[index] - 1,) + exps[index + 1:]
                    want[lowered] = coeff * exps[index]
            assert got.terms == want
            _check_canonical(got)


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
    """The Scalar loop over each pairing c_j^t b_i that `_orthogonality_failure` replaced."""
    for i in range(cert.count):
        for j in range(i + 1):
            form, b = cert.triples[j][0], cert.triples[i][2]
            if not sum((c * v for c, v in zip(form.coeffs, b)), form.field.zero()).is_zero():
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
            assert got is not None and got[0].terms == basis[0].terms
            generator, v = got
            assert [generator * c for c in v] == list(map_.components)
        else:
            assert got is None
    assert 60 < lines < 190


def _ratio_single_term_certificate(map_):
    """The single-term oracle before it read H = g v off `_span_generator`:
    b is lam times the ratio of each component to the first nonzero one."""
    base = next(comp for comp in map_.components if not comp.is_zero())
    detected = is_pure_power(base)
    if detected is None:
        return None
    form, d, lam = detected
    lead = max(base.terms)
    ratios = []
    for comp in map_.components:
        if comp.is_zero():
            ratios.append(map_.field.zero())
            continue
        if comp.degree() != base.degree() or lead not in comp.terms:
            return None
        ratio = comp.terms[lead] / base.terms[lead]
        if comp != base * ratio:
            return None
        ratios.append(ratio)
    cert = StarCertificate("doublestar", [(form, d, [lam * r for r in ratios])])
    return cert if certificate_failure(map_, cert) is None else None


def test_single_term_certificate_matches_ratio_oracle_fuzz():
    # n = 2 maps: rank one or not, a pure power or not, b orthogonal to c or not
    rng = random.Random(1996)
    outcomes = set()
    for trial in range(240):
        field = _FIELDS[trial % len(_FIELDS)]
        c = [_random_element(rng, field, 0.2) for _ in range(2)]
        if all(v.is_zero() for v in c):
            continue
        power = LinearForm(field, c).to_poly() ** rng.randint(1, 4)
        base = power * _random_element(rng, field, 0) if trial % 3 else \
            power + _random_poly(rng, field, 2)
        if trial % 4 == 3:  # orthogonal: (c^t x)^d b with c^t b = 0
            r = _random_element(rng, field, 0)
            b = [c[1] * r, -c[0] * r]
        else:
            b = [_random_element(rng, field, 0.3) for _ in range(2)]
        comps = [base * v for v in b]
        if trial % 5 == 4:
            comps[rng.randrange(2)] += _random_poly(rng, field, 2)
        if all(comp.is_zero() for comp in comps):
            continue
        map_ = PolyMap(comps)
        report = chain_report(plus_identity(map_), checks=["doublestar"])
        expected = _ratio_single_term_certificate(map_)
        assert report.verdict("doublestar") == (FAILS if expected is None else HOLDS)
        got = report.witness("doublestar")
        assert (got and got["certificate"]) == expected, (trial, map_)
        outcomes.add((got is not None, _span_generator(map_) is not None))
    assert outcomes == {(True, True), (False, True), (False, False)}


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
