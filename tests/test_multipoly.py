"""Sparse polynomial arithmetic, substitution, derivatives, pure powers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import (LinearForm, MultiPoly, divide_exact,
                                 extend_variables, is_pure_power,
                                 lift_to_field, variables)


def test_product_difference_of_squares():
    x1, x2 = variables(QQ, 2)
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_additive_inverse_empties_terms():
    x1, x2 = variables(QQ, 2)
    p = x1 * x2 * 3 + x2 ** 2
    assert (p + p * (-1)).terms == {}


def test_multiplication_commutes_on_term_maps():
    x1, x2 = variables(QQ, 2)
    assert (x1 * x2).terms == (x2 * x1).terms


def test_binomial_cube():
    x1, x2 = variables(QQ, 2)
    expected = x1 ** 3 + 3 * x1 ** 2 * x2 + 3 * x1 * x2 ** 2 + x2 ** 3
    assert (x1 + x2) ** 3 == expected


def test_zeroth_power_is_one():
    x1, x2 = variables(QQ, 2)
    assert (x1 * x2 - 7) ** 0 == MultiPoly.constant(QQ, 2, 1)


def test_root_of_unity_power_collapses():
    field = Field(cyclotomic(3))
    x1 = MultiPoly.variable(field, 1, 0)
    z = field.generator()
    assert (x1 * z) ** 3 == x1 ** 3


def test_substitute_basic():
    x1, x2, x3 = variables(QQ, 3)
    p = MultiPoly.variable(QQ, 2, 0) * MultiPoly.variable(QQ, 2, 1)
    image = p.substitute([x1, x1 + x3])
    assert image == x1 ** 2 + x1 * x3


def test_substitute_identity_is_identity():
    x1, x2 = variables(QQ, 2)
    p = x1 ** 3 - 2 * x1 * x2 + 5
    assert p.substitute([x1, x2]) == p


def test_substitute_requires_full_assignment():
    x1, x2 = variables(QQ, 2)
    with pytest.raises(ValueError, match="cover all variables"):
        (x1 * x2).substitute([x1])


def test_family_component_vanishes_at_witness_point():
    # H3 of the quadratic-invariant family at d=3 is x2 (x1 x3 - x2 x4);
    # the witness point (1, c, 0, 0) kills both invariant factors.
    field = Field([4, 0, 1])
    c = field.generator()
    xs = variables(field, 4)
    h3 = xs[1] * (xs[0] * xs[2] - xs[1] * xs[3])
    # independent oracle: plain scalar arithmetic at the point
    by_hand = c * (field.one() * field.zero() - c * field.zero())
    assert by_hand == field.zero()
    assert h3.evaluate([field.one(), c, field.zero(), field.zero()]) == field.zero()
    assert h3.substitute([field.one(), c, field.zero(), field.zero()],
                         nvars=1).is_zero()


def test_partial_derivative_examples():
    x1, x2 = variables(QQ, 2)
    p = x1 ** 2 * x2 + x2 ** 3
    assert p.partial_derivative(1) == x1 ** 2 + 3 * x2 ** 2
    assert MultiPoly.constant(QQ, 2, 5).partial_derivative(0).is_zero()


def test_partial_derivative_of_family_component():
    # d/dx2 of x2^{d-1} x4 at d = 3
    xs = variables(QQ, 5)
    h3 = xs[1] ** 2 * xs[3]
    assert h3.partial_derivative(1) == 2 * xs[1] * xs[3]


def test_partial_derivative_index_range():
    x1, = variables(QQ, 1)
    with pytest.raises(IndexError):
        x1.partial_derivative(1)


def test_partials_commute_randomized():
    rng = random.Random(99173)
    for _ in range(200):
        nvars = rng.randint(2, 4)
        p = _random_poly(rng, QQ, nvars)
        i = rng.randrange(nvars)
        j = rng.randrange(nvars)
        assert (p.partial_derivative(i).partial_derivative(j)
                == p.partial_derivative(j).partial_derivative(i))


def test_leibniz_randomized():
    rng = random.Random(55511)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        p = _random_poly(rng, QQ, nvars)
        q = _random_poly(rng, QQ, nvars)
        i = rng.randrange(nvars)
        lhs = (p * q).partial_derivative(i)
        rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
        assert lhs == rhs


def test_substitution_respects_composition_randomized():
    rng = random.Random(77001)
    for _ in range(60):
        p = _random_poly(rng, QQ, 2)
        inner = [_random_poly(rng, QQ, 2) for _ in range(2)]
        point = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        direct = p.substitute(inner).evaluate(point)
        via_values = p.evaluate([g.evaluate(point) for g in inner])
        assert direct == via_values


def _random_poly(rng, field, nvars, max_deg=3, max_terms=5):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        items.append((exps, Fraction(rng.randint(-6, 6))))
    return MultiPoly.from_terms(field, nvars, items)


def test_divide_exact_round_trip_randomized():
    rng = random.Random(31415)
    done = 0
    while done < 120:
        p = _random_poly(rng, QQ, 2)
        q = _random_poly(rng, QQ, 2)
        if q.is_zero():
            continue
        assert divide_exact(p * q, q) == p
        done += 1


def test_divide_exact_rejects_non_divisor():
    x1, x2 = variables(QQ, 2)
    assert divide_exact(x1 ** 2 + x2, x1 + 1) is None


def test_pure_power_scaled_cube():
    x1, x2 = variables(QQ, 2)
    form, d, lam = is_pure_power(2 * (x1 - x2) ** 3)
    assert [c.as_rational() for c in form.coeffs] == [1, -1]
    assert d == 3
    assert lam == QQ.scalar(2)


def test_pure_power_rejects_mixed_degrees():
    x1, = variables(QQ, 1)
    assert is_pure_power(x1 ** 3 - x1 ** 2) is None


def test_pure_power_perfect_square():
    x1, x2 = variables(QQ, 2)
    form, d, lam = is_pure_power(x1 ** 2 + 2 * x1 * x2 + x2 ** 2)
    assert [c.as_rational() for c in form.coeffs] == [1, 1]
    assert d == 2
    assert lam == QQ.one()


def test_pure_power_zero_convention():
    form, d, lam = is_pure_power(MultiPoly.zero(QQ, 3))
    assert form.is_zero() and d == 1 and lam.is_zero()


def test_pure_power_rejects_constants_and_shifted_powers():
    x1, = variables(QQ, 1)
    assert is_pure_power(MultiPoly.constant(QQ, 1, 4)) is None
    assert is_pure_power((x1 + 1) ** 2) is None


def test_pure_power_over_extension_field():
    field = Field(cyclotomic(5))
    z = field.generator()
    form = LinearForm(field, [z, field.one(), z ** 3])
    poly = form.to_poly() ** 4 * (z + 2)
    got = is_pure_power(poly)
    assert got is not None
    got_form, d, lam = got
    assert d == 4
    # normalized: first coordinate scaled to one
    assert got_form.coeffs[0] == field.one()
    assert got_form.to_poly() ** 4 * lam == poly


def test_pure_power_round_trip_randomized():
    rng = random.Random(271828)
    done = 0
    while done < 200:
        nvars = rng.randint(1, 5)
        d = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
        lam = Fraction(rng.randint(-5, 5))
        if all(c == 0 for c in coeffs) or lam == 0:
            continue
        form = LinearForm(QQ, coeffs)
        poly = form.to_poly() ** d * lam
        got = is_pure_power(poly)
        assert got is not None
        got_form, got_d, got_lam = got
        assert got_d == d
        # normalization: first nonzero coordinate of the form is one
        first = next(c for c in got_form.coeffs if not c.is_zero())
        assert first == QQ.one()
        assert got_form.to_poly() ** got_d * got_lam == poly
        done += 1


def test_linear_form_dot_and_poly():
    form = LinearForm(QQ, [1, 0, -2])
    assert form.dot([QQ.scalar(2), QQ.scalar(9), QQ.scalar(1)]) == QQ.zero()
    x1, x2, x3 = variables(QQ, 3)
    assert form.to_poly() == x1 - 2 * x3


def test_extend_and_lift():
    x1, x2 = variables(QQ, 2)
    p = x1 * x2 + 1
    wide = extend_variables(p, 4)
    assert wide.nvars == 4 and wide.degree() == 2
    field = Field([1, 0, 1])
    lifted = lift_to_field(p, field)
    assert lifted.field == field
    assert lifted.evaluate([field.generator(), field.generator()]) == field.scalar(0)


# -- the integer product kernel against the term-by-term loop ---------------

def _ref_scalar_mul(a, b):
    """Coordinates of a * b: schoolbook product, then long division by monic m."""
    m, deg = a.field.min_poly, a.field.degree
    prod = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a.coords):
        for j, y in enumerate(b.coords):
            prod[i + j] += x * y
    for k in range(2 * deg - 2, deg - 1, -1):
        top = prod[k]
        for i, c in enumerate(m):
            prod[k - deg + i] -= top * c
    return tuple(prod[:deg])


def _ref_poly_mul(p, q):
    """The term-by-term product loop MultiPoly.__mul__ used to run, on coordinates."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            prod = _ref_scalar_mul(c1, c2)
            c = terms.get(exps)
            c = prod if c is None else tuple(x + y for x, y in zip(c, prod))
            if any(c):
                terms[exps] = c
            else:
                terms.pop(exps, None)
    return terms


def _check_product(p, q):
    got = p * q
    assert {e: s.coords for e, s in got.terms.items()} == _ref_poly_mul(p, q)
    assert all(type(c) is Fraction for s in got.terms.values() for c in s.coords)
    assert all(not s.is_zero() for s in got.terms.values())


# fields, a non-integral fold (t^2 + 9/2), and the rings Q[t]/(t^2), Q[t]/(t^2 - 1)
_PRODUCT_RINGS = (QQ, Field(cyclotomic(3)), Field(cyclotomic(5)), Field([-2, 0, 0, 1]),
                  Field([Fraction(9, 2), 0, 1]), Field([0, 0, 1]), Field([-1, 0, 1]))


def _random_element(rng, field):
    # a third of the coordinates are zero, the rest mostly non-integral
    return field.element([Fraction(0) if rng.random() < 1 / 3
                          else Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                          for _ in range(field.degree)])


def _random_element_poly(rng, field, nvars):
    shape = rng.random()
    if shape < 0.1:
        return MultiPoly.zero(field, nvars)
    if shape < 0.25:
        return MultiPoly.constant(field, nvars, _random_element(rng, field))
    items = [(tuple(rng.randint(0, 3) for _ in range(nvars)), _random_element(rng, field))
             for _ in range(rng.randint(1, 7))]
    return MultiPoly.from_terms(field, nvars, items)


def test_product_kernel_matches_term_loop_fuzz():
    rng = random.Random(7707)
    for trial in range(420):
        field = _PRODUCT_RINGS[trial % len(_PRODUCT_RINGS)]
        nvars = rng.randint(1, 3)
        a, b = (_random_element_poly(rng, field, nvars) for _ in range(2))
        if trial % 3 == 0:
            a, b = a + b, a - b  # (a + b)(a - b): the cross terms cancel
        _check_product(a, b)


def test_product_kernel_cancellations():
    x, y = variables(QQ, 2)
    assert ((x - y) * (x + y)).terms == (x ** 2 - y ** 2).terms
    # (1 + t)(1 - t) = 0 modulo t^2 - 1: every result monomial folds to zero
    ring = Field([-1, 0, 1])
    u, v = ring.element([1, 1]), ring.element([1, -1])
    x, y = variables(ring, 2)
    assert (x * u + y * u) * (x * v - y * v) == MultiPoly.zero(ring, 2)
    # (t/2 x + 1)(t/2 x - 1) = -9/8 x^2 - 1 modulo t^2 + 9/2
    field = Field([Fraction(9, 2), 0, 1])
    half_t = field.element([0, Fraction(1, 2)])
    a = MultiPoly.from_terms(field, 1, [((1,), half_t), ((0,), 1)])
    b = MultiPoly.from_terms(field, 1, [((1,), half_t), ((0,), -1)])
    assert (a * b).terms == {(2,): field.scalar(Fraction(-9, 8)), (0,): field.scalar(-1)}
    _check_product(a, b)


_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 2)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PRODUCT_RINGS), st.data())
def test_product_kernel_matches_term_loop_property(field, data):
    coords = st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12),
                      min_size=field.degree, max_size=field.degree)
    terms = st.lists(st.tuples(_EXPONENTS, coords), max_size=6)
    a, b = (MultiPoly.from_terms(field, 2, [(e, field.element(c)) for e, c in data.draw(terms)])
            for _ in range(2))
    _check_product(a, b)


def _summed_terms(field, nvars, items):
    """from_terms the old way: every term added to a fresh zero."""
    terms = {}
    for exps, coeff in items:
        c = terms.get(tuple(exps), field.zero()) + field.scalar(coeff)
        if c.is_zero():
            terms.pop(tuple(exps), None)
        else:
            terms[tuple(exps)] = c
    return terms


def test_from_terms_repeated_and_cancelling_monomials():
    field = Field(cyclotomic(3))
    z = field.generator()
    items = [((1, 0), z), ((0, 2), 3), ((1, 0), -z), ((1, 0), 2), ((0, 2), Fraction(-3)),
             ((0, 0), 0), ((2, 1), z * z), ((2, 1), z)]
    poly = MultiPoly.from_terms(field, 2, items)
    assert poly.terms == {(1, 0): field.scalar(2), (2, 1): z * z + z}
    assert poly.terms == _summed_terms(field, 2, items)
    # a monomial that cancels and comes back; a lone zero is never stored
    assert MultiPoly.from_terms(QQ, 1, [((1,), 1), ((1,), -1), ((1,), 5)]).terms == {
        (1,): QQ.scalar(5)}
    assert MultiPoly.from_terms(QQ, 1, [((1,), 0)]).is_zero()
    rng = random.Random(9)
    for _ in range(200):
        items = [((rng.randint(0, 2), rng.randint(0, 1)), rng.choice((-2, -1, 0, 1, 1, 2)))
                 for _ in range(rng.randint(0, 8))]
        assert MultiPoly.from_terms(QQ, 2, items).terms == _summed_terms(QQ, 2, items), items
