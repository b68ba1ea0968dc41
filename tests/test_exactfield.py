"""Field construction, exact scalar arithmetic and cyclotomic polynomials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab.exactfield import (QQ, Field, as_fraction, cyclotomic, is_cyclotomic_or_eisenstein,
                                  rational_roots)


def test_degree_one_field_is_plain_rationals():
    field = Field([0, 1])
    assert field.is_rational
    assert field.scalar(Fraction(2, 3)) + field.scalar(Fraction(1, 6)) == field.scalar(Fraction(5, 6))


def test_gaussian_field_defining_relation():
    field = Field([1, 0, 1])
    i = field.generator()
    assert i * i == field.scalar(-1)


def test_jc_witness_field_d3():
    # c = 2i satisfies c^2 (d-2) + (d-1)^2 = 0 at d = 3
    field = Field([4, 0, 1])
    c = field.generator()
    assert c * c * 1 + 4 == field.zero()


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_quadratic_witness_relation(d):
    # monic form of (d-2) t^2 + (d-1)^2; its root satisfies the original relation
    field = Field([Fraction((d - 1) ** 2, d - 2), 0, 1])
    c = field.generator()
    assert c * c * (d - 2) + (d - 1) ** 2 == field.zero()


def test_non_monic_min_poly_rejected():
    with pytest.raises(ValueError):
        Field([9, 0, 2])
    with pytest.raises(ValueError):
        Field([5])
    with pytest.raises(ValueError):
        Field([])


def test_eisenstein_sum():
    field = Field([1, 1, 1])
    z = field.generator()
    assert z + z * z == field.scalar(-1)


def test_field_mismatch_rejected():
    a = Field([1, 0, 1]).generator()
    b = Field([1, 1, 1]).generator()
    with pytest.raises(ValueError):
        a + b


def test_division_by_zero_divisor_reports_noninvertible():
    # t is a zero divisor mod t^2
    ring = Field([0, 0, 1])
    t = ring.generator()
    with pytest.raises(ZeroDivisionError, match="not invertible modulo min_poly"):
        ring.one() / t


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one() / QQ.zero()


@pytest.mark.parametrize("d,expected", [
    (1, [-1, 1]),
    (2, [1, 1]),
    (3, [1, 1, 1]),
    (4, [1, 0, 1]),
    (5, [1, 1, 1, 1, 1]),
    (6, [1, -1, 1]),
    (8, [1, 0, 0, 0, 1]),
    (9, [1, 0, 0, 1, 0, 0, 1]),
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_tables(d, expected):
    assert cyclotomic(d) == expected


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_first_large_coefficient():
    # the smallest index with a coefficient other than 0, 1, -1
    c = cyclotomic(105)
    assert len(c) - 1 == 48
    assert c[7] == -2 and c[41] == -2


def test_cyclotomic_degree_is_euler_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if _coprime(k, n))

    def _coprime(a, b):
        while b:
            a, b = b, a % b
        return a == 1

    for d in (2, 6, 10, 12, 16, 24, 30):
        assert len(cyclotomic(d)) - 1 == totient(d)


def test_every_cyclotomic_polynomial_is_recognized():
    # Phi_1 and Phi_2 have degree 1, below the test's contract
    for k in range(3, 61):
        assert is_cyclotomic_or_eisenstein(cyclotomic(k)), k


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 12])
def test_root_of_unity_order(d):
    field = Field(cyclotomic(d))
    z = field.generator()
    assert z ** d == field.one()
    for k in range(1, d):
        assert z ** k != field.one()


def _random_scalar(rng, field):
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(field.degree)])


def test_ring_axioms_randomized():
    rng = random.Random(20250810)
    fields = [QQ, Field([1, 0, 1]), Field([1, 1, 1]), Field([4, 0, 1]),
              Field(cyclotomic(5))]
    cases = 0
    while cases < 220:
        field = rng.choice(fields)
        a, b, c = (_random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero() == a
        assert a * field.one() == a
        assert a + (-a) == field.zero()
        cases += 1


def test_division_round_trip_randomized():
    rng = random.Random(4064)
    fields = [QQ, Field([1, 0, 1]), Field(cyclotomic(3)), Field(cyclotomic(5))]
    cases = 0
    while cases < 200:
        field = rng.choice(fields)
        a = _random_scalar(rng, field)
        b = _random_scalar(rng, field)
        if b.is_zero():
            continue
        assert (a / b) * b == a
        cases += 1


def test_scalar_equality_is_coordinatewise():
    field = Field([1, 0, 1])
    assert field.element([1, 2]) == field.element(["1", "2"])
    assert field.element([1, 2]) != field.element([1, 3])


def test_scalar_power():
    z = Field(cyclotomic(5)).generator()
    assert z ** 0 == 1
    assert z ** 7 == z ** 2


# -- the product without division against the long-division reference ---------

def _ref_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _ref_umul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_trim(out)


def _ref_usub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _ref_trim(out)


def _ref_udivmod(a, b):
    rem = list(a)
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        pos = len(rem) - len(b)
        quo[pos] = f
        for i, bi in enumerate(b):
            rem[pos + i] -= f * bi
        _ref_trim(rem)
    return _ref_trim(quo), rem


def _ref_reduce(field, poly):
    _, rem = _ref_udivmod(poly, list(field.min_poly))
    return tuple(rem + [Fraction(0)] * (field.degree - len(rem)))


def _ref_mul(a, b):
    """The product as a polynomial product followed by long division by m(t)."""
    return _ref_reduce(a.field, _ref_umul(list(a.coords), list(b.coords)))


def _ref_inverse(a):
    """s with s*a + u*m = 1 from the extended Euclidean algorithm, reduced mod m."""
    r0, r1 = list(a.field.min_poly), _ref_trim(list(a.coords))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _ref_udivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_usub(s0, _ref_umul(q, s1))
    assert len(r0) == 1, "not invertible"
    return _ref_reduce(a.field, [c / r0[0] for c in s0])


# (field, compare inverses); Q[t]/(t^2) and Q[t]/(t^2 - 1) have zero divisors
_KERNEL_CASES = ([(f, True) for f in (QQ, Field([1, 0, 1]), Field(cyclotomic(3)),
                                      Field(cyclotomic(5)), Field(cyclotomic(7)),
                                      Field([-2, 0, 0, 1]))]
                 + [(Field([0, 0, 1]), False), (Field([-1, 0, 1]), False)])


def _check_against_reference(a, b, invertible):
    assert (a * b).coords == _ref_mul(a, b)
    assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    if invertible and not b.is_zero():
        assert b.inverse().coords == _ref_inverse(b)


def test_kernel_matches_long_division_reference_fuzz():
    rng = random.Random(6061)

    def coordinate():
        # a third of the coordinates are zero, so the zero skips are exercised
        if rng.random() < 1 / 3:
            return Fraction(0)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for trial in range(400):
        field, invertible = _KERNEL_CASES[trial % len(_KERNEL_CASES)]
        a, b = (field.element([coordinate() for _ in range(field.degree)]) for _ in range(2))
        _check_against_reference(a, b, invertible)


_COORDINATE = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_KERNEL_CASES), st.data())
def test_kernel_matches_long_division_reference_property(case, data):
    field, invertible = case
    coords = st.lists(_COORDINATE, min_size=field.degree, max_size=field.degree)
    a, b = field.element(data.draw(coords)), field.element(data.draw(coords))
    _check_against_reference(a, b, invertible)


def test_rational_inverse_of_zero_names_min_poly():
    with pytest.raises(ZeroDivisionError, match="not invertible modulo min_poly: zero"):
        QQ.zero().inverse()


def test_rational_roots_of_a_coefficient_list():
    assert rational_roots([-1, 0, 1]) == [-1, 1]
    assert rational_roots([Fraction(1, 4), -1, 1]) == [Fraction(1, 2)]
    assert rational_roots([0, 0, 1]) == [0]
    assert rational_roots([-2, 0, 1]) == []
    assert rational_roots([]) == []
    # past degree 64, once t^low is divided out, the roots are not known
    assert rational_roots([-1] + [0] * 63 + [1]) == [-1, 1]
    assert rational_roots([-1] + [0] * 64 + [1]) is None
    assert rational_roots([0] * 100 + [-1, 1]) == [0, 1]
    # a constant past the search bound leaves the roots unknown
    assert rational_roots([-(10 ** 11), 0, 1]) is None


def test_rational_roots_of_a_sparse_mapping():
    # {exponent: coefficient} agrees with the dense list and skips its zeros
    assert rational_roots({0: -1, 2: 1}) == rational_roots([-1, 0, 1]) == [-1, 1]
    assert rational_roots({100: -1, 101: 1, 7: 0}) == [0, 1]
    assert rational_roots({}) == rational_roots({3: 0}) == []
    assert rational_roots({0: 4, 999999: 2 * 10 ** 6}) is None


def _parsed(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


def test_as_fraction_parses_strings_like_fraction():
    # the int() fast path takes -?[0-9]+(/[0-9]+)? in ASCII; every other string, and
    # so every error, goes to Fraction's own parser
    edge = ["0", "-0", "7", "007", "-12", "3/4", "-6/8", "10/5", "1/0", "-0/0", "1/-2", "+1",
            "+3/4", " 1", "1 ", "\t-2/3\n", "1_000", "1_0/2_0", "1__0", "_1", "1.5", "-.5",
            "1e3", "1E-2", "-", "", "/", "1/", "/2", "--1", "1/2/3", "1 /2", "nan", "inf",
            "0x10", "\u0661\u0662", "1/\u0663", "\u00b2", "\uff11", "1" * 5000,
            str(10 ** 60) + "/" + str(6 * 10 ** 59)]
    for text in edge:
        assert _parsed(as_fraction, text) == _parsed(Fraction, text), repr(text)
        got = _parsed(as_fraction, text)
        if got[0] is Fraction:
            assert type(got[1].numerator) is int and type(got[1].denominator) is int
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(1.5)


# -- shared zero and one, inverse over Q, integer root test ---------------------

def _eea_inverse(value):
    """The inverse by the extended Euclidean algorithm, as for any min_poly."""
    from kellerlab.exactfield import _udivmod, _uxgcd

    field = value.field
    g, s, _ = _uxgcd([c for c in value.coords], list(field.min_poly))
    _, rem = _udivmod([c / g[0] for c in s], list(field.min_poly))
    return rem + [Fraction(0)] * (field.degree - len(rem))


def test_rational_inverse_matches_extended_euclid_fuzz():
    rng = random.Random(470)
    shifted = Field([Fraction(-3, 2), 1])  # Q presented as Q[t]/(t - 3/2)
    for field in (QQ, shifted):
        for _ in range(300):
            c = Fraction(rng.randint(-10 ** rng.randint(1, 12), 10 ** 12), rng.randint(1, 10 ** 6))
            if not c:
                continue
            inverse = field.scalar(c).inverse()
            assert list(inverse.coords) == _eea_inverse(field.scalar(c)), c
            assert type(inverse.coords[0]) is Fraction
            assert inverse * c == field.one()
        with pytest.raises(ZeroDivisionError, match="not invertible modulo min_poly: zero"):
            field.zero().inverse()


def test_zero_and_one_are_shared_and_never_mutated():
    # one cached zero and one per field; after a whole chain run they still
    # read 0 and 1, so no caller changed the coordinates of a shared scalar
    from kellerlab.constructions import FamilySpec, make_family
    from kellerlab.polymap import plus_identity
    from kellerlab.properties import chain_report

    for spec in (FamilySpec("n4", 3), FamilySpec("f667", 2, n=4), FamilySpec("small3", 3)):
        h = make_family(spec)
        field = h.field
        zero, one = field.zero(), field.one()
        assert field.zero() is zero and field.one() is one
        assert isinstance(zero.coords, tuple) and isinstance(one.coords, tuple)
        chain_report(plus_identity(h))
        assert field.zero() is zero and field.one() is one
        assert zero.coords == (0,) * field.degree
        assert one.coords == (1,) + (0,) * (field.degree - 1)
        assert zero == field.scalar(0) and one == field.scalar(1)


def _fraction_roots(coeffs):
    """The candidate test on Fraction powers that the integer test replaced."""
    from kellerlab.exactfield import _divisors

    coeffs = {e: Fraction(c) for e, c in enumerate(coeffs) if c}
    if not coeffs:
        return []
    low = min(coeffs)
    coeffs = {e - low: c for e, c in coeffs.items()}
    deg = max(coeffs)
    if deg == 0:
        return [Fraction(0)] if low > 0 else []
    den = 1
    for c in coeffs.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in coeffs.items()}
    if max(abs(ints[deg]), abs(ints[0])) > 10 ** 10:
        return None
    roots = {Fraction(0)} if low > 0 else set()
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[deg])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** e for e, c in ints.items()) == 0:
                    roots.add(cand)
    return sorted(roots)


def test_integer_root_test_matches_fraction_evaluation_fuzz():
    rng = random.Random(3210)
    found = 0
    for trial in range(400):
        # products of small linear factors have roots; a random tail often has none
        coeffs = [Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.choice((1, 1, 2, 3)))]
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randint(-5, 5), rng.randint(1, 4)
            coeffs = [x * b - y * a for x, y in zip(coeffs + [0], [0] + coeffs)]
            coeffs = [coeffs[0] * 0] + coeffs[1:] if rng.random() < 0.1 else coeffs
        if rng.random() < 0.3:
            coeffs = [c + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in coeffs]
        if rng.random() < 0.2:
            coeffs = [0] * rng.randint(1, 2) + coeffs
        expected = _fraction_roots(coeffs)
        assert rational_roots(coeffs) == expected, (trial, coeffs)
        found += bool(expected)
    assert 100 <= found <= 390
    for coeffs in ([-(10 ** 11), 0, 1], [1, 0, 10 ** 10 + 1], [0, -(10 ** 11), 3]):
        assert rational_roots(coeffs) is None and _fraction_roots(coeffs) is None
    assert rational_roots([-(10 ** 10), 0, 1]) == [-(10 ** 5), 10 ** 5]


# -- integer numerators over one denominator: every Scalar is canonical ---------

_CANONICAL_FIELDS = (QQ, Field(cyclotomic(5)), Field([Fraction(25, 4), 0, 1]))


def _assert_canonical(value):
    """nums / den with den > 0, gcd(den, nums) = 1, zero as 0/1, and coords its view."""
    nums, den = value.nums, value.den
    assert type(den) is int and den > 0, value
    assert len(nums) == value.field.degree and all(type(n) is int for n in nums), value
    assert math.gcd(den, *nums) == 1, value
    assert any(nums) or den == 1, value
    assert value.coords == tuple(Fraction(n, den) for n in nums)


def _coordinates(field):
    return st.lists(_COORDINATE, min_size=field.degree, max_size=field.degree)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_CANONICAL_FIELDS), st.data())
def test_every_scalar_operation_is_canonical_property(field, data):
    a, b = (field.element(data.draw(_coordinates(field))) for _ in range(2))
    texts = [str(c) for c in data.draw(_coordinates(field))]
    made = [a + b, a - b, a * b, -a, a ** data.draw(st.integers(0, 5)), a - a, a * 0,
            field.scalar(data.draw(_COORDINATE)), field.scalar(str(data.draw(_COORDINATE))),
            field.element(texts), field.generator(), field.zero(), field.one()]
    assert (a * b).coords == _ref_mul(a, b)
    assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert field.element(texts).coords == tuple(Fraction(c) for c in texts)
    if not b.is_zero():
        made += [a / b, b.inverse()]
        assert b.inverse().coords == _ref_inverse(b)
    for value in made:
        _assert_canonical(value)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CANONICAL_FIELDS), st.data())
def test_every_kernel_output_is_canonical_property(field, data):
    from kellerlab import linalg
    from kellerlab.multipoly import MultiPoly, sums_of_products

    def scalar():
        return field.element(data.draw(_coordinates(field)))

    def poly(max_exponent, size):
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, max_exponent)] * 3), max_size=size))
        return MultiPoly.from_terms(field, 3, [(e, scalar()) for e in exps])

    p, q = poly(2, 4), poly(2, 4)
    affine = MultiPoly.from_terms(field, 3, [(e, scalar()) for e in
                                             ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))])
    polys = sums_of_products(field, 3, [[(2, p, q), (-1, q, scalar())], [(1, p, p)]])
    polys += [p * q, affine ** data.draw(st.integers(2, 4))]
    polys += [r.partial_derivative(i) for r in (p, q) for i in range(3)]
    made = [c for r in polys for c in r.terms.values()]
    vectors = [[scalar() for _ in range(3)] for _ in range(data.draw(st.integers(0, 3)))]
    made += [c for row in linalg.adapted_basis(field, 3, vectors) for c in row]
    # strictly lower triangular A_m give the flag's T; a full A_m, most often a word
    entries = {(k,): [(i, j, scalar()) for i in range(3) for j in range(3)
                      if i > j or data.draw(st.booleans())] for k in range(2)}
    t_grid, word = linalg.flag(field, 3, entries)
    made += [c for row in t_grid for c in row] if word is None else list(word[2])
    for value in made:
        _assert_canonical(value)


def test_only_exactfield_builds_scalars_or_reads_coords():
    # every Scalar comes through the reducing Field.fraction, so equality may compare
    # numerators and denominators; coords is a Fraction view for callers outside
    import ast
    import pathlib

    import kellerlab

    leaked = []
    for path in sorted(pathlib.Path(kellerlab.__file__).parent.glob("*.py")):
        if path.name == "exactfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Scalar" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                leaked.append((path.name, node.lineno, "Scalar(...)"))
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                leaked.append((path.name, node.lineno, ".coords"))
    assert not leaked


def test_no_tuple_is_built_from_an_iterator():
    # tuple(<iterator>) and f(*<iterator>) build a tuple at a guessed length and resize
    # it, so it skips the free list of its length yet joins it when freed; those lists
    # then fill to 2000 tuples each and keep them until a full collection
    import ast
    import pathlib

    import kellerlab

    def lazy(node):
        return isinstance(node, ast.GeneratorExp) or (
            isinstance(node, ast.Call) and getattr(node.func, "id", None)
            in ("map", "filter", "zip", "reversed", "enumerate", "iter"))

    found = []
    for path in sorted(pathlib.Path(kellerlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "tuple" and node.args and lazy(node.args[0]):
                found.append((path.name, node.lineno, "tuple(...)"))
            if any(isinstance(a, ast.Starred) and lazy(a.value) for a in node.args):
                found.append((path.name, node.lineno, "f(*...)"))
    assert not found
