"""JSON round trips and byte-level determinism."""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kellerlab import serialize
from kellerlab.exactfield import QQ, Field, cyclotomic
from kellerlab.multipoly import LinearForm, MultiPoly, variables
from kellerlab.polymap import PolyMap, PolyMatrix, plus_identity
from kellerlab.properties import LEVELS, StarCertificate, chain_report
from kellerlab.constructions import FamilySpec, family_certificate, make_family


def test_field_round_trip():
    for field in (QQ, Field([1, 0, 1]), Field([Fraction(9, 2), 0, 1])):
        data = serialize.field_to_json(field)
        assert serialize.field_from_json(data) == field


@pytest.mark.parametrize("min_poly", [["-1", "0", "1"], ["0", "0", "1"], ["-8", "0", "0", "1"],
                                      ["1/4", "-1", "1"]])
def test_field_from_json_rejects_a_rational_root(min_poly):
    with pytest.raises(ValueError, match="rational root"):
        serialize.field_from_json({"min_poly": min_poly})


@pytest.mark.parametrize("min_poly", [["-3", "1"], ["-2", "0", "1"], ["-2", "0", "0", "1"],
                                      ["1", "1", "1", "1", "1"]])
def test_field_from_json_accepts_min_poly_without_rational_root(min_poly):
    # degree one is Q itself, whatever its root
    field = serialize.field_from_json({"min_poly": min_poly})
    assert field.min_poly == tuple(Fraction(c) for c in min_poly)


@pytest.mark.parametrize("min_poly", [["-2", "0", "0", "0", "1"], cyclotomic(5), cyclotomic(8)],
                         ids=["t^4-2 Eisenstein", "Phi_5", "Phi_8"])
def test_field_from_json_accepts_proven_irreducible_min_poly(min_poly):
    field = serialize.field_from_json({"min_poly": [str(c) for c in min_poly]})
    assert field.min_poly == tuple(Fraction(c) for c in min_poly)


@pytest.mark.parametrize("min_poly", [["2", "0", "3", "0", "1"], ["1000000000000", "0", "1"]],
                         ids=["(t^2+1)(t^2+2)", "quadratic past the root search"])
def test_field_from_json_rejects_min_poly_not_proven_irreducible(min_poly):
    with pytest.raises(ValueError, match="not proven irreducible"):
        serialize.field_from_json({"min_poly": min_poly})


def test_field_from_json_bounds_the_min_poly_degree():
    # t^64 + 1 = Phi_128 is proven cyclotomic; t^128 + 1 = Phi_256 is refused
    # before the proof, which builds cyclotomic(k) for each phi(k) = degree
    field = serialize.field_from_json({"min_poly": ["1"] + ["0"] * 63 + ["1"]})
    assert field.degree == 64
    with pytest.raises(ValueError, match="degree 128, above the map-file bound 64"):
        serialize.field_from_json({"min_poly": ["1"] + ["0"] * 127 + ["1"]})


def test_scalar_round_trip():
    field = Field(cyclotomic(5))
    value = field.element([1, Fraction(-2, 3), 0, 4])
    data = serialize.scalar_to_json(value)
    assert data == ["1", "-2/3", "0", "4"]
    assert serialize.scalar_from_json(data, field) == value


def test_poly_round_trip_sorted_terms():
    x1, x2 = variables(QQ, 2)
    p = 3 * x1 ** 2 * x2 - x2 ** 3 + Fraction(1, 2)
    data = serialize.poly_to_json(p)
    exps = [tuple(t["exps"]) for t in data["terms"]]
    assert exps == sorted(exps)
    assert serialize.poly_from_json(data, QQ) == p


def test_map_round_trip_with_extension_field():
    h = make_family(FamilySpec("f667", 3))
    data = serialize.map_to_json(h)
    back = serialize.map_from_json(data)
    assert back == h
    assert back.field.min_poly == h.field.min_poly


def test_matrix_round_trip_mixed_entries():
    x1, x2 = variables(QQ, 2)
    m = PolyMatrix([[x1 * x2, MultiPoly.constant(QQ, 2, 5)],
                    [MultiPoly.zero(QQ, 2), x1 + 1]])
    data = serialize.matrix_to_json(m)
    # constant entries are allowed to appear as bare scalars
    assert data["entries"][0][1] == ["5"]
    back = serialize.matrix_from_json(data, QQ)
    assert back == m


def test_certificate_round_trip():
    spec = FamilySpec("f667", 2, nu=0)
    cert = family_certificate(spec)
    field = make_family(spec).field
    data = serialize.certificate_to_json(cert)
    back = serialize.certificate_from_json(data, field)
    assert back == cert


def test_report_serialization_is_deterministic():
    f = plus_identity(make_family(FamilySpec("n4", 3)))
    first = serialize.dumps(serialize.report_to_json(chain_report(f)))
    second = serialize.dumps(serialize.report_to_json(chain_report(f)))
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "report/1"
    assert payload["conditions"]["quasi"] == "holds"
    assert payload["conditions"]["jc"] == "fails"


def test_dumps_round_trips_through_json():
    h = make_family(FamilySpec("f666", 2, nu=1))
    text = serialize.dumps(serialize.map_to_json(h))
    again = serialize.dumps(serialize.map_to_json(serialize.map_from_json(json.loads(text))))
    assert text == again


def test_every_witness_kind_serializes():
    # sweep reports whose witnesses cover points, certificates, inverse maps,
    # substitution products, span generators, matrix entries and components
    specs = [FamilySpec("n4", 3), FamilySpec("n5", 2), FamilySpec("small2", 3),
             FamilySpec("small3", 3), FamilySpec("f666", 2, nu=1)]
    for spec in specs:
        h = make_family(spec)
        cert = None
        if spec.kind in ("f666", "small2", "small3"):
            cert = family_certificate(spec)
        report = chain_report(plus_identity(h), cert=cert)
        text = serialize.dumps(serialize.report_to_json(report))
        assert json.loads(text)["schema"] == "report/1"
    from kellerlab.multipoly import variables
    from kellerlab.polymap import PolyMap
    x1, x2 = variables(QQ, 2)
    bad = PolyMap([x2 ** 2, x1 ** 2])
    report = chain_report(plus_identity(bad))
    assert json.loads(serialize.dumps(serialize.report_to_json(report)))


# -- property-based round trips and malformed input ----------------------------

_FIELDS = (QQ, Field(cyclotomic(3)))
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _scalars(draw, field):
    return field.element(draw(st.lists(_RATIONALS, min_size=field.degree,
                                       max_size=field.degree)))


@st.composite
def _maps(draw):
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(1, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), _scalars(field))
    return PolyMap([MultiPoly.from_terms(field, n, draw(st.lists(term, max_size=3)))
                    for _ in range(n)])


@st.composite
def _certificates(draw):
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(1, 3))
    vector = st.lists(_scalars(field), min_size=n, max_size=n)
    triples = draw(st.lists(st.tuples(vector, st.integers(1, 4), vector), max_size=3))
    level = draw(st.sampled_from(LEVELS))
    return field, StarCertificate(level, [(LinearForm(field, c), d, b) for c, d, b in triples])


@settings(max_examples=60, deadline=None)
@given(_maps())
def test_map_json_round_trip_property(h):
    text = serialize.dumps(serialize.map_to_json(h))
    back = serialize.map_from_json(json.loads(text))
    assert back == h
    assert serialize.dumps(serialize.map_to_json(back)) == text


@settings(max_examples=60, deadline=None)
@given(_certificates())
def test_certificate_json_round_trip_property(pair):
    field, cert = pair
    text = serialize.dumps(serialize.certificate_to_json(cert))
    back = serialize.certificate_from_json(json.loads(text), field)
    assert back == cert
    assert serialize.dumps(serialize.certificate_to_json(back)) == text


# JSON values that are not non-negative integers; 2.0 and True included
_NOT_NATURAL = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=3),
                         st.integers(max_value=-1), st.none())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exps", "term nvars", "map nvars"]), _NOT_NATURAL)
def test_map_from_json_rejects_non_natural_integers(where, value):
    x1, x2 = variables(QQ, 2)
    data = serialize.map_to_json(PolyMap([x2 ** 2, x1 * x2]))
    if where == "exps":
        data["components"][1]["terms"][0]["exps"][0] = value
    elif where == "term nvars":
        data["components"][0]["nvars"] = value
    else:
        data["nvars"] = value
    with pytest.raises(ValueError):
        serialize.map_from_json(json.loads(json.dumps(data)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_NOT_NATURAL, st.just(0)))
def test_certificate_from_json_rejects_non_integer_power(value):
    cert = StarCertificate("star", [(LinearForm.unit(QQ, 2, 0), 2, [0, 1])])
    data = serialize.certificate_to_json(cert)
    data["triples"][0]["d"] = value
    with pytest.raises(ValueError):
        serialize.certificate_from_json(json.loads(json.dumps(data)), QQ)


# -- the report writer against json ---------------------------------------------

def _by_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=serialize.poly_to_json) + "\n"


_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\x00\x1f\x7f", "café", " ", "\U0001f600"]))
_BIG = st.integers(10 ** 49, 10 ** 50 - 1)  # 50 digits
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _BIG, _BIG.map(lambda v: -v), _TEXT)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(_TEXT, max_size=3),
                            st.lists(st.integers(), max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_dumps_matches_json_property(payload):
    assert serialize.dumps(payload) == _by_json(payload)


_Z5 = Field(cyclotomic(5))


@st.composite
def _polys(draw):
    field = draw(st.sampled_from((QQ, _Z5)))
    n = draw(st.integers(0, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * n), _scalars(field))
    return MultiPoly.from_terms(field, n, draw(st.lists(term, max_size=4)))


_POLY_PAYLOADS = st.recursive(
    st.one_of(_polys(), _LEAVES),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_POLY_PAYLOADS)
@example(MultiPoly.zero(QQ, 2))
@example([MultiPoly.zero(_Z5, 0), {"p": MultiPoly.constant(QQ, 0, Fraction(-3, 7))}])
@example({"a": [{"b": [MultiPoly.constant(_Z5, 3, _Z5.generator())]}]})
def test_dumps_matches_json_with_polynomial_leaves(payload):
    # a MultiPoly leaf is written as poly_to_json's dict would be, at any depth;
    # dump streams the same text into a file handle
    text = serialize.dumps(payload)
    assert text == _by_json(payload)
    handle = io.StringIO()
    serialize.dump(payload, handle)
    assert handle.getvalue() == text


def test_dumps_matches_json_on_families_maps_and_certificates():
    grid = ([("n4", d) for d in range(3, 7)] + [("n5", d) for d in range(2, 6)]
            + [(kind, d) for kind in ("f666", "f667") for d in range(2, 6)]
            + [("nonhomog_n4", 3), ("nonhomog_n4", 5), ("nonhomog_n5", 2),
               ("nonhomog_n5", 4), ("small2", 3), ("small3", 3)])
    for kind, d in grid:
        h = make_family(FamilySpec(kind, d))
        for payload in (serialize.map_to_json(h),
                        serialize.report_to_json(chain_report(plus_identity(h)))):
            assert serialize.dumps(payload) == _by_json(payload), (kind, d)
    specs = ([FamilySpec("f666", d, nu=Fraction(nu)) for d in range(2, 7) for nu in (1, 0)]
             + [FamilySpec("f667", d) for d in range(2, 7)]
             + [FamilySpec("small2", 3), FamilySpec("small3", 3)])
    for spec in specs:
        payload = serialize.certificate_to_json(family_certificate(spec))
        assert serialize.dumps(payload) == _by_json(payload), spec


@pytest.mark.parametrize("payload", [1.5, {"a": [1, 2.0]}, [(1, 2)], {"a": {1, 2}}, {1: "a"}])
def test_dumps_rejects_what_the_schemas_do_not_emit(payload):
    with pytest.raises(TypeError):
        serialize.dumps(payload)


def test_map_from_json_bounds_nvars():
    # 256 variables are read; 257 are refused before the components are read
    def wide(nvars):
        return {"field": {"min_poly": ["0", "1"]}, "nvars": nvars,
                "components": [{"nvars": nvars, "terms": []}] * nvars}

    assert serialize.map_from_json(wide(256)).nvars == 256
    with pytest.raises(ValueError, match="above the map-file bound 256"):
        serialize.map_from_json(dict(wide(257), components=None))


# -- scalar text from integer numerators; certificate size bound --------------

def _fraction_reader(value):
    """What a coordinate of a map file read as before integer storage: ints and
    strings through Fraction, every other JSON value a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(type(value).__name__)
    return Fraction(value)


def _outcome(read, value):
    try:
        return read(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc)


_EDGE_TEXTS = ["2/4", "-0", "0/5", " 3", "1e3", "1.5", "1/0", "-6/8", "+1", "1_000", "0x10",
               "", "/", "1/2/3", "nan", "١", str(10 ** 30) + "/" + str(6 * 10 ** 29)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(_EDGE_TEXTS), st.text(alphabet="-+/ .e0123456789", max_size=5),
                 st.fractions().map(str), st.integers(), st.booleans(), st.floats(), st.none()),
       st.sampled_from([QQ, Field(cyclotomic(5)), Field([Fraction(25, 4), 0, 1])]))
def test_scalar_reader_accepts_and_refuses_what_fraction_did(value, field):
    from kellerlab.cli import _INPUT_ERRORS

    expected = _outcome(_fraction_reader, value)
    for read in (lambda v: serialize.scalar_from_json([v], field),
                 lambda v: serialize.scalar_from_json(v, field) if isinstance(v, str) else
                 serialize.scalar_from_json([v], field)):
        got = _outcome(read, value)
        if isinstance(expected, type):
            assert got is expected and issubclass(got, _INPUT_ERRORS), (value, got)
        else:
            assert got.coords == (expected,) + (0,) * (field.degree - 1), value
            assert serialize.scalar_to_json(got)[0] == str(expected)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, Field(cyclotomic(5)), Field([Fraction(25, 4), 0, 1])]), st.data())
def test_scalar_writer_matches_str_of_fraction(field, data):
    coords = data.draw(st.lists(st.fractions(max_denominator=10 ** 12), min_size=field.degree,
                                max_size=field.degree))
    value = field.element(coords)
    for v in (value, value * value, -value):
        assert serialize.scalar_to_json(v) == [str(c) for c in v.coords]
    assert serialize.scalar_to_json(value) == [str(c) for c in coords]


def test_certificate_bound_admits_every_family_certificate():
    # the benchmark's certified families, and the degrees the tests build, round trip
    for kind in ("f666", "f667"):
        for d in range(2, 9):
            for nu in (None, Fraction(0)):
                cert = family_certificate(FamilySpec(kind, d, nu=nu))
                data = json.loads(json.dumps(serialize.certificate_to_json(cert)))
                assert serialize.certificate_from_json(data, cert.field) == cert
    for kind in ("small2", "small3"):
        cert = family_certificate(FamilySpec(kind, 3))
        assert serialize.certificate_from_json(serialize.certificate_to_json(cert), QQ) == cert


def test_certificate_bound_refuses_a_huge_power_before_expanding_it():
    import time

    def cert(d, c):
        return {"level": "star", "triples": [{"c": c, "d": d, "b": ["0", "0", "1"]}]}

    # sum_i d_i C(d_i + k_i - 1, d_i): 999 * 1000 and 10^6 * 1 pass; 1000 * 1001 and
    # (10^6 + 1) * 1 do not
    assert serialize.certificate_from_json(cert(999, ["1", "1", "0"]), QQ).count == 1
    assert serialize.certificate_from_json(cert(10 ** 6, ["0", "1", "0"]), QQ).count == 1
    assert serialize.certificate_from_json(cert(10 ** 9, ["0", "0", "0"]), QQ).count == 1
    start = time.perf_counter()
    for d, c in ((1000, ["1", "1", "0"]), (10 ** 6 + 1, ["0", "1", "0"]),
                 (20000, ["1", "1", "0"]), (10 ** 4000, ["1", "1", "1"])):
        with pytest.raises(ValueError, match="certificate powers weigh more than 1000000"):
            serialize.certificate_from_json(cert(d, c), QQ)
    assert time.perf_counter() - start < 0.5


# -- the shared-parse readers against the bodies they replaced ------------------

def _reference_poly_from_json(data, field):
    nvars = serialize._natural(data["nvars"], "nvars")
    items = [(tuple([serialize._natural(e, "exponent") for e in t["exps"]]),
              serialize.scalar_from_json(t["coeff"], field))
             for t in data["terms"]]
    return MultiPoly.from_terms(field, nvars, items)


def _reference_certificate_from_json(data, field):
    triples, weight = [], 0
    for t in data["triples"]:
        c = LinearForm(field, [serialize.scalar_from_json(v, field) for v in t["c"]])
        b = [serialize.scalar_from_json(v, field) for v in t["b"]]
        d = serialize._natural(t["d"], "certificate power d")
        k, bound = sum(not v.is_zero() for v in c.coeffs), serialize._MAX_CERTIFICATE_WEIGHT
        weight += d * math.comb(d + k - 1, d) if k else 0
        if weight > bound:
            raise ValueError(f"certificate powers weigh more than {bound}")
        triples.append((c, d, b))
    return StarCertificate(data["level"], triples)


def _result(read, *args):
    """A read's value, or the type and message of what it raised."""
    try:
        return read(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def _same_scalars(got, want):
    if isinstance(want, tuple):
        return got == want
    if isinstance(want, MultiPoly):
        return (got.nvars, list(got.terms.items())) == (want.nvars, list(want.terms.items())) \
            and all((a.nums, a.den) == (b.nums, b.den) for a, b in zip(got.terms.values(),
                                                                       want.terms.values()))
    return got == want and all((a.nums, a.den) == (b.nums, b.den)
                               for (c1, _, b1), (c2, _, b2) in zip(got.triples, want.triples)
                               for a, b in zip([*c1.coeffs, *b1], [*c2.coeffs, *b2]))


# what the tests already refuse or merge: bools, floats, bad texts, negative and
# non-list exponents, wrong lengths, duplicate monomials, zero coefficients
_BAD_VALUES = [True, False, 2.0, 1.5, "1/0", " 3", "1e3", "x", None, [1], {"1": 0}, -1, 0, 1, "2/4",
               ["1", "2"], ["0"], ["3/6", "0"], ["1"] * 30, []]
_EXPS = [[2, 0], [0, 1], [1, 1], [-1, 0], [0, True], [0, 1.0], [0], [0, 0, 1], "12", "", 7, None,
         {"0": 1}, [0, "1"], [10 ** 30, 0]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, Field(cyclotomic(5)), Field([Fraction(25, 4), 0, 1])]),
       st.lists(st.tuples(st.sampled_from(_EXPS), st.one_of(
           st.sampled_from(_BAD_VALUES), st.lists(st.sampled_from(
               ["0", "1", "-1", "1/2", "3", 1, True, 1.0, [1], None]), max_size=3))), max_size=5))
@example(QQ, [([2, 0], [1]), ([0, 1], [True])])  # equal keys: (1,) == (True,) == (1.0,)
@example(QQ, [([2, 0], ["1"]), ([0, 1], ["1", [1]])])  # an unhashable coordinate
def test_poly_reader_matches_the_reference_body(field, terms):
    data = json.loads(json.dumps({"nvars": 2, "terms": [{"exps": e, "coeff": c} for e, c in terms]},
                                 default=str))
    want = _result(_reference_poly_from_json, data, field)
    assert _same_scalars(_result(serialize.poly_from_json, data, field), want), (data, want)
    # one reader for several polynomials, the way a map or matrix file is read
    both = _result(serialize.matrix_from_json, {"rows": 1, "cols": 2, "nvars": 2,
                                                "entries": [[data, data]]}, field)
    if isinstance(want, tuple):
        assert both == want
    else:
        assert all(_same_scalars(e, want) for e in both.entries[0])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, Field(cyclotomic(3))]),
       st.lists(st.tuples(st.lists(st.sampled_from(["0", "1", "-2/3", ["1", "1"], ["0"], ["1"]]
                                                   + _BAD_VALUES[:10]), min_size=2, max_size=2),
                          st.one_of(st.integers(0, 3), st.sampled_from([True, -1, 2.0, "2"])),
                          st.lists(st.sampled_from([["1"], ["0"], ["-1"], ["1/2", "1"], "1"]),
                                   min_size=2, max_size=2)), max_size=4))
def test_certificate_reader_matches_the_reference_body(field, triples):
    data = json.loads(json.dumps({"level": "star", "triples": [
        {"c": c, "d": d, "b": b} for c, d, b in triples]}))
    want = _result(_reference_certificate_from_json, data, field)
    assert _same_scalars(_result(serialize.certificate_from_json, data, field), want), (data, want)


def test_readers_match_the_reference_on_family_files():
    for spec in (FamilySpec("f666", 4), FamilySpec("f667", 4), FamilySpec("small3", 3)):
        h = json.loads(serialize.dumps(serialize.map_to_json(make_family(spec))))
        cert = json.loads(serialize.dumps(serialize.certificate_to_json(family_certificate(spec))))
        got = serialize.map_from_json(h)
        for raw, comp in zip(h["components"], got.components):
            assert _same_scalars(comp, _reference_poly_from_json(raw, got.field))
        assert _same_scalars(serialize.certificate_from_json(cert, got.field),
                             _reference_certificate_from_json(cert, got.field))


def test_reader_shares_one_scalar_per_distinct_coefficient():
    x1, x2 = variables(QQ, 2)
    h = serialize.map_from_json(serialize.map_to_json(PolyMap([x1 ** 2 * 3 + x2, x2 * 3])))
    threes = {id(c) for comp in h.components for c in comp.terms.values() if c == 3}
    assert len(threes) == 1
