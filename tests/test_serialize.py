"""JSON round trips and byte-level determinism."""

import io
import json
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
