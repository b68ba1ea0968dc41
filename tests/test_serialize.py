"""JSON round trips and byte-level determinism."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
