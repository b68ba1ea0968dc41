"""JSON schemas for fields, polynomials, maps, matrices, certificates, reports.

All numbers travel as rational strings ("p/q" or plain integers), terms are
sorted lexicographically by exponent vector, and `dumps` emits sorted keys,
so identical objects always serialize to identical bytes.  The writer's
contract is `dumps(p) == json.dumps(p, sort_keys=True, indent=2,
default=poly_to_json) + "\n"`: `report_to_json` keeps a report's polynomials as
MultiPoly leaves, each written in one piece, and `dump` streams the text into
a file, so no report is held whole as dicts or as a string.  A map file has
at most 256 variables, and its min_poly has degree at most 64 and, from
degree 2 on, must be proven irreducible (`field_from_json`); the library's
`PolyMap` and `Field` have none of these bounds, nor `StarCertificate` a size bound.
The readers of a map, certificate or matrix parse each distinct list of
coefficient strings once per file and share its Scalar, which is immutable.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .exactfield import Field, Scalar, is_cyclotomic_or_eisenstein, rational_roots
from .multipoly import LinearForm, MultiPoly, _merged
from .polymap import PolyMap, PolyMatrix
from .properties import PropertyReport, StarCertificate

__all__ = [
    "field_to_json", "field_from_json",
    "scalar_to_json", "scalar_from_json",
    "poly_to_json", "poly_from_json",
    "map_to_json", "map_from_json",
    "matrix_to_json", "matrix_from_json",
    "certificate_to_json", "certificate_from_json",
    "report_to_json", "dump", "dumps",
]


def field_to_json(field: Field) -> dict:
    return {"min_poly": [str(c) for c in field.min_poly]}


# the cyclotomic test builds cyclotomic(k) for every k with phi(k) = degree;
# on a 2-core Xeon with Python 3.11 that takes 0.2 s at degree 64, 1.2 s at
# 128, 5.7 s at 256 and over a minute at 1024
_MAX_MIN_POLY_DEGREE = 64


def field_from_json(data: dict) -> Field:
    """Q[t]/(min_poly); ValueError unless a min_poly of degree >= 2 is proven
    irreducible: of degree 2 or 3 with no rational root, cyclotomic, or
    Eisenstein.  A root search past its bound proves nothing, and a degree
    above _MAX_MIN_POLY_DEGREE is refused before any proof is tried."""
    field = Field(data["min_poly"])
    if field.degree > _MAX_MIN_POLY_DEGREE:
        raise ValueError(f"min_poly has degree {field.degree}, above the map-file bound "
                         f"{_MAX_MIN_POLY_DEGREE}")
    if field.degree >= 2:
        roots = rational_roots(field.min_poly)
        if roots:
            raise ValueError(f"min_poly has the rational root {roots[0]}, so it does not define a field")
        if (roots is None or field.degree > 3) and not is_cyclotomic_or_eisenstein(field.min_poly):
            raise ValueError("min_poly is not proven irreducible (degree 2 or 3 without a rational "
                             "root, cyclotomic, or Eisenstein), so it may not define a field")
    return field


def scalar_to_json(value: Scalar) -> list:
    return value.texts()


def scalar_from_json(data, field: Field) -> Scalar:
    if isinstance(data, str):
        return field.scalar(data)
    return field.element(data)


def poly_to_json(poly: MultiPoly) -> dict:
    return {"nvars": poly.nvars, "terms": [{"exps": list(exps), "coeff": scalar_to_json(coeff)}
                                           for exps, coeff in poly.sorted_terms()]}


def _natural(value, what: str) -> int:
    """A JSON integer >= 0; bools, floats and strings raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _scalar_reader(field: Field):
    """`scalar_from_json` for one file, parsing each distinct list of strings once."""
    parsed = {}

    def read(data):
        if type(data) is not list or set(map(type, data)) != {str}:
            return scalar_from_json(data, field)
        key = tuple(data)  # a Scalar is never false: it defines no __bool__
        return parsed.get(key) or parsed.setdefault(key, field.element(data))
    return read


def poly_from_json(data: dict, field: Field) -> MultiPoly:
    return _read_poly(data, field, _scalar_reader(field))


def _read_poly(data: dict, field: Field, read) -> MultiPoly:
    """`MultiPoly.from_terms` on the terms, coefficients parsed by `read`; a list of
    plain non-negative ints skips `_natural`."""
    nvars, items = _natural(data["nvars"], "nvars"), []
    for t in data["terms"]:
        exps = t["exps"]
        if not (type(exps) is list and set(map(type, exps)) <= {int} and min(exps, default=0) >= 0):
            exps = [_natural(e, "exponent") for e in exps]
        items.append((tuple(exps), read(t["coeff"])))
    if {len(e) for e, _ in items} - {nvars}:
        raise ValueError("bad exponent vector")
    return MultiPoly(field, nvars, _merged({}, items))


def map_to_json(map_: PolyMap, poly=poly_to_json) -> dict:
    """The map schema, with `poly` applied to each component."""
    return {"field": field_to_json(map_.field), "nvars": map_.nvars,
            "components": [poly(c) for c in map_.components]}


# the largest map of the benchmark grids has 14 variables; near 1400, the
# count^n of the jc_plus note passes Python's 4300-digit int-to-str limit
_MAX_NVARS = 256


def map_from_json(data: dict) -> PolyMap:
    """The map of a map file; ValueError above _MAX_NVARS variables, before any
    component is read."""
    nvars = _natural(data["nvars"], "nvars")
    if nvars > _MAX_NVARS:
        raise ValueError(f"nvars is {nvars}, above the map-file bound {_MAX_NVARS}")
    field = field_from_json(data["field"])
    read = _scalar_reader(field)
    comps = [_read_poly(c, field, read) for c in data["components"]]
    if any(raw["nvars"] != nvars for raw in data["components"]):
        raise ValueError("component nvars disagrees with the map")
    return PolyMap(comps)


def matrix_to_json(matrix: PolyMatrix) -> dict:
    entries = [[scalar_to_json(e.constant_value()) if e.is_constant() else poly_to_json(e)
                for e in row] for row in matrix.entries]
    return {"rows": matrix.rows, "cols": matrix.cols, "nvars": matrix.nvars,
            "entries": entries}


def matrix_from_json(data: dict, field: Field) -> PolyMatrix:
    nvars, read = data.get("nvars", data["cols"]), _scalar_reader(field)
    return PolyMatrix([[_read_poly(e, field, read) if isinstance(e, dict)
                        else MultiPoly.constant(field, nvars, read(e))
                        for e in row] for row in data["entries"]])


def certificate_to_json(cert: StarCertificate) -> dict:
    return {"level": cert.level,
            "triples": [{"c": [scalar_to_json(v) for v in c.coeffs], "d": d,
                         "b": [scalar_to_json(v) for v in b]} for c, d, b in cert.triples]}


# (c^t x)^d with k nonzero c_i has C(d + k - 1, d) terms of about d bits.  In sum_i d_i
# C(d_i + k_i - 1, d_i), f667 at d = 8 weighs 5984; (x1 + x2)^2000, 4 002 000, is 0.34 s
_MAX_CERTIFICATE_WEIGHT = 10 ** 6


def certificate_from_json(data: dict, field: Field) -> StarCertificate:
    """ValueError past _MAX_CERTIFICATE_WEIGHT, before any power is expanded."""
    triples, weight, read = [], 0, _scalar_reader(field)
    for t in data["triples"]:
        c = LinearForm(field, [read(v) for v in t["c"]])
        b = [read(v) for v in t["b"]]
        d, k = _natural(t["d"], "certificate power d"), sum(not v.is_zero() for v in c.coeffs)
        weight += d * math.comb(d + k - 1, d) if k else 0
        if weight > _MAX_CERTIFICATE_WEIGHT:
            raise ValueError(f"certificate powers weigh more than {_MAX_CERTIFICATE_WEIGHT}")
        triples.append((c, d, b))
    return StarCertificate(data["level"], triples)


def _witness_to_json(value):
    """A payload for `dump`: polynomials stay MultiPoly leaves."""
    if isinstance(value, Scalar):
        return scalar_to_json(value)
    if isinstance(value, PolyMap):
        return map_to_json(value, _witness_to_json)
    if isinstance(value, StarCertificate):
        return certificate_to_json(value)
    if isinstance(value, Field):
        return field_to_json(value)
    if isinstance(value, dict):
        return {k: _witness_to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_witness_to_json(v) for v in value]
    return value


def report_to_json(report: PropertyReport) -> dict:
    return {
        "schema": "report/1",
        "conditions": dict(sorted(report.conditions.items())),
        "witnesses": {k: _witness_to_json(v)
                      for k, v in sorted(report.witnesses.items())},
        "notes": dict(sorted(report.notes.items())),
    }


def dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, default=poly_to_json) + "\n",
    written directly: with an indent, `json` never uses its C encoder.  Takes dicts
    with str keys, lists, str, int, bool, None and MultiPoly; any other type raises
    TypeError."""
    out = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


def dump(payload, handle) -> None:
    """Write `dumps(payload)` to the text file `handle` as it is produced."""
    _write(payload, "\n", handle.write)
    handle.write("\n")


def _write(value, newline, emit):
    """Emit `value`; `newline` is a line break plus the indent of its first line."""
    inner = newline + "  "
    if isinstance(value, str):
        emit(_quote(value))
    elif value is None or isinstance(value, bool):
        emit("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif not isinstance(value, (dict, list)):
        if not isinstance(value, MultiPoly):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        emit(_poly_text(value, newline))
    elif not value:
        emit("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        for sep, (key, item) in zip(["{"] + [","] * len(value), sorted(value.items())):
            emit(sep + inner + _quote(key) + ": ")
            _write(item, inner, emit)
        emit(newline + "}")
    elif set(map(type, value)) in ({str}, {int}):  # a flat list, in one join
        text = map(_quote if type(value[0]) is str else int.__repr__, value)
        emit("[" + inner + ("," + inner).join(text) + newline + "]")
    else:
        for sep, item in zip(["["] + [","] * len(value), value):
            emit(sep + inner)
            _write(item, inner, emit)
        emit(newline + "]")


def _poly_text(poly: MultiPoly, newline: str) -> str:
    """`poly_to_json(poly)` as `_write` emits it, through one template per term: a
    rational coefficient is written from its reduced numerator and denominator."""
    i1, i2, i3, i4 = (newline + "  " * k for k in range(1, 5))
    exps = f"[{i4}" + ("," + i4).join(["%d"] * poly.nvars) + f"{i3}]" if poly.nvars else "[]"
    head, tail = f'{{{i3}"coeff": [{i4}"', f'"{i3}],{i3}"exps": {exps}{i2}}}'
    items = sorted(poly.terms.items())
    if poly.field.is_rational:
        whole, ratio = head + "%d" + tail, head + "%d/%d" + tail
        texts = [whole % (c.nums[0], *e) if c.den == 1 else ratio % (c.nums[0], c.den, *e)
                 for e, c in items]
    else:
        term, sep = head + "%s" + tail, f'",{i4}"'
        texts = [term % (sep.join(c.texts()), *e) for e, c in items]
    terms = ("," + i2).join(texts)
    return (f'{{{i1}"nvars": {poly.nvars},{i1}"terms": '
            + (f"[{i2}{terms}{i1}]" if terms else "[]") + newline + "}")
