"""JSON schemas for fields, polynomials, maps, matrices, certificates, reports.

All numbers travel as rational strings ("p/q" or plain integers), terms are
sorted lexicographically by exponent vector, and `dumps` emits sorted keys,
so identical objects always serialize to identical bytes.
"""

from __future__ import annotations

import json

from .exactfield import Field, Scalar
from .multipoly import LinearForm, MultiPoly
from .polymap import PolyMap, PolyMatrix
from .properties import PropertyReport, StarCertificate

__all__ = [
    "field_to_json", "field_from_json",
    "scalar_to_json", "scalar_from_json",
    "poly_to_json", "poly_from_json",
    "map_to_json", "map_from_json",
    "matrix_to_json", "matrix_from_json",
    "certificate_to_json", "certificate_from_json",
    "report_to_json", "dumps",
]


def field_to_json(field: Field) -> dict:
    return {"min_poly": [str(c) for c in field.min_poly]}


def field_from_json(data: dict) -> Field:
    return Field(data["min_poly"])


def scalar_to_json(value: Scalar) -> list:
    return [str(c) for c in value.coords]


def scalar_from_json(data, field: Field) -> Scalar:
    if isinstance(data, str):
        return field.scalar(data)
    return field.element(data)


def poly_to_json(poly: MultiPoly) -> dict:
    return {
        "nvars": poly.nvars,
        "terms": [{"exps": list(exps), "coeff": scalar_to_json(coeff)}
                  for exps, coeff in poly.sorted_terms()],
    }


def _natural(value, what: str) -> int:
    """A JSON integer >= 0; bools, floats and strings raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def poly_from_json(data: dict, field: Field) -> MultiPoly:
    nvars = _natural(data["nvars"], "nvars")
    items = [(tuple(_natural(e, "exponent") for e in t["exps"]),
              scalar_from_json(t["coeff"], field))
             for t in data["terms"]]
    return MultiPoly.from_terms(field, nvars, items)


def map_to_json(map_: PolyMap) -> dict:
    return {
        "field": field_to_json(map_.field),
        "nvars": map_.nvars,
        "components": [poly_to_json(c) for c in map_.components],
    }


def map_from_json(data: dict) -> PolyMap:
    field = field_from_json(data["field"])
    comps = [poly_from_json(c, field) for c in data["components"]]
    nvars = _natural(data["nvars"], "nvars")
    for raw in data["components"]:
        if raw["nvars"] != nvars:
            raise ValueError("component nvars disagrees with the map")
    return PolyMap(comps)


def matrix_to_json(matrix: PolyMatrix) -> dict:
    entries = []
    for row in matrix.entries:
        out_row = []
        for e in row:
            if e.is_constant():
                out_row.append(scalar_to_json(e.constant_value()))
            else:
                out_row.append(poly_to_json(e))
        entries.append(out_row)
    return {"rows": matrix.rows, "cols": matrix.cols, "nvars": matrix.nvars,
            "entries": entries}


def matrix_from_json(data: dict, field: Field) -> PolyMatrix:
    nvars = data.get("nvars", data["cols"])
    grid = []
    for row in data["entries"]:
        out_row = []
        for e in row:
            if isinstance(e, dict):
                out_row.append(poly_from_json(e, field))
            else:
                out_row.append(MultiPoly.constant(field, nvars,
                                                  scalar_from_json(e, field)))
        grid.append(out_row)
    return PolyMatrix(grid)


def certificate_to_json(cert: StarCertificate) -> dict:
    return {
        "level": cert.level,
        "triples": [{"c": [scalar_to_json(v) for v in c.coeffs],
                     "d": d,
                     "b": [scalar_to_json(v) for v in b]}
                    for c, d, b in cert.triples],
    }


def certificate_from_json(data: dict, field: Field) -> StarCertificate:
    triples = []
    for t in data["triples"]:
        c = LinearForm(field, [scalar_from_json(v, field) for v in t["c"]])
        b = [scalar_from_json(v, field) for v in t["b"]]
        triples.append((c, _natural(t["d"], "certificate power d"), b))
    return StarCertificate(data["level"], triples)


def _witness_to_json(value):
    if isinstance(value, Scalar):
        return scalar_to_json(value)
    if isinstance(value, MultiPoly):
        return poly_to_json(value)
    if isinstance(value, PolyMap):
        return map_to_json(value)
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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
