"""Exit codes, report files and diagnostics of the command-line interface."""

import json

import pytest

from kellerlab import serialize
from kellerlab.cli import main
from kellerlab.constructions import FamilySpec, family_certificate


def _gen(tmp_path, *args):
    out = tmp_path / "map.json"
    code = main(["gen", *args, "-o", str(out)])
    return code, out


def test_gen_writes_map_file(tmp_path, capsys):
    code, out = _gen(tmp_path, "--family", "n4", "--degree", "3")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["nvars"] == 4
    nonzero = [c for c in data["components"] if c["terms"]]
    assert len(nonzero) == 2
    summary = capsys.readouterr().out
    assert "n4" in summary and "d=3" in summary


def test_gen_attaches_cyclotomic_field(tmp_path):
    code, out = _gen(tmp_path, "--family", "f667", "--degree", "3", "--nu", "0")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["field"]["min_poly"] == ["1", "1", "1"]


def test_gen_rejects_invalid_degree(tmp_path):
    code, _ = _gen(tmp_path, "--family", "n4", "--degree", "2")
    assert code == 2


def test_analyze_quasi_jc(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "n4", "--degree", "3")
    report_path = tmp_path / "report.json"
    code = main(["analyze", str(map_path), "--checks", "quasi,jc",
                 "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["conditions"]["quasi"] == "holds"
    assert report["conditions"]["jc"] == "fails"
    assert report["witnesses"]["jc"]["kind"] == "points"


def test_analyze_jc_plus_star(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "n5", "--degree", "2")
    report_path = tmp_path / "report.json"
    code = main(["analyze", str(map_path), "--checks", "jc-plus,star",
                 "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["conditions"]["jc_plus"] == "holds"
    assert report["conditions"]["star"] == "fails"


def test_analyze_identity_map_keller(tmp_path):
    map_path = tmp_path / "zero.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["0", "1"]},
        "nvars": 2,
        "components": [{"nvars": 2, "terms": []}, {"nvars": 2, "terms": []}],
    }))
    assert main(["analyze", str(map_path), "--checks", "keller"]) == 0


def test_analyze_undecided_only_exits_two(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "n5", "--degree", "2")
    assert main(["analyze", str(map_path), "--checks", "jc-minus"]) == 2


def test_analyze_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nvars\": 2}")
    assert main(["analyze", str(bad), "--checks", "keller"]) == 2


def test_analyze_unknown_check(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "small2", "--degree", "3")
    assert main(["analyze", str(map_path), "--checks", "bogus"]) == 2


def test_analyze_repeated_check_reported_once(tmp_path, capsys):
    _, map_path = _gen(tmp_path, "--family", "small2", "--degree", "3")
    capsys.readouterr()
    assert main(["analyze", str(map_path), "--checks", "keller,quasi,keller"]) == 0
    assert capsys.readouterr().err.splitlines() == ["keller: holds", "quasi: holds"]


def test_analyze_reports_are_byte_identical(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "2")
    first = tmp_path / "rep1.json"
    second = tmp_path / "rep2.json"
    assert main(["analyze", str(map_path), "--checks", "all",
                 "--report", str(first)]) in (0, 1, 2)
    assert main(["analyze", str(map_path), "--checks", "all",
                 "--report", str(second)]) in (0, 1, 2)
    assert first.read_bytes() == second.read_bytes()


def test_analyze_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KELLER_LAB_THREADS", "4")
    _, map_path = _gen(tmp_path, "--family", "small3", "--degree", "3")
    report_path = tmp_path / "rep.json"
    code = main(["analyze", str(map_path), "--checks", "all",
                 "--report", str(report_path)])
    assert code == 1  # the span oracle decides triplestar negatively
    monkeypatch.setenv("KELLER_LAB_THREADS", "1")
    solo = tmp_path / "solo.json"
    main(["analyze", str(map_path), "--checks", "all", "--report", str(solo)])
    assert report_path.read_bytes() == solo.read_bytes()


def _write_cert(tmp_path, spec):
    cert = family_certificate(spec)
    path = tmp_path / "cert.json"
    path.write_text(serialize.dumps(serialize.certificate_to_json(cert)))
    return path


def test_certify_family_certificate(tmp_path, capsys):
    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "2", "--nu", "1")
    cert_path = _write_cert(tmp_path, FamilySpec("f666", 2, nu=1))
    assert main(["certify", str(map_path), str(cert_path)]) == 0
    assert "triplestar" in capsys.readouterr().out


def test_certify_perturbed_sum(tmp_path, capsys):
    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "2", "--nu", "1")
    cert_path = _write_cert(tmp_path, FamilySpec("f666", 2, nu=1))
    data = json.loads(cert_path.read_text())
    data["triples"][0]["b"][1] = ["9"]
    cert_path.write_text(json.dumps(data))
    assert main(["certify", str(map_path), str(cert_path)]) == 1
    assert "sum mismatch" in capsys.readouterr().out


def test_certify_orthogonality_diagnostic(tmp_path, capsys):
    map_path = tmp_path / "simple.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["0", "1"]},
        "nvars": 2,
        "components": [{"nvars": 2, "terms": [{"exps": [2, 0], "coeff": ["1"]}]},
                       {"nvars": 2, "terms": []}],
    }))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "level": "star",
        "triples": [{"c": [["1"], ["0"]], "d": 2, "b": [["1"], ["0"]]}],
    }))
    assert main(["certify", str(map_path), str(cert_path)]) == 1
    assert "orthogonality (1,1)" in capsys.readouterr().out


def test_certify_level_override(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "2", "--nu", "0")
    cert_path = _write_cert(tmp_path, FamilySpec("f666", 2, nu=0))
    assert main(["certify", str(map_path), str(cert_path)]) == 0
    assert main(["certify", str(map_path), str(cert_path),
                 "--level", "triplestar"]) == 1


def test_certify_malformed_cert(tmp_path):
    _, map_path = _gen(tmp_path, "--family", "small2", "--degree", "3")
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["certify", str(map_path), str(bad)]) == 2


def test_certify_dimension_mismatch_is_input_error(tmp_path, capsys):
    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "2")
    cert_path = _write_cert(tmp_path, FamilySpec("small3", 3))
    capsys.readouterr()
    assert main(["certify", str(map_path), str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "rejected" not in captured.out


def _square_map(tmp_path, exps=(2, 0), nvars=2):
    """H = (0, x1^2), with the exponent vector and nvars as given."""
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "field": {"min_poly": ["0", "1"]},
        "nvars": 2,
        "components": [{"nvars": nvars, "terms": []},
                       {"nvars": nvars, "terms": [{"exps": list(exps), "coeff": ["1"]}]}],
    }))
    return path


def _square_cert(tmp_path, d):
    path = tmp_path / "square.cert.json"
    path.write_text(json.dumps({
        "level": "star",
        "triples": [{"c": [["1"], ["0"]], "d": d, "b": [["0"], ["1"]]}],
    }))
    return path


@pytest.mark.parametrize("d", [2.9, 2.0, "2", True, -2])
def test_certify_rejects_non_integer_power(tmp_path, capsys, d):
    map_path = _square_map(tmp_path)
    assert main(["certify", str(map_path), str(_square_cert(tmp_path, 2))]) == 0
    capsys.readouterr()
    assert main(["certify", str(map_path), str(_square_cert(tmp_path, d))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "verifies" not in captured.out


@pytest.mark.parametrize("exps, nvars", [((1.5, 0), 2), ((True, 0), 2), ((2, -1), 2),
                                         (("2", 0), 2), ((2, 0), 2.0), ((2, 0), True)])
def test_non_integer_exponents_are_input_errors(tmp_path, capsys, exps, nvars):
    map_path = _square_map(tmp_path, exps, nvars)
    assert main(["analyze", str(map_path), "--checks", "all"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["certify", str(map_path), str(_square_cert(tmp_path, 2))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _reducible_field_map(tmp_path):
    """H = ((1+t)x2, (t-1)x3, x1^2, 0, (1+t)x4) over Q[t]/(t^2-1), not a field."""
    def comp(*terms):
        return {"nvars": 5, "terms": [{"exps": e, "coeff": c} for e, c in terms]}
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({
        "field": {"min_poly": ["-1", "0", "1"]},
        "nvars": 5,
        "components": [comp(([0, 1, 0, 0, 0], ["1", "1"])), comp(([0, 0, 1, 0, 0], ["-1", "1"])),
                       comp(([2, 0, 0, 0, 0], ["1", "0"])), comp(),
                       comp(([0, 0, 0, 1, 0], ["1", "1"]))],
    }))
    return path


@pytest.mark.parametrize("checks", ["triplestar", "all", "keller", "strong-nilpotent"])
def test_analyze_reducible_min_poly_is_input_error(tmp_path, capsys, checks):
    # 1 + t is a zero divisor modulo t^2 - 1, so elimination cannot divide by it
    map_path = _reducible_field_map(tmp_path)
    assert main(["analyze", str(map_path), "--checks", checks]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_certify_reducible_min_poly_is_input_error(tmp_path, capsys):
    # one term (x1)^2 (0, 1+t): sum and orthogonality hold, and the rank
    # test of the (***) level has to divide by 1 + t
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["-1", "0", "1"]},
        "nvars": 2,
        "components": [{"nvars": 2, "terms": []},
                       {"nvars": 2, "terms": [{"exps": [2, 0], "coeff": ["1", "1"]}]}],
    }))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({
        "level": "triplestar",
        "triples": [{"c": [["1", "0"], ["0", "0"]], "d": 2, "b": [["0", "0"], ["1", "1"]]}],
    }))
    assert main(["certify", str(map_path), str(cert_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_identity_exit_codes(capsys):
    assert main(["verify-identity", "eq667h", "--degree", "3"]) == 0
    assert main(["verify-identity", "pl666", "--degree", "4"]) == 0
    assert main(["verify-identity", "eq666", "--degree", "1"]) == 2


def test_gz_verify_exit_code(capsys):
    assert main(["gz-verify"]) == 0
    assert "holds" in capsys.readouterr().out


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "n4", "--degree", "3", "--bogus", "1",
              "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("family,degree", [
    ("n4", 3), ("n4", 4),
    ("n5", 2), ("n5", 3), ("n5", 4),
    ("f666", 2), ("f666", 3), ("f666", 4),
    ("f667", 2), ("f667", 3), ("f667", 4),
    ("nonhomog_n4", 3), ("nonhomog_n4", 4),
    ("nonhomog_n5", 2), ("nonhomog_n5", 3), ("nonhomog_n5", 4),
    ("small2", 2), ("small2", 3), ("small2", 4),
    ("small3", 2), ("small3", 3), ("small3", 4),
])
def test_gen_analyze_round_trip_matches_library(tmp_path, family, degree):
    from kellerlab.polymap import plus_identity
    from kellerlab.properties import chain_report
    from kellerlab.constructions import make_family

    _, map_path = _gen(tmp_path, "--family", family, "--degree", str(degree))
    report_path = tmp_path / "report.json"
    main(["analyze", str(map_path), "--checks", "all", "--report", str(report_path)])
    from_cli = json.loads(report_path.read_text())["conditions"]
    h = make_family(FamilySpec(family, degree))
    direct = chain_report(plus_identity(h)).conditions
    assert from_cli == dict(sorted(direct.items()))


@pytest.mark.parametrize("min_poly, coeff", [
    (["0", "1"], ["1/0"]), (["1/0", "1"], ["1"]), (["0", "1"], [True]), ([0, True], ["1"]),
], ids=["coeff 1/0", "min_poly 1/0", "coeff true", "min_poly true"])
def test_bad_rationals_are_input_errors(tmp_path, capsys, min_poly, coeff):
    # H = (0, c x1^2) over Q[t]/(min_poly)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": min_poly},
        "nvars": 2,
        "components": [{"nvars": 2, "terms": []},
                       {"nvars": 2, "terms": [{"exps": [2, 0], "coeff": coeff}]}],
    }))
    for checks in ("all", "keller"):
        assert main(["analyze", str(map_path), "--checks", checks]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["certify", str(map_path), str(_square_cert(tmp_path, 2))]) == 2
    assert capsys.readouterr().err.startswith("error: ")
