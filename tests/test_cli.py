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


def test_analyze_streams_a_large_report(tmp_path, capsys):
    # the f666 d=5 report is 1.1 MB of JSON, most of it the jc_minus inverse:
    # streamed from its polynomials it peaks near 1.2 MB of traced memory, where
    # a dict per term and the whole text as one string reached 6.4 MB
    import tracemalloc

    _, map_path = _gen(tmp_path, "--family", "f666", "--degree", "5")
    report = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["analyze", str(map_path), "--checks", "all", "--report", str(report)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10 ** 6
    text = report.read_text()
    assert len(text) > 10 ** 6
    capsys.readouterr()
    assert main(["analyze", str(map_path), "--checks", "all"]) == 1
    assert capsys.readouterr().out == text


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


@pytest.mark.parametrize("checks", ["triplestar", "all", "keller", "strong-nilpotent",
                                    "quasi", "jc-plus", "doublestar"])
def test_analyze_reducible_min_poly_is_input_error(tmp_path, capsys, checks):
    # 1 + t is a zero divisor modulo t^2 - 1, so elimination cannot divide by it
    map_path = _reducible_field_map(tmp_path)
    assert main(["analyze", str(map_path), "--checks", checks]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("checks", ["all", "keller", "quasi", "jc-plus", "strong-nilpotent",
                                    "doublestar"])
def test_analyze_reducible_quartic_without_rational_root_is_input_error(tmp_path, capsys, checks):
    # H = ((1+t^2)x2, (t^2+2)x3, x1^2, 0, (1+t^2)x4) over Q[t]/((t^2+1)(t^2+2))
    def comp(*terms):
        return {"nvars": 5, "terms": [{"exps": e, "coeff": c} for e, c in terms]}
    map_path = tmp_path / "quartic.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["2", "0", "3", "0", "1"]},
        "nvars": 5,
        "components": [comp(([0, 1, 0, 0, 0], ["1", "0", "1"])),
                       comp(([0, 0, 1, 0, 0], ["2", "0", "1"])),
                       comp(([2, 0, 0, 0, 0], ["1"])), comp(),
                       comp(([0, 0, 0, 1, 0], ["1", "0", "1"]))],
    }))
    assert main(["analyze", str(map_path), "--checks", checks]) == 2
    assert capsys.readouterr().err.startswith("error: min_poly is not proven irreducible")


def test_gen_to_unwritable_path_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["gen", "--family", "n4", "--degree", "3", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_report_to_unwritable_path_is_input_error(tmp_path, capsys):
    _, map_path = _gen(tmp_path, "--family", "n4", "--degree", "3")
    report = tmp_path / "missing" / "r.json"
    assert main(["analyze", str(map_path), "--checks", "keller", "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists()


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


@pytest.mark.parametrize("nested", ["analyze map", "certify map", "certify cert"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, nested):
    # 100 000 open brackets exhaust the JSON decoder's recursion
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    map_path, cert_path = _square_map(tmp_path), _square_cert(tmp_path, 2)
    argv = {"analyze map": ["analyze", str(deep), "--checks", "keller"],
            "certify map": ["certify", str(deep), str(cert_path)],
            "certify cert": ["certify", str(map_path), str(deep)]}[nested]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_map_file_min_poly_above_degree_64_is_input_error(tmp_path, capsys):
    # t^128 + 1 is cyclotomic, but proving it so is not attempted past degree 64
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["1"] + ["0"] * 127 + ["1"]},
        "nvars": 2,
        "components": [{"nvars": 2, "terms": []}, {"nvars": 2, "terms": []}],
    }))
    assert main(["analyze", str(map_path), "--checks", "keller"]) == 2
    assert capsys.readouterr().err.startswith("error: min_poly has degree 128")


@pytest.mark.parametrize("nvars,checks,code,budget,conditions", [
    (1, "jc-minus", 2, 5.0, {"jc_minus": "undecided"}),
    (1, "quasi", 1, 1.0, {"quasi": "fails"}),
    (1, "all", 1, 5.0, {"quasi": "fails", "jc": "undecided"}),
    (2, "jc-plus", 1, 2.0, {"jc_plus": "fails"}),
    (2, "all", 1, 5.0, {"jc": "undecided", "jc_plus": "fails"}),
], ids=["jc-minus", "quasi", "all", "n2-jc-plus", "n2-all"])
def test_jc_minus_on_a_huge_exponent_answers_fast(tmp_path, capsys, nvars, checks, code, budget,
                                                  conditions):
    # H = (x1^1000000) or (x1^1000000, 0): composing (x - H)^1000000 for the
    # quasi-translation test never finished; JH H = 10^6 x1^1999999 is one
    # product, and its entry is the quasi witness.  jc would sum JF at 999 999
    # points, beyond the sum condition's point bound.  jc_plus at n = 2 restricts
    # det G to a degree-999 999 polynomial, past the rational root search's bound
    import time

    map_path = tmp_path / "huge.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["0", "1"]},
        "nvars": nvars,
        "components": [{"nvars": nvars, "terms": [{"exps": [1000000] + [0] * (nvars - 1),
                                                   "coeff": "1"}]}]
                      + [{"nvars": nvars, "terms": []}] * (nvars - 1),
    }, separators=(",", ":")))
    assert len(map_path.read_bytes()) <= {1: 125, 2: 135}[nvars]
    start = time.perf_counter()
    assert main(["analyze", str(map_path), "--checks", checks]) == code
    assert time.perf_counter() - start < budget
    got = json.loads(capsys.readouterr().out)["conditions"]
    assert {name: got[name] for name in conditions} == conditions


def test_wide_map_is_input_error(monkeypatch, tmp_path, capsys):
    # 56 KB: nvars 2000 and x1^2 in the last component.  jc_plus would spell
    # count^n = 2000^2000 in decimal, past Python's int-to-str limit; the map
    # file is refused before any check runs
    from kellerlab import cli

    nvars = 2000
    map_path = tmp_path / "wide.json"
    map_path.write_text(json.dumps({
        "field": {"min_poly": ["0", "1"]},
        "nvars": nvars,
        "components": [{"nvars": nvars, "terms": []}] * (nvars - 1)
                      + [{"nvars": nvars, "terms": [{"exps": [2] + [0] * (nvars - 1),
                                                     "coeff": "1"}]}],
    }, separators=(",", ":")))
    assert 50_000 < len(map_path.read_bytes()) < 60_000
    monkeypatch.setattr(cli, "chain_report", lambda *args, **kwargs: pytest.fail("a check ran"))
    for checks in ("jc-plus", "all"):
        assert main(["analyze", str(map_path), "--checks", checks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: nvars is 2000, above the map-file bound 256")
        assert "Traceback" not in err


def test_certify_a_huge_certificate_power_is_input_error(tmp_path, capsys):
    # (x1 + x2)^20000 against the zero map in 3 variables: the expansion ran until
    # killed; the certificate file's size bound refuses it before expanding
    import time

    map_path, cert_path = tmp_path / "map.json", tmp_path / "cert.json"
    map_path.write_text(json.dumps({"field": {"min_poly": ["0", "1"]}, "nvars": 3,
                                    "components": [{"nvars": 3, "terms": []}] * 3}))
    cert_path.write_text('{"level":"star","triples":[{"c":["1","1","0"],"d":20000,"b":["0","0","1"]}]}')
    assert len(cert_path.read_bytes()) <= 90
    start = time.perf_counter()
    assert main(["certify", str(map_path), str(cert_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "certificate powers weigh more than" in capsys.readouterr().err
