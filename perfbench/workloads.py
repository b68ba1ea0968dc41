"""The three workloads: their grids, input generation and reference verdicts.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.

Every workload is a list of `Case`s.  A case is one call into the program:
either `kellerlab.cli.main(argv)` on generated JSON files, or (for the
certificate round trip, which has no subcommand) the library functions the
README documents, applied to the same JSON files.  `build` writes the inputs
for a seed and returns the grid; `frontier` returns the cases the program
cannot finish today, which the traced run probes once with a short limit.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from kellerlab import cli, constructions, linalg, polymap, properties, serialize
from kellerlab.constructions import FamilySpec

HOLDS, FAILS = "holds", "fails"

CHECKS = ("keller", "nilpotent", "quasi", "jc_minus", "jc", "jc_plus",
          "strong_nilpotent", "star", "doublestar", "triplestar")

# What the paper proves about each family, whatever its degree.  None marks
# a condition the paper leaves open for that family; any decided verdict is
# accepted there.  A decided verdict that contradicts a known entry is a
# wrong output.  The separations the benchmark guards:
#   n4 is a quasi-translation (JC- holds) that fails JC;
#   n5 holds JC+ but is not strongly nilpotent, so (*) fails;
#   small2 fails (**) and (***), small3 has a (**) certificate but fails (***);
#   f666 (nu = 1) has a (***) certificate, f667 a (*) certificate.
_N4 = dict(keller=HOLDS, nilpotent=HOLDS, quasi=HOLDS, jc_minus=HOLDS, jc=FAILS,
           jc_plus=FAILS, strong_nilpotent=FAILS, star=FAILS, doublestar=FAILS,
           triplestar=FAILS)
_N5 = dict(keller=HOLDS, nilpotent=HOLDS, quasi=FAILS, jc_minus=None, jc=HOLDS,
           jc_plus=HOLDS, strong_nilpotent=FAILS, star=FAILS, doublestar=FAILS,
           triplestar=FAILS)
_F666 = dict(keller=HOLDS, nilpotent=HOLDS, quasi=FAILS, jc_minus=HOLDS, jc=HOLDS,
             jc_plus=HOLDS, strong_nilpotent=HOLDS, star=HOLDS, doublestar=HOLDS,
             triplestar=HOLDS)
_SMALL = dict(keller=HOLDS, nilpotent=HOLDS, quasi=HOLDS, jc_minus=HOLDS, jc=HOLDS,
              jc_plus=HOLDS, strong_nilpotent=HOLDS, star=HOLDS)
REFERENCE = {
    "n4": _N4,
    "nonhomog_n4": _N4,
    "n5": _N5,
    "nonhomog_n5": _N5,
    "f666": _F666,
    "f667": dict(_F666, doublestar=None, triplestar=None),
    "small2": dict(_SMALL, doublestar=FAILS, triplestar=FAILS),
    "small3": dict(_SMALL, doublestar=HOLDS, triplestar=FAILS),
}

# families: defining forms at increasing degree, one `analyze --checks all`
# per map.  f666 and f667 stop at d = 5: d = 6 and 7 alone take 21 s of a
# 27 s pass on a 2-core machine, which does not fit a repeated run.
FAMILY_GRID = ([("n4", d) for d in range(3, 7)] + [("n5", d) for d in range(2, 6)]
               + [("f666", d) for d in range(2, 6)] + [("f667", d) for d in range(2, 6)]
               + [("nonhomog_n4", 3), ("nonhomog_n4", 5), ("nonhomog_n5", 2),
                  ("nonhomog_n5", 4), ("small2", 3), ("small3", 3)])

# conjugated: (kind, degree, dimension or None for the family's own).
# f666/f667 at d = 2 are truncated to n = 4; at their full n = 6 the
# `jc_plus` check does not finish, and that case is a frontier probe.
CONJUGATED_GRID = (("n4", 3, None), ("n5", 2, None), ("f666", 2, 4), ("f667", 2, 4),
                   ("small2", 3, None), ("small3", 3, None), ("nonhomog_n4", 3, None),
                   ("nonhomog_n5", 2, None))
# Checks left out of the grid because they finish but cost too much for a
# repeated run: 11 s of a 24 s pass on a 2-core machine.  strong_nilpotent,
# star and jc_plus are timed on the other maps.
CONJUGATED_LEFT_OUT = {("n4", 3, None, c) for c in ("jc_plus", "strong_nilpotent", "star")}
CONJUGATED_FRONTIER = (("n5", 2, None, "jc_plus"), ("f666", 2, None, "jc_plus"),
                       ("f667", 2, None, "jc_plus"))

# certify: certificates at their declared level, their round trip, the
# identities and the pairing example.  Identities stop at d = 9 and f666 at
# d = 6 to keep one pass near five seconds.
CERTIFIED = ([("f666", d, Fraction(nu)) for d in range(2, 7) for nu in (1, 0)]
             + [("f667", d, None) for d in range(2, 7)]
             + [("small2", 3, None), ("small3", 3, None)])
IDENTITY_DEGREES = range(3, 10)


@dataclass
class Case:
    label: str
    argv: list | None = None          # a `kellerlab.cli.main` call
    call: object = None               # or a library call returning bytes
    report: str | None = None         # where `analyze` writes its report
    kind: str | None = None           # family kind, for the reference table
    checks: tuple = ()                # the analyze checks this case decides
    expect_stdout: str | None = None  # exact stdout of a certify-style case
    source: str | None = None         # input map file
    cert: str | None = None           # input certificate file


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize.dumps(payload))


def _analyze_case(label, path, kind, checks):
    report = path + "." + "-".join(checks) + ".report.json"
    arg = "all" if checks == CHECKS else ",".join(c.replace("_", "-") for c in checks)
    return Case(label, argv=["analyze", path, "--checks", arg, "--report", report],
                report=report, kind=kind, checks=checks, source=path)


def _spec_name(kind, d, n=None, nu=None):
    name = f"{kind}-d{d}"
    if n is not None:
        name += f"-n{n}"
    if nu is not None:
        name += f"-nu{nu}"
    return name


# -- families ------------------------------------------------------------------

def build_families(workdir, seed):
    del seed  # the defining forms do not depend on it; only the case order does
    cases = []
    for kind, d in FAMILY_GRID:
        path = os.path.join(workdir, _spec_name(kind, d) + ".json")
        _write(path, serialize.map_to_json(constructions.make_family(FamilySpec(kind, d))))
        cases.append(_analyze_case(f"analyze:{_spec_name(kind, d)}", path, kind, CHECKS))
    return cases


# -- conjugated ----------------------------------------------------------------

def _random_invertible(field_, n, rng):
    """Two entries of +-1 in each row, the rest 0, redrawn until invertible."""
    while True:
        grid = [[field_.zero()] * n for _ in range(n)]
        for row in grid:
            for j in rng.sample(range(n), 2):
                row[j] = field_.scalar(rng.choice((-1, 1)))
        if linalg.invert(grid, field_) is not None:
            return grid


def conjugating_matrix(kind, d, n, field_, seed):
    """T = T0 D with entries in {-1, 0, 1}, invertible by construction.

    T0 is a random invertible {-1, 0, 1} matrix with two nonzero entries per
    row, drawn once per map from a fixed stream (redrawn until invertible).
    D is a diagonal sign matrix drawn from the workload seed.  Conjugating
    by T0 D gives D G(D x) with G = T0^{-1} H(T0 x): every seed gets a
    different input file with the same monomial supports.  Drawing all of
    T from the seed made one map's cost vary up to tenfold between seeds;
    even a seeded permutation of the variables, or signs on the left of T0,
    moved a single check by fourfold, which no repeat count averages out.
    """
    t0 = _random_invertible(field_, n, random.Random(f"T0 {kind} {d} {n}"))
    rng = random.Random(f"D {seed} {kind} {d} {n}")
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[t0[i][j] * signs[j] for j in range(n)] for i in range(n)]


def _conjugated_map(workdir, kind, d, n, seed):
    h = constructions.make_family(FamilySpec(kind, d, n=n))
    grid = conjugating_matrix(kind, d, h.nvars, h.field, seed)
    conj = polymap.conjugate(h, polymap.PolyMatrix.from_scalars(h.field, h.nvars, grid))
    path = os.path.join(workdir, "conj-" + _spec_name(kind, d, n) + ".json")
    _write(path, serialize.map_to_json(conj))
    return path


def build_conjugated(workdir, seed):
    cases = []
    for kind, d, n in CONJUGATED_GRID:
        path = _conjugated_map(workdir, kind, d, n, seed)
        for check in CHECKS:
            key = (kind, d, n, check)
            if key in CONJUGATED_FRONTIER or key in CONJUGATED_LEFT_OUT:
                continue
            cases.append(_analyze_case(f"analyze:conj-{_spec_name(kind, d, n)}:{check}",
                                       path, kind, (check,)))
    return cases


def frontier_conjugated(workdir, seed):
    cases = []
    for kind, d, n, check in CONJUGATED_FRONTIER:
        path = _conjugated_map(workdir, kind, d, n, seed)
        cases.append(_analyze_case(f"analyze:conj-{_spec_name(kind, d, n)}:{check}",
                                   path, kind, (check,)))
    return cases


# -- certify -------------------------------------------------------------------

def _load_pair(map_path, cert_path):
    with open(map_path, "r", encoding="utf-8") as handle:
        h = serialize.map_from_json(json.load(handle))
    with open(cert_path, "r", encoding="utf-8") as handle:
        cert = serialize.certificate_from_json(json.load(handle), h.field)
    return h, cert


def round_trip(map_path, cert_path, back=True):
    """The README round trip on files: certificate -> T -> certificate."""
    h, cert = _load_pair(map_path, cert_path)
    t_matrix = properties.triangularization_from_certificate(cert, h.nvars)
    payload = {"t": serialize.matrix_to_json(t_matrix)}
    if back:
        rebuilt = properties.certificate_from_triangularization(h, t_matrix)
        payload["certificate"] = serialize.certificate_to_json(rebuilt)
    return serialize.dumps(payload).encode()


def check_round_trip(case, output):
    """Outside the timed region: T triangularizes H and the rebuilt certificate verifies."""
    h, _ = _load_pair(case.source, case.cert)
    payload = json.loads(output)
    t_matrix = serialize.matrix_from_json(payload["t"], h.field)
    conj = polymap.conjugate(h, t_matrix)
    if not polymap.jacobian(conj).is_lower_triangular(strict=True):
        return False
    if "certificate" in payload:
        rebuilt = serialize.certificate_from_json(payload["certificate"], h.field)
        return properties.certificate_failure(h, rebuilt, level="star") is None
    return True


def _certified_files(workdir, kind, d, nu):
    spec = FamilySpec(kind, d, nu=nu)
    name = _spec_name(kind, d, nu=None if nu is None else int(nu))
    map_path = os.path.join(workdir, name + ".json")
    cert_path = os.path.join(workdir, name + ".cert.json")
    cert = constructions.family_certificate(spec)
    _write(map_path, serialize.map_to_json(constructions.make_family(spec)))
    _write(cert_path, serialize.certificate_to_json(cert))
    return name, map_path, cert_path, cert.level


def build_certify(workdir, seed):
    del seed  # inputs are fixed; only the case order depends on the seed
    cases = []
    for kind, d, nu in CERTIFIED:
        name, map_path, cert_path, level = _certified_files(workdir, kind, d, nu)
        cases.append(Case(f"certify:{name}", argv=["certify", map_path, cert_path],
                          expect_stdout=f"certificate verifies at level {level}\n"))
        back = kind != "f667"
        cases.append(Case(f"{'roundtrip' if back else 'triangularize'}:{name}",
                          call=(round_trip, map_path, cert_path, back),
                          source=map_path, cert=cert_path))
    for ident in cli.IDENTITY_NAMES:
        for d in IDENTITY_DEGREES:
            cases.append(Case(f"verify-identity:{ident}-d{d}",
                              argv=["verify-identity", ident, "--degree", str(d)],
                              expect_stdout=f"{ident} d={d}: holds\n"))
    cases.append(Case("gz-verify", argv=["gz-verify"], expect_stdout="gz example: holds\n"))
    return cases


def frontier_certify(workdir, seed):
    """certificate_from_triangularization raises ValueError on every f667."""
    del seed
    cases = []
    for kind, d, nu in CERTIFIED:
        if kind == "f667":
            name, map_path, cert_path, _ = _certified_files(workdir, kind, d, nu)
            cases.append(Case(f"roundtrip:{name}", call=(round_trip, map_path, cert_path, True),
                              source=map_path, cert=cert_path))
    return cases


WORKLOADS = {
    "families": (build_families, None),
    "conjugated": (build_conjugated, frontier_conjugated),
    "certify": (build_certify, frontier_certify),
}


# -- correctness ---------------------------------------------------------------

def wrong_verdicts(case, verdicts):
    """Checks whose decided verdict contradicts the reference table."""
    reference = REFERENCE[case.kind]
    return [c for c in case.checks
            if verdicts.get(c) in (HOLDS, FAILS) and reference.get(c) is not None
            and verdicts[c] != reference[c]]


def inverse_witness_holds(case, report_bytes):
    """F o G = x for the `jc_minus` inverse G in an analyze report."""
    report = json.loads(report_bytes)
    witness = report["witnesses"]["jc_minus"]
    inverse = serialize.map_from_json(witness["map"])
    with open(case.source, "r", encoding="utf-8") as handle:
        f_map = polymap.plus_identity(serialize.map_from_json(json.load(handle)))
    identity = polymap.PolyMap.identity(f_map.field, f_map.nvars)
    return polymap.map_compose(f_map, inverse) == identity
