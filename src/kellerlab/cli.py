"""Command-line front end.

Subcommands:

    gen              write a built-in family H to a map file
    analyze          run condition checks on a map file holding H (F = x + H)
    certify          verify a certificate file against a map file
    verify-identity  check one of the named identities at a degree
    gz-verify        check the 13-dimensional pairing example

Exit codes: 0 when every requested check holds, 1 when at least one fails,
2 on bad input or when nothing was decidable.  Reports are deterministic:
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialize
from .constructions import FAMILY_KINDS, FamilySpec, gz_example, gz_verify, make_family
from .identities import IDENTITY_NAMES, verify_identity
from .polymap import PolyMap, plus_identity
from .properties import CHAIN_CONDITIONS, FAILS, HOLDS, certificate_failure, chain_report

# command-line spelling of each condition: jc-plus for jc_plus
CHECK_NAMES = {c.replace("_", "-"): c for c in CHAIN_CONDITIONS}

# what reading a map or certificate file raises on bad input; a rational
# "p/0" raises ZeroDivisionError
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, ZeroDivisionError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kellerlab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a built-in family")
    gen.add_argument("--family", required=True, choices=FAMILY_KINDS)
    gen.add_argument("--degree", required=True, type=int)
    gen.add_argument("--nu", default=None, help="rational parameter for f666/f667")
    gen.add_argument("--dim", default=None, type=int,
                     help="truncation dimension for f666/f667")
    gen.add_argument("-o", "--out", required=True)

    analyze = sub.add_parser("analyze", help="run condition checks on a map file")
    analyze.add_argument("map", help="map file holding the nonlinear part H")
    analyze.add_argument("--checks", default="all",
                         help="comma list of checks, or 'all'")
    analyze.add_argument("--report", default=None, help="write the report here")

    certify = sub.add_parser("certify", help="verify a certificate for a map")
    certify.add_argument("map")
    certify.add_argument("cert")
    certify.add_argument("--level", default=None,
                         choices=["star", "doublestar", "triplestar"],
                         help="override the declared level")

    ident = sub.add_parser("verify-identity", help="check a named identity")
    ident.add_argument("name", choices=IDENTITY_NAMES)
    ident.add_argument("--degree", required=True, type=int)

    sub.add_parser("gz-verify", help="check the pairing example")
    return parser


def _load_map(path: str) -> PolyMap:
    with open(path, "r", encoding="utf-8") as handle:
        return serialize.map_from_json(json.load(handle))


def cmd_gen(args) -> int:
    try:
        nu = None if args.nu is None else Fraction(args.nu)
        spec = FamilySpec(args.family, args.degree, n=args.dim, nu=nu)
        family = make_family(spec)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(serialize.dumps(serialize.map_to_json(family)))
    field_desc = "QQ" if family.field.is_rational else \
        "QQ[t]/(" + ",".join(str(c) for c in family.field.min_poly) + ")"
    print(f"{args.family} d={spec.d} n={family.nvars} field={field_desc} -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    try:
        family = _load_map(args.map)
        f_map = plus_identity(family)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checks.strip() == "all":
        wanted = list(CHAIN_CONDITIONS)
    else:
        try:
            wanted = list(dict.fromkeys(
                CHECK_NAMES[c.strip()] for c in args.checks.split(",") if c.strip()))
        except KeyError as exc:
            print(f"error: unknown check {exc.args[0]!r}", file=sys.stderr)
            return 2
    try:
        report = chain_report(f_map, checks=wanted)
    except ZeroDivisionError as exc:  # a reducible min_poly has zero divisors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = serialize.dumps(serialize.report_to_json(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    verdicts = [report.verdict(c) for c in wanted]
    for name in wanted:
        print(f"{name}: {report.verdict(name)}", file=sys.stderr)
    if any(v == FAILS for v in verdicts):
        return 1
    if verdicts and all(v == HOLDS for v in verdicts):
        return 0
    return 2


def cmd_certify(args) -> int:
    try:
        family = _load_map(args.map)
        with open(args.cert, "r", encoding="utf-8") as handle:
            cert = serialize.certificate_from_json(json.load(handle), family.field)
        failure = certificate_failure(family, cert, level=args.level)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    level = args.level or cert.level
    if failure is None:
        print(f"certificate verifies at level {level}")
        return 0
    print(f"certificate rejected: {failure}")
    return 1


def cmd_verify_identity(args) -> int:
    try:
        ok = verify_identity(args.name, args.degree)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.name} d={args.degree}: {'holds' if ok else 'fails'}")
    return 0 if ok else 1


def cmd_gz_verify(_args) -> int:
    report = gz_verify(gz_example())
    verdict = report.verdict("gz")
    print(f"gz example: {verdict}")
    if verdict == HOLDS:
        return 0
    print(report.notes.get("gz", ""), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "analyze": cmd_analyze,
        "certify": cmd_certify,
        "verify-identity": cmd_verify_identity,
        "gz-verify": cmd_gz_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
