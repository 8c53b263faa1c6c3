"""Command-line interface.

Subcommands: classify, compose, invert, jacobian, vd, exp, certify, verify,
identities.  Inputs are the text forms documented in docs/formats.md; reports
are deterministic (byte-identical across runs with the same inputs/flags).

Exit codes: 0 success/PASS, 1 domain error or FAIL, 2 INDETERMINATE or
usage problems.

Each subcommand imports what it runs, so a process compiles only its own
path: `verify` loads no engine, no engine tool, no printer and no
finite-field code for a Q file, and `certify` loads neither the verifier
nor slin's monomial engine.  The toolbox subcommands' bodies live in
`polyauto.tools`.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AlgebraError, DegreeCapExceeded, ParseError
from .poly import DEFAULT_DEGREE_CAP


def _tool(args) -> int:
    """Run a toolbox subcommand, whose body is `tools.cmd_<name>`: only a
    process that runs one loads `tools`."""
    from . import tools
    return getattr(tools, f"cmd_{args.command}")(args)


def cmd_certify(args) -> int:
    from .autos import word_from_endo
    from .cotame import certify_normally_cotame
    from .maps import Endo
    from .textio import parse_automorphism, serialize_certificate
    obj = parse_automorphism(args.map, cap=args.cap)
    if isinstance(obj, Endo):
        obj = word_from_endo(obj)
    cert = certify_normally_cotame(obj, cap=args.cap)
    text = serialize_certificate(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"certificate written to {args.out}")
    else:
        sys.stdout.write(text)
    print(f"path: {cert.meta.get('path', '?')}  steps: {len(cert.steps)}  "
          f"terminal: {cert.terminal}")
    return 0


def cmd_verify(args) -> int:
    from .certificates import (CheckRecord, VerificationReport,
                               parse_certificate, verify_certificate)
    with open(args.certificate, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError("file is not UTF-8 text", line,
                         exc.start - data.rfind(b"\n", 0, exc.start))
    try:
        report = verify_certificate(parse_certificate(text, cap=args.cap),
                                    cap=args.cap)
    except DegreeCapExceeded as exc:
        # a power in the file is over the cap: undecided, like a check
        report = VerificationReport("INDETERMINATE", [
            CheckRecord(args.certificate, "parse", False, str(exc))])
    print(report.format())
    return {"PASS": 0, "FAIL": 1}.get(report.verdict, 2)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyauto",
        description="Exact polynomial automorphism algebra and "
                    "normal-closure certificates")
    ap.add_argument("--cap", type=int, default=DEFAULT_DEGREE_CAP,
                    help="total-degree cap for expansions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify an automorphism")
    p.add_argument("map")

    p = sub.add_parser("compose", help="compose two automorphisms")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("invert", help="invert a structured automorphism")
    p.add_argument("map")

    p = sub.add_parser("jacobian", help="Jacobian determinant")
    p.add_argument("map")

    p = sub.add_parser("vd", help="vector degree of a triangular map")
    p.add_argument("map")

    p = sub.add_parser("exp", help="expand exp(FD)")
    p.add_argument("--field", required=True)
    p.add_argument("-n", "--nvars", type=int, required=True)
    p.add_argument("kernel", help="the kernel polynomial F")
    p.add_argument("derivation", help="D(q1, ..., qn)")

    p = sub.add_parser("certify",
                       help="emit a normal co-tameness certificate")
    p.add_argument("map")
    p.add_argument("--out", help="output .nct path")

    p = sub.add_parser("verify", help="independently verify a certificate")
    p.add_argument("certificate")

    p = sub.add_parser("identities", help="run the identity suite")
    p.add_argument("--fields", default="Q,F5,F4,F9")
    p.add_argument("--seed", type=int, default=2024)

    return ap


def main(argv=None) -> int:
    args = (ap := build_parser()).parse_args(argv)
    if args.cap < 0:
        ap.error(f"--cap must be at least 0, got {args.cap}")
    try:
        # certify and verify run here, every other subcommand in tools
        return globals().get(f"cmd_{args.command}", _tool)(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # an unreadable or unwritable path is a usage problem, not a FAIL
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
