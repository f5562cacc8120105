"""Command-line front end.

Subcommands: construct (build a quotient and emit its certificate),
verify (re-check a certificate from its parameters), classify (run a
census sweep), invariants (Hodge and Betti numbers of a certified
quotient).  Exit codes: 0 success, 1 checked-and-failed, 2 invalid
input.  Malformed input never produces a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import tempfile

from . import classify  # loaded on first use, by the classify command
from .certificates import (
    CertificateFormatError,
    VerificationResult,
    build_certificate,
    complex_str,
    parse_complex,
    parse_field,
    parse_rational,
    verify_certificate,
)
from .d4_family import (
    BuildRejection,
    CaseTag,
    build_general,
    case1_parameters,
    check_freeness_conditions,
)
from .invariants import hodge_numbers
from .torus import TorsionPoint

# Human phrasing for each failed construction condition, keyed by the
# flag names of the freeness-condition report.
_CONDITION_PHRASES = {
    "factors_embed": "no nonzero element of H may be supported in a single elliptic factor",
    "rel_r4_member": "four times h' must lie in H's third components (r^4 = id fails)",
    "rel_s2_member": "twice h must lie in H (s^2 = id fails: h must be 2-torsion modulo H)",
    "rel_rs2_member": "(h + k, -(h + k), 0) must lie in H ((rs)^2 = id fails)",
    "excl_r_free": "h' must avoid H's third components (r would have a fixed point)",
    "excl_r2_free": "twice h' must avoid H's third components (r^2 would have a fixed point)",
    "excl_s_free": "h must be a nonzero 2-torsion point outside H's first components (s would have a fixed point)",
    "excl_rs_free": "h + k must be nonzero and avoid H's second-minus-first components (rs would have a fixed point)",
}

_REJECTION_PHRASES = {
    "subgroup_not_exponent_two": "h + k must be 2-torsion: the subgroup it generates must have exponent 2",
    "lattice_not_preserved:r": "the subgroup H is not stable under the rotation",
    "lattice_not_preserved:s": "the subgroup H is not stable under the reflection",
}


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".hyptor-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name the file asked for, not the temporary one beside it
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    """Write the JSON artifact to --out or stdout; text format swaps in
    a human summary on stdout (the artifact still goes to --out)."""
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, payload)
    if args.format == "text":
        for line in text_lines:
            print(line)
    elif args.out:
        print(json.dumps({"ok": True, "out": args.out}))
    else:
        sys.stdout.write(payload)


def _parse_point2(text: str) -> TorsionPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated rationals, got {text!r}")
    return TorsionPoint((parse_rational(parts[0]), parse_rational(parts[1])))


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    try:
        tau = parse_field("--tau", parse_complex, args.tau)
        tau_prime = parse_field("--tau-prime", parse_complex, args.tau_prime)
        h = parse_field("--h", _parse_point2, args.h)
        k = parse_field("--k", _parse_point2, args.k)
        h_prime = parse_field("--h-prime", _parse_point2, args.h_prime)
    except ValueError as exc:
        _err(str(exc))
        return 2

    built = build_general(CaseTag.CASE1, case1_parameters(tau, tau_prime, h, k, h_prime))
    if isinstance(built, BuildRejection):
        phrase = _REJECTION_PHRASES.get(built.reason, built.reason)
        _err(f"construction failed: {phrase}")
        return 1

    try:
        doc = build_certificate(built)
    except ValueError as exc:
        _err(f"construction failed: {exc}")
        report = check_freeness_conditions(built)
        for flag, value in report._asdict().items():
            if not value:
                _err(f"violated condition: {_CONDITION_PHRASES[flag]}")
        return 1

    lines = [
        f"constructed free action on the quotient torus (tau = {complex_str(tau)}, tau' = {complex_str(tau_prime)})",
        f"group order {doc['group']['order']}, {len(doc['fixed_point_witnesses'])} fixed-point obstructions, no translations",
    ]
    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_file(path: str) -> VerificationResult | None:
    """Verify the certificate stored at path; None, after reporting the
    problem, when the file cannot be read as a certificate at all."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        _err(f"cannot read certificate: {exc}")
        return None
    except (ValueError, RecursionError) as exc:
        # JSON syntax, invalid UTF-8, oversized integers, deep nesting
        _err(f"malformed JSON: {exc}")
        return None
    try:
        return verify_certificate(doc)
    except CertificateFormatError as exc:
        _err(str(exc))
        return None


def cmd_verify(args) -> int:
    result = _verify_file(args.certificate)
    if result is None:
        return 2
    if result.ok:
        if args.format == "json":
            print(json.dumps({"ok": True, "failures": []}))
        else:
            print("certificate verified: all checks pass")
        return 0
    if args.format == "json":
        print(json.dumps({"ok": False, "failures": list(result.failures)}))
    else:
        print("certificate INVALID:")
        for f in result.failures:
            print(f"  - {f}")
    return 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _int(text: str) -> int:
    """An integer in ASCII digits with an optional minus sign; int()
    alone also takes other digits, "_", "+" and surrounding spaces."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in its error message


def cmd_classify(args) -> int:
    try:
        case = {"1": CaseTag.CASE1, "2": CaseTag.CASE2, "case1": CaseTag.CASE1, "case2": CaseTag.CASE2}[
            args.case
        ]
    except KeyError:
        _err(f"unknown case {args.case!r}")
        return 2
    try:
        if args.workers < 1:
            raise ValueError("workers must be at least 1")
        space = classify.SearchSpace(
            case=case,
            shift_denominator=args.max_denominator,
            third_denominator=args.max_denominator,
            h_generators_max=args.h_generators_max,
            tau=parse_field("--tau", parse_complex, args.tau),
            tau_prime=parse_field("--tau-prime", parse_complex, args.tau_prime),
        )
    except ValueError as exc:
        _err(str(exc))
        return 2

    if case is CaseTag.CASE1:
        report = classify.enumerate_case1(space, workers=args.workers)
        expected = bool(report.survivors) and all(
            classify.is_expected_survivor(s) for s in report.survivors
        )
    else:
        report = classify.enumerate_case2(space, workers=args.workers)
        expected = not report.survivors

    if args.stats:
        _atomic_write(args.stats, json.dumps(report.stats.to_json_dict(), indent=2) + "\n")
    doc = report.to_json_dict()
    lines = [
        f"{case.value}: scanned {report.total} tuples over {report.h_family_size} subgroups",
        f"survivors: {len(report.survivors)}",
        "failure counts: "
        + ", ".join(f"{k}={v}" for k, v in report.failure_counts.items() if v),
        f"expected outcome: {'yes' if expected else 'no'}",
    ]
    _emit(args, doc, lines)
    return 0 if expected else 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    result = _verify_file(args.certificate)
    if result is None:
        return 2
    if not result.ok:
        _err("certificate does not verify; refusing to compute invariants")
        for f in result.failures:
            _err(f"  - {f}")
        return 1

    report = hodge_numbers([g.aut.a for g in result.group.elements], result.action.torus)

    lines = ["Hodge numbers h^{p,q} (rows p = 0..3, columns q = 0..3):"]
    for row in report.hodge:
        lines.append("  " + "  ".join(str(v) for v in row))
    lines.append("Betti numbers b_0..b_6: " + " ".join(str(b) for b in report.betti))
    _emit(args, report.to_json_dict(), lines)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Options whose values may begin with "-" (a negative rational).
# argparse takes "--tau-prime -1/2+1/5i" for two flags, so such a pair
# is joined into "--tau-prime=-1/2+1/5i" before parsing; so is a pair
# whose flag abbreviates one of these, as argparse allows.
_VALUE_OPTIONS = ("--tau", "--tau-prime", "--h", "--k", "--h-prime")


def _names_value_option(arg: str) -> bool:
    return len(arg) > 2 and any(name.startswith(arg) for name in _VALUE_OPTIONS)


def _join_negative_values(argv) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and _names_value_option(out[-1]) and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyptor",
        description="Construct, certify and classify free dihedral actions on complex tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    def common_output(p):
        p.add_argument("--out", help="write the JSON artifact to this file (atomic)")
        output_format(p)

    p_con = sub.add_parser("construct", help="build a free action and emit its certificate")
    p_con.add_argument("--tau", required=True, help='first curve parameter, "p/q+p/qi"')
    p_con.add_argument("--tau-prime", required=True, help="third curve parameter")
    p_con.add_argument("--h", default="1/2,0/1", help='reflection shift on the first factor, "p/q,p/q"')
    p_con.add_argument("--k", default="0/1,1/2", help="reflection shift on the second factor")
    p_con.add_argument("--h-prime", default="1/4,0/1", help="rotation shift on the third factor")
    common_output(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-check a certificate from its parameters")
    p_ver.add_argument("certificate", help="path to a certificate JSON file")
    output_format(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cls = sub.add_parser("classify", help="run a census sweep over the parameter grid")
    p_cls.add_argument("--case", required=True, help="1 or 2")
    p_cls.add_argument("--max-denominator", type=_int, default=4)
    p_cls.add_argument("--h-generators-max", type=_int, default=2)
    p_cls.add_argument("--workers", type=_int, default=1)
    p_cls.add_argument("--tau", default="0/1+1/1i", help="first curve parameter")
    p_cls.add_argument("--tau-prime", default="0/1+2/1i", help="third curve parameter")
    p_cls.add_argument("--stats", help="write the census counters and phase timings to this JSON file")
    common_output(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_inv = sub.add_parser("invariants", help="Hodge and Betti numbers of a certified quotient")
    p_inv.add_argument("certificate", help="path to a certificate JSON file")
    common_output(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    return parser


def main(argv=None) -> int:
    """Run one command from argv (sys.argv[1:] by default) and return
    its exit code.

    The parser is built on the first call, not at import, and every
    later call in the process reuses it.  Reuse is safe: parse_args
    keeps no state between calls, since it fills a new namespace each
    time, the subcommand's defaults a fresh one of their own, and
    argparse looks up sys.stdout and sys.stderr only when it writes,
    so redirected streams still receive its usage and errors.
    """
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except OSError as exc:
        # unwritable --out and similar environment problems
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
