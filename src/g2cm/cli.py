"""Command-line front end with deterministic JSON reports.

Subcommands: field, analyze, charpoly, lemma2, oracle, scan.  Every
report is a single envelope {command, inputs, results, status[, error]}
with fixed key order; results holds big integers as decimal strings and
inputs the parsed arguments as JSON numbers, however large.  Exit codes:
0 success, 1 a checked property failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from .cm_field import CMFieldParams, FrobeniusElement, validate_field
from .errors import G2CMError, InvalidArgumentError
from .frobenius import char_poly_product, closed_form, group_order, weil_validate
from .oracle import (
    DEFAULT_BUDGET,
    GenusTwoCurve,
    all_squarefree_quintics,
    char_poly_from_counts,
    check_odd_prime,
    count_points,
    enumerate_jacobian,
    random_squarefree_quintics,
    squarefree_quintic_count,
)
from .sylow import analyze, verify_lemma2

EXIT_OK = 0
EXIT_PROPERTY_VIOLATION = 1
EXIT_INPUT_ERROR = 2

#: Most curves one scan checks: all 10000 squarefree quintics at p = 5.
#: --all at p ≥ 7 and larger --count values are rejected.
SCAN_MAX_CURVES = 10_000


def _s(n: int) -> str:
    return str(int(n))


def _poly_payload(P) -> dict:
    return {
        "coeffs_low_first": [_s(c) for c in P.coeffs],
        "p": _s(P.p),
        "display": str(P),
    }


def _budget() -> int:
    raw = os.environ.get("CM2_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise InvalidArgumentError(
            f"CM2_BUDGET must be a positive integer, got {raw!r}"
        )
    return budget


def _parse_c(raw: str) -> tuple[int, int, int, int]:
    parts = [int(t) for t in raw.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"-c expects four comma-separated integers, got {raw!r}"
        )
    return tuple(parts)  # type: ignore[return-value]


def _parse_coeffs(raw: str) -> tuple[int, ...]:
    return tuple(int(t) for t in raw.split(","))


def cmd_field(args) -> tuple[dict, int]:
    field = validate_field(args.D, args.a, args.b)
    P, Q = field.min_poly_coeffs()
    return {
        "galois_type": field.galois_type.value,
        "primitive": field.primitive(),
        "min_poly": {"P": _s(P), "Q": _s(Q), "display": f"X^4{P:+d}X^2{Q:+d}"},
    }, EXIT_OK


def _frobenius(args) -> tuple[CMFieldParams, FrobeniusElement]:
    field = validate_field(args.D, args.a, args.b)
    return field, FrobeniusElement(*args.c, field)


def _both_forms(args, product) -> dict:
    """p, P(X) by conjugate product and by closed form, and N = P(1)."""
    closed = closed_form(product.p, args.c[0], args.c[1], args.D)
    return {
        "p": _s(product.p),
        "char_poly_closed": _poly_payload(closed),
        "char_poly_product": _poly_payload(product),
        "forms_agree": closed == product,
        "N": _s(group_order(product)),
    }


def cmd_analyze(args) -> tuple[dict, int]:
    field, w = _frobenius(args)
    verdict = analyze(field, w)  # first, for its error precedence
    results = _both_forms(args, verdict.char_poly)
    results.update(v_p=verdict.v, sylow_order=_s(verdict.sylow_order),
                   theorem_holds=verdict.theorem_holds)
    return results, EXIT_OK if verdict.theorem_holds else EXIT_PROPERTY_VIOLATION


def cmd_charpoly(args) -> tuple[dict, int]:
    product = char_poly_product(_frobenius(args)[1])
    results = _both_forms(args, product)
    results["weil"] = asdict(weil_validate(product))
    return results, EXIT_OK


def cmd_lemma2(args) -> tuple[dict, int]:
    report = verify_lemma2()
    results = {
        "row_count": len(report.rows),
        "expected_row_count": report.expected_row_count,
        "counterexample_count": len(report.counterexamples),
        "holds": report.holds(),
    }
    if args.rows:
        results["rows"] = [
            {
                "p": r.p,
                "D": r.D,
                "branch": r.branch,
                "c1": r.c1,
                "c2": r.c2,
                "N": _s(r.N),
                "div_p": r.div_p,
                "div_p2": r.div_p2,
                "excluded_nonprimitive": r.c2 == 0,
            }
            for r in report.rows
        ]
    return results, EXIT_OK if report.holds() else EXIT_PROPERTY_VIOLATION


def cmd_oracle(args) -> tuple[dict, int]:
    curve = GenusTwoCurve(p=args.p, f=args.coeffs)
    # O(p), and refuses p above MAX_COUNT_PRIME before any enumeration
    n1 = count_points(curve, 1)
    structure = (enumerate_jacobian(curve, budget=_budget())
                 if args.mode == "enumerate" else None)
    n2 = count_points(curve, 2)
    P = char_poly_from_counts(n1, n2, curve.p)
    if structure is None:
        return {
            "N1": _s(n1),
            "N2": _s(n2),
            "char_poly": _poly_payload(P),
            "P1": _s(group_order(P)),
        }, EXIT_OK
    cross_check = group_order(P) == structure.order
    return {
        "order": _s(structure.order),
        "invariant_factors": [_s(n) for n in structure.invariant_factors],
        "p_sylow_factors": [_s(q) for q in structure.p_sylow_factors],
        "char_poly": _poly_payload(P),
        "cross_check_order_equals_P1": cross_check,
    }, EXIT_OK if cross_check else EXIT_PROPERTY_VIOLATION


def cmd_scan(args) -> tuple[dict, int]:
    check_odd_prime(args.p)
    total = squarefree_quintic_count(args.p)
    if not args.all and not 1 <= args.count <= total:
        raise InvalidArgumentError(
            f"--count must be between 1 and {total}, the number of "
            f"squarefree quintics at p = {args.p}, got {args.count}"
        )
    curves_asked = total if args.all else args.count
    if curves_asked > SCAN_MAX_CURVES:
        raise InvalidArgumentError(
            f"a scan checks at most {SCAN_MAX_CURVES} curves, "
            f"got {curves_asked} at p = {args.p}"
        )
    budget = _budget()
    if args.all:
        curves = all_squarefree_quintics(args.p)
    else:
        curves = random_squarefree_quintics(args.p, args.count, args.seed)
    mismatches = []
    for f in curves:
        curve = GenusTwoCurve(p=args.p, f=f)
        n1 = count_points(curve, 1)  # refuses p above MAX_COUNT_PRIME first
        order = enumerate_jacobian(curve, budget=budget).order
        P = char_poly_from_counts(n1, count_points(curve, 2), args.p)
        if group_order(P) != order:
            mismatches.append(
                {"coeffs": list(f), "order": _s(order), "P1": _s(group_order(P))}
            )
    return {
        "p": args.p,
        "curves_checked": curves_asked,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
        "all_match": not mismatches,
    }, EXIT_OK if not mismatches else EXIT_PROPERTY_VIOLATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors become the JSON error envelope."""

    def error(self, message: str):
        raise InvalidArgumentError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The g2cm argument parser, built once per process.

    Parsing leaves the parser unchanged, so ``main`` reuses it on every
    call.  Each subcommand binds its ``cmd_*`` function at that first
    build, and the same parser object goes to every caller, so it must
    not be modified; ``build_parser.__wrapped__()`` builds a fresh one.
    """
    parser = _Parser(
        prog="g2cm",
        description="Frobenius characteristic polynomials and p-Sylow "
        "analysis for genus-2 Jacobians with quartic CM",
    )
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the JSON report to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="validate a CM field (D, a, b)")
    p_field.add_argument("-D", type=int, required=True)
    p_field.add_argument("-a", type=int, required=True)
    p_field.add_argument("-b", type=int, required=True)
    p_field.set_defaults(func=cmd_field)

    for name, func, help_text in (
        ("analyze", cmd_analyze, "full Sylow pipeline for a Frobenius ω"),
        ("charpoly", cmd_charpoly, "characteristic polynomial of ω, both routes"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-D", type=int, required=True)
        sp.add_argument("-a", type=int, required=True)
        sp.add_argument("-b", type=int, required=True)
        sp.add_argument("-c", type=_parse_c, required=True,
                        metavar="c1,c2,c3,c4")
        sp.set_defaults(func=func)

    p_l2 = sub.add_parser("lemma2",
                          help="exhaustive p ≤ 5 case enumeration")
    p_l2.add_argument("--rows", action="store_true",
                      help="include the full table in the report")
    p_l2.set_defaults(func=cmd_lemma2)

    p_or = sub.add_parser("oracle", help="brute-force a single curve")
    p_or.add_argument("-p", type=int, required=True)
    p_or.add_argument("--coeffs", type=_parse_coeffs, required=True,
                      metavar="a0,a1,...", help="f coefficients, low degree first")
    p_or.add_argument("--mode", choices=("count", "enumerate"),
                      default="enumerate")
    p_or.set_defaults(func=cmd_oracle)

    p_scan = sub.add_parser("scan",
                            help="sweep curves comparing enumeration vs counts")
    p_scan.add_argument("-p", type=int, required=True)
    p_scan.add_argument("--count", type=int, default=25,
                        help="number of random curves (ignored with --all)")
    p_scan.add_argument("--all", action="store_true",
                        help="exhaust all squarefree degree-5 curves")
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def _echo_inputs(args) -> dict:
    skip = {"func", "command", "pretty", "out"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _render_pretty(envelope: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in envelope.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_pretty(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _set_error(envelope: dict, exc: G2CMError) -> int:
    """Turn envelope into the error report for exc; returns the exit code."""
    envelope["results"] = None
    envelope["status"] = "error"
    envelope["error"] = {"code": exc.code, "message": exc.message}
    return EXIT_INPUT_ERROR


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # argparse sets .command before it parses the subcommand's options
    args = argparse.Namespace(command=None, pretty=False, out=None)
    envelope = {"command": None, "inputs": None}
    try:
        parser.parse_args(argv, args)
        envelope["inputs"] = _echo_inputs(args)
        results, code = args.func(args)
        envelope["results"] = results
        envelope["status"] = "ok"
    except G2CMError as exc:
        code = _set_error(envelope, exc)
    envelope["command"] = args.command
    payload = json.dumps(envelope, indent=2)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            code = _set_error(envelope, InvalidArgumentError(
                f"cannot write --out {args.out!r}: {exc.strerror}"
            ))
            payload = json.dumps(envelope, indent=2)
    try:
        print(_render_pretty(envelope) if args.pretty else payload, flush=True)
    except BrokenPipeError:
        # The reader is gone, so no report can reach it.  Point stdout at
        # devnull so that the interpreter's final flush does not raise too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
