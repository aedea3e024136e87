"""Command-line front end.

Five subcommands: expand an expression to coefficients, extract an
arithmetic progression (dissect), verify the identity registry, scan
coefficient signs along a progression, and count flavoured partitions.

Each command returns its exit code, its JSON payload and its text lines,
built from one result; main alone reads --format and prints one of them.

Exit codes: 0 all requested checks pass, 1 a check failed or evaluation
hit a domain error, 2 usage or parse error, such as a flag that is not an
integer ("expected a positive integer, got 'abc'").  Every printed
coefficient goes through series.coeff_text, which writes it in full
whatever its width.  JSON output keeps a stable key order and serializes
coefficients as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .combinatorics import count_partitions, parse_spec, scan_signs
from .identities import load_records, verify_all
from .qexpr import evaluate, parse
from .series import EvaluationError, check_progression, coeff_text, dissect, read_int

_SIGN_CHAR = {1: "+", 0: "0", -1: "-"}

# What a command returns: its exit code, its JSON payload and its text lines.
Result = tuple[int, object, list[str]]


def _at_least(low: int, expected: str, text: str) -> int:
    try:
        value = read_int(text, expected)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{expected}, got {value}")
    return value


def _positive(text: str) -> int:
    return _at_least(1, "expected a positive integer", text)


def _nonnegative(text: str) -> int:
    return _at_least(0, "expected a nonnegative integer", text)


def _cmd_expand(args: argparse.Namespace) -> Result:
    coeffs = list(map(coeff_text, evaluate(parse(args.expr), args.order).coeffs))
    return 0, {"expr": args.expr, "order": args.order, "coeffs": coeffs}, [" ".join(coeffs)]


def _cmd_dissect(args: argparse.Namespace) -> Result:
    check_progression(args.mod, args.res)
    series = evaluate(parse(args.expr), args.order)
    coeffs = list(map(coeff_text, dissect(series, args.mod, args.res).coeffs))
    payload = {"expr": args.expr, "order": args.order, "mod": args.mod, "res": args.res,
               "coeffs": coeffs}
    return 0, payload, [" ".join(coeffs)]


def _cmd_verify(args: argparse.Namespace) -> Result:
    records = load_records(args.records) if args.records else None
    reports = verify_all(order=args.order, id_filter=args.filter, records=records)
    if not reports:
        why = (f"{args.records} holds no records" if records == []
               else f"no records match filter {args.filter!r}")
        print(f"warning: {why}", file=sys.stderr)
    lines = []
    for r in reports:
        line = f"{r.status.upper():5s} {r.id}  (order {r.checked_order}, {r.elapsed:.3f}s)"
        if r.first_failure is not None:
            i, lhs, rhs = r.first_failure
            line += f"  first failure at index {i}: {coeff_text(lhs)} != {coeff_text(rhs)}"
        if r.detail:
            line += f"  [{r.detail}]"
        lines.append(line)
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{passed}/{len(reports)} records pass")
    return 0 if passed == len(reports) else 1, [r.to_dict() for r in reports], lines


def _cmd_scan(args: argparse.Namespace) -> Result:
    check_progression(args.mod, args.res)
    result = scan_signs(parse(args.expr), args.mod, args.res, args.up_to)
    values = list(map(coeff_text, result.values))
    signs = [_SIGN_CHAR[s] for s in result.signs]
    payload = {"expr": args.expr, "mod": args.mod, "res": args.res, "upTo": args.up_to,
               "values": values, "signs": signs, "zeros": result.zeros,
               "signChanges": result.sign_changes}
    lines = [f"{n:4d}  {sign}  {value}" for n, (value, sign) in enumerate(zip(values, signs))]
    lines.append(f"zeros at n = {result.zeros}" if result.zeros else "no zeros")
    lines.append(f"sign changes at n = {result.sign_changes}"
                 if result.sign_changes else "no sign changes")
    return 0, payload, lines


def _cmd_count(args: argparse.Namespace) -> Result:
    count = coeff_text(count_partitions(parse_spec(args.spec), args.n))
    return 0, {"spec": args.spec, "n": args.n, "count": count}, [count]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series expansion, dissection, and identity checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p: argparse.ArgumentParser, default: int | None = 300,
                  help_text: str = "truncation order (default 300)") -> None:
        p.add_argument("--order", "-N", type=_positive, default=default, help=help_text)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")

    p = sub.add_parser("expand", help="print series coefficients 0..order")
    p.add_argument("expr", help="expression to expand")
    add_order(p)
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("dissect",
                       help="print the coefficients along mod*n + res")
    p.add_argument("expr", help="expression to dissect")
    p.add_argument("--mod", type=_positive, required=True, help="progression modulus")
    p.add_argument("--res", type=_nonnegative, required=True, help="progression residue")
    add_order(p)
    add_format(p)
    p.set_defaults(func=_cmd_dissect)

    p = sub.add_parser("verify", help="check identity records")
    p.add_argument("--filter", default=None, help="only ids with this prefix")
    p.add_argument("--records", default=None, metavar="FILE",
                   help="verify records from FILE instead of the built-in registry")
    add_order(p, None, "truncation order for every record (default: each record's "
                       "own order=N; 300 for the registry)")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="tabulate coefficient signs along mod*n + res")
    p.add_argument("expr", help="expression to scan")
    p.add_argument("--mod", type=_positive, required=True, help="progression modulus")
    p.add_argument("--res", type=_nonnegative, required=True, help="progression residue")
    p.add_argument("--upTo", dest="up_to", type=_nonnegative, default=200,
                   help="largest progression index n (default 200)")
    add_format(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("count", help="count flavoured partitions of n")
    p.add_argument("spec", help="part classes, e.g. \"M=10;1x2,9x2,2x1,8x1,4x2,6x2\"")
    p.add_argument("--n", type=_nonnegative, required=True, help="number to partition")
    add_format(p)
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
        return code
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # parse, spec, records and usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
