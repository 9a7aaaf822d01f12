"""Command-line interface.

Subcommands:
  eval      apply an operator chain to a function over a grid, CSV/JSON out
  selftest  run the built-in property checks

Exit codes: 0 success, 1 parse/usage error, 2 domain error, 3 when any
grid point fails to converge.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ComplexOrderError, ParseError
from .evaluation import EvalResult, EvalStatus, Method, apply
from .functions import parse_function
from .operators import parse_operator
from .quadrature import QuadConfig

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="complexorder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an operator chain on a function")
    ev.add_argument("--op", required=True, help='operator chain, e.g. "D^(0.5).J^(1+1i)"')
    ev.add_argument("--fn", required=True, help='function expression, e.g. "(2+0i)*x^(0.5)"')
    ev.add_argument("--x0", type=float, default=0.0, help="lower limit, e.g. -inf (default 0)")
    ev.add_argument("--at", type=float, action="append", help="evaluation point (repeatable)")
    ev.add_argument("--grid", help="a:b:n, n points from a to b inclusive")
    ev.add_argument("--method", choices=[m.value for m in Method], default="both")
    ev.add_argument("--rel-tol", type=float, dest="rel_tol", help="quadrature tolerance")
    ev.add_argument("--format", choices=["csv", "json"], default="csv")
    ev.add_argument("--out", help="output file (default: stdout)")
    ev.add_argument("--seed", type=int, default=0, help="accepted for reproducible scripting")

    st = sub.add_parser("selftest", help="run the built-in property checks")
    st.add_argument("--filter", help="run only checks whose name contains this")
    st.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    st.add_argument("--out", help="output file (default: stdout)")
    return parser


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--grid must be a:b:n, got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"--grid must be a:b:n with numeric fields, got {spec!r}") from None
    if n < 1:
        raise _UsageError("--grid needs n >= 1")
    if n == 1:
        return [a]
    return [a + i * (b - a) / (n - 1) for i in range(n)]


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _rows(results: list[EvalResult], with_reference: bool) -> list[dict]:
    rows = []
    for r in results:
        row = {
            "x": r.x,
            "re": None if r.value is None else r.value.real,
            "im": None if r.value is None else r.value.imag,
        }
        if with_reference:
            row["ref_re"] = None if r.reference is None else r.reference.real
            row["ref_im"] = None if r.reference is None else r.reference.imag
            row["abs_err"] = r.abs_err
            row["rel_err"] = r.rel_err
            row["status"] = r.status.value
        rows.append(row)
    return rows


def _render_csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                str(v) if k == "status" else _fmt(v) for k, v in row.items()
            )
        )
    return "\n".join(lines) + "\n"


def _render_json(rows: list[dict]) -> str:
    import json

    return json.dumps(rows, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)


def _run_eval(args) -> int:
    if (args.at is None) == (args.grid is None):
        raise _UsageError("exactly one of --at or --grid is required")
    try:
        cfg = QuadConfig() if args.rel_tol is None else QuadConfig(rel_tol=args.rel_tol)
    except ValueError as exc:
        raise _UsageError(f"--rel-tol: {exc}") from None
    xs = args.at if args.at is not None else _parse_grid(args.grid)
    # A grid with finite ends can still overflow (b - a), and JSON has no NaN.
    bad = next((x for x in xs if not math.isfinite(x)), None)
    if bad is not None:
        raise _UsageError(f"evaluation points must be finite, got {bad!r}")

    try:
        fn = parse_function(args.fn, lower_limit=args.x0)
        op = parse_operator(args.op, lower_limit=args.x0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComplexOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        results = apply(op, fn, xs, method=Method(args.method), cfg=cfg)
    except ComplexOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = _rows(results, with_reference=Method(args.method) is Method.BOTH)
    text = _render_csv(rows) if args.format == "csv" else _render_json(rows)
    _emit(text, args.out)

    statuses = {r.status for r in results}
    if EvalStatus.DOMAIN_ERROR in statuses:
        return 2
    if EvalStatus.CONVERGENCE_ERROR in statuses:
        return 3
    return 0


def _run_selftest(args) -> int:
    from .selftest import run_selftests

    results = run_selftests(seed=args.seed, name_filter=args.filter)
    width = max((len(r.name) for r in results), default=10) + 2
    lines = [f"{'check'.ljust(width)}status  worst       threshold"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name.ljust(width)}{status}    {r.metric:<10.3e}  {r.threshold:.3e}"
        )
    ok = all(r.passed for r in results)
    lines.append(f"{'all checks passed' if ok else 'FAILURES present'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def _attach_dash_values(argv: list[str]) -> list[str]:
    # argparse takes a value that starts with "-" ("--x0 -inf", "--grid
    # -1:1:3", "--fn -2*x") for a flag: a long option followed by a token
    # with a single leading "-" takes that token as its value.
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if token.startswith("--") and "=" not in token and nxt[:1] == "-" and nxt[:2] != "--":
            out.append(f"{token}={nxt}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def run(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _attach_dash_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "eval":
            return _run_eval(args)
        return _run_selftest(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
