"""Command-line front end: derivative/integral evaluation, parameter
sweeps with CSV output, and the verification harness.

Exit codes are a total function of the outcome category:
0 value, 1 usage or domain error, 2 does-not-exist, 3 quadrature
convergence failure, 4 verification-matrix mismatch.  A sweep row whose
evaluation fails gets the status ``error``, and the sweep then exits 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core import (
    EvalResult,
    TerminalMode,
    deriv_at_terminal,
    deriv_closed_form,
    deriv_limit,
)
from .errors import ConvergenceError, DomainError, NonFiniteError
from .expr import FuncSpec
from .quad import integral

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOES_NOT_EXIST = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY_MISMATCH = 4

# Human-readable summaries carry 6 significant digits; CSV carries 17
# (round-trip exact for doubles).
_HUMAN = "%.6g"
_CSV = "%.17g"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 1
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conformable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    deriv = sub.add_parser("deriv", help="evaluate a derivative of order alpha")
    _common_args(deriv)
    _route_args(deriv)

    integ = sub.add_parser("integ", help="evaluate an integral of order alpha")
    _common_args(integ)

    sweep = sub.add_parser("sweep", help="sweep alpha or t and emit CSV")
    sweep.add_argument("--var", choices=["alpha", "t"], required=True)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--expr", required=True)
    sweep.add_argument("--a", type=float, required=True)
    sweep.add_argument("--alpha", type=float, help="fixed order for t sweeps")
    sweep.add_argument("--t", type=float, help="fixed point for alpha sweeps")
    sweep.add_argument("--jump", type=float, default=None)
    _route_args(sweep)
    sweep.add_argument("--op", choices=["deriv", "integ"], default="deriv")
    sweep.add_argument("--out", help="write CSV here instead of stdout")

    verify = sub.add_parser("verify", help="run the verification harness")
    verify.add_argument("--json", dest="json_path", help="also write the JSON report")
    return parser


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", required=True, help="expression in t, e.g. '(t-1)^0.4'")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--jump", type=float, default=None,
                   help="add this constant to f at exactly t = a")


def _route_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["original", "corrected"], default="corrected",
                   help="lower-terminal convention (used when t equals a)")
    p.add_argument("--method", choices=["limit", "closed"], default="closed",
                   help="interior evaluation route")


def _print_result(r: EvalResult) -> int:
    if r.exists:
        print(f"value={_HUMAN % r.value} err={_HUMAN % r.err_estimate}")
        return EXIT_OK
    print(f"does-not-exist reason={r.reason}")
    return EXIT_DOES_NOT_EXIST


def _derivative(f: FuncSpec, alpha: float, a: float, t: float, mode: str, method: str) -> EvalResult:
    if t == a:
        return deriv_at_terminal(f, alpha, a, TerminalMode(mode))
    if method == "limit":
        return deriv_limit(f, alpha, a, t)
    return deriv_closed_form(f, alpha, a, t)


def _cmd_deriv(args) -> int:
    f = FuncSpec.from_source(args.expr, args.jump)
    return _print_result(
        _derivative(f, args.alpha, args.a, args.t, args.mode, args.method)
    )


def _cmd_integ(args) -> int:
    f = FuncSpec.from_source(args.expr, args.jump)
    return _print_result(integral(f, args.alpha, args.a, args.t))


def _sweep_values(start: float, stop: float, steps: int) -> list[float]:
    # Pin the endpoints: the formula at i = steps - 1 can round past stop.
    inner = [start + (stop - start) * i / (steps - 1) for i in range(1, steps - 1)]
    return [start, *inner, stop]


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise _UsageError("steps must be at least 2")
    if not args.start < args.stop:
        raise _UsageError("start must be below stop")
    if args.var == "alpha":
        if not (args.start > 0.0 and args.stop <= 1.0):
            raise _UsageError("alpha sweep must stay inside (0,1]")
        if args.t is None:
            raise _UsageError("alpha sweep requires a fixed --t")
    else:
        if args.alpha is None:
            raise _UsageError("t sweep requires a fixed --alpha")
    f = FuncSpec.from_source(args.expr, args.jump)

    rows = []
    for v in _sweep_values(args.start, args.stop, args.steps):
        alpha = v if args.var == "alpha" else args.alpha
        t = args.t if args.var == "alpha" else v
        try:
            if args.op == "integ":
                r = integral(f, alpha, args.a, t)
            else:
                r = _derivative(f, alpha, args.a, t, args.mode, args.method)
        except (DomainError, NonFiniteError, ConvergenceError) as exc:
            print(f"error: {args.var}={_CSV % v}: {exc}", file=sys.stderr)
            rows.append((v, "", "", "error"))
            continue
        if r.exists:
            rows.append((v, _CSV % r.value, _CSV % r.err_estimate, "ok"))
        else:
            rows.append((v, "", "", "dne"))

    lines = ["param,value,err,status"]
    lines += [f"{_CSV % v},{val},{err},{status}" for v, val, err, status in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_USAGE if any(row[3] == "error" for row in rows) else EXIT_OK


def run_all():
    """`verify.run_all`, importing the harness only when `verify` runs."""
    from .verify import run_all as run

    return run()


def _cmd_verify(args) -> int:
    report = run_all()
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.matches_expected() else EXIT_VERIFY_MISMATCH


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "deriv":
            return _cmd_deriv(args)
        if args.command == "integ":
            return _cmd_integ(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except (_UsageError, ValueError, NonFiniteError) as exc:
        # ValueError covers ParseError, DomainError and PreconditionError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
