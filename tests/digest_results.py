"""Print SHA-256 digests of the package's results, to show that a refactor
keeps every number.

Run it against each tree and compare the lines:

    python3 tests/digest_results.py                  # this checkout's src/
    python3 tests/digest_results.py --src OTHER/src  # another tree's package

Each line names a corpus, the digest of every result in it, bit for bit
(floats by repr, errors by type and message), and its size:

* integrals: seeds 1-3 of the benchmark's `integrals` grid, all 4,860 points,
  the ones the workload leaves out included, with the number of integrand
  evaluations;
* derivatives: every request of the `pointwise` workload at seeds 1 and 2,
  and 2,000 depth-2 composites (random.Random(12)) under deriv_closed_form,
  order_convert, deriv_limit and both terminal modes;
* compositions: 150 depth-2 composites (random.Random(11)) under integral,
  deriv_of_integral and integral_of_deriv;
* lowering: the generated source of both evaluation paths for 3,000
  composites of depths 1-3 (random.Random(3)) and three bodies 100 levels
  deep, as built and shifted to a = 1;
* verify: the bytes of `verify --json` and of its table.

The benchmark's workload module is imported, never changed on disk.  A
run takes about 5 s on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPOSITE_ALPHAS = (0.25, 0.5, 0.9, 1.0)
COMPOSITE_OFFSETS = (0.1, 1.0, 4.0)
JUMP = 5.0


def _outcome(call, *args) -> str:
    """The result of call(*args) as text that keeps every bit."""
    try:
        r = call(*args)
    except Exception as exc:  # an error is a result too
        return f"{type(exc).__name__}: {exc}"
    if isinstance(r, (float, str)):
        return repr(r)
    return repr((r.value, r.err_estimate, r.reason))


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def integrals(workloads, quad, FuncSpec) -> tuple[str, str]:
    workloads.quantized = lambda *case: False  # keep every grid point
    evaluations = 0
    evaluate_body = quad.evaluate_body

    def counting(f, s):
        nonlocal evaluations
        evaluations += 1
        return evaluate_body(f, s)

    quad.evaluate_body = counting
    try:
        lines, specs = [], {}
        for seed in (1, 2, 3):
            for c in workloads.integral_cases(seed):
                key = (c.integrand, c.a)
                if key not in specs:
                    specs[key] = FuncSpec.from_source(c.integrand.replace("{a}", repr(c.a)))
                lines.append(_outcome(quad.integral, specs[key], c.alpha, c.a, c.t))
    finally:
        quad.evaluate_body = evaluate_body
    lines.append(f"evaluations {evaluations}")
    return _digest(lines), f"{len(lines) - 1} points, {evaluations} integrand evaluations"


def derivatives(workloads, core, FuncSpec) -> tuple[str, str]:
    modes = {"original": core.TerminalMode.ORIGINAL, "corrected": core.TerminalMode.CORRECTED}
    lines = []
    for seed in (1, 2):
        for op in workloads.pointwise_requests(seed):
            f = FuncSpec.from_source(op.text, op.jump)
            if op.route == "closed":
                lines.append(_outcome(core.deriv_closed_form, f, op.alpha, op.a, op.t))
            elif op.route == "limit":
                lines.append(_outcome(core.deriv_limit, f, op.alpha, op.a, op.t))
            else:
                lines.append(_outcome(core.deriv_at_terminal, f, op.alpha, op.a, modes[op.route]))
    requests = len(lines)
    rng = random.Random(12)
    for i in range(2000):
        tree = workloads.random_composite(rng, 2, True)
        a = rng.choice(workloads.TERMINALS)
        alpha = rng.choice(workloads.ALPHAS)
        t = a + rng.choice(COMPOSITE_OFFSETS)
        f = FuncSpec.from_source(tree.text(a), JUMP if i % 2 else None)
        lines.append(_outcome(core.deriv_closed_form, f, alpha, a, t))
        lines.append(_outcome(core.order_convert, 1.5, 0.5, alpha, a, t))
        lines.append(_outcome(core.deriv_limit, f, alpha, a, t))
        for mode in modes.values():
            lines.append(_outcome(core.deriv_at_terminal, f, alpha, a, mode))
    return _digest(lines), f"{requests} pointwise requests, 2000 composites"


def compositions(workloads, quad, FuncSpec) -> tuple[str, str]:
    rng = random.Random(11)
    lines = []
    for _ in range(150):
        tree = workloads.random_composite(rng, 2, True)
        a = rng.choice(workloads.TERMINALS)
        alpha = rng.choice(COMPOSITE_ALPHAS)
        t = a + rng.choice(COMPOSITE_OFFSETS)
        f = FuncSpec.from_source(tree.text(a))
        for op in (quad.integral, quad.deriv_of_integral, quad.integral_of_deriv):
            lines.append(_outcome(op, f, alpha, a, t))
    return _digest(lines), "150 composites"


def _deep_bodies(expr) -> list:
    """Three bodies 100 levels deep: a left-leaning sum, a chain of calls and
    negations, and a right-leaning chain of every binary operation."""
    t = expr.Var()
    total = t
    for k in range(99):
        total = expr.BinOp("+", total, expr.Const(float(k)) if k % 2 else t)
    calls = t
    for k in range(99):
        func = ("sin", "cos", "exp", "ln", "abs", "sqrt", None)[k % 7]
        calls = expr.Neg(calls) if func is None else expr.Call(func, calls)
    chain = t
    for k in range(99):
        operand = expr.BinOp("-", t, expr.Const(float(k % 3))) if k % 2 else t
        chain = expr.BinOp("+-*/^"[k % 5], operand, chain)
    return [total, calls, chain]


def lowering(workloads, expr) -> tuple[str, str]:
    rng = random.Random(3)
    bodies = [
        expr.parse(workloads.random_composite(rng, 1 + i % 3, True).text(
            workloads.TERMINALS[i % 3]))
        for i in range(3000)
    ]
    bodies += _deep_bodies(expr)
    lines = []
    for body in bodies:
        for lowered in (body, expr.shifted(expr.FuncSpec(body), 1.0).body):
            lines.append(_outcome(expr._lower, lowered, False))
            lines.append(_outcome(expr._lower, lowered, True))
    return _digest(lines), f"{len(bodies)} bodies, {len(lines)} sources"


def verify(cli) -> tuple[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            code = cli.main(["verify", "--json", str(path)])
        report = path.read_bytes().decode("utf-8")
    return _digest([report, table.getvalue()]), f"exit {code}"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the conformable package (default: ./src)")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]

    import workloads
    from conformable import cli, core, expr, quad
    from conformable.expr import FuncSpec

    print(f"conformable from {Path(expr.__file__).resolve().parent}")
    for name, run in (
        ("integrals", lambda: integrals(workloads, quad, FuncSpec)),
        ("derivatives", lambda: derivatives(workloads, core, FuncSpec)),
        ("compositions", lambda: compositions(workloads, quad, FuncSpec)),
        ("lowering", lambda: lowering(workloads, expr)),
        ("verify", lambda: verify(cli)),
    ):
        digest, detail = run()
        print(f"{name:<13} {digest}  ({detail})", flush=True)


if __name__ == "__main__":
    main()
