"""The three workloads: seeded operation lists, the calls into the public API
of ``conformable`` and the checks of their outputs.

Each workload exposes ``ops`` (one round, the same list every round),
``call(op)`` (the timed part: calls into the program only) and
``check(op, out)`` (untimed: compares the output with a reference from
``references``).  Inputs depend on the seed alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import references as ref
from references import LEAVES, SMOOTH_KEYS, Leaf, Node, Tree

ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 11))
TERMINALS = (0.0, 1.0, -2.0)
ROUTE_CYCLE = ("closed", "corrected", "limit", "closed", "corrected", "original")
OFFSETS = (1e-3, 0.1, 1.0, 4.0, 10.0)  # t - a for the interior routes
SPANS = tuple(10.0 ** (k / 2 - 3) for k in range(9))  # t - a for integrals, 1e-3 .. 10

POINTWISE_ROUND = 3600

_EPS = sys.float_info.epsilon


def load_program():
    """The program's modules, looked up by attribute at call time so that
    tracing wrappers installed on them take effect."""
    import conformable.cli
    import conformable.core
    import conformable.expr
    import conformable.quad
    import conformable.verify

    return SimpleNamespace(
        cli=conformable.cli,
        core=conformable.core,
        expr=conformable.expr,
        quad=conformable.quad,
        verify=conformable.verify,
    )


# --------------------------------------------------------------------------
# pointwise
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivRequest:
    text: str
    jump: float | None
    route: str
    alpha: float
    a: float
    t: float
    expected: ref.Expected


# Denominators that stay positive on every range the workload uses.
_DENOMINATORS = (
    LEAVES["exponential"],
    Node("exp", LEAVES["sine"]),
    Node("exp", LEAVES["cosine"]),
)


def _leaf(rng: random.Random, allow_power: bool) -> Leaf:
    keys = SMOOTH_KEYS + (("power_04", "power_05") if allow_power else ())
    return LEAVES[rng.choice(keys)]


def _subtree(rng: random.Random, depth: int, allow_power: bool) -> Tree:
    if depth == 0 or rng.random() < 0.4:
        return _leaf(rng, allow_power)
    return random_composite(rng, depth - 1, allow_power)


def random_composite(rng: random.Random, depth: int, allow_power: bool) -> Node:
    """A sum, product, quotient or composition of registry functions."""
    op = rng.choice(("+", "*", "/", "sin", "cos", "exp", "sq"))
    if op in ("+", "*"):
        return Node(op, _subtree(rng, depth, allow_power), _subtree(rng, depth, allow_power))
    if op == "/":
        return Node(op, _subtree(rng, depth, allow_power), rng.choice(_DENOMINATORS))
    if op == "exp":  # exp of a bounded argument only, so values stay moderate
        return Node(op, Node(rng.choice(("sin", "cos")), _subtree(rng, depth, allow_power)))
    return Node(op, _subtree(rng, depth, allow_power))


def pointwise_requests(seed: int, n: int = POINTWISE_ROUND) -> list[DerivRequest]:
    """Every block of 1800 requests covers each terminal, order, jump setting
    and interior offset equally, and the routes as closed : corrected :
    limit : original = 2 : 2 : 1 : 1.  With equal shares the median would
    sit on the edge between the corrected route's cost and the dearer
    limit and original routes, and jump between them from seed to seed;
    with these shares it falls inside the corrected route's.  The function
    is drawn.

    The closed-form route takes a registry function or a fresh composite
    with equal odds.  The limit and terminal routes take registry functions
    only: their extrapolation misjudges some composites (see CHANGES.md,
    FOUND), so a composite there would fail on some seeds and not others."""
    rng = random.Random(f"pointwise-{seed}")
    out = []
    for i in range(n):
        route = ROUTE_CYCLE[i % 6]
        a = TERMINALS[(i // 6) % 3]
        alpha = ALPHAS[(i // 18) % 10]
        jump = (None, ref.JUMP)[(i // 180) % 2]
        if route != "closed" or rng.random() < 0.5:
            tree: Tree = LEAVES[rng.choice(tuple(LEAVES))]
        else:
            tree = random_composite(rng, 1, allow_power=True)
        if route in ("original", "corrected"):
            t = a
            expected = ref.expected_terminal(tree, alpha, a, jump, route)
        else:
            t = a + OFFSETS[(i // 360) % 5]
            expected = ref.expected_interior(tree, alpha, a, t)
        out.append(DerivRequest(tree.text(a), jump, route, alpha, a, t, expected))
    return out


class Pointwise:
    name = "pointwise"
    warmup = True

    def __init__(self, seed: int, prog, out_dir: Path):
        self.prog = prog
        self.ops = pointwise_requests(seed)
        self.modes = {
            "original": prog.core.TerminalMode.ORIGINAL,
            "corrected": prog.core.TerminalMode.CORRECTED,
        }

    @staticmethod
    def reused_specs() -> list[tuple[str, float | None]]:
        return []

    def call(self, op: DerivRequest):
        core = self.prog.core
        f = self.prog.expr.FuncSpec.from_source(op.text, op.jump)
        if op.route == "closed":
            return core.deriv_closed_form(f, op.alpha, op.a, op.t)
        if op.route == "limit":
            return core.deriv_limit(f, op.alpha, op.a, op.t)
        return core.deriv_at_terminal(f, op.alpha, op.a, self.modes[op.route])

    def check(self, op: DerivRequest, out) -> bool:
        return ref.check_derivative(out, op.expected)

    @staticmethod
    def kind(op: DerivRequest) -> str:
        return op.route

    def make_up(self) -> dict:
        return {
            "repeated_source_share": repeated_source_share(self.ops),
            "composite_share": sum(op.text not in _REGISTRY_TEXTS for op in self.ops) / len(self.ops),
            "expected_dne_share": sum(op.expected.value is None for op in self.ops) / len(self.ops),
        }


_REGISTRY_TEXTS = {leaf.text(a) for leaf in LEAVES.values() for a in TERMINALS}


def repeated_source_share(ops: list[DerivRequest]) -> float:
    """Share of requests whose expression text appeared earlier in the round."""
    seen: set[str] = set()
    repeated = 0
    for op in ops:
        repeated += op.text in seen
        seen.add(op.text)
    return repeated / len(ops)


# --------------------------------------------------------------------------
# integrals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegralCase:
    integrand: str
    alpha: float
    a: float
    t: float
    singular: bool
    ref: float


def quantized(integrand: str, alpha: float, a: float, span: float) -> bool:
    """Cases where evaluating (t-a)^gamma at s = a + u^(1/alpha) cannot reach
    the quadrature tolerance: rounding s to a float moves s - a by eps*|a|,
    which perturbs the integral by about (eps*|a|/span)^(alpha+gamma)
    relative.  They stay out of the workload (see CHANGES.md, FOUND)."""
    if integrand not in ref.SINGULAR:
        return False
    gamma = ref.SINGULAR[integrand][0]
    return (_EPS * abs(a) / span) ** (alpha + gamma) > ref.QUAD_RTOL


def integral_cases(seed: int) -> list[IntegralCase]:
    """Every grid point (integrand, terminal, order, span) whose span the
    quantization test admits, with the span moved by a seeded factor within
    1 % so that each seed has its own inputs.  Using the whole grid keeps the
    mix of cheap and costly cases the same from seed to seed."""
    rng = random.Random(f"integrals-{seed}")
    out = []
    for integrand in ref.INTEGRANDS:
        for a in TERMINALS:
            for alpha in ALPHAS:
                for span in SPANS:
                    span *= 1.0 + rng.uniform(-0.01, 0.01)
                    if quantized(integrand, alpha, a, span):
                        continue
                    t = a + span
                    value = ref.integral_reference(integrand, alpha, a, t)
                    out.append(IntegralCase(integrand, alpha, a, t, integrand in ref.SINGULAR, value))
    return out


class Integrals:
    name = "integrals"
    warmup = True

    def __init__(self, seed: int, prog, out_dir: Path):
        self.prog = prog
        self.ops = integral_cases(seed)
        self.specs = {
            (s, a): prog.expr.FuncSpec.from_source(s.replace("{a}", repr(a)))
            for s in ref.INTEGRANDS
            for a in TERMINALS
        }  # the same FuncSpecs as reused_specs, which the set-up probes build

    @staticmethod
    def reused_specs() -> list[tuple[str, float | None]]:
        return [(s.replace("{a}", repr(a)), None) for s in ref.INTEGRANDS for a in TERMINALS]

    def call(self, op: IntegralCase):
        return self.prog.quad.integral(self.specs[(op.integrand, op.a)], op.alpha, op.a, op.t)

    def check(self, op: IntegralCase, out) -> bool:
        return ref.check_integral(out, op.ref)

    @staticmethod
    def kind(op: IntegralCase) -> str:
        return "singular" if op.singular else "smooth"

    def make_up(self) -> dict:
        return {"singular_share": sum(op.singular for op in self.ops) / len(self.ops)}


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

class Verify:
    name = "verify"
    warmup = False  # one operation takes seconds and fills no cache

    def __init__(self, seed: int, prog, out_dir: Path):
        del seed  # the harness has fixed inputs
        self.prog = prog
        self.path = out_dir / "verify_report.json"
        self.ops = [("verify", "--json", str(self.path))]
        self.first: bytes | None = None

    @staticmethod
    def reused_specs() -> list[tuple[str, float | None]]:
        return []

    def call(self, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.prog.cli.main(list(op))

    def check(self, op, out) -> bool:
        payload = self.path.read_bytes()
        matrix = ref.verify_statuses(json.loads(payload))
        ok = ref.check_verify(out, payload, self.first, matrix)
        if self.first is None:
            self.first = payload
        return ok

    @staticmethod
    def kind(op) -> str:
        return "verify"

    @staticmethod
    def make_up() -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Pointwise, Integrals, Verify)}
