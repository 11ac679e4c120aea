"""Reference values computed apart from the program under test.

Nothing here imports ``conformable``.  Derivatives come from hand-coded
formulas and a small forward-mode evaluator over the benchmark's own
expression trees; integrals come from closed forms and Taylor series summed
in 60-digit decimal arithmetic; terminal values follow the paper's rules for
the two conventions.  The checkers at the end turn a program result into a
pass or fail against these references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

# Tolerances of the acceptance suite.
ROUTE_RTOL = 1e-6  # derivative routes and terminal values, scaled by max(1, |ref|)
QUAD_ABS = 1e-10  # integrals: max(QUAD_ABS, QUAD_RTOL * |ref|)
QUAD_RTOL = 1e-9

JUMP = 5.0  # size of the jump added at t = a, as in the verify registry


# --------------------------------------------------------------------------
# Expression trees with their own value and derivative
# --------------------------------------------------------------------------

VD = tuple[float, float]  # (value, first derivative)


@dataclass(frozen=True)
class Leaf:
    """A function of the verify registry, instantiated at terminal a.

    ``power`` is (gamma, c) for c * (t-a)^gamma, whose terminal behaviour
    follows the paper's case split; ``kink`` is the offset from a where the
    first derivative jumps.  ``template`` is the registry's source text.
    """

    key: str
    template: str
    vd: Callable[[float, float], VD]  # (t, a) -> (f, f')
    power: tuple[float, float] | None = None
    kink: float | None = None

    def text(self, a: float) -> str:
        return self.template.replace("{a}", repr(float(a)))

    def eval(self, t: float, a: float) -> VD:
        return self.vd(t, a)


def _power_vd(gamma: float, c: float):
    def vd(t: float, a: float) -> VD:
        x = t - a
        return c * x**gamma, c * gamma * x ** (gamma - 1.0)
    return vd


def _abs_vd(t: float, a: float) -> VD:
    y = t - (a + 1.0)
    return abs(y), math.copysign(1.0, y)


LEAVES: dict[str, Leaf] = {
    leaf.key: leaf
    for leaf in (
        Leaf("one", "1", lambda t, a: (1.0, 0.0)),
        Leaf("identity", "t", lambda t, a: (t, 1.0)),
        Leaf("square", "t^2", lambda t, a: (t * t, 2.0 * t)),
        Leaf("power_04", "(t-({a}))^0.4", _power_vd(0.4, 1.0), power=(0.4, 1.0)),
        Leaf("power_05", "(t-({a}))^0.5/0.5", _power_vd(0.5, 2.0), power=(0.5, 2.0)),
        Leaf("sine", "sin(t)", lambda t, a: (math.sin(t), math.cos(t))),
        Leaf("cosine", "cos(t)", lambda t, a: (math.cos(t), -math.sin(t))),
        Leaf("exponential", "exp(t)", lambda t, a: (math.exp(t), math.exp(t))),
        Leaf(
            "log_shift", "ln(1+(t-({a})))",
            lambda t, a: (math.log1p(t - a), 1.0 / (1.0 + (t - a))),
        ),
        Leaf("abs_shift", "abs(t-(({a})+1))", _abs_vd, kink=1.0),
    )
}

SMOOTH_KEYS = ("one", "identity", "square", "sine", "cosine", "exponential", "log_shift")


@dataclass(frozen=True)
class Node:
    """Sum, product, quotient (``op`` in + * /) or composition (``op`` in
    sin cos exp sq, with ``right`` None) of smaller trees."""

    op: str
    left: "Tree"
    right: "Tree | None" = None

    def text(self, a: float) -> str:
        lt = self.left.text(a)
        if self.right is None:
            return f"({lt})^2" if self.op == "sq" else f"{self.op}({lt})"
        return f"({lt}){self.op}({self.right.text(a)})"

    def eval(self, t: float, a: float) -> VD:
        u, du = self.left.eval(t, a)
        if self.op == "sin":
            return math.sin(u), math.cos(u) * du
        if self.op == "cos":
            return math.cos(u), -math.sin(u) * du
        if self.op == "exp":
            e = math.exp(u)
            return e, e * du
        if self.op == "sq":
            return u * u, 2.0 * u * du
        v, dv = self.right.eval(t, a)
        if self.op == "+":
            return u + v, du + dv
        if self.op == "*":
            return u * v, du * v + u * dv
        return u / v, (du * v - u * dv) / (v * v)


Tree = Leaf | Node


# --------------------------------------------------------------------------
# Expected derivative outcomes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """A value with its absolute tolerance, or ``value is None`` for does-not-exist."""

    value: float | None
    tol: float = 0.0

    @classmethod
    def of(cls, value: float) -> "Expected":
        return cls(value, ROUTE_RTOL * max(1.0, abs(value)))


DNE = Expected(None)


def expected_interior(tree: Tree, alpha: float, a: float, t: float) -> Expected:
    """(t-a)^(1-alpha) * f'(t) for the closed-form and limit routes, and
    does-not-exist at a kink."""
    if isinstance(tree, Leaf) and tree.kink == t - a:
        return DNE
    _, d = tree.eval(t, a)
    return Expected.of((t - a) ** (1.0 - alpha) * d)


def expected_terminal(leaf: Leaf, alpha: float, a: float, jump: float | None, mode: str) -> Expected:
    """The paper's rules for the derivative at t = a.

    Original: the limit of interior derivatives, blind to f(a); c*(t-a)^gamma
    gives 0 below gamma, c*gamma at gamma and does-not-exist above; a smooth
    f gives 0 below order 1 and f'(a) at order 1.  Corrected: it exists iff
    the right first derivative does, so a jump or a power gives
    does-not-exist, and a smooth f gives 0 below order 1 and f'(a) at 1.
    """
    if leaf.power is not None:
        if mode == "corrected":
            return DNE
        gamma, c = leaf.power
        if alpha < gamma:
            return Expected.of(0.0)
        if alpha == gamma:
            return Expected.of(c * gamma)
        return DNE
    if mode == "corrected" and jump is not None:
        return DNE
    if alpha < 1.0:
        return Expected.of(0.0)
    return Expected.of(leaf.eval(a, a)[1])


# --------------------------------------------------------------------------
# Integral references: closed forms and series in 60-digit decimals
# --------------------------------------------------------------------------

INTEGRANDS = ("1", "t^2", "exp(t)", "sin(t)", "(t-({a}))^0.4", "(t-({a}))^0.5/0.5")
SINGULAR = {"(t-({a}))^0.4": (0.4, 1.0), "(t-({a}))^0.5/0.5": (0.5, 2.0)}

_PREC = 60


def _dec_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    s, c = Decimal(0), Decimal(0)
    term = Decimal(1)  # x^n / n!
    n = 0
    eps = Decimal(10) ** -(_PREC + 5)
    while True:
        r = n % 4
        if r == 0:
            c += term
        elif r == 1:
            s += term
        elif r == 2:
            c -= term
        else:
            s -= term
        n += 1
        term = term * x / n
        if n > 4 and abs(term) < eps:
            return s, c


def _taylor_coeffs(integrand: str, a: Decimal) -> Callable[[int], Decimal]:
    """n -> f^(n)(a) for the smooth integrands."""
    if integrand == "1":
        return lambda n: Decimal(1) if n == 0 else Decimal(0)
    if integrand == "t^2":
        return lambda n: (a * a, 2 * a, Decimal(2))[n] if n < 3 else Decimal(0)
    if integrand == "exp(t)":
        ea = a.exp()
        return lambda n: ea
    if integrand == "sin(t)":
        s, c = _dec_sin_cos(a)
        cycle = (s, c, -s, -c)
        return lambda n: cycle[n % 4]
    raise KeyError(integrand)


def integral_reference(integrand: str, alpha: float, a: float, t: float) -> float:
    """∫_a^t (s-a)^(alpha-1) f(s) ds with d = t - a.

    Powers: c * d^(alpha+gamma) / (alpha+gamma).  Smooth f: the series
    sum_n f^(n)(a) d^(alpha+n) / (n! (alpha+n)), e.g. e^a * sum d^(alpha+n)
    / (n! (alpha+n)) for exp(t), summed until the terms fall below 1e-45 of
    the partial sum.
    """
    with localcontext() as ctx:
        ctx.prec = _PREC
        al = Decimal(alpha)
        av = Decimal(a)
        d = Decimal(t) - av
        if integrand in SINGULAR:
            gamma, c = SINGULAR[integrand]
            g = Decimal(gamma)
            return float(Decimal(c) * (d.ln() * (al + g)).exp() / (al + g))
        coeff = _taylor_coeffs(integrand, av)
        dpow = (d.ln() * al).exp()  # d^(alpha+n) / n!, updated in the loop
        total = Decimal(0)
        n = 0
        tiny = Decimal(10) ** -45
        while True:
            term = coeff(n) * dpow / (al + n)
            total += term
            n += 1
            dpow = dpow * d / n
            if n > 3 and dpow <= tiny * max(abs(total), Decimal(1)):
                return float(total)


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------

def check_derivative(result, expected: Expected) -> bool:
    """An EvalResult against an expected value or an expected does-not-exist."""
    if expected.value is None:
        return not result.exists
    return bool(result.exists and abs(result.value - expected.value) <= expected.tol)


def quad_tolerance(ref: float) -> float:
    return max(QUAD_ABS, QUAD_RTOL * abs(ref))


def check_integral(result, ref: float) -> bool:
    return bool(result.exists and abs(result.value - ref) <= quad_tolerance(ref))


# The paper's outcome matrix for `conformable verify`: every identity holds
# under both conventions, differentiability implies continuity only under the
# corrected one, and checklist items 2-6 split the conventions.
CHECKLIST = (
    "depends_on_terminal_value",
    "existence_uniform_in_order",
    "existence_matches_first_derivative",
    "order_one_matches_first_derivative",
    "order_conversion_at_terminal",
)
EXPECTED_MATRIX = {
    **{(c, m): "pass" for c in ("algebra_rules", "order_relation", "inverse_operators")
       for m in ("original", "corrected")},
    **{("naturalness", m): "skipped" for m in ("original", "corrected")},
    ("continuity_implication", "original"): "fail",
    ("continuity_implication", "corrected"): "pass",
    **{(c, "original"): "fail" for c in CHECKLIST},
    **{(c, "corrected"): "pass" for c in CHECKLIST},
}


def verify_statuses(report: dict) -> dict[tuple[str, str], str]:
    return {(o["check_id"], o["mode"]): o["status"] for o in report["outcomes"]}


def check_verify(code: int, report_bytes: bytes, first_bytes: bytes | None, matrix: dict) -> bool:
    """Exit 0, the paper's outcome matrix, and a report byte-identical to
    the first one of the run."""
    if code != 0 or matrix != EXPECTED_MATRIX:
        return False
    return first_bytes is None or report_bytes == first_bytes
