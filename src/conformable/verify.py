"""Numerical verification harness for the operator identities.

Every check runs under both terminal conventions over a fixed built-in
function registry and deterministic parameter grids, then lands in a
structured report.  The four identity checks (algebra rules, order
relation, inverse operators, continuity implication) hold under the
convention they are stated for; the six-point terminal checklist is where
the conventions split: the original convention fails every quantitative
item, the corrected one satisfies them all.

One run computes each costly operator result once, in a results table
that lives for the run (terminal results keyed with their mode), and the
checks of both modes judge the same values.  Closed forms are called directly.
"""

from __future__ import annotations

import json

from .core import (
    EvalResult,
    TerminalMode,
    deriv_at_terminal,
    deriv_closed_form,
    deriv_limit,
    order_convert,
    right_limit,
)
from .expr import BinOp, Const, FuncSpec, evaluate, evaluate_body, parse
from .quad import ABS_TOL, MAX_SUBDIVISIONS, REL_TOL, deriv_of_integral, integral_of_deriv
from .record import Record

__all__ = [
    "CheckOutcome",
    "EXPECTED_STATUS",
    "RegistryEntry",
    "VerificationReport",
    "Witness",
    "check_algebra_rules",
    "check_continuity_implication",
    "check_inverses",
    "check_order_relation",
    "check_terminal_checklist",
    "registry_for",
    "run_all",
]


# --------------------------------------------------------------------------
# Function registry
# --------------------------------------------------------------------------

class RegistryEntry(Record):
    """One test function, instantiated per lower terminal a.

    ``template`` contains ``{a}``, replaced by the literal terminal value.
    Traits describe behaviour on [a, a+10]: ``smooth`` means infinitely
    differentiable on the open interior; ``continuous_at_terminal`` and
    ``right_differentiable`` describe the decorated function at t = a;
    ``kink_offset`` marks an interior point where the derivative jumps.
    """

    key: str
    template: str
    jump: float | None = None
    smooth: bool = True
    continuous_at_terminal: bool = True
    right_differentiable: bool = True
    kink_offset: float | None = None

    def source(self, a: float) -> str:
        return self.template.replace("{a}", repr(float(a)))

    def make(self, a: float) -> FuncSpec:
        return FuncSpec(parse(self.source(a)), self.jump)


REGISTRY: tuple[RegistryEntry, ...] = (
    RegistryEntry("one", "1"),
    RegistryEntry("identity", "t"),
    RegistryEntry("square", "t^2"),
    RegistryEntry("power_04", "(t-({a}))^0.4", right_differentiable=False),
    RegistryEntry("power_05", "(t-({a}))^0.5/0.5", right_differentiable=False),
    RegistryEntry("sine", "sin(t)"),
    RegistryEntry("cosine", "cos(t)"),
    RegistryEntry("exponential", "exp(t)"),
    RegistryEntry("log_shift", "ln(1+(t-({a})))"),
    RegistryEntry(
        "jump_identity",
        "t",
        jump=5.0,
        continuous_at_terminal=False,
        right_differentiable=False,
    ),
    RegistryEntry("abs_shift", "abs(t-(({a})+1))", smooth=False, kink_offset=1.0),
)

# Entries that are smooth on the closed range [a, a+10], jump-free.
_SMOOTH_EVERYWHERE = tuple(e.key for e in REGISTRY if e.smooth and e.right_differentiable)


def registry_for(a: float) -> dict[str, FuncSpec]:
    """All registry functions instantiated at lower terminal a."""
    return {e.key: e.make(a) for e in REGISTRY}


# --------------------------------------------------------------------------
# Grid and report types
# --------------------------------------------------------------------------

ALPHAS = (0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0)
T_OFFSETS = (1e-3, 0.1, 1.0, 4.0)
TERMINALS = (0.0, 1.0, -2.0)
# Operator compositions cost quadratures per point; they run on a
# thinner grid that still spans near-terminal and far-field regimes.
COMPOSITION_ALPHAS = (0.25, 0.5, 0.9, 1.0)
COMPOSITION_OFFSETS = (0.1, 1.0, 4.0)

# Acceptance tolerances, echoed in this order under the report's config.
_TOL = {
    "linearity_rtol": 1e-8,
    "product_rtol": 1e-7,
    "quotient_rtol": 1e-7,
    "order_rtol": 1e-9,
    "route_tol": 1e-6,
    "inverse_tol": 1e-6,
    "terminal_tol": 1e-6,
    "jump_counterexample_tol": 1e-9,
    "continuity_osc_tol": 1e-6,
}
_RULE_RTOL = {"+": _TOL["linearity_rtol"], "*": _TOL["product_rtol"], "/": _TOL["quotient_rtol"]}


class Witness(Record):
    function: str
    alpha: float | None
    beta: float | None
    t: float | None
    measured: float | str
    expected: float | str
    tolerance: float | None


class CheckOutcome(Record):
    check_id: str
    mode: TerminalMode
    status: str  # "pass" | "fail" | "skipped"
    witnesses: tuple[Witness, ...] = ()
    worst_residual: float | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = self.as_dict()
        out["mode"] = self.mode.value
        out["witnesses"] = [w.as_dict() for w in self.witnesses]
        # The optional fields appear only when set.
        for key in ("worst_residual", "reason", "notes"):
            if out[key] is None or out[key] == ():
                del out[key]
        return out


_MAX_FAIL_WITNESSES = 12


class _Collector:
    """Accumulates sub-check results into one CheckOutcome."""

    def __init__(self, check_id: str, mode: TerminalMode):
        self.check_id = check_id
        self.mode = mode
        self.failures: list[Witness] = []
        self.worst: Witness | None = None
        self.worst_residual = 0.0
        self.worst_util = -1.0

    def value(self, function, alpha, beta, t, measured, expected, tol) -> None:
        residual = abs(measured - expected)
        if not residual <= tol:  # NaN-safe
            if len(self.failures) < _MAX_FAIL_WITNESSES:
                self.failures.append(
                    Witness(function, alpha, beta, t, measured, expected, tol)
                )
            return
        util = residual / tol if tol > 0.0 else 0.0
        if util > self.worst_util:
            self.worst_util = util
            self.worst_residual = residual
            self.worst = Witness(function, alpha, beta, t, measured, expected, tol)

    def require(self, function, alpha, beta, t, ok, measured, expected) -> None:
        if not ok and len(self.failures) < _MAX_FAIL_WITNESSES:
            self.failures.append(
                Witness(function, alpha, beta, t, measured, expected, None)
            )

    def result(self, function, alpha, beta, t, r: EvalResult, shown, expected, tol) -> None:
        """Require r to exist (shown as the expectation), then compare its value."""
        self.require(function, alpha, beta, t, r.exists, _shown(r), shown)
        if r.exists:
            self.value(function, alpha, beta, t, r.value, expected, tol)

    def outcome(self, notes: tuple[str, ...] = ()) -> CheckOutcome:
        if self.failures:
            return CheckOutcome(
                self.check_id, self.mode, "fail", tuple(self.failures), notes=notes
            )
        witnesses = (self.worst,) if self.worst is not None else ()
        return CheckOutcome(
            self.check_id,
            self.mode,
            "pass",
            witnesses,
            worst_residual=self.worst_residual,
            notes=notes,
        )


class _Results(dict):
    """One run's operator results, keyed by the operator function itself
    (looked up in this module's globals at each call, so a patched operator
    gets its own entries) and its arguments; each is computed on first request.
    The binary rules' combined functions live here too, so that each is
    built, and its code compiled, once per run.
    """

    def __call__(self, op, *args) -> EvalResult | FuncSpec:
        key = (op, *args)
        r = self.get(key)
        if r is None:
            r = self[key] = op(*args)
        return r


def _shown(r: EvalResult) -> str:
    return f"value({r.value:.9g})" if r.exists else "does-not-exist"


def _scale_tol(rtol: float, reference: float) -> float:
    return rtol * max(1.0, abs(reference))


# --------------------------------------------------------------------------
# Identity checks
# --------------------------------------------------------------------------

# Linearity, product and quotient cases in report order: (op, f, g, c, d),
# where "+" is the combination c*f + d*g.
_BINARY_RULES = (
    ("+", "square", "sine", 2.0, -3.0),
    ("+", "exponential", "cosine", 1.0, 4.0),
    ("*", "square", "sine", None, None),
    ("*", "exponential", "cosine", None, None),
    ("/", "sine", "exponential", None, None),
    ("/", "square", "exponential", None, None),
)
_ROUTE_KEYS = ("square", "sine", "exponential")


def _combined(op: str, f: FuncSpec, g: FuncSpec, c: float | None, d: float | None):
    """The function a binary rule makes of f and g."""
    if op == "+":
        return FuncSpec(BinOp("+", BinOp("*", Const(c), f.body), BinOp("*", Const(d), g.body)))
    return FuncSpec(BinOp(op, f.body, g.body))


def _rule_cases(funcs, results: _Results) -> list[tuple]:
    """Each binary rule as (label, op, f, g, combined function, c, d, rtol)."""
    cases = []
    for op, fk, gk, c, d in _BINARY_RULES:
        f, g = funcs[fk], funcs[gk]
        label = f"{c}*{fk}+{d}*{gk}" if op == "+" else f"{fk}{op}{gk}"
        combined = results(_combined, op, f, g, c, d)
        cases.append((label, op, f, g, combined, c, d, _RULE_RTOL[op]))
    return cases


def _rule_rhs(case: tuple, x: float, a: float, df: float, dg: float) -> float:
    """Right-hand side of a binary rule at x from the derivatives of f and g."""
    _, op, f, g, _, c, d, _ = case
    if op == "+":
        return c * df + d * dg
    fv, gv = evaluate(f, x, a), evaluate(g, x, a)
    if op == "*":
        return gv * df + fv * dg
    return (gv * df - fv * dg) / (gv * gv)


def check_algebra_rules(mode: TerminalMode, results: _Results | None = None) -> CheckOutcome:
    """Linearity, product, quotient, constant, and the weighted-f' identity.

    Interior points are checked under both modes; the corrected convention
    additionally asserts the rules at t = a, where all terminal derivatives
    of order below one vanish.  The weighted-f' identity (rule v) is not
    asserted at (order 1, t = a).
    """
    results = _Results() if results is None else results
    col = _Collector("algebra_rules", mode)
    for a in TERMINALS:
        funcs = registry_for(a)
        cases = _rule_cases(funcs, results)
        for off in T_OFFSETS:
            t = a + off
            for alpha in ALPHAS:
                for case in cases:
                    label, _, f, g, combined, _, _, rtol = case
                    dfv = deriv_closed_form(f, alpha, a, t).value
                    dgv = deriv_closed_form(g, alpha, a, t).value
                    rhs = _rule_rhs(case, t, a, dfv, dgv)
                    lhs = deriv_closed_form(combined, alpha, a, t).value
                    col.value(label, alpha, None, t, lhs, rhs, _scale_tol(rtol, rhs))
                col.value(
                    "one", alpha, None, t,
                    deriv_closed_form(funcs["one"], alpha, a, t).value,
                    0.0, 1e-15,
                )
        # Rule (v): the limit route against the weighted-f' closed form, on a
        # thinner grid since each point drives a full limit extrapolation.
        for key in _ROUTE_KEYS:
            for alpha in (0.25, 0.75, 1.0):
                for off in (0.1, 1.0, 4.0):
                    t = a + off
                    lm = results(deriv_limit, funcs[key], alpha, a, t)
                    cf = deriv_closed_form(funcs[key], alpha, a, t)
                    col.require(
                        key, alpha, None, t, lm.exists and cf.exists,
                        _shown(lm), _shown(cf),
                    )
                    if lm.exists and cf.exists:
                        col.value(
                            key, alpha, None, t, lm.value, cf.value,
                            max(_TOL["route_tol"], 10.0 * lm.err_estimate),
                        )
        if mode is TerminalMode.CORRECTED:
            _algebra_at_terminal(col, results, a, funcs, cases)
    notes = ()
    if mode is TerminalMode.CORRECTED:
        notes = ("rule (v) is not asserted at the terminal for order 1",)
    return col.outcome(notes=notes)


def _algebra_at_terminal(col: _Collector, results, a: float, funcs, cases) -> None:
    term = lambda f, alpha: results(deriv_at_terminal, f, alpha, a, TerminalMode.CORRECTED)
    for alpha in ALPHAS:
        for case in cases:
            label, _, f, g, combined, _, _, rtol = case
            lhs = term(combined, alpha)
            rf, rg = term(f, alpha), term(g, alpha)
            ok = lhs.exists and rf.exists and rg.exists
            col.require(label, alpha, None, a, ok, _shown(lhs), "all exist")
            if ok:
                rhs = _rule_rhs(case, a, a, rf.value, rg.value)
                col.value(
                    label, alpha, None, a, lhs.value, rhs, _scale_tol(rtol, rhs) + 1e-8,
                )
        col.value("one", alpha, None, a, term(funcs["one"], alpha).value, 0.0, 1e-15)
        # Rule (v) at the terminal, orders below one only: both sides vanish.
        if alpha < 1.0:
            for key in _ROUTE_KEYS:
                r = term(funcs[key], alpha)
                col.result(key, alpha, None, a, r, "value(0)", 0.0, _TOL["terminal_tol"])


def check_order_relation(mode: TerminalMode, results: _Results | None = None) -> CheckOutcome:
    """Conversion between orders at interior points, and its terminal form.

    Interior: derivatives of different orders convert through the weight
    (t-a)^(beta-alpha) to within 1e-9 relative.  Terminal, original mode:
    the case split around the largest existing order (zero below, the
    limit value at it, nonexistent above).  Terminal, corrected mode: all
    orders exist together and the well-defined conversion direction gives
    zero for orders below one.
    """
    results = _Results() if results is None else results
    col = _Collector("order_relation", mode)
    smooth_keys = [e.key for e in REGISTRY if e.smooth and e.jump is None]
    for a in TERMINALS:
        funcs = registry_for(a)
        for key in smooth_keys:
            for off in T_OFFSETS:
                t = a + off
                derivs = {
                    alpha: deriv_closed_form(funcs[key], alpha, a, t).value
                    for alpha in ALPHAS
                }
                for alpha in ALPHAS:
                    for beta in ALPHAS:
                        if beta == alpha:
                            continue
                        converted = order_convert(derivs[beta], alpha, beta, a, t)
                        col.value(
                            key, alpha, beta, t, converted, derivs[alpha],
                            _scale_tol(_TOL["order_rtol"], derivs[alpha]),
                        )
        if mode is TerminalMode.ORIGINAL:
            _case_split_original(col, results, a, funcs)
            continue
        for entry in REGISTRY:
            f = funcs[entry.key]
            for alpha in ALPHAS:
                r = results(deriv_at_terminal, f, alpha, a, mode)
                col.require(
                    entry.key, alpha, None, a, r.exists == entry.right_differentiable,
                    _shown(r), "exists iff right first derivative exists",
                )
            if entry.right_differentiable:
                _conversion_at_terminal(col, results, entry.key, f, a, mode)
    return col.outcome()


def _case_split_original(col: _Collector, results, a: float, funcs) -> None:
    term = lambda key, alpha: results(
        deriv_at_terminal, funcs[key], alpha, a, TerminalMode.ORIGINAL
    )
    for key, gamma, at_value in (("power_04", 0.4, 0.4), ("power_05", 0.5, 1.0)):
        for beta in ALPHAS:
            r = term(key, beta)
            if beta < gamma:
                col.result(key, None, beta, a, r, "value(0)", 0.0, _TOL["terminal_tol"])
            elif beta == gamma:
                col.result(
                    key, None, beta, a, r, f"value({at_value})", at_value, _TOL["terminal_tol"]
                )
            else:
                col.require(key, None, beta, a, not r.exists, _shown(r), "does-not-exist")
    # Smooth functions: every order below one exists with value zero.
    for key in _SMOOTH_EVERYWHERE:
        for alpha in ALPHAS:
            if alpha == 1.0:
                continue
            r = term(key, alpha)
            col.result(key, alpha, None, a, r, "value(0)", 0.0, _TOL["terminal_tol"])


def _conversion_at_terminal(col: _Collector, results, key: str, f, a: float, mode) -> None:
    """Terminal results per order, converted in the well-defined direction.

    For beta < alpha the weight (t-a)^(alpha-beta) vanishes at t = a, so
    the lower order must read zero wherever both orders exist.
    """
    for alpha in ALPHAS:
        ra = results(deriv_at_terminal, f, alpha, a, mode)
        for beta in ALPHAS:
            if beta < alpha and ra.exists:
                rb = results(deriv_at_terminal, f, beta, a, mode)
                if rb.exists:
                    col.value(key, alpha, beta, a, rb.value, 0.0 * ra.value, _TOL["terminal_tol"])


def check_inverses(mode: TerminalMode, results: _Results | None = None) -> CheckOutcome:
    """Left inverse (derivative of integral) and right inverse (integral of
    derivative), including the jump counterexample for the right inverse.
    """
    results = _Results() if results is None else results
    col = _Collector("inverse_operators", mode)
    for a in TERMINALS:
        funcs = registry_for(a)
        for entry in REGISTRY:
            f = funcs[entry.key]
            for alpha in COMPOSITION_ALPHAS:
                for off in COMPOSITION_OFFSETS:
                    t = a + off
                    if entry.jump is None:  # left inverse needs continuity on [a, t]
                        r = results(deriv_of_integral, f, alpha, a, t)
                        col.result(
                            f"T(I {entry.key})", alpha, None, t, r,
                            "value(f(t))", evaluate(f, t, a), _TOL["inverse_tol"],
                        )
                    if entry.kink_offset is not None:
                        continue  # not differentiable throughout (a, t]
                    r = results(integral_of_deriv, f, alpha, a, t)
                    col.result(
                        f"I(T {entry.key})", alpha, None, t, r, "value(f(t) - f(a+))",
                        evaluate(f, t, a) - evaluate_body(f, a), _TOL["inverse_tol"],
                    )
                    if not r.exists:
                        continue
                    if entry.jump is not None:
                        # The naive f(t) - f(a) form misses by exactly the jump.
                        naive = evaluate(f, t, a) - evaluate(f, a, a)
                        col.value(
                            f"I(T {entry.key}) vs f(t)-f(a)", alpha, None, t,
                            r.value - naive, entry.jump,
                            _TOL["jump_counterexample_tol"],
                        )
                    elif (
                        mode is TerminalMode.ORIGINAL and entry.continuous_at_terminal
                    ) or (mode is TerminalMode.CORRECTED and entry.right_differentiable):
                        col.value(
                            f"I(T {entry.key}) vs f(t)-f(a)", alpha, None, t,
                            r.value, evaluate(f, t, a) - evaluate(f, a, a),
                            _TOL["inverse_tol"],
                        )
    return col.outcome()


def check_continuity_implication(
    mode: TerminalMode, results: _Results | None = None
) -> CheckOutcome:
    """Differentiability must imply continuity at the evaluated point.

    The jump witness decides the modes: the original convention assigns it
    a terminal derivative even though it is not right-continuous there;
    the corrected convention reports nonexistence instead.
    """
    results = _Results() if results is None else results
    col = _Collector("continuity_implication", mode)
    for a in TERMINALS:
        funcs = registry_for(a)
        for entry in REGISTRY:
            f = funcs[entry.key]
            r = results(deriv_at_terminal, f, 0.5, a, mode)
            # Right oscillation: the gap between the extrapolated right limit
            # of f and its assigned value at the terminal.
            limit, _, why = right_limit(lambda h: evaluate(f, a + h, a))
            if why is None:
                oscillation = abs(limit - evaluate(f, a, a))
                shown_osc = f"{oscillation:.6g}"
                continuous = oscillation <= _TOL["continuity_osc_tol"]
            else:
                shown_osc = "no finite right limit"
                continuous = False
            col.require(
                entry.key, 0.5, None, a,
                (not r.exists) or continuous,
                f"derivative {_shown(r)}; right oscillation {shown_osc}",
                "differentiability implies right continuity",
            )
            # Interior spot check: smooth entries are differentiable and
            # continuous everywhere in range, trivially consistent.
            if entry.smooth and entry.jump is None:
                t = a + 1.0
                ri = deriv_closed_form(f, 0.5, a, t)
                col.require(
                    entry.key, 0.5, None, t, ri.exists,
                    _shown(ri), "differentiable at interior points",
                )
    return col.outcome()


# --------------------------------------------------------------------------
# Terminal checklist (six desiderata for the terminal definition)
# --------------------------------------------------------------------------

CHECKLIST_IDS = (
    "naturalness",
    "depends_on_terminal_value",
    "existence_uniform_in_order",
    "existence_matches_first_derivative",
    "order_one_matches_first_derivative",
    "order_conversion_at_terminal",
)

_CHECKLIST_KEYS = (
    "one", "identity", "square", "sine", "cosine", "exponential",
    "log_shift", "power_04", "power_05", "jump_identity",
)


def check_terminal_checklist(
    mode: TerminalMode, results: _Results | None = None
) -> list[CheckOutcome]:
    """Six desiderata for the behaviour of the derivative at the terminal.

    Item 1 (naturalness) is qualitative and recorded as skipped.  Items
    2-6 are concrete: the original convention fails each of them on a
    registry witness; the corrected convention satisfies them all.
    """
    results = _Results() if results is None else results
    depends, uniform, matches, order_one, conversion = (
        _Collector(check, mode) for check in CHECKLIST_IDS[1:]
    )
    for a in TERMINALS:
        funcs = registry_for(a)
        term = lambda key, alpha: results(deriv_at_terminal, funcs[key], alpha, a, mode)
        for alpha in ALPHAS:
            base, dec = term("identity", alpha), term("jump_identity", alpha)
            differs = base.exists != dec.exists or (
                base.exists and dec.exists and base.value != dec.value
            )
            depends.require(
                "identity vs jump_identity", alpha, None, a, differs,
                f"base {_shown(base)}; decorated {_shown(dec)}",
                "changing f(a) must change the terminal derivative",
            )
            if dec.exists:
                depends.require(
                    "jump_identity", alpha, None, a, False,
                    f"derivative {_shown(dec)} despite a jump at the terminal",
                    "alpha-differentiability at a must imply right continuity",
                )
        for key in _CHECKLIST_KEYS:
            rs = [term(key, alpha) for alpha in ALPHAS]
            # The right-derivative oracle: the corrected order-1 evaluation is
            # exactly that quotient limit.
            rd = results(deriv_at_terminal, funcs[key], 1.0, a, TerminalMode.CORRECTED)
            existing = [al for al, r in zip(ALPHAS, rs) if r.exists]
            missing = [al for al, r in zip(ALPHAS, rs) if not r.exists]
            uniform.require(
                key,
                existing[0] if existing else None,
                missing[0] if missing else None,
                a,
                not existing or not missing,
                f"exists for alpha={existing}; not for alpha={missing}",
                "existence must be order-independent",
            )
            for alpha, r in zip(ALPHAS, rs):
                matches.require(
                    key, alpha, None, a, r.exists == rd.exists,
                    f"derivative {_shown(r)}; right f'(a) {_shown(rd)}",
                    "existence must co-occur with the first derivative",
                )
                # Weighted-f' form at the terminal: the weight vanishes for
                # orders below one, so existence must track f'(a) and the
                # value must be zero.
                if alpha < 1.0:
                    conversion.require(
                        key, alpha, None, a, r.exists == rd.exists,
                        f"derivative {_shown(r)}; right f'(a) {_shown(rd)}",
                        "weighted-f' form must extend to the terminal",
                    )
                    if r.exists and rd.exists:
                        conversion.value(key, alpha, None, a, r.value, 0.0, _TOL["terminal_tol"])
            _conversion_at_terminal(conversion, results, key, funcs[key], a, mode)
            r1 = term(key, 1.0)
            order_one.require(
                key, 1.0, None, a, r1.exists == rd.exists,
                f"order-1 {_shown(r1)}; right f'(a) {_shown(rd)}",
                "order-1 derivative must equal f'(a)",
            )
            if r1.exists and rd.exists:
                order_one.value(key, 1.0, None, a, r1.value, rd.value, _TOL["terminal_tol"])
    skipped = CheckOutcome(
        "naturalness", mode, "skipped", reason="qualitative criterion; not machine-checkable"
    )
    return [skipped] + [c.outcome() for c in (depends, uniform, matches, order_one, conversion)]


# --------------------------------------------------------------------------
# Full run and report
# --------------------------------------------------------------------------

CHECK_IDS = (
    "algebra_rules",
    "order_relation",
    "inverse_operators",
    "continuity_implication",
) + CHECKLIST_IDS

EXPECTED_STATUS: dict[tuple[str, TerminalMode], str] = {}
for _mode in TerminalMode:
    EXPECTED_STATUS[("algebra_rules", _mode)] = "pass"
    EXPECTED_STATUS[("order_relation", _mode)] = "pass"
    EXPECTED_STATUS[("inverse_operators", _mode)] = "pass"
    EXPECTED_STATUS[("naturalness", _mode)] = "skipped"
EXPECTED_STATUS[("continuity_implication", TerminalMode.ORIGINAL)] = "fail"
EXPECTED_STATUS[("continuity_implication", TerminalMode.CORRECTED)] = "pass"
for _check in CHECKLIST_IDS[1:]:
    EXPECTED_STATUS[(_check, TerminalMode.ORIGINAL)] = "fail"
    EXPECTED_STATUS[(_check, TerminalMode.CORRECTED)] = "pass"


def _registry_hash() -> str:
    # hashlib maps OpenSSL's libcrypto; only a process that builds a report
    # pays for it.
    import hashlib

    entries = []
    for e in REGISTRY:
        entry = e.as_dict()
        del entry["template"]
        entry["sources"] = [e.source(a) for a in TERMINALS]
        entries.append(entry)
    payload = json.dumps(entries, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _config_echo() -> dict:
    """The grid as plain data, then the quadrature settings and the tolerances."""
    return {
        "alphas": ALPHAS,
        "t_offsets": T_OFFSETS,
        "terminals": TERMINALS,
        "composition_alphas": COMPOSITION_ALPHAS,
        "composition_offsets": COMPOSITION_OFFSETS,
        "quad": {
            "abs_tol": ABS_TOL,
            "rel_tol": REL_TOL,
            "max_subdivisions": MAX_SUBDIVISIONS,
        },
        "tolerances": dict(_TOL),
    }


class VerificationReport(Record):
    outcomes: tuple[CheckOutcome, ...]
    registry_hash: str
    config: dict

    def to_dict(self) -> dict:
        return {
            "meta": {
                "tool": "conformable-verify",
                "modes": sorted({o.mode.value for o in self.outcomes}),
                "registry_hash": self.registry_hash,
                "config": self.config,
            },
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def matches_expected(self) -> bool:
        return all(
            o.status == EXPECTED_STATUS[(o.check_id, o.mode)] for o in self.outcomes
        )

    def to_text(self) -> str:
        by_key = {(o.check_id, o.mode): o for o in self.outcomes}
        width = max(len(c) for c in CHECK_IDS) + 2
        lines = ["check".ljust(width) + "".join(m.value.ljust(18) for m in TerminalMode)]
        lines.append("-" * (width + 18 * len(TerminalMode)))
        for check in CHECK_IDS:
            cells = []
            for m in TerminalMode:
                o = by_key[(check, m)]
                if o.status == "pass":
                    cells.append(f"pass ({o.worst_residual:.2e})".ljust(18))
                elif o.status == "fail":
                    cells.append("FAIL".ljust(18))
                else:
                    cells.append("skipped".ljust(18))
            lines.append(check.ljust(width) + "".join(cells))
        verdict = "matches" if self.matches_expected() else "DOES NOT match"
        lines.append("")
        lines.append(f"outcome matrix {verdict} the expected matrix")
        return "\n".join(lines) + "\n"


def run_all() -> VerificationReport:
    """Run every check under both conventions over the built-in registry."""
    outcomes: list[CheckOutcome] = []
    results = _Results()
    for mode in TerminalMode:
        outcomes.append(check_algebra_rules(mode, results))
        outcomes.append(check_order_relation(mode, results))
        outcomes.append(check_inverses(mode, results))
        outcomes.append(check_continuity_implication(mode, results))
        outcomes.extend(check_terminal_checklist(mode, results))
    return VerificationReport(tuple(outcomes), _registry_hash(), _config_echo())
