import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conformable import (
    EvalResult,
    FuncSpec,
    TerminalMode,
    deriv_at_terminal,
    deriv_closed_form,
    deriv_limit,
    evaluate,
    evaluate_body,
    evaluate_dual,
    order_convert,
    right_limit,
)
from conformable import core
from conformable.core import checked_order
from conformable.errors import DomainError, NonDifferentiableError, PreconditionError
from conformable.expr import BinOp, Call, Const, Neg, Var

F = FuncSpec.from_source
ORIGINAL = TerminalMode.ORIGINAL
CORRECTED = TerminalMode.CORRECTED

SMOOTH = [
    ("1", lambda t: 0.0),
    ("t", lambda t: 1.0),
    ("t^2", lambda t: 2.0 * t),
    ("sin(t)", math.cos),
    ("cos(t)", lambda t: -math.sin(t)),
    ("exp(t)", math.exp),
]


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad", [0.0, -0.5, 1.0 + 1e-9, 2.0, math.inf, math.nan, -math.inf, False, "0.5", None]
)
def test_order_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\]"):
        checked_order(bad)


def test_order_accepts_boundary():
    assert checked_order(1.0) == 1.0
    assert checked_order(1e-9) == 1e-9


@pytest.mark.parametrize(
    "bad",
    [
        math.inf,
        -math.inf,
        math.nan,
        "0",
        None,
        pytest.param(10**400, id="1e400"),
        pytest.param(-(10**400), id="-1e400"),
    ],
)
def test_terminal_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="lower terminal a must be finite"):
        core._checked_terminal(bad)


def test_eval_result_invariants():
    with pytest.raises(ValueError):
        EvalResult(value=1.0, err_estimate=-1.0)
    with pytest.raises(ValueError):
        EvalResult()
    r = EvalResult.of(2.0, 1e-12)
    assert r.exists and r.err_estimate >= 0.0
    assert not EvalResult.does_not_exist("nope").exists


# --------------------------------------------------------------------------
# closed-form route
# --------------------------------------------------------------------------

def test_closed_form_reduces_to_first_derivative_at_order_one():
    assert deriv_closed_form(F("t^2"), 1.0, 0.0, 3.0).value == pytest.approx(6.0)


def test_closed_form_hand_value():
    # (t-a)^(1-alpha) * f'(t) = 4^0.5 * 1
    r = deriv_closed_form(F("t"), 0.5, 0.0, 4.0)
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.err_estimate == 0.0


def test_closed_form_kink_does_not_exist():
    r = deriv_closed_form(F("abs(t-2)"), 0.5, 0.0, 2.0)
    assert not r.exists


def test_closed_form_requires_interior_point():
    with pytest.raises(PreconditionError):
        deriv_closed_form(F("t"), 0.5, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        deriv_closed_form(F("t"), 0.5, 0.0, -1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan, pytest.param(10**400, id="1e400")])
@pytest.mark.parametrize(
    "operator",
    [
        lambda t: deriv_closed_form(F("sin(t)"), 0.5, 0.0, t),
        lambda t: deriv_limit(F("sin(t)"), 0.5, 0.0, t),
        lambda t: order_convert(1.0, 0.5, 0.7, 0.0, t),
    ],
    ids=["closed", "limit", "order_convert"],
)
def test_interior_operators_reject_non_finite_t(operator, t):
    with pytest.raises(PreconditionError, match=f"t must be finite, got {t!r}"):
        operator(t)


@pytest.mark.parametrize(
    "operator",
    [
        lambda: deriv_closed_form(F("1"), 0.5, -1e308, 1e308),
        lambda: deriv_closed_form(F("t"), 0.5, -1e308, 1e308),
        lambda: deriv_limit(F("t"), 0.5, -1e308, 1e308),
        lambda: order_convert(1.0, 0.5, 0.9, -1e308, 1e308),
    ],
    ids=["closed-const", "closed-identity", "limit", "order_convert"],
)
def test_interior_operators_reject_an_overflowing_span(operator):
    with pytest.raises(PreconditionError, match="t - a must be finite, got inf"):
        operator()


def test_closed_form_propagates_domain_error():
    with pytest.raises(DomainError):
        deriv_closed_form(F("ln(t-3)"), 0.5, 0.0, 2.0)


# --------------------------------------------------------------------------
# limit route
# --------------------------------------------------------------------------

def test_limit_of_constant_is_zero():
    for alpha in (0.1, 0.5, 1.0):
        r = deriv_limit(F("1"), alpha, 0.0, 2.0)
        assert r.exists and abs(r.value) <= 1e-9


def test_limit_derived_value_linear():
    # oracle: closed form gives exactly 2.0
    r = deriv_limit(F("t"), 0.5, 0.0, 4.0)
    oracle = deriv_closed_form(F("t"), 0.5, 0.0, 4.0).value
    assert oracle == pytest.approx(2.0, abs=1e-12)
    assert r.value == pytest.approx(oracle, abs=1e-6)


def test_limit_derived_value_shifted_power():
    # oracle: (t-a)^0.6 * 0.4 (t-a)^-0.6 = 0.4
    r = deriv_limit(F("(t-1)^0.4"), 0.4, 1.0, 2.0)
    oracle = deriv_closed_form(F("(t-1)^0.4"), 0.4, 1.0, 2.0).value
    assert oracle == pytest.approx(0.4, abs=1e-12)
    assert r.value == pytest.approx(oracle, abs=1e-6)


def test_limit_detects_kink():
    r = deriv_limit(F("abs(t-2)"), 0.5, 0.0, 2.0)
    assert not r.exists
    assert "disagree" in r.reason


def test_limit_requires_interior_point():
    with pytest.raises(PreconditionError):
        deriv_limit(F("t"), 0.5, 0.0, 0.0)


def test_limit_far_from_zero_falls_back_to_largest_step():
    # At t = 200 the automatic step 1e-2 * 0.5^12 is below sqrt(eps) * 200;
    # the route retries with theta0 = 0.5 * (t - a) / weight.
    f = F("t^2")
    r = deriv_limit(f, 0.5, 199.0, 200.0)
    assert r.exists
    assert r.value == pytest.approx(deriv_closed_form(f, 0.5, 199.0, 200.0).value, abs=1e-6)
    for source in ("sin(t)", "exp(t/1000)", "t^3"):
        g = F(source)
        for a, t in ((199.0, 200.0), (-300.0, -299.5), (1e4, 1e4 + 3.0)):
            lm = deriv_limit(g, 0.7, a, t)
            cf = deriv_closed_form(g, 0.7, a, t)
            assert lm.exists, (source, a, t, lm.reason)
            assert abs(lm.value - cf.value) <= 1e-6 * max(1.0, abs(cf.value)), (source, a, t)


def test_limit_fallback_step_can_still_underflow():
    # Even the largest step 0.5 * (t - a) cannot clear the rounding floor here.
    with pytest.raises(PreconditionError, match="underflows"):
        deriv_limit(F("t"), 1.0, 1e6, 1e6 + 1e-3)


def test_limit_retries_once_with_smaller_steps_when_not_cauchy():
    # cos(exp(t)) varies on a scale of exp(-11) ~ 1.7e-5 near t = 11, below
    # the automatic steps; the retry at theta0 * 1e-2 resolves it.
    f = F("cos(exp(t))")
    cf = deriv_closed_form(f, 0.8, 1.0, 11.0).value
    assert cf == pytest.approx(-9.4437625e4, rel=1e-7)
    r = deriv_limit(f, 0.8, 1.0, 11.0)
    assert r.exists, r.reason
    assert abs(r.value - cf) <= 1e-6 * abs(cf)


def test_limit_accepts_callable():
    r = deriv_limit(lambda x: x * x, 1.0, 0.0, 3.0)
    assert r.value == pytest.approx(6.0, abs=1e-8)


@pytest.mark.parametrize(
    "source,alpha,a,t",
    [("sin(t)", 0.5, 0.0, 1.0), ("abs(t-1)", 0.7, 0.0, 1.0), ("cos(exp(t))", 0.8, 1.0, 11.0)],
)
def test_limit_of_funcspec_equals_limit_of_its_point_function(source, alpha, a, t):
    f = F(source, jump_at_terminal=2.0)
    assert deriv_limit(f, alpha, a, t) == deriv_limit(lambda x: evaluate(f, x, a), alpha, a, t)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("source,fprime", SMOOTH)
def test_route_agreement(source, fprime, alpha):
    f = F(source)
    for a in (0.0, 1.0, -2.0):
        for off in (1e-3, 0.1, 1.0, 4.0, 10.0):
            t = a + off
            lm = deriv_limit(f, alpha, a, t)
            cf = deriv_closed_form(f, alpha, a, t)
            assert lm.exists and cf.exists
            assert abs(lm.value - cf.value) <= max(1e-6, 10.0 * lm.err_estimate)


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.01, max_value=9.0),
)
def test_normalized_derivative_is_order_invariant(alpha, beta, off):
    # both normalisations recover f'(t)
    f = F("exp(t)")
    a, t = 1.0, 1.0 + off
    na = (t - a) ** (alpha - 1.0) * deriv_closed_form(f, alpha, a, t).value
    nb = (t - a) ** (beta - 1.0) * deriv_closed_form(f, beta, a, t).value
    assert abs(na - nb) <= 1e-9 * max(1.0, abs(na))


def test_linearity_of_both_routes():
    f, g = F("t^2"), F("sin(t)")
    combined = F("3*t^2 - 2*sin(t)")
    for alpha in (0.25, 0.75, 1.0):
        lhs_cf = deriv_closed_form(combined, alpha, 0.0, 2.0).value
        rhs = (
            3.0 * deriv_closed_form(f, alpha, 0.0, 2.0).value
            - 2.0 * deriv_closed_form(g, alpha, 0.0, 2.0).value
        )
        assert abs(lhs_cf - rhs) <= 1e-8 * max(1.0, abs(rhs))
        lhs_lm = deriv_limit(combined, alpha, 0.0, 2.0).value
        assert abs(lhs_lm - rhs) <= 1e-6


# --------------------------------------------------------------------------
# extrapolation tableau
# --------------------------------------------------------------------------

def _reference_neville_best(samples, factors):
    """The tableau as first written, kept as the reference for the lean loop."""
    col = list(samples)
    best = col[-1]
    best_err = abs(col[-1] - col[-2]) if len(col) > 1 else math.inf
    for fac in factors:
        if len(col) < 2:
            break
        nxt = []
        for lo, hi in zip(col, col[1:]):
            val = hi + (hi - lo) / (fac - 1.0)
            err = max(abs(val - hi), abs(val - lo))
            if err < best_err:
                best, best_err = val, err
            nxt.append(val)
        col = nxt
    return best, best_err


def _outcome(fn, *args):
    try:
        return "ok", tuple(struct.pack("<d", x) for x in fn(*args))
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]
_SAMPLE = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=5.9, max_value=6.1),
)


@st.composite
def _factors(draw):
    # The limit route uses base r or r^2; the terminal route uses base 1/rho.
    ratio = draw(st.sampled_from([1.5, 2.0, 3.0, 4.0, 1.0 / 0.7]))
    rho = st.floats(-0.999, 0.995).filter(lambda x: abs(x) >= 1e-3)
    base = draw(st.sampled_from([ratio, ratio * ratio]) | rho.map(lambda x: 1.0 / x))
    factors = [base * ratio**j for j in range(draw(st.integers(0, 12)))]
    if factors and draw(st.booleans()):
        factors[draw(st.integers(0, len(factors) - 1))] = 1.0
    return factors


@settings(max_examples=600)
@given(st.lists(_SAMPLE, min_size=1, max_size=12), _factors())
def test_neville_best_matches_reference_bit_for_bit(samples, factors):
    assert _outcome(core._neville_best, samples, factors) == _outcome(
        _reference_neville_best, samples, factors
    )


@pytest.mark.parametrize("samples", [[1.0, 2.0, 2.5], [math.nan, 1.0, 2.0], [math.inf, -math.inf, 0.0]])
def test_neville_best_unit_factor_raises_like_reference(samples):
    for fn in (core._neville_best, _reference_neville_best):
        with pytest.raises(ZeroDivisionError):
            fn(samples, [1.0])
        with pytest.raises(ZeroDivisionError):
            fn(samples, [2.0, 1.0])


def test_neville_best_ties_and_nan_keep_reference_choice():
    cases = [
        ([1.0, 1.0, 1.0], [2.0, 4.0]),
        ([0.0, -0.0, 0.0, -0.0], [2.0, 4.0, 8.0]),
        ([math.nan, 1.0, 1.5, 1.75], [2.0, 4.0, 8.0]),
        ([1.0, 1.5, math.nan, 1.75], [2.0, 4.0, 8.0]),
        ([1e308, -1e308, 1e308], [1.5, 2.25]),
        ([5.0], [2.0, 4.0]),
    ]
    for samples, factors in cases:
        assert _outcome(core._neville_best, samples, factors) == _outcome(
            _reference_neville_best, samples, factors
        )


# --------------------------------------------------------------------------
# argument checks
# --------------------------------------------------------------------------

def test_fast_checks_pass_instances_through():
    assert checked_order(1) == 1.0 and type(checked_order(1)) is float
    assert core._checked_terminal(-2) == -2.0 and type(core._checked_terminal(-2)) is float
    with pytest.raises(ValueError, match=r"alpha must lie in \(0,1\]"):
        checked_order(math.nan)
    with pytest.raises(ValueError, match="lower terminal a must be finite"):
        core._checked_terminal("0")


# --------------------------------------------------------------------------
# right limits
# --------------------------------------------------------------------------

def test_right_limit_of_convergent_input_is_the_extrapolated_mesh():
    g = lambda h: 2.0 + 3.0 * h + h * h  # noqa: E731
    limit, err, why = right_limit(g)
    assert why is None
    assert abs(limit - 2.0) <= 1e-12
    mesh = [g(1e-2 * 0.5**k) for k in range(12)]
    assert (limit, err, why) == core._limit_of_power_sequence(mesh)


def test_right_limit_of_oscillating_input_does_not_exist():
    assert right_limit(lambda h: math.sin(math.log(h))) == (
        None, 0.0, "mesh values do not contract toward a limit"
    )


def test_right_limit_of_fast_oscillation_does_not_exist():
    # Only one difference ratio of sin(1/h) is usable; one ratio is no
    # evidence of contraction, so the plain Cauchy test decides.
    assert right_limit(lambda h: math.sin(1 / h)) == (None, 0.0, "mesh values did not stabilize")


def test_right_limit_uses_the_schedule_mesh():
    offsets = []

    def g(h):
        offsets.append(h)
        return 1.0 + math.sqrt(h)

    limit, _, why = right_limit(g)
    assert offsets == [1e-2 * 0.5**k for k in range(12)]
    assert why is None
    assert abs(limit - 1.0) <= 1e-12


# --------------------------------------------------------------------------
# terminal modes
# --------------------------------------------------------------------------

def test_terminal_original_ignores_a_kink_away_from_the_terminal():
    # f' = -1 on [0, 0.01): the limit of (t-a)^(1-alpha) f'(t) is 0, and -1
    # at order 1, though the mesh would meet the kink at its first point.
    f = F("abs(t-0.01)")
    assert deriv_at_terminal(f, 0.5, 0.0, ORIGINAL) == EvalResult.of(0.0, 0.0)
    assert deriv_at_terminal(f, 1.0, 0.0, ORIGINAL) == EvalResult.of(-1.0, 0.0)


def test_terminal_original_reason_names_first_bad_mesh_point():
    # Forward mode refuses t^0.4 at 0, so the mesh runs and meets the kink;
    # the value does not exist, as alpha > 0.4.
    r = deriv_at_terminal(F("t^0.4+abs(t-0.01)"), 0.5, 0.0, ORIGINAL)
    assert r.reason == (
        "not differentiable arbitrarily close to the terminal: "
        "no first derivative at t=0.01: abs has no derivative at 0"
    )


def test_terminal_original_mesh_point_rounding_to_a_is_rejected():
    # 1e17 + 1e-2 rounds back to 1e17, so the first mesh point is not interior.
    with pytest.raises(PreconditionError) as info:
        deriv_at_terminal(F("t"), 0.5, 1e17, ORIGINAL)
    assert str(info.value) == "t must lie strictly above the lower terminal a"


def test_terminal_corrected_mesh_point_rounding_to_a_is_rejected():
    # The same rule in both modes, though forward mode needs no mesh for t.
    for alpha in (0.5, 1.0):
        with pytest.raises(PreconditionError) as info:
            deriv_at_terminal(F("t"), alpha, 1e17, CORRECTED)
        assert str(info.value) == "t must lie strictly above the lower terminal a"


@pytest.mark.parametrize("source,alpha,a,mode,expected", [
    ("t*sin(t)+exp(t)", 0.9, -2.0, ORIGINAL, 0.0),
    ("t*sin(t)+exp(t)", 0.5, -2.0, ORIGINAL, 0.0),
    ("exp(cos(cos(t^2)))", 1.0, 1.0, CORRECTED, 2.0407825281765293),
    ("t+t+t", 0.1, -2.0, CORRECTED, 0.0),
])
def test_terminal_smooth_functions_the_mesh_misjudged(source, alpha, a, mode, expected):
    # f' changes over the mesh [a, a + 1e-2], which extrapolation misjudges;
    # forward mode gives f'(a) exactly.
    r = deriv_at_terminal(F(source), alpha, a, mode)
    assert r.exists, r.reason
    assert abs(r.value - expected) <= 1e-12 and r.err_estimate == 0.0


def test_terminal_forward_route_still_probes_right_of_the_terminal():
    # The pair (0, 0) of (-t)^1.5 at 0 succeeds; f is undefined right of 0.
    for mode in (ORIGINAL, CORRECTED):
        with pytest.raises(DomainError, match="negative base with non-integer exponent"):
            deriv_at_terminal(F("(-t)^1.5"), 0.5, 0.0, mode)


@pytest.mark.parametrize("source", ["(t-1)^0.4", "(t-1)^0.5/0.5", "sqrt(t-1)"])
def test_terminal_forward_refused_inputs_keep_the_mesh_answer(source):
    f = F(source)
    for mode in (ORIGINAL, CORRECTED):
        for alpha in (0.3, 0.4, 0.5, 1.0):
            assert deriv_at_terminal(f, alpha, 1.0, mode) == core._terminal_from_mesh(
                f, alpha, 1.0, mode
            )


def test_terminal_case_split_original():
    f = F("(t-1)^0.4")
    for beta in (0.1, 0.2, 0.3):
        r = deriv_at_terminal(f, beta, 1.0, ORIGINAL)
        assert r.exists and abs(r.value) <= 1e-6
    r = deriv_at_terminal(f, 0.4, 1.0, ORIGINAL)
    assert r.exists and r.value == pytest.approx(0.4, abs=1e-6)
    for beta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        assert not deriv_at_terminal(f, beta, 1.0, ORIGINAL).exists


def test_terminal_corrected_rejects_power_witness():
    # right quotient h^0.4 / h diverges
    assert not deriv_at_terminal(F("(t-1)^0.4"), 0.4, 1.0, CORRECTED).exists


def test_terminal_corrected_zero_below_order_one():
    r = deriv_at_terminal(F("t"), 0.3, 0.0, CORRECTED)
    assert r.value == 0.0 and r.err_estimate == 0.0


def test_terminal_corrected_order_one_is_first_derivative():
    r = deriv_at_terminal(F("t^2"), 1.0, 1.0, CORRECTED)
    assert r.value == pytest.approx(2.0, abs=1e-6)


def test_terminal_original_ignores_jump():
    f_jump = F("t", jump_at_terminal=5.0)
    f_base = F("t")
    for alpha in (0.25, 0.5, 1.0):
        rj = deriv_at_terminal(f_jump, alpha, 0.0, ORIGINAL)
        rb = deriv_at_terminal(f_base, alpha, 0.0, ORIGINAL)
        assert rj == rb  # bit-identical by construction
    r = deriv_at_terminal(f_jump, 0.5, 0.0, ORIGINAL)
    assert r.exists and abs(r.value) <= 1e-9


def test_terminal_corrected_flips_on_jump():
    f_jump = F("t", jump_at_terminal=5.0)
    for alpha in (0.25, 0.5, 1.0):
        assert not deriv_at_terminal(f_jump, alpha, 0.0, CORRECTED).exists


def test_terminal_smooth_functions_vanish_below_order_one():
    for source, fprime in SMOOTH:
        for a in (0.0, 1.0, -2.0):
            f = F(source)
            for alpha in (0.1, 0.5, 0.9):
                r = deriv_at_terminal(f, alpha, a, ORIGINAL)
                assert r.exists and abs(r.value) <= 1e-6, (source, a, alpha)
            r1 = deriv_at_terminal(f, 1.0, a, ORIGINAL)
            assert r1.exists and r1.value == pytest.approx(fprime(a), abs=1e-6)


def _smooth_trees(kinks: bool = True):
    """Random bodies built from t, small constants, + - * /, sin, cos, exp
    of a sine or cosine and, with ``kinks``, abs: bounded values and
    curvature near the terminals, kinks only where an abs argument vanishes."""
    calls = ["sin", "cos", "abs"] if kinks else ["sin", "cos"]
    leaves = st.one_of(st.just(Var()), st.sampled_from([0.5, 1.0, 2.0]).map(Const))

    def grow(sub):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda x: BinOp(*x)),
            st.tuples(sub, st.sampled_from(["sin", "cos"])).map(
                lambda x: BinOp("/", x[0], Call("exp", Call(x[1], x[0])))
            ),
            sub.map(Neg),
            st.tuples(st.sampled_from(calls), sub).map(lambda x: Call(*x)),
            st.tuples(st.sampled_from(["sin", "cos"]), sub).map(
                lambda x: Call("exp", Call(*x))
            ),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@settings(max_examples=300)
@given(
    body=_smooth_trees(),
    a=st.sampled_from([-2.0, 0.0, 1.0]),
    alpha=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
)
def test_terminal_forward_route_properties(body, a, alpha):
    f = FuncSpec(body)
    try:
        value, slope = evaluate_dual(f, a)
    except NonDifferentiableError:
        return
    f_jump = FuncSpec(body, jump_at_terminal=5.0)
    corrected = deriv_at_terminal(f, alpha, a, CORRECTED)
    expected = slope if alpha == 1.0 else 0.0
    assert corrected == EvalResult.of(expected, 0.0)
    assert struct.pack("<d", corrected.value) == struct.pack("<d", expected + 0.0)
    assert deriv_at_terminal(f, alpha, a, ORIGINAL) == corrected
    assert deriv_at_terminal(f_jump, alpha, a, ORIGINAL) == corrected
    assert not deriv_at_terminal(f_jump, alpha, a, CORRECTED).exists
    h = 1e-7
    quotient = (evaluate_body(f, a + h) - value) / h
    assert abs(quotient - slope) <= 1e-5 * max(1.0, abs(slope))


@settings(max_examples=300)
@given(
    body=_smooth_trees(kinks=False),
    a=st.sampled_from([-2.0, 0.0, 1.0]),
    alpha=st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]),
    offset=st.sampled_from([1e-3, 0.1, 1.0, 4.0, 10.0]),
)
def test_limit_route_agrees_with_closed_form(body, a, alpha, offset):
    f = FuncSpec(body)
    t = a + offset
    cf = deriv_closed_form(f, alpha, a, t).value
    r = deriv_limit(f, alpha, a, t)
    assert r.exists, r.reason
    assert abs(r.value - cf) <= 1e-6 * max(1.0, abs(cf))


def test_modes_agree_away_from_terminal():
    # interior evaluation does not consult the mode at all
    f = F("sin(t)")
    for alpha in (0.25, 1.0):
        for t in (0.5, 2.0):
            assert deriv_closed_form(f, alpha, 0.0, t) == deriv_closed_form(
                f, alpha, 0.0, t
            )
            a = deriv_limit(f, alpha, 0.0, t)
            b = deriv_limit(f, alpha, 0.0, t)
            assert a == b


# --------------------------------------------------------------------------
# order conversion
# --------------------------------------------------------------------------

def test_order_convert_identity_cases():
    assert order_convert(3.5, 0.7, 0.7, 0.0, 2.0) == pytest.approx(3.5)
    assert order_convert(3.5, 0.2, 0.9, 1.0, 2.0) == pytest.approx(3.5)  # t - a = 1


def test_order_convert_derived_value():
    # T^0.5 of f(t)=t at t=4 is 2; converting to order 1 recovers f'(4) = 1
    v = deriv_closed_form(F("t"), 0.5, 0.0, 4.0).value
    assert order_convert(v, 1.0, 0.5, 0.0, 4.0) == pytest.approx(1.0, abs=1e-12)


def test_order_convert_requires_interior():
    with pytest.raises(PreconditionError):
        order_convert(1.0, 0.5, 0.7, 0.0, 0.0)


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.01, max_value=9.0),
)
def test_order_convert_matches_direct_evaluation(alpha, beta, off):
    f = F("t^2")
    a, t = 0.5, 0.5 + off
    direct = deriv_closed_form(f, alpha, a, t).value
    converted = order_convert(deriv_closed_form(f, beta, a, t).value, alpha, beta, a, t)
    assert abs(converted - direct) <= 1e-9 * max(1.0, abs(direct))
