import functools
import math
import re
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conformable import (
    FuncSpec,
    deriv_of_integral,
    evaluate,
    evaluate_body,
    integral,
    integral_of_deriv,
)
from conformable import quad
from conformable.errors import ConvergenceError, DomainError, NonFiniteError, PreconditionError

F = FuncSpec.from_source


# --------------------------------------------------------------------------
# the weighted integral
# --------------------------------------------------------------------------

def test_integral_of_one_closed_form():
    # oracle: antiderivative (t-a)^alpha / alpha = 2 / 0.5
    r = integral(F("1"), 0.5, 0.0, 4.0)
    assert r.value == pytest.approx(4.0, abs=1e-10)


def test_integral_plain_length():
    assert integral(F("1"), 1.0, 0.0, 7.0).value == pytest.approx(7.0, abs=1e-10)


def test_integral_cancelling_kernel():
    # integrand s^-0.5 * s^0.5 = 1 on [0, 1]
    r = integral(F("(t-0.0)^0.5"), 0.5, 0.0, 1.0)
    assert r.value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [round(0.1 * k, 1) for k in range(1, 11)])
@pytest.mark.parametrize("span", [1e-3, 1.0, 10.0])
def test_integral_of_one_exactness_grid(alpha, span):
    for a in (0.0, 1.0):
        r = integral(F("1"), alpha, a, a + span)
        exact = math.exp(alpha * math.log(span)) / alpha
        assert abs(r.value - exact) <= 1e-10 * abs(exact)
        assert r.err_estimate >= 0.0


def test_integral_requires_interior_upper_limit():
    with pytest.raises(PreconditionError):
        integral(F("1"), 0.5, 0.0, 0.0)


def test_integral_convergence_error_on_tiny_budget():
    # sin(1/(s-0.5)) oscillates without end at 0.5: no split budget suffices.
    with pytest.raises(
        ConvergenceError, match="^quadrature tolerances not met within 2000 subdivisions$"
    ):
        integral(F("sin(1/(t-0.5))"), 0.5, 0.0, 1.0)


def test_integral_stops_on_the_leaf_sums():
    # Near the pole at 0.5 a huge panel enters the running totals and is split
    # later; the small panels beside it must not be lost in those totals.
    with pytest.raises(NonFiniteError, match="overflow evaluating at t=0.5012"):
        integral(F("exp(1/(t-0.5))"), 0.5, 0.0, 1.0)


def test_integral_bound_meets_the_tolerance():
    for source in ("exp(t)*sin(t)+t^0.5", "(t-0.0)^0.4", "exp(1/(t-1.2))"):
        r = integral(F(source), 0.5, 0.0, 1.0)
        assert r.err_estimate <= max(quad.ABS_TOL, quad.REL_TOL * abs(r.value))


def test_integral_ignores_jump_decoration():
    plain = integral(F("t^2"), 0.5, 0.0, 3.0)
    jumped = integral(F("t^2", jump_at_terminal=7.0), 0.5, 0.0, 3.0)
    assert plain == jumped


def test_integral_additivity():
    # integral over [a, t2] equals [a, t1] plus the weighted remainder
    f = F("sin(t)+2")
    alpha, a, t1, t2 = 0.7, 0.0, 1.5, 4.0
    whole = integral(f, alpha, a, t2)
    first = integral(f, alpha, a, t1)
    from conformable.quad import _adaptive_quad, _gk15

    def weighted(f, s):
        return (s - a) ** (alpha - 1.0) * evaluate_body(f, s)

    # s = t1 + v^2 over v in [0, sqrt(t2 - t1)]
    panel = functools.partial(_gk15, weighted, f, t1, 2.0)
    rest, _ = _adaptive_quad(panel, 0.0, math.sqrt(t2 - t1), quad.ABS_TOL, quad.REL_TOL)
    tol = whole.err_estimate + first.err_estimate + 1e-9
    assert abs(whole.value - (first.value + rest)) <= tol


@given(
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.1, max_value=8.0),
)
def test_integral_of_one_matches_antiderivative(alpha, span):
    r = integral(F("1"), alpha, 0.0, span)
    exact = span**alpha / alpha
    assert abs(r.value - exact) <= 1e-9 * max(1.0, abs(exact))


def test_gk15_rules_are_exact_on_even_monomials():
    # K15 is exact to degree 22 and G7 to degree 13: with the full qk15
    # constants the rounded weights and nodes miss ∫_{-1}^{1} x^k dx = 2/(k+1)
    # by a few ulps only (the 15-digit table missed by about 7e-15).
    xgk = [Fraction(x) for x in quad._XGK]
    wgk = [Fraction(w) for w in quad._WGK]
    wg = [Fraction(w) for w in quad._WG]
    for k in range(0, 23, 2):
        exact = Fraction(2, k + 1)
        kronrod = wgk[7] * xgk[7] ** k + 2 * sum(wgk[j] * xgk[j] ** k for j in range(7))
        assert abs(kronrod - exact) <= Fraction(2e-15) * exact
        if k <= 12:
            gauss = wg[3] * xgk[7] ** k + 2 * sum(wg[j] * xgk[2 * j + 1] ** k for j in range(3))
            assert abs(gauss - exact) <= Fraction(2e-15) * exact


@pytest.fixture
def gk15_panels(monkeypatch):
    """The (lo, hi) of every GK15 panel the test evaluates, in order."""
    panels = []
    gk15 = quad._gk15

    def counting(point, f, av, inv, lo, hi):
        panels.append((lo, hi))
        return gk15(point, f, av, inv, lo, hi)

    monkeypatch.setattr(quad, "_gk15", counting)
    return panels


@pytest.mark.parametrize(
    "source, alpha, calls", [("t^0.4", 0.5, 5), ("exp(t)", 0.8, 3)]
)
def test_singular_end_is_split_at_a_quarter(gk15_panels, source, alpha, calls):
    # v = s^(alpha/2) leaves v * f(v^(2/alpha)) non-smooth at v = 0; halving
    # needed 19 and 13 panels here with u = s^alpha, and quarters 11 and 7
    r = integral(F(source), alpha, 0.0, 1.0)
    assert len(gk15_panels) == calls
    assert gk15_panels[:3] == [(0.0, 1.0), (0.0, 0.25), (0.25, 1.0)]
    assert r.exists


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    st.floats(min_value=1e-3, max_value=30.0),
)
def test_integral_of_power_within_tolerance_and_bound(alpha, gamma, span):
    # ∫_0^d s^(alpha-1) s^gamma ds = d^(alpha+gamma) / (alpha+gamma)
    p = alpha + gamma
    exact = span**p / p
    # Below the smallest normal double, s = u^(1/alpha) cannot be sampled,
    # and that part of the integral, up to tiny^p / alpha, is lost without
    # showing in err_estimate (ROADMAP item 6).  Misses start once it passes
    # about 2.5e-9 * exact, at a small alpha + gamma; stay 1000x below that.
    assume(sys.float_info.min**p / alpha <= 1e-12 * exact)
    r = integral(F(f"t^{gamma!r}"), alpha, 0.0, span)
    error = abs(r.value - exact)
    assert error <= max(1e-10, 1e-9 * exact)
    # the reference itself is rounded: p by half an ulp, which moves d^p by
    # |ln d| times that, and pow and the division by an ulp each
    reference_rounding = exact * (abs(math.log(span)) * math.ulp(p) + 4 * math.ulp(1.0))
    assert error <= r.err_estimate + reference_rounding


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1.0, -2.0]),
    st.floats(min_value=0.02, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    st.floats(min_value=1e-3, max_value=30.0),
    st.sampled_from([1.0, 2.0, 0.5, 3.0]),
)
# u = (s-a)^alpha, evaluated at a rounded s, missed this bound by 3x
@example(1.0, 0.3, 0.4, 0.00319, 1.0)
def test_integral_of_a_shifted_power_within_its_bound(a, alpha, gamma, span, c):
    # ∫_a^t (s-a)^(alpha-1) c (s-a)^gamma ds = c d^(alpha+gamma) / (alpha+gamma)
    # with d = t - a as the operator sees it
    t = a + span
    d = t - a
    p = alpha + gamma
    exact = c * d**p / p
    assume(sys.float_info.min**p / alpha <= 1e-12 * exact)
    r = integral(F(f"{c!r}*(t-({a!r}))^{gamma!r}"), alpha, a, t)
    error = abs(r.value - exact)
    assert error <= max(1e-10, 1e-9 * exact)
    # as in test_integral_of_power_within_tolerance_and_bound, plus c's product
    reference_rounding = exact * (abs(math.log(d)) * math.ulp(p) + 5 * math.ulp(1.0))
    assert error <= max(r.err_estimate, 1e-14 * max(1.0, exact)) + reference_rounding


def test_integral_near_a_non_zero_terminal_keeps_the_digits_of_the_offset():
    # (s-1)^0.4 is evaluated at the offset d itself, not at a rounded 1 + d:
    # u = (s-a)^alpha was off by 3.2e-7 relative here with err_estimate 9.8e-11
    a, t = 1.0, 1.001
    r = integral(F("(t-1)^0.4"), 0.1, a, t)
    exact = (t - a) ** 0.5 / 0.5
    assert abs(r.value - exact) <= max(r.err_estimate, 1e-14 * exact)


@pytest.mark.parametrize(
    "source, alpha, error, message",
    [
        ("1/(t-1.25)", 1.0, DomainError, "division by zero at t=1.25"),
        ("exp(1/(t-1.5))", 0.5, NonFiniteError, "overflow evaluating at t=1.5012"),
        ("1e308*t*10", 0.5, NonFiniteError, "non-finite result inf at t=1.0625"),
    ],
)
def test_integral_errors_name_the_point_not_the_offset(source, alpha, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        integral(F(source), alpha, 1.0, 2.0)


@pytest.mark.parametrize(
    "source, alpha, message",
    [
        ("abs(t-1.25)", 1.0, "no first derivative at t=1.25: abs has no derivative at 0"),
        ("exp(1/(t-1.3))", 0.5, "overflow evaluating at t=1.3008"),
    ],
)
def test_integral_of_deriv_names_the_point_not_the_offset(source, alpha, message):
    r = integral_of_deriv(F(source), alpha, 1.0, 2.0)
    assert r.reason.startswith("integrand derivative does not exist inside the range: " + message)


@pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("source, a", [("t^-1", 0.0), ("1/t", 0.0), ("(t-1)^-1", 1.0)])
def test_integral_diverging_at_the_terminal_raises_convergence_error(source, a, alpha):
    with pytest.raises(
        ConvergenceError, match="^quadrature diverged: value or error bound is not finite$"
    ):
        integral(F(source), alpha, a, a + 1.0)


@pytest.mark.parametrize(
    "source, a, alpha",
    [("t^-0.5", 0.0, 0.05), ("t^-0.5", 0.0, 0.5), ("t^-0.9", 0.0, 0.9), ("(t-1)^-0.5", 1.0, 0.5)],
)
def test_integral_undefined_at_the_terminal_raises_convergence_error(source, a, alpha):
    # The node at d = 0 raises DomainError ("zero base with negative exponent").
    with pytest.raises(
        ConvergenceError, match="^quadrature diverged: value or error bound is not finite$"
    ) as info:
        integral(F(source), alpha, a, a + 2.0)
    assert isinstance(info.value.__cause__, DomainError)


@pytest.mark.parametrize(
    "source, alpha, t, exact",
    [
        # ∫_0^2 s^(alpha-1.5) ds = 2^(alpha-0.5) / (alpha-0.5)
        ("t^-0.5", 0.6, 2.0, 2.0**0.1 / 0.1),
        ("t^-0.5", 1.0, 2.0, 2.0**0.5 / 0.5),
        # ∫_0^1 s^(alpha-1) ln s ds = -1/alpha^2
        ("ln(t)", 0.05, 1.0, -400.0),
        ("ln(t)", 0.5, 1.0, -4.0),
    ],
)
def test_integral_of_a_terminal_singularity_that_converges(source, alpha, t, exact):
    r = integral(F(source), alpha, 0.0, t)
    assert abs(r.value - exact) <= max(r.err_estimate, 1e-12 * abs(exact))


def test_integral_domain_error_inside_the_range_is_not_a_divergence():
    # Only an offset below the smallest normal float reads as the terminal;
    # the error keeps its message and carries the absolute point.
    with pytest.raises(DomainError, match="^ln of non-positive value -0.875$") as info:
        integral(F("ln(t-1)"), 0.5, 0.0, 2.0)
    assert info.value.t == pytest.approx(0.125)


# --------------------------------------------------------------------------
# derivative of the integral (left inverse)
# --------------------------------------------------------------------------

def test_left_inverse_cosine():
    r = deriv_of_integral(F("cos(t)"), 0.5, 0.0, 2.0)
    assert r.value == pytest.approx(math.cos(2.0), abs=1e-6)


def test_left_inverse_probes_integrate_from_t_only(gk15_panels):
    # one integral to t for the existence check, then about one short panel
    # per probe; integrating each of the 25 probes from near a takes 176
    r = deriv_of_integral(F("cos(t)"), 0.5, 0.0, 2.0)
    assert len(gk15_panels) <= 40
    assert r.value == pytest.approx(math.cos(2.0), abs=1e-6)


@pytest.mark.parametrize("source, alpha", [("t^-1", 0.5), ("t^-2", 0.9)])
def test_left_inverse_of_a_divergent_integral_raises(source, alpha):
    # I(t) diverges at a = 0 although every probe span [t, x] is finite
    with pytest.raises((ConvergenceError, NonFiniteError)):
        deriv_of_integral(F(source), alpha, 0.0, 1.0)


def test_left_inverse_constant():
    r = deriv_of_integral(F("1"), 0.3, 1.0, 3.0)
    assert r.value == pytest.approx(1.0, abs=1e-6)


def test_left_inverse_order_one_is_fundamental_theorem():
    r = deriv_of_integral(F("t^2"), 1.0, 0.0, 2.0)
    assert r.value == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize(
    "source", ["1", "t", "t^2", "sin(t)", "exp(t)", "(t-(1.0))^0.4"]
)
def test_left_inverse_grid(source, alpha):
    f = F(source)
    a = 1.0
    for off in (0.1, 1.0, 4.0):
        r = deriv_of_integral(f, alpha, a, a + off)
        assert r.exists
        assert abs(r.value - evaluate(f, a + off, a)) <= 1e-6


# --------------------------------------------------------------------------
# integral of the derivative (right inverse)
# --------------------------------------------------------------------------

def test_right_inverse_square():
    r = integral_of_deriv(F("t^2"), 0.5, 0.0, 3.0)
    assert r.value == pytest.approx(9.0, abs=1e-6)


def test_right_inverse_exponential():
    r = integral_of_deriv(F("exp(t)"), 0.5, 0.0, 1.0)
    assert r.value == pytest.approx(math.e - 1.0, abs=1e-6)


def test_right_inverse_constant_is_zero():
    for alpha in (0.2, 0.7, 1.0):
        r = integral_of_deriv(F("1"), alpha, 0.0, 5.0)
        assert abs(r.value) <= 1e-9


def test_right_inverse_uses_right_limit_not_value():
    # decorated f: the result keeps f(t) - f(a+), not f(t) - f(a)
    f = F("t", jump_at_terminal=5.0)
    r = integral_of_deriv(f, 0.5, 0.0, 2.0)
    assert r.value == pytest.approx(2.0, abs=1e-9)
    naive = evaluate(f, 2.0, 0.0) - evaluate(f, 0.0, 0.0)
    assert naive == pytest.approx(-3.0)
    assert r.value - naive == pytest.approx(5.0, abs=1e-9)


def test_right_inverse_singular_integrand():
    # f = (t-a)^0.4 at alpha = 1: integrand (s-a)^-0.6 is unbounded but integrable
    r = integral_of_deriv(F("(t-0.0)^0.4"), 1.0, 0.0, 2.0)
    assert r.value == pytest.approx(2.0**0.4, abs=1e-6)


def test_right_inverse_rejects_function_without_right_limit():
    # ln(t-a) has no finite right limit at the terminal
    r = integral_of_deriv(F("ln(t-0.0)"), 0.5, 0.0, 2.0)
    assert not r.exists
    assert "right limit" in r.reason


def test_right_inverse_rejects_oscillating_function_at_the_terminal():
    # sin(1/t) oscillates ever faster toward 0: it has no right limit there
    r = integral_of_deriv(F("sin(1/t)"), 0.5, 0.0, 1.0)
    assert not r.exists
    assert "right limit" in r.reason


def test_right_inverse_non_finite_derivative_does_not_exist():
    # exp(1/(t-0.3)) has a right limit at 0, but its derivative overflows
    # just right of 0.3 inside the quadrature: does-not-exist, not a raise
    r = integral_of_deriv(F("exp(1/(t-0.3))"), 0.5, 0.0, 1.0)
    assert not r.exists
    assert r.reason.startswith("integrand derivative does not exist inside the range: overflow")


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
def test_right_inverse_grid(alpha, a):
    for source in ("t", "t^2", "cos(t)", f"ln(1+(t-({a!r})))"):
        f = F(source)
        for off in (0.1, 1.0, 4.0):
            r = integral_of_deriv(f, alpha, a, a + off)
            expected = evaluate_body(f, a + off) - evaluate_body(f, a)
            assert r.exists
            assert abs(r.value - expected) <= 1e-6


@pytest.mark.parametrize("t", [math.inf, math.nan, pytest.param(10**400, id="1e400")])
@pytest.mark.parametrize("operator", [integral, deriv_of_integral, integral_of_deriv])
def test_quad_operators_reject_non_finite_t(operator, t):
    with pytest.raises(PreconditionError, match=f"t must be finite, got {t!r}"):
        operator(F("sin(t)"), 0.5, 0.0, t)


@pytest.mark.parametrize("operator", [integral, deriv_of_integral, integral_of_deriv])
def test_quad_operators_reject_an_overflowing_span(operator):
    with pytest.raises(PreconditionError, match="t - a must be finite, got inf"):
        operator(F("1"), 0.5, -1e308, 1e308)


def test_compositions_require_interior_point():
    with pytest.raises(PreconditionError):
        deriv_of_integral(F("1"), 0.5, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        integral_of_deriv(F("1"), 0.5, 0.0, -1.0)


# --------------------------------------------------------------------------
# the panel rule against its closure form
# --------------------------------------------------------------------------

def _reference_gk15(fn, lo, hi):
    """One GK15 panel of a plain integrand, with the sums in the same order."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = fn(center)
    resk = quad._WGK[7] * fc
    resg = quad._WG[3] * fc
    for j in range(7):
        x = half * quad._XGK[j]
        pair = fn(center - x) + fn(center + x)
        resk += quad._WGK[j] * pair
        if j % 2 == 1:
            resg += quad._WG[j // 2] * pair
    return resk * half, abs((resk - resg) * half)


def _reference_panel(point, f, av, inv, lo, hi):
    """The node rule v -> inv * v * point(f, av + v^inv) in a closure."""
    return _reference_gk15(lambda v: inv * v * point(f, av + math.pow(v, inv)), lo, hi)


def _outcome(fn, *args):
    """A result's floats as bytes, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)
    return "ok", tuple(
        struct.pack("<d", x) if isinstance(x, float) else x for x in result.as_dict().values()
    )


@st.composite
def _quad_cases(draw):
    """(source, alpha, a, t): composites of smooth leaves and of leaves that
    raise or blow up somewhere near [a, t], one of them on both sides of a
    window, so that both nodes of a pair can raise."""
    a = draw(st.sampled_from([0.0, 1.0, -2.0]))
    span = draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0]) | st.floats(1e-3, 10.0))
    alpha = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]) | st.floats(0.05, 1.0))
    c = st.floats(-0.5, 1.5).map(lambda k: repr(a + k * span))
    leaves = st.one_of(
        st.sampled_from(["t", "2.5", "t^2", "sin(t)", "cos(t)", "exp(t)", f"(t-({a!r}))^0.4"]),
        c.map(lambda c: f"ln(t-({c}))"),
        st.tuples(c, c).map("ln((t-({0[0]}))*(({0[1]})-t))".format),
        c.map(lambda c: f"1/(t-({c}))"),
        c.map(lambda c: f"sqrt(t-({c}))"),
        st.just("exp(exp(t))"),
    )
    body = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("({0[0]}){0[1]}({0[2]})".format),
            st.tuples(st.sampled_from(["sin", "exp", "sqrt"]), inner).map("{0[0]}({0[1]})".format),
        ),
        max_leaves=3,
    )
    return draw(body), alpha, a, a + span


@settings(max_examples=150)
@given(_quad_cases())
# Both nodes of the outer pair fall outside the domain: the left one raises first.
@example(("ln((t-(1.0005))*((1.0)-t))", 0.1, 1.0, 1.001))
def test_panel_matches_the_closure_form_bit_for_bit(case):
    source, alpha, a, t = case
    f = F(source)
    operators = (integral, integral_of_deriv, deriv_of_integral)
    outcomes = [_outcome(op, f, alpha, a, t) for op in operators]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk15", _reference_panel)
        assert [_outcome(op, f, alpha, a, t) for op in operators] == outcomes
