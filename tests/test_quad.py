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
    with pytest.raises(NonFiniteError, match="overflow evaluating at t=0.5006"):
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
    from conformable.quad import _adaptive_quad

    def weighted(f, s):
        return (s - a) ** (alpha - 1.0) * evaluate_body(f, s)

    # s = t1 + v^2 over v in [0, sqrt(t2 - t1)]
    rest, _ = _adaptive_quad(
        weighted, f, t1, 2.0, math.sqrt(t2 - t1), quad.ABS_TOL, quad.REL_TOL
    )
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


@pytest.mark.parametrize(
    "k, degree", [pytest.param(0, 47, id="P31"), pytest.param(1, 95, id="P63")]
)
def test_each_stage_extends_the_last_and_is_exact_on_even_monomials(k, degree):
    # Stage k of the table keeps the nodes taken so far and adds one more
    # pair than there are, interlacing them, the outermost new node first;
    # every weight is positive, and P31 (P63) is exact to degree 46 (94; 47
    # and 95 by symmetry), so the float table misses ∫_{-1}^{1} x^m dx =
    # 2/(m+1) by a few ulps only.  Its weights on the nodes taken follow the
    # node values: the centre, then each pair in the order taken.
    taken = list(quad._XGK[:7])
    for _, pairs in quad._STAGES[:k]:
        taken += [x for x, _ in pairs]
    weights, pairs = quad._STAGES[k]
    new = [x for x, _ in pairs]
    assert len(weights) == 1 + len(taken) and len(new) == len(taken) + 1
    nodes = sorted(taken + new, reverse=True)
    assert nodes[0::2] == new and nodes[1::2] == sorted(taken, reverse=True)
    assert 0.0 < min(new) and max(new) < 1.0
    assert all(w > 0.0 for w in weights) and all(w > 0.0 for _, w in pairs)
    xs = [Fraction(x) for x in taken]
    ws = [Fraction(w) for w in weights]
    for m in range(0, degree, 2):
        exact = Fraction(2, m + 1)
        rule = ws[0] * (1 if m == 0 else 0) + 2 * sum(w * x**m for w, x in zip(ws[1:], xs))
        rule += 2 * sum(Fraction(w) * Fraction(x) ** m for x, w in pairs)
        assert abs(rule - exact) <= Fraction(4 * sys.float_info.epsilon) * exact


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


@pytest.fixture
def extensions(monkeypatch):
    """(stage, lo, hi) of every panel extension the test makes, in order:
    stage 0 is P31, stage 1 P63."""
    panels = []
    extend = quad._extend

    def counting(point, f, av, inv, lo, hi, values, k):
        panels.append((k, lo, hi))
        return extend(point, f, av, inv, lo, hi, values, k)

    monkeypatch.setattr(quad, "_extend", counting)
    return panels


@pytest.fixture
def evaluations(monkeypatch):
    """Every point at which the test's quadratures evaluate the integrand."""
    points = []

    def counting(f, s):
        points.append(s)
        return evaluate_body(f, s)

    monkeypatch.setattr(quad, "evaluate_body", counting)
    return points


def test_a_panel_with_a_good_k15_value_is_extended_not_split(evaluations, gk15_panels):
    # |K15 - G7| misses the tolerance, but the K15 value is good: its
    # extension to P31 shows that with 16 more nodes, where a split takes 30
    r = integral(F("exp(t)"), 0.1, 0.0, 0.001)
    assert len(evaluations) == 31
    assert gk15_panels == [(0.0, 0.001**0.05)]
    # ∫_0^d s^-0.9 e^s ds = Σ d^(n+0.1) / (n! (n+0.1))
    exact = math.fsum(0.001 ** (n + 0.1) / (math.factorial(n) * (n + 0.1)) for n in range(8))
    assert abs(r.value - exact) <= max(r.err_estimate, 1e-15 * exact)


def test_a_singular_end_child_is_never_extended(gk15_panels, extensions):
    # v = s^(alpha/2) turns ln(s) into ln(v) at v = 0, where the nested rules
    # do not converge: a child at 0 goes straight to the quarter split, and
    # only the whole range and panels away from 0 are extended
    r = integral(F("ln(t)"), 0.5, 0.0, 1.0)
    assert [p for p in gk15_panels if p[0] == 0.0][:3] == [(0.0, 1.0), (0.0, 0.25), (0.0, 0.0625)]
    assert extensions[0] == (0, 0.0, 1.0)
    assert all(k == 0 and lo > 0.0 for k, lo, _ in extensions[1:])
    # ∫_0^1 s^(alpha-1) ln s ds = -1/alpha^2
    assert abs(r.value + 4.0) <= max(r.err_estimate, 1e-12)


def test_an_extension_that_shows_no_convergence_keeps_the_larger_bound():
    # A kink inside the range: where |P31 - K15| > 1e-3 |K15 - G7| the
    # extended panel keeps |K15 - G7| and is split next.  Bounded by
    # |P31 - K15| alone, this stopped 9.2e-8 off with a bound of 2.2e-9.
    # Reference: mpmath at 50 digits, over u = s^alpha on [0, c] and [c, 3].
    exact = 3.161510023935875
    r = integral(F("abs(t-2.015904)^0.241"), 0.588, 0.0, 3.0)
    assert abs(r.value - exact) <= 1e-9 * exact
    assert abs(r.value - exact) <= r.err_estimate


@pytest.mark.parametrize(
    "source, alpha, calls", [("t^0.4", 1.0, 5), ("t^0.1", 0.5, 7)]
)
def test_singular_end_is_split_at_a_quarter(gk15_panels, source, alpha, calls):
    # v = s^(alpha/2) leaves v * f(v^(2/alpha)) non-smooth at v = 0; once the
    # whole range's P31 misses, it splits at a quarter, not in half
    r = integral(F(source), alpha, 0.0, 1.0)
    assert len(gk15_panels) == calls
    assert gk15_panels[:3] == [(0.0, 1.0), (0.0, 0.25), (0.25, 1.0)]
    assert r.exists


@pytest.fixture
def derivatives(monkeypatch):
    """Every point at which `integral_of_deriv` evaluates its integrand."""
    points = []
    deriv_closed_form = quad.deriv_closed_form

    def counting(f, alpha, a, t):
        points.append(t)
        return deriv_closed_form(f, alpha, a, t)

    monkeypatch.setattr(quad, "deriv_closed_form", counting)
    return points


@pytest.mark.parametrize(
    "source, alpha, a, t, exact",
    [
        # (2/alpha) v sin(1 + v^20): terms v^21, v^41, v^61, ... past the
        # degree 47 of P31; the whole range extended to P31 and split took 123
        ("sin(t)", 0.1, 1.0, 2.0, 8.685725423627723),
        ("exp(t)", 0.2, -2.0, 1.0, 2.0898786108869967),
    ],
)
def test_a_smooth_whole_range_is_extended_to_p63(
    evaluations, gk15_panels, extensions, source, alpha, a, t, exact
):
    # Reference: mpmath at 50 digits.
    r = integral(F(source), alpha, a, t)
    assert len(evaluations) == 63
    whole = (0.0, (t - a) ** (alpha / 2))
    assert gk15_panels == [whole]
    assert extensions == [(0, *whole), (1, *whole)]
    assert abs(r.value - exact) <= max(r.err_estimate, 1e-14 * exact)


def test_only_the_whole_range_takes_p63_and_only_once(gk15_panels, extensions):
    # v cos(v^(40/3)) defeats P63 too, so the whole range splits after it;
    # then each child away from 0 takes P31 alone, at most once, and the
    # child at 0 none.  Reference: mpmath at 40 digits.
    r = integral(F("cos(t^2)"), 0.3, 0.0, 4.0)
    whole = gk15_panels[0]
    assert extensions[:2] == [(0, *whole), (1, *whole)]
    children = extensions[2:]
    assert len(set(children)) == len(children) == 6
    assert all(k == 0 and lo > 0.0 for k, lo, _ in children)
    assert abs(r.value - 3.0130100771487766) <= r.err_estimate


def test_a_whole_range_the_forward_pair_refuses_at_a_is_split_not_extended(evaluations):
    # t^0.4 has no finite derivative at 0: its whole range splits after P31,
    # with the evaluations and the bits of a two-stage quadrature
    r = integral(F("t^0.4"), 1.0, 0.0, 1.0)
    assert len(evaluations) == 91
    assert (r.value, r.err_estimate) == (0.7142857142847601, 6.472848522909476e-10)


def test_integral_of_deriv_is_not_extended_to_p63(derivatives):
    # the integrand of integral_of_deriv is f's derivative, which forward mode
    # at a does not vouch for: it stays with P31 and splits, as before
    r = integral_of_deriv(F("sin(t)"), 0.1, 1.0, 2.0)
    assert len(derivatives) == 169
    assert (r.value, r.err_estimate) == (0.06782644201778516, 1.0251426649880367e-11)


def test_the_probes_of_deriv_of_integral_are_not_extended_to_p63(evaluations):
    # 63 evaluations for the existence check, the integral to t, and the
    # probes' 360: 24 one-panel probes, as the probe at x = t integrates nothing
    r = deriv_of_integral(F("sin(t)"), 0.1, 1.0, 2.0)
    assert len(evaluations) == 63 + 360
    assert r.value == pytest.approx(math.sin(2.0), abs=1e-6)


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


_WRONG_TODAY = pytest.mark.xfail(strict=True, raises=AssertionError)


# t^gamma at a = 0 against t^(alpha+gamma)/(alpha+gamma) at 50 digits.
@pytest.mark.parametrize("gamma, alpha, t, exact", [
    # on P63, whose rounding floor needs its factor inv = 2/alpha: without it
    # the bound is 1.9e-14 against an error of 2.3e-14
    pytest.param(2.0, 0.046966276759386874, 1.8512697333892236, 1.7234185767168175,
                 id="v86_alpha0.047"),
    # These finish on the whole range's P31 with a term v^2.1 of the node rule
    # at v = 0 (2 gamma/alpha = 1.1), where P31 and K15 share the error below
    # their smallest node and |P31 - K15| cannot see it; a change that mends
    # one makes it pass, and it must then lose its mark.
    pytest.param(0.5390035574865814, 0.9758537308735006, 0.5291498996479811,
                 0.2517036339562607, id="v2.1_alpha0.976", marks=_WRONG_TODAY),
    pytest.param(0.20773952806478665, 0.3764349398781962, 0.3144469040501452,
                 0.8708380630436259, id="v2.1_alpha0.376", marks=_WRONG_TODAY),
])
def test_integral_of_power_within_its_bound(gamma, alpha, t, exact):
    r = integral(F(f"t^{gamma!r}"), alpha, 0.0, t)
    assert abs(r.value - exact) <= max(r.err_estimate, 1e-14 * max(1.0, exact))


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
        ("exp(1/(t-1.5))", 0.5, NonFiniteError, "overflow evaluating at t=1.5006"),
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
        ("exp(1/(t-1.3))", 0.5, "overflow evaluating at t=1.3010"),
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


def test_right_inverse_takes_f_at_a_where_f_evaluates_there():
    # The terminal mesh cannot extrapolate an h^0.4 term beside other terms
    # and called this right limit missing; f evaluates at a, so f(a) is it.
    # Exact: f(t) - f(a) = 0.5967765013485586.
    f = F("(t-(0.0))^0.4+((cos(t))+(sin(t)))^2")
    r = integral_of_deriv(f, 0.25, 0.0, 0.1)
    assert abs(r.value - 0.5967765013485586) <= r.err_estimate
    assert r.err_estimate <= 1e-10


def test_right_inverse_of_a_zero_base_under_a_variable_exponent_raises():
    # 0^(t-1) is 1 at a = 1 and 0 right of it, the one jump of the language
    # at a point where f evaluates; the derivative's forward pair refuses it
    with pytest.raises(DomainError, match="^variable exponent requires a positive base$"):
        integral_of_deriv(F("0^(t-1)"), 0.5, 1.0, 2.0)


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
    """One GK15 panel of a plain integrand and its node values, with the sums
    in the same order."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = fn(center)
    resk = quad._WGK[7] * fc
    resg = quad._WG[3] * fc
    values = [fc]
    for j in range(7):
        x = half * quad._XGK[j]
        pair = fn(center - x) + fn(center + x)
        resk += quad._WGK[j] * pair
        if j % 2 == 1:
            resg += quad._WG[j // 2] * pair
        values.append(pair)
    return resk * half, abs((resk - resg) * half), values


def _reference_p31(fn, lo, hi, values):
    """The P31 value of a plain integrand from the K15 node values, to which
    the new pair sums are appended."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    resp = quad._WPK[0] * values[0]
    for j in range(1, 8):
        resp += quad._WPK[j] * values[j]
    for xp, wp in zip(quad._XP, quad._WP):
        pair = fn(center - half * xp) + fn(center + half * xp)
        resp += wp * pair
        values.append(pair)
    return resp * half


def _reference_p63(fn, lo, hi, values):
    """The P63 value of a plain integrand from the 31 P31 node values."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    resq = 0.0
    for j in range(16):
        resq += quad._WQP[j] * values[j]
    for xq, wq in zip(quad._XQ, quad._WQ):
        resq += wq * (fn(center - half * xq) + fn(center + half * xq))
    return resq * half


def _node_rule(point, f, av, inv):
    """The node rule v -> inv * v * point(f, av + v^inv) as a closure."""
    return lambda v: inv * v * point(f, av + math.pow(v, inv))


def _reference_panel(point, f, av, inv, lo, hi):
    return _reference_gk15(_node_rule(point, f, av, inv), lo, hi)


def _reference_extension(point, f, av, inv, lo, hi, values, k):
    reference = (_reference_p31, _reference_p63)[k]
    return reference(_node_rule(point, f, av, inv), lo, hi, values)


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
        mp.setattr(quad, "_extend", _reference_extension)
        assert [_outcome(op, f, alpha, a, t) for op in operators] == outcomes
