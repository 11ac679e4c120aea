"""Forward-mode rules of `evaluate_dual`, one expression per rule.

Each case builds operands whose (value, derivative) pair at t = 0 is given:
``_lin(v, d)`` is the source of v + d*t, whose pair at 0 is exactly (v, d).
"""

import math

import pytest
from hypothesis import given, strategies as st

from conformable.errors import DomainError, NonDifferentiableError
from conformable.expr import FuncSpec, evaluate_dual, parse

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _lin(value: float, deriv: float) -> str:
    return f"({value!r}+{deriv!r}*t)"


def _pair(source: str, t: float = 0.0) -> tuple[float, float]:
    return evaluate_dual(FuncSpec(parse(source)), t)


@given(finite, finite, finite, finite)
def test_product_rule(a, da, b, db):
    value, deriv = _pair(f"{_lin(a, da)}*{_lin(b, db)}")
    assert value == a * b
    assert deriv == pytest.approx(da * b + a * db)


@given(finite, finite)
def test_scalar_mixing(a, da):
    x = _lin(a, da)
    assert _pair(f"2.0*{x}")[1] == 2.0 * da
    assert _pair(f"{x}+1.0")[0] == a + 1.0
    assert _pair(f"1.0-{x}")[1] == -da


@given(finite, finite, st.floats(min_value=0.5, max_value=20.0), finite)
def test_quotient_rule(a, da, b, db):
    _, deriv = _pair(f"{_lin(a, da)}/{_lin(b, db)}")
    assert deriv == pytest.approx((da * b - a * db) / b**2, rel=1e-12, abs=1e-12)


def test_division_by_zero():
    with pytest.raises(DomainError, match=r"^division by zero at t=0\.0$"):
        _pair("1/t")


@given(st.floats(min_value=0.1, max_value=5.0))
def test_chain_rule_through_composition(t):
    # d/dt exp(sin(t)^2) = exp(sin^2 t) * 2 sin t cos t
    _, deriv = _pair("exp(sin(t)*sin(t))", t)
    expected = math.exp(math.sin(t) ** 2) * 2.0 * math.sin(t) * math.cos(t)
    assert deriv == pytest.approx(expected, rel=1e-12)


def test_power_constant_exponent_at_zero_base():
    assert _pair("t^2") == (0.0, 0.0)
    assert _pair("t^1") == (0.0, 1.0)
    assert _pair("t^0") == (1.0, 0.0)
    with pytest.raises(NonDifferentiableError):
        _pair("t^0.4")
    with pytest.raises(DomainError):
        _pair("t^-1")


def test_power_negative_base():
    assert _pair("t^2", -2.0) == (4.0, -4.0)
    with pytest.raises(DomainError):
        _pair("t^0.5", -2.0)


@given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=-2.0, max_value=2.0))
def test_power_variable_exponent(b, e):
    # d/dt t^t-style: both base and exponent vary
    _, deriv = _pair(f"{_lin(b, 1.0)}^{_lin(e, 1.0)}")
    expected = b**e * (math.log(b) + e / b)
    assert deriv == pytest.approx(expected, rel=1e-12)


def test_sqrt_and_ln_edges():
    with pytest.raises(NonDifferentiableError):
        _pair("sqrt(t)")
    with pytest.raises(DomainError):
        _pair("sqrt(t)", -1.0)
    with pytest.raises(DomainError):
        _pair("ln(t)")


def test_abs_sign_propagation():
    assert _pair(f"abs({_lin(-3.0, 2.0)})") == (3.0, -2.0)
    assert _pair(f"abs({_lin(3.0, 2.0)})") == (3.0, 2.0)
    with pytest.raises(NonDifferentiableError):
        _pair("abs(t)")


def test_cos_derivative():
    _, deriv = _pair("cos(t)", 1.2)
    assert deriv == pytest.approx(-math.sin(1.2))
