"""Conformable derivative of order alpha in (0, 1].

Two interior routes are provided: `deriv_limit` drives the defining
difference quotient (f(t + theta*(t-a)^(1-alpha)) - f(t)) / theta to its
two-sided limit with Richardson extrapolation, and `deriv_closed_form`
uses the equivalent closed form (t-a)^(1-alpha) * f'(t) with f' evaluated
in forward mode, as (value, derivative) pairs.  Every extrapolation here
has the same fixed settings: 12 levels of steps shrinking by 0.5, a Cauchy
tolerance of 1e-8 and a divergence cap of 1e12.

At the lower terminal t = a the two conventions differ:

* ``TerminalMode.ORIGINAL`` -- the value is the limit of interior
  derivatives as t -> a+, independent of f(a).
* ``TerminalMode.CORRECTED`` -- the value exists iff the right first
  derivative f'(a) exists, and equals f'(a) for alpha = 1 and 0 for
  alpha < 1.

`deriv_at_terminal` tries forward mode first: where the pair (f(a), f'(a))
evaluates, f' is right-continuous at a and both values follow from f'(a)
exactly.  What forward mode refuses (a kink, a domain edge or a fractional
power at a) goes to extrapolation on the mesh a + 1e-2 * 0.5^k, k < 12.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable, Sequence, Union

from .errors import DomainError, NonDifferentiableError, NonFiniteError, PreconditionError
from .expr import FuncSpec, evaluate, evaluate_dual
from .record import Record

__all__ = [
    "EvalResult",
    "TerminalMode",
    "checked_order",
    "deriv_at_terminal",
    "deriv_closed_form",
    "deriv_limit",
    "order_convert",
    "right_limit",
]

PointFunc = Callable[[float], float]
Func = Union[FuncSpec, PointFunc]

_EPS = sys.float_info.epsilon
_MAX = sys.float_info.max


class TerminalMode(Enum):
    ORIGINAL = "original"
    CORRECTED = "corrected"


# Limit extrapolation steps shrink by _SHRINK over _LEVELS levels; a limit
# is accepted within _CAUCHY_TOL (relative to max(1, |value|)), and samples
# past _DIVERGENCE_CAP in magnitude read as divergent.
_SHRINK = 0.5
_LEVELS = 12
_CAUCHY_TOL = 1e-8
_DIVERGENCE_CAP = 1e12

# Mesh offset for right limits at the terminal: h_k = 1e-2 * _SHRINK^k.
_TERMINAL_OFFSET = 1e-2


class EvalResult(Record):
    """Value-or-nonexistence outcome of an operator evaluation."""

    value: float | None = None
    err_estimate: float | None = None
    reason: str | None = None

    def _check(self):
        value, err = self.value, self.err_estimate
        if (value is None) == (self.reason is None):
            raise ValueError("exactly one of value and reason must be set")
        if value is not None and not (err is not None and err >= 0.0):
            raise ValueError("a value requires a non-negative err_estimate")

    @property
    def exists(self) -> bool:
        return self.value is not None

    @classmethod
    def of(cls, value: float, err_estimate: float = 0.0) -> "EvalResult":
        # + 0.0 turns a negative zero into +0.0 and leaves every other value as is.
        return cls(value=float(value) + 0.0, err_estimate=float(err_estimate))

    @classmethod
    def does_not_exist(cls, reason: str) -> "EvalResult":
        return cls(reason=reason)


def checked_order(alpha: float) -> float:
    """The one rule for an order: a number in (0, 1], returned as a float."""
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0,1]")
    return float(alpha)


def _checked_terminal(a: float) -> float:
    """The one rule for a lower terminal: a finite number, returned as a float."""
    if not (isinstance(a, (int, float)) and -_MAX <= a <= _MAX):
        raise ValueError("lower terminal a must be finite")
    return float(a)


def _checked_point(t: float, av: float) -> float:
    """The one rule for an interior point: finite, strictly above a, with t - a finite."""
    if not -_MAX <= t <= _MAX:
        raise PreconditionError(f"t must be finite, got {t!r}")
    if not t > av:
        raise PreconditionError("t must lie strictly above the lower terminal a")
    if not math.isfinite(t - av):
        raise PreconditionError(f"t - a must be finite, got {t - av!r}")
    return float(t)


def checked_interior(alpha: float, a: float, t: float) -> tuple[float, float, float]:
    """(alpha, a, t) as floats, checked for an operator at an interior point t."""
    al = checked_order(alpha)
    av = _checked_terminal(a)
    return al, av, _checked_point(t, av)


def positive_power(base: float, expo: float) -> float:
    """exp(expo * ln(base)) with an explicit base > 0 guard."""
    if not base > 0.0:
        raise PreconditionError(f"power base must be positive, got {base!r}")
    return math.exp(expo * math.log(base))


# --------------------------------------------------------------------------
# Extrapolation helpers
# --------------------------------------------------------------------------

def _neville_best(samples: Sequence[float], factors: Sequence[float]) -> tuple[float, float]:
    """Richardson/Neville tableau with best-entry tracking.

    ``samples[k]`` is an approximation at step ``h0 * r^-k``;
    ``factors[j]`` is ``r**p_j`` for the error order eliminated by column j.
    Returns the tableau entry with the smallest local error estimate: the
    larger of its distances to the two entries it was built from.
    """
    col = list(samples)
    best = col[-1]
    best_err = abs(col[-1] - col[-2]) if len(col) > 1 else math.inf
    for fac in factors:
        if len(col) < 2:
            break
        den = fac - 1.0
        lo = col[0]
        nxt = []
        for hi in col[1:]:
            val = hi + (hi - lo) / den
            nxt.append(val)
            err = abs(val - hi)
            # The second distance can only matter once the first beats best_err.
            if err < best_err:
                far = abs(val - lo)
                if far > err:
                    err = far
                if err < best_err:
                    best, best_err = val, err
            lo = hi
        col = nxt
    return best, best_err


def _limit_of_power_sequence(values: Sequence[float]) -> tuple[float | None, float, str | None]:
    """Limit of values sampled on a geometric mesh h_k = h0 * _SHRINK^k.

    Assumes an error expansion C*h^p + O(h^(p+1)) with unknown p > 0; the
    leading exponent is estimated from successive difference ratios and
    eliminated together with its integer-offset ladder.  Returns
    ``(limit, err, None)`` on success and ``(None, 0.0, reason)`` when the
    sequence is detected as non-convergent.  Detection is a heuristic, not
    a proof.
    """
    ratio = 1.0 / _SHRINK
    scale = max(abs(v) for v in values)
    if scale > _DIVERGENCE_CAP:
        return None, 0.0, "values exceed the divergence cap"
    diffs = [b - a for a, b in zip(values, values[1:])]
    tiny = 64.0 * _EPS * max(1.0, scale)
    if abs(diffs[-1]) <= tiny and abs(diffs[-2]) <= tiny:
        return values[-1], max(abs(diffs[-1]), _EPS * scale), None
    usable = _usable_ratios(diffs, tiny)
    if usable and usable[-1] >= 1.0:
        return None, 0.0, "mesh values do not contract toward a limit"
    if len(usable) < 2:
        # One ratio cannot show a contraction (a three-entry window would fit
        # it exactly); fall back to a plain Cauchy test.
        if abs(diffs[-1]) <= _CAUCHY_TOL * max(1.0, abs(values[-1])):
            return values[-1], abs(diffs[-1]), None
        return None, 0.0, "mesh values did not stabilize"
    # The ratio sequence approaches ratio**-p with an integer-power error
    # ladder in h; Richardson steps on the ratios sharpen the contraction
    # estimate to O(h^2) or O(h^3) depending on how many are usable.
    if len(usable) >= 3:
        s1 = (ratio * usable[-2] - usable[-3]) / (ratio - 1.0)
        s2 = (ratio * usable[-1] - usable[-2]) / (ratio - 1.0)
        rho = (ratio**2 * s2 - s1) / (ratio**2 - 1.0)
    else:
        rho = (ratio * usable[-1] - usable[-2]) / (ratio - 1.0)
    if not math.isfinite(rho) or rho >= 0.995 or rho <= -1.0:
        return None, 0.0, "mesh values do not contract toward a limit"
    if abs(rho) < 1e-3:
        rho = math.copysign(1e-3, rho if rho != 0.0 else 1.0)
    window = values[: len(usable) + 2]  # entries backing the usable ratios
    base_factor = 1.0 / rho  # = ratio**p for the estimated leading order p
    factors = [base_factor * ratio**j for j in range(len(window) - 1)]
    val, err = _neville_best(window, factors)
    if err <= _CAUCHY_TOL * max(1.0, abs(val)):
        return val, err, None
    return None, 0.0, "extrapolation toward the terminal did not converge"


def right_limit(g: PointFunc) -> tuple[float | None, float, str | None]:
    """Limit of g(h) as h -> 0+, from g on the mesh h_k = 1e-2 * 0.5^k, k < 12.

    g takes the offset h from the terminal, not the point a + h.  It is
    called in order of decreasing h, and an exception it raises propagates.
    Returns ``(limit, err, None)``, or ``(None, 0.0, reason)`` when the
    samples are detected as non-convergent; the detection is a heuristic,
    not a proof.
    """
    return _limit_of_power_sequence([g(_TERMINAL_OFFSET * _SHRINK**k) for k in range(_LEVELS)])


def _usable_ratios(diffs: Sequence[float], tiny: float) -> list[float]:
    """Difference ratios up to the point where rounding noise takes over.

    Genuine power-law data drifts slowly from one ratio to the next; a
    sudden jump (or a vanishing denominator) marks the noise floor, and
    everything from there on is discarded.
    """
    out: list[float] = []
    for k in range(len(diffs) - 1):
        if abs(diffs[k]) <= tiny:
            break
        rho = diffs[k + 1] / diffs[k]
        if not math.isfinite(rho):
            break
        if out and abs(rho - out[-1]) > 0.1 * max(abs(out[-1]), 0.05):
            break
        out.append(rho)
    return out


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------

def deriv_closed_form(
    f: FuncSpec,
    alpha: float,
    a: float,
    t: float,
) -> EvalResult:
    """(t-a)^(1-alpha) * f'(t) with f' in forward mode; interior t only."""
    al = checked_order(alpha)
    av = _checked_terminal(a)
    try:
        value = _closed_value(f, al, av, t)
    except NonDifferentiableError as exc:
        return EvalResult.does_not_exist(str(exc))
    return EvalResult.of(value, 0.0)


def _closed_value(f: FuncSpec, al: float, av: float, t: float) -> float:
    """Closed-form value for a checked order and terminal.

    Raises NonDifferentiableError, naming t, where f has no first derivative.
    """
    weight = positive_power(_checked_point(t, av) - av, 1.0 - al)
    try:
        return weight * evaluate_dual(f, t)[1]
    except NonDifferentiableError as exc:
        raise NonDifferentiableError(f"no first derivative at t={t!r}: {exc}") from exc


def deriv_limit(f: Func, alpha: float, a: float, t: float) -> EvalResult:
    """Two-sided limit of the defining difference quotient at interior t.

    Probes theta of both signs at theta0 * 0.5^k, k < 12, extrapolates each
    side (and their central average), and reports DoesNotExist when the
    extrapolants fail the Cauchy test (1e-8 relative), the one-sided limits
    disagree, or the raw quotients pass the divergence cap 1e12.

    The first step is theta0 = min(1e-2 * max(1, t-a), 0.5 * (t-a)^alpha);
    the second bound keeps every probe point strictly inside (a, inf), where
    f may be undefined otherwise.  When the smallest step would fall below
    the rounding floor sqrt(eps) * max(1, |t|), the second bound alone is
    used, and PreconditionError is raised if that too falls below it.  When
    the quotients fail only the Cauchy test, the route retries once with a
    first step 100 times smaller, kept above the rounding floor.
    """
    al, av, t = checked_interior(alpha, a, t)
    d = t - av
    weight = positive_power(d, 1.0 - al)
    floor = math.sqrt(_EPS) * max(1.0, abs(t))
    theta0 = min(1e-2 * max(1.0, d), 0.5 * d / weight)
    if not theta0 * _SHRINK**_LEVELS > floor:
        # The largest step that keeps every probe above a.
        theta0 = 0.5 * d / weight
    if not theta0 * _SHRINK**_LEVELS > floor:
        raise PreconditionError(
            "the smallest limit step underflows into rounding noise at this point"
        )
    point = (lambda x: evaluate(f, x, av)) if isinstance(f, FuncSpec) else f
    f0 = point(t)
    r = _limit_from_quotients(point, t, f0, weight, theta0)
    if r.reason == _NOT_CAUCHY:
        # f may vary faster than the first steps resolve.
        retry = max(1e-2 * theta0, 2.0 * floor / _SHRINK**_LEVELS)
        if retry < theta0:
            r = _limit_from_quotients(point, t, f0, weight, retry)
    return r


_NOT_CAUCHY = "extrapolated difference quotients are not Cauchy"


def _limit_from_quotients(
    point: PointFunc, t: float, f0: float, weight: float, theta0: float
) -> EvalResult:
    """`deriv_limit` from the quotients at theta0 * _SHRINK^k, k < _LEVELS."""
    forward: list[float] = []
    backward: list[float] = []
    theta = theta0
    for _ in range(_LEVELS):
        step = theta * weight
        fp = point(t + step)
        fm = point(t - step)
        forward.append((fp - f0) / theta)
        backward.append((f0 - fm) / theta)
        theta *= _SHRINK
    if any(abs(q) > _DIVERGENCE_CAP for q in forward + backward):
        return EvalResult.does_not_exist("difference quotients exceed the divergence cap")
    r = 1.0 / _SHRINK
    one_sided = [r**j for j in range(1, _LEVELS)]
    v_fwd, e_fwd = _neville_best(forward, one_sided)
    v_bwd, e_bwd = _neville_best(backward, one_sided)
    central = [0.5 * (p + q) for p, q in zip(forward, backward)]
    v_ctr, e_ctr = _neville_best(central, [r ** (2 * j) for j in range(1, _LEVELS)])
    scale = max(1.0, abs(v_ctr))
    if e_ctr > _CAUCHY_TOL * scale:
        return EvalResult.does_not_exist(_NOT_CAUCHY)
    gap = abs(v_fwd - v_bwd)
    noise = 4.0 * (e_fwd + e_bwd)
    if gap > max(_CAUCHY_TOL * max(scale, abs(v_fwd), abs(v_bwd)), noise):
        return EvalResult.does_not_exist("one-sided limits disagree")
    return EvalResult.of(v_ctr, max(e_ctr, gap))


def deriv_at_terminal(
    f: FuncSpec,
    alpha: float,
    a: float,
    mode: TerminalMode,
) -> EvalResult:
    """Derivative at the lower terminal itself, under the selected mode.

    Forward mode first: when the pair (f(a), f'(a)) evaluates, f' is finite
    and right-continuous at a, because every kink and domain edge of the
    language raises at a, and a zero base passes only for an exponent of at
    least 1.  Both conventions then agree: f'(a) at alpha = 1 and 0 below,
    with err_estimate 0.  ORIGINAL ignores a jump decoration; CORRECTED
    reports does-not-exist for a non-zero one.  f is also evaluated once at
    a + 1e-2, so a body undefined there, like (-t)^1.5 at a = 0, still
    raises.  A registered function is trusted to raise where its
    derivative is not continuous.

    What forward mode refuses goes to the mesh t_k = a + 1e-2 * 0.5^k, k < 12.
    ORIGINAL extrapolates interior closed-form derivatives along it
    (independent of f(a) by construction); CORRECTED extrapolates the right
    difference quotient (f(a+h) - f(a)) / h, jump decoration included.
    """
    al = checked_order(alpha)
    av = _checked_terminal(a)
    _checked_point(av + _TERMINAL_OFFSET, av)
    try:
        slope = evaluate_dual(f, av)[1]
    except (NonDifferentiableError, DomainError, NonFiniteError):
        return _terminal_from_mesh(f, al, av, mode)
    evaluate(f, av + _TERMINAL_OFFSET, av)
    jump = f.jump_at_terminal
    if mode is TerminalMode.CORRECTED and jump:
        return EvalResult.does_not_exist(
            f"right first derivative does not exist at the terminal: f jumps by {jump!r} there"
        )
    return EvalResult.of(slope if al == 1.0 else 0.0, 0.0)


def _terminal_from_mesh(f: FuncSpec, al: float, av: float, mode: TerminalMode) -> EvalResult:
    """`deriv_at_terminal` by extrapolation along the terminal mesh."""
    if mode is TerminalMode.ORIGINAL:
        try:
            val, err, why = right_limit(lambda h: _closed_value(f, al, av, av + h))
        except NonDifferentiableError as exc:
            return EvalResult.does_not_exist(
                f"not differentiable arbitrarily close to the terminal: {exc}"
            )
        if why is not None:
            return EvalResult.does_not_exist(
                f"interior derivatives have no finite limit at the terminal: {why}"
            )
        return EvalResult.of(val, err)
    f_at_a = evaluate(f, av, av)
    val, err, why = right_limit(lambda h: (evaluate(f, av + h, av) - f_at_a) / h)
    if why is not None:
        return EvalResult.does_not_exist(
            f"right first derivative does not exist at the terminal: {why}"
        )
    if al == 1.0:
        return EvalResult.of(val, err)
    return EvalResult.of(0.0, 0.0)


def order_convert(
    value: float,
    alpha: float,
    beta: float,
    a: float,
    t: float,
) -> float:
    """Convert a derivative of order beta at interior t into one of order alpha."""
    al = checked_order(alpha)
    be = checked_order(beta)
    _, av, t = checked_interior(al, a, t)
    return positive_power(t - av, be - al) * value
