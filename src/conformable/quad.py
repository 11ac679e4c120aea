"""Weighted integral of order alpha and the operator compositions.

The integral ∫_a^t (s-a)^(alpha-1) f(s) ds is improper at s = a.  The
substitution u = (s-a)^alpha removes the singularity exactly: the
integrand becomes (1/alpha) * f(a + u^(1/alpha)) on [0, (t-a)^alpha],
which is bounded whenever f is bounded near a.  Adaptive Gauss-Kronrod
(7, 15) quadrature, splitting the worst panel in half or, at u = 0, at a
quarter, then supplies a trustworthy error bound.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .core import (
    EvalResult,
    checked_interior,
    deriv_closed_form,
    deriv_limit,
    positive_power,
    right_limit,
)
from .errors import ConvergenceError, NonDifferentiableError, NonFiniteError
from .expr import FuncSpec, evaluate_body
from .record import Record

__all__ = [
    "QuadConfig",
    "DEFAULT_QUAD_CONFIG",
    "deriv_of_integral",
    "integral",
    "integral_of_deriv",
]


class QuadConfig(Record):
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def _check(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


DEFAULT_QUAD_CONFIG = QuadConfig()

# QUADPACK qk15 abscissae and weights on [-1, 1] (positive half).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """15-point Kronrod estimate and |K15 - G7| error bound on one panel."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = fn(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        pair = fn(center - x) + fn(center + x)
        resk += _WGK[j] * pair
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    return resk * half, abs((resk - resg) * half)


def _adaptive_quad(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadConfig,
) -> tuple[float, float]:
    """Split the worst panel until the summed error bound meets tolerance.

    The panel at `lo`, where `integral`'s substitution leaves its one
    singularity, splits at a quarter (a graded mesh); any other in half.
    Deterministic: the heap order is a total order on (error, position) and
    the final value is the left-to-right sum over the panel tree's leaves.
    """
    val, err = _gk15(fn, lo, hi)
    panels = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    splits = 0
    while True:
        if not total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
            # The running totals can absorb small panels beside a huge one that
            # was later split; stop only when the leaf sums, which are returned,
            # meet the tolerance too.
            total_val = total_err = 0.0
            for _, _, _, v, e in sorted(panels, key=lambda p: p[1]):
                total_val += v
                total_err += e
            if not total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val)):
                break
        if splits >= cfg.max_subdivisions:
            raise ConvergenceError(
                f"quadrature tolerances not met within {cfg.max_subdivisions} subdivisions"
            )
        _, p_lo, p_hi, p_val, p_err = heapq.heappop(panels)
        mid = p_lo + 0.25 * (p_hi - p_lo) if p_lo == lo else 0.5 * (p_lo + p_hi)
        if not p_lo < mid < p_hi:
            raise ConvergenceError("panel width underflowed before tolerances were met")
        v1, e1 = _gk15(fn, p_lo, mid)
        v2, e2 = _gk15(fn, mid, p_hi)
        total_val += v1 + v2 - p_val
        total_err += e1 + e2 - p_err
        heapq.heappush(panels, (-e1, p_lo, mid, v1, e1))
        heapq.heappush(panels, (-e2, mid, p_hi, v2, e2))
        splits += 1
    if not (math.isfinite(total_val) and math.isfinite(total_err)):
        raise ConvergenceError("quadrature diverged: value or error bound is not finite")
    return total_val, total_err


def _substituted(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    al: float,
    av: float,
    t: float,
    cfg: QuadConfig,
) -> tuple[float, float]:
    """`_adaptive_quad`'s (value, bound) for ∫_a^t (s-a)^(al-1) point(f, s) ds,
    taken as (1/al) ∫_0^((t-a)^al) point(f, a + u^(1/al)) du."""
    upper = positive_power(t - av, al)
    inv_alpha = 1.0 / al

    def fn(u: float) -> float:
        s = av + (math.pow(u, inv_alpha) if u > 0.0 else 0.0)
        return inv_alpha * point(f, s)

    return _adaptive_quad(fn, 0.0, upper, cfg)


def integral(
    f: FuncSpec,
    alpha: float,
    a: float,
    t: float,
    cfg: QuadConfig = DEFAULT_QUAD_CONFIG,
) -> EvalResult:
    """∫_a^t (s-a)^(alpha-1) f(s) ds via the singularity-removing substitution.

    The integrand uses the body of f everywhere; a jump decoration affects a
    single point of measure zero and never the integral.
    """
    al, av, t = checked_interior(alpha, a, t)
    value, bound = _substituted(evaluate_body, f, al, av, t, cfg)
    return EvalResult.of(value, bound)


# Each probe of `deriv_of_integral` integrates to tolerances far below the
# Cauchy threshold, so jitter never reads as a missing limit.
_PROBE_CONFIG = QuadConfig(1e-13, 1e-13, 2000)


def deriv_of_integral(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """Derivative (limit route) of x -> integral(f, alpha, a, x) at t.

    For f continuous on [a, t] the result reproduces f(t).
    """
    al, av, t = checked_interior(alpha, a, t)
    # I(t) is computed only so that a divergent or undefined integral raises.
    # Each probe integrates over [t, x] alone, so nothing large cancels.
    integral(f, al, av, t)

    def weighted(s: float) -> float:
        return positive_power(s - av, al - 1.0) * evaluate_body(f, s)

    def g(x: float) -> float:
        if x < t:
            return -_adaptive_quad(weighted, x, t, _PROBE_CONFIG)[0]
        return _adaptive_quad(weighted, t, x, _PROBE_CONFIG)[0]

    return deriv_limit(g, al, av, t)


def integral_of_deriv(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """Integral of s -> deriv_closed_form(f, alpha, a, s) from a to t.

    Equals f(t) minus the right limit of f at a (and hence f(t) - f(a)
    exactly when f is right-continuous there).  Reports DoesNotExist when
    that right limit does not exist or is not finite.  Only interior
    derivatives enter, so the value is the same under either terminal mode.
    """
    al, av, t = checked_interior(alpha, a, t)
    _, _, why = right_limit(lambda h: evaluate_body(f, av + h))
    if why is not None:
        return EvalResult.does_not_exist(
            f"right limit of f at the lower terminal does not exist or is not finite: {why}"
        )

    def point(f: FuncSpec, s: float) -> float:
        if not s > av:
            return 0.0
        r = deriv_closed_form(f, al, av, s)
        if not r.exists:
            raise NonDifferentiableError(r.reason)
        return r.value

    try:
        value, bound = _substituted(point, f, al, av, t, DEFAULT_QUAD_CONFIG)
    except (NonDifferentiableError, NonFiniteError) as exc:
        return EvalResult.does_not_exist(
            f"integrand derivative does not exist inside the range: {exc}"
        )
    return EvalResult.of(value, bound)
