"""Weighted integral of order alpha and the operator compositions.

The integral ∫_a^t (s-a)^(alpha-1) f(s) ds is improper at s = a.  The
substitution u = (s-a)^alpha removes the singularity exactly: the
integrand becomes (1/alpha) * f(a + u^(1/alpha)) on [0, (t-a)^alpha],
which is bounded whenever f is bounded near a.  Adaptive Gauss-Kronrod
(7, 15) quadrature over u, splitting the worst panel in half or, at u = 0,
at a quarter, then supplies a trustworthy error bound; each panel maps its
own nodes back to s.
"""

from __future__ import annotations

import functools
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

__all__ = [
    "ABS_TOL",
    "MAX_SUBDIVISIONS",
    "REL_TOL",
    "deriv_of_integral",
    "integral",
    "integral_of_deriv",
]


# The tolerances of `integral` and `integral_of_deriv`, and the split budget
# of every quadrature here.
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 2000

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


# The seven node pairs off the centre as (xgk, wgk, wg or None): every
# second pair is also a Gauss node.
_NODES = tuple((_XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None) for j in range(7))


def _gk15(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    av: float,
    inv: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """15-point Kronrod estimate and |K15 - G7| error bound on the panel
    [lo, hi] in u, of u -> inv * point(f, av + u^inv)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = inv * point(f, av + math.pow(center, inv))
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for xgk, wgk, wg in _NODES:
        x = half * xgk
        pair = inv * point(f, av + math.pow(center - x, inv))
        pair += inv * point(f, av + math.pow(center + x, inv))
        resk += wgk * pair
        if wg is not None:
            resg += wg * pair
    return resk * half, abs((resk - resg) * half)


def _adaptive_quad(
    panel: Callable[[float, float], tuple[float, float]],
    lo: float,
    hi: float,
    abs_tol: float,
    rel_tol: float,
) -> tuple[float, float]:
    """Split the worst panel until the summed error bound meets tolerance;
    `panel(lo, hi)` gives one panel's (value, bound).

    The panel at `lo`, where `integral`'s substitution leaves its one
    singularity, splits at a quarter (a graded mesh); any other in half.
    Deterministic: the heap order is a total order on (error, position) and
    the final value is the left-to-right sum over the panel tree's leaves.
    """
    val, err = panel(lo, hi)
    panels = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    splits = 0
    while True:
        if not total_err > max(abs_tol, rel_tol * abs(total_val)):
            # The running totals can absorb small panels beside a huge one that
            # was later split; stop only when the leaf sums, which are returned,
            # meet the tolerance too.
            total_val = total_err = 0.0
            for _, _, _, v, e in sorted(panels, key=lambda p: p[1]):
                total_val += v
                total_err += e
            if not total_err > max(abs_tol, rel_tol * abs(total_val)):
                break
        if splits >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature tolerances not met within {MAX_SUBDIVISIONS} subdivisions"
            )
        _, p_lo, p_hi, p_val, p_err = heapq.heappop(panels)
        mid = p_lo + 0.25 * (p_hi - p_lo) if p_lo == lo else 0.5 * (p_lo + p_hi)
        if not p_lo < mid < p_hi:
            raise ConvergenceError("panel width underflowed before tolerances were met")
        v1, e1 = panel(p_lo, mid)
        v2, e2 = panel(mid, p_hi)
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
) -> tuple[float, float]:
    """`_adaptive_quad`'s (value, bound) for ∫_a^t (s-a)^(al-1) point(f, s) ds,
    taken as (1/al) ∫_0^((t-a)^al) point(f, a + u^(1/al)) du."""
    panel = functools.partial(_gk15, point, f, av, 1.0 / al)
    return _adaptive_quad(panel, 0.0, positive_power(t - av, al), ABS_TOL, REL_TOL)


def integral(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """∫_a^t (s-a)^(alpha-1) f(s) ds via the singularity-removing substitution.

    The integrand uses the body of f everywhere; a jump decoration affects a
    single point of measure zero and never the integral.
    """
    al, av, t = checked_interior(alpha, a, t)
    value, bound = _substituted(evaluate_body, f, al, av, t)
    return EvalResult.of(value, bound)


# Each probe of `deriv_of_integral` integrates to tolerances far below the
# Cauchy threshold, so jitter never reads as a missing limit.
_PROBE_TOL = 1e-13


def deriv_of_integral(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """Derivative (limit route) of x -> integral(f, alpha, a, x) at t.

    For f continuous on [a, t] the result reproduces f(t).
    """
    al, av, t = checked_interior(alpha, a, t)
    # I(t) is computed only so that a divergent or undefined integral raises.
    # Each probe integrates over [t, x] alone, so nothing large cancels.
    integral(f, al, av, t)

    def weighted(f: FuncSpec, s: float) -> float:
        return positive_power(s - av, al - 1.0) * evaluate_body(f, s)

    # The identity substitution (a = 0, 1/alpha = 1) leaves every node's bits.
    panel = functools.partial(_gk15, weighted, f, 0.0, 1.0)

    def g(x: float) -> float:
        if x < t:
            return -_adaptive_quad(panel, x, t, _PROBE_TOL, _PROBE_TOL)[0]
        return _adaptive_quad(panel, t, x, _PROBE_TOL, _PROBE_TOL)[0]

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
        value, bound = _substituted(point, f, al, av, t)
    except (NonDifferentiableError, NonFiniteError) as exc:
        return EvalResult.does_not_exist(
            f"integrand derivative does not exist inside the range: {exc}"
        )
    return EvalResult.of(value, bound)
