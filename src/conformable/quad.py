"""Weighted integral of order alpha and the operator compositions.

The integral ∫_a^t (s-a)^(alpha-1) f(s) ds is improper at s = a.  The
substitution v = (s-a)^(alpha/2) removes the singularity exactly: the
integrand becomes (2/alpha) * v * f(a + v^(2/alpha)) on [0, (t-a)^(alpha/2)],
and the Jacobian's factor v also turns an endpoint term (s-a)^gamma of f
into v^(1 + 2*gamma/alpha), smoother than the u^(gamma/alpha) that
u = (s-a)^alpha leaves (Davis & Rabinowitz, Methods of Numerical
Integration, 1984).  f is evaluated in terminal-relative form, through
f_a(d) = f(a + d) (`expr.shifted`), so no node rebuilds s - a from a rounded
s.  Adaptive Gauss-Kronrod (7, 15) quadrature over v, splitting the worst
panel in half or, at v = 0, at a quarter, then supplies a trustworthy error
bound; each panel maps its own nodes back to the offset d = v^(2/alpha).
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from typing import Callable

from .core import (
    EvalResult,
    checked_interior,
    deriv_closed_form,
    deriv_limit,
    positive_power,
    right_limit,
)
from .errors import ConvergenceError, DomainError, NonDifferentiableError, NonFiniteError
from .expr import FuncSpec, evaluate_body, shifted

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
    [lo, hi] in v, of v -> inv * v * point(f, av + v^inv)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = inv * center * point(f, av + math.pow(center, inv))
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for xgk, wgk, wg in _NODES:
        x = half * xgk
        v = center - x
        pair = inv * v * point(f, av + math.pow(v, inv))
        v = center + x
        pair += inv * v * point(f, av + math.pow(v, inv))
        resk += wgk * pair
        if wg is not None:
            resg += wg * pair
    return resk * half, abs((resk - resg) * half)


_DIVERGED = "quadrature diverged: value or error bound is not finite"


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
        raise ConvergenceError(_DIVERGED)
    return total_val, total_err


def _substituted(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    al: float,
    av: float,
    t: float,
) -> tuple[float, float]:
    """`_adaptive_quad`'s (value, bound) for ∫_a^t (s-a)^(al-1) point(f, s) ds,
    taken as (2/al) ∫_0^((t-a)^(al/2)) v point(f_a, v^(2/al)) dv over the
    shifted body f_a(d) = f(a + d).

    An error that names a point names a + d.  A non-finite or undefined
    integrand at an offset d below the smallest normal float means that the
    quadrature has reached the terminal: the integral diverges there.
    """
    panel = functools.partial(_gk15, point, shifted(f, av), 0.0, 2.0 / al)
    try:
        return _adaptive_quad(panel, 0.0, positive_power(t - av, 0.5 * al), ABS_TOL, REL_TOL)
    except (DomainError, NonDifferentiableError, NonFiniteError) as exc:
        if exc.t is None:
            raise
        if isinstance(exc, (DomainError, NonFiniteError)) and exc.t < sys.float_info.min:
            raise ConvergenceError(_DIVERGED) from exc
        raise exc.moved(av + exc.t) from exc.__cause__


def integral(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """∫_a^t (s-a)^(alpha-1) f(s) ds via the singularity-removing substitution.

    The integrand uses the body of f everywhere; a jump decoration affects a
    single point of measure zero and never the integral.  An integral that
    diverges at the terminal raises ConvergenceError.
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

    def probe(lo: float, hi: float) -> float:
        # The node rule at order 1, from the probe's own left end: s = lo + v^2.
        panel = functools.partial(_gk15, weighted, f, lo, 2.0)
        return _adaptive_quad(panel, 0.0, math.sqrt(hi - lo), _PROBE_TOL, _PROBE_TOL)[0]

    return deriv_limit(lambda x: -probe(x, t) if x < t else probe(t, x), al, av, t)


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

    def point(fa: FuncSpec, d: float) -> float:
        # deriv_closed_form of f_a at d from 0 is that of f at a + d from a.
        # d underflows to 0 only beside the terminal, where v makes the node 0.
        if not d > 0.0:
            return 0.0
        r = deriv_closed_form(fa, al, 0.0, d)
        if not r.exists:
            raise NonDifferentiableError(r.reason, d)
        return r.value

    try:
        value, bound = _substituted(point, f, al, av, t)
    except (NonDifferentiableError, NonFiniteError) as exc:
        return EvalResult.does_not_exist(
            f"integrand derivative does not exist inside the range: {exc}"
        )
    return EvalResult.of(value, bound)
