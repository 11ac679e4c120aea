"""Weighted integral of order alpha and the operator compositions.

The integral ∫_a^t (s-a)^(alpha-1) f(s) ds is improper at s = a.  The
substitution v = (s-a)^(alpha/2) removes the singularity exactly: the
integrand becomes (2/alpha) * v * f(a + v^(2/alpha)) on [0, (t-a)^(alpha/2)],
and the Jacobian's factor v also turns an endpoint term (s-a)^gamma of f
into v^(1 + 2*gamma/alpha), smoother than the u^(gamma/alpha) that
u = (s-a)^alpha leaves (Davis & Rabinowitz, Methods of Numerical
Integration, 1984).  f is evaluated in terminal-relative form, through
f_a(d) = f(a + d) (`expr.shifted`), so no node rebuilds s - a from a rounded
s.  Adaptive quadrature over v with nested rules then supplies a trustworthy
error bound: the worst panel is first extended from Gauss-Kronrod (7, 15) to
Patterson's 31-point rule on the same nodes, the whole range of a smooth f
once more to Patterson's 63-point rule, and only once extended split, in
half or, at v = 0, at a quarter; each panel maps its own nodes back to the
offset d = v^(2/alpha).
"""

from __future__ import annotations

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
from .expr import FuncSpec, evaluate_body, evaluate_dual, shifted

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
# Patterson's 31-point extension of K15 (Math. Comp. 22, 1968), exact through
# degree 47, from tests/gen_patterson_table.py: its weights on the K15 nodes,
# in the order of _XGK, then the 16 nodes it adds (positive half) and theirs.
_WPK = (
    0.011319468444683435107484337677574,
    0.031577706217045857273769765165731,
    0.052384370820982692472468037761585,
    0.070332046410400650935000423631126,
    0.084498765301243021195121987354564,
    0.095178029931830680121115000866675,
    0.102214180005702743915914938969645,
    0.104743213564805844727591962771386,
)
_XP = (
    0.998687109678466729790660660569463,
    0.975383588208893369675287074951628,
    0.912204882783262878350584611171538,
    0.807688939172437509088075575912030,
    0.667348098104300175431382116612425,
    0.498636786552832004293429260084633,
    0.308579247910587778899587521987072,
    0.104528273810780713400625068279575,
)
_WP = (
    0.003634931195049883856073927323479,
    0.021039446258726795607092616934190,
    0.042193500584546594484849918471097,
    0.061821985645449856431459019945985,
    0.077875347115245996421179504125039,
    0.090261802146558602310121354156035,
    0.099196857667432912489848978389310,
    0.104099955472697355014704207842270,
)
# Patterson's 63-point extension of P31, exact through degree 95, from the
# same script: its weights on the P31 nodes (the centre, the K15 pairs in the
# order of _XGK, then the pairs of _XP).
_WQP = (
    0.052371606825453741755380443760816,
    0.005660867725095312756491752589004,
    0.015788872779215423952826797363047,
    0.026192186880710567449383235551446,
    0.035166023524553984272055668514642,
    0.042249382781031758513685093961325,
    0.047589015038602680558435386205614,
    0.051107090052427067321974073405396,
    0.001803939389445907328564786148484,
    0.010519600488254708542550823156437,
    0.021096745715199243564092531115339,
    0.030910992205938984343763578651508,
    0.038937673364353656897663986246097,
    0.045130900978520531207843398040543,
    0.049598428775219425281144054259548,
    0.052049977691713990512535540115507,
)
# the 32 nodes P63 adds (positive half) and their weights
_XQ = (
    0.999809214198043517683853183801810,
    0.996040238625968543068929416814380,
    0.984637143875644179797308158697301,
    0.963564953613396169948875982747928,
    0.931984657380665140627131096209738,
    0.889809364874942640040706031974947,
    0.837456832560144586521412458847055,
    0.775673908358334814097856547302901,
    0.705382409374850309141845887609357,
    0.627545421382293261363880410874788,
    0.543082350986701131146601933622507,
    0.452855632849607231381999359735536,
    0.357714831586033270409031511090624,
    0.258559618754472473546151272260968,
    0.156392640336081401531118588925022,
    0.052344665459830506663082263918285,
)
_WQ = (
    0.000539407286658021770227282651189,
    0.003557740557132036398470433186518,
    0.008008877528118372921808738832923,
    0.013129713474427210902904437075012,
    0.018455916099884639803929444219689,
    0.023683152580752000205659558914159,
    0.028605857490498295943818272429331,
    0.033099092907400232260095420548826,
    0.037111404910397191759135754166883,
    0.040648875788571024107184933445887,
    0.043742748418925043826302908632958,
    0.046413730813032435147882814992167,
    0.048652555041851185680857155266320,
    0.050419337829027882637267417252215,
    0.051653256012700288788277931664642,
    0.052290832457614024465476569516938,
)


# The seven node pairs off the centre as (xgk, wgk, wg or None): every second
# pair is also a Gauss node.
_NODES = tuple((_XGK[j], _WGK[j], _WG[j // 2] if j % 2 else None) for j in range(7))


def _gk15(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    av: float,
    inv: float,
    lo: float,
    hi: float,
) -> tuple[float, float, list[float]]:
    """15-point Kronrod estimate and |K15 - G7| error bound on the panel
    [lo, hi] in v, of v -> inv * v * point(f, av + v^inv), and the values of
    the node rule there, the centre then the sum of each node pair, that the
    extensions reuse."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = inv * center * point(f, av + math.pow(center, inv))
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    values = [fc]
    for xgk, wgk, wg in _NODES:
        x = half * xgk
        v = center - x
        pair = inv * v * point(f, av + math.pow(v, inv))
        v = center + x
        pair += inv * v * point(f, av + math.pow(v, inv))
        resk += wgk * pair
        if wg is not None:
            resg += wg * pair
        values.append(pair)
    return resk * half, abs((resk - resg) * half), values


def _p31(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    av: float,
    inv: float,
    lo: float,
    hi: float,
    values: list[float],
) -> float:
    """Patterson's 31-point estimate on the panel [lo, hi]: `_gk15`'s node
    values, and the 16 nodes it adds to K15, whose pair sums are appended to
    `values` for `_p63`."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    resp = _WPK[7] * values[0]
    for wpk, pair in zip(_WPK, values[1:]):
        resp += wpk * pair
    for xp, wp in zip(_XP, _WP):
        x = half * xp
        v = center - x
        pair = inv * v * point(f, av + math.pow(v, inv))
        v = center + x
        pair += inv * v * point(f, av + math.pow(v, inv))
        resp += wp * pair
        values.append(pair)
    return resp * half


def _p63(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    av: float,
    inv: float,
    lo: float,
    hi: float,
    values: list[float],
) -> float:
    """Patterson's 63-point estimate on the panel [lo, hi]: the 31 node values
    of `_gk15` and `_p31`, and the 32 nodes it adds to P31."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    resq = 0.0
    for wq, value in zip(_WQP, values):
        resq += wq * value
    for xq, wq in zip(_XQ, _WQ):
        x = half * xq
        v = center - x
        pair = inv * v * point(f, av + math.pow(v, inv))
        v = center + x
        pair += inv * v * point(f, av + math.pow(v, inv))
        resq += wq * pair
    return resq * half


def _pair_defined(f: FuncSpec, d: float) -> bool:
    """Whether forward mode evaluates f at d, as `core.deriv_at_terminal`
    asks: it refuses a kink, a domain edge and a power below 1 at a zero
    base."""
    try:
        evaluate_dual(f, d)
    except (NonDifferentiableError, DomainError, NonFiniteError):
        return False
    return True


_DIVERGED = "quadrature diverged: value or error bound is not finite"


# A panel's extension to P31 (P63) shows convergence when |P31 - K15|
# (|P63 - P31|) is at most _CONVERGED times the panel's bound; the bound of P31
# is at least _ROUNDING * |P31|, for rounding (the floor of QUADPACK's qk15),
# and that of P63 at least _ROUNDING * inv * |P63|, as d = v^inv amplifies the
# rounding of a node by inv.
_CONVERGED = 1e-3
_ROUNDING = 50.0 * sys.float_info.epsilon


def _adaptive_quad(
    point: Callable[[FuncSpec, float], float],
    f: FuncSpec,
    av: float,
    inv: float,
    hi: float,
    abs_tol: float,
    rel_tol: float,
    p63: bool = False,
) -> tuple[float, float]:
    """(value, bound) of ∫_0^hi inv * v * point(f, av + v^inv) dv: refine the
    worst panel until the summed error bound meets tolerance.

    A K15 panel's bound |K15 - G7| measures G7, not the K15 value it comes
    with, so refining a K15 panel first extends it to P31, which reuses its
    15 nodes, and bounds P31 by |P31 - K15|; only a P31 panel, or one whose
    extension shows no convergence, is split.  With `p63`, which only
    `integral` sets, the whole range goes on from P31 to P63 before it is
    split, if forward mode evaluates f at av: every non-analytic term of a
    smooth f then enters the node rule as v^e with e > 1 + inv, negligible
    below P63's smallest node, where |P63 - P31| cannot see it.  The panel
    at 0, where `integral`'s substitution leaves its one singularity and the
    nested rules do not converge, splits at a quarter (a graded mesh) and is
    never extended unless it is the whole range; any other splits in half.  Only
    splits count toward MAX_SUBDIVISIONS.  Deterministic: the heap order is a
    total order on (error, position) and the final value is the
    left-to-right sum over the panel tree's leaves.
    """
    val, err, values = _gk15(point, f, av, inv, 0.0, hi)
    # (-bound, lo, hi, value, bound, node values or None once fully extended)
    panels = [(-err, 0.0, hi, val, err, values)]
    total_val, total_err = val, err
    splits = 0
    while True:
        if not total_err > max(abs_tol, rel_tol * abs(total_val)):
            # The running totals can absorb small panels beside a huge one that
            # was later split; stop only when the leaf sums, which are returned,
            # meet the tolerance too.
            total_val = total_err = 0.0
            for _, _, _, v, e, _ in sorted(panels, key=lambda p: p[1]):
                total_val += v
                total_err += e
            if not total_err > max(abs_tol, rel_tol * abs(total_val)):
                break
        if splits >= MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"quadrature tolerances not met within {MAX_SUBDIVISIONS} subdivisions"
            )
        _, p_lo, p_hi, p_val, p_err, p_values = heapq.heappop(panels)
        # 8 values: a K15 panel; 16: the whole range extended to P31, whose
        # smoothness test runs only now that P31 has missed
        if p_values is not None and (len(p_values) == 8 or _pair_defined(f, av)):
            if len(p_values) == 8:
                v = _p31(point, f, av, inv, p_lo, p_hi, p_values)
                floor = _ROUNDING * abs(v)
                if not (p63 and p_lo == 0.0 and p_hi == hi):
                    p_values = None
            else:
                v = _p63(point, f, av, inv, p_lo, p_hi, p_values)
                floor = _ROUNDING * inv * abs(v)
                p_values = None
            change = abs(v - p_val)
            e = max(change, floor)
            if change > _CONVERGED * p_err:
                e = max(e, p_err)
            total_val += v - p_val
            total_err += e - p_err
            heapq.heappush(panels, (-e, p_lo, p_hi, v, e, p_values))
            continue
        mid = p_lo + 0.25 * (p_hi - p_lo) if p_lo == 0.0 else 0.5 * (p_lo + p_hi)
        if not p_lo < mid < p_hi:
            raise ConvergenceError("panel width underflowed before tolerances were met")
        v1, e1, r1 = _gk15(point, f, av, inv, p_lo, mid)
        v2, e2, r2 = _gk15(point, f, av, inv, mid, p_hi)
        total_val += v1 + v2 - p_val
        total_err += e1 + e2 - p_err
        heapq.heappush(panels, (-e1, p_lo, mid, v1, e1, None if p_lo == 0.0 else r1))
        heapq.heappush(panels, (-e2, mid, p_hi, v2, e2, r2))
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
    p63: bool = False,
) -> tuple[float, float]:
    """`_adaptive_quad`'s (value, bound) for ∫_a^t (s-a)^(al-1) point(f, s) ds,
    taken as (2/al) ∫_0^((t-a)^(al/2)) v point(f_a, v^(2/al)) dv over the
    shifted body f_a(d) = f(a + d).

    An error that names a point names a + d.  A non-finite or undefined
    integrand at an offset d within an ulp of the span, d <= eps * (t - a),
    means that the quadrature has reached the terminal: the integral
    diverges there.
    """
    hi = positive_power(t - av, 0.5 * al)
    try:
        return _adaptive_quad(
            point, shifted(f, av), 0.0, 2.0 / al, hi, ABS_TOL, REL_TOL, p63
        )
    except (DomainError, NonDifferentiableError, NonFiniteError) as exc:
        if exc.t is None:
            raise
        terminal = exc.t <= sys.float_info.epsilon * (t - av)
        if terminal and isinstance(exc, (DomainError, NonFiniteError)):
            raise ConvergenceError(_DIVERGED) from exc
        raise exc.moved(av + exc.t) from exc.__cause__


def integral(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """∫_a^t (s-a)^(alpha-1) f(s) ds via the singularity-removing substitution.

    The integrand uses the body of f everywhere; a jump decoration affects a
    single point of measure zero and never the integral.  An integral that
    diverges at the terminal raises ConvergenceError.
    """
    al, av, t = checked_interior(alpha, a, t)
    value, bound = _substituted(evaluate_body, f, al, av, t, p63=True)
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
        return _adaptive_quad(weighted, f, lo, 2.0, math.sqrt(hi - lo), _PROBE_TOL, _PROBE_TOL)[0]

    return deriv_limit(lambda x: -probe(x, t) if x < t else probe(t, x), al, av, t)


def integral_of_deriv(f: FuncSpec, alpha: float, a: float, t: float) -> EvalResult:
    """Integral of s -> deriv_closed_form(f, alpha, a, s) from a to t.

    Equals f(t) minus the right limit of f at a (and hence f(t) - f(a)
    exactly when f is right-continuous there).  Reports DoesNotExist when
    that right limit does not exist or is not finite.  It is sought only
    where f does not evaluate at a: every operation of the language is
    continuous where it is defined, except 0^g at g = 0, whose variable
    exponent the forward pair refuses with DomainError.  Only interior
    derivatives enter, so the value is the same under either terminal mode.
    """
    al, av, t = checked_interior(alpha, a, t)
    try:
        evaluate_body(f, av)
    except (DomainError, NonFiniteError):
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
