"""Equilibrium solver for the canonical ensemble at fixed (beta, K).

The magnetization of an equilibrium macrostate minimizes the potential

    mag_potential(z) = beta K z^2 - c(2 beta K z),

equivalently (after w = 2 beta K z) the tilt potential w^2/(4 beta K) - c(w),
whose derivative splits into the line w/(2 beta K) against the curve c'(w).
For beta <= BETA_C the curve is concave on w > 0 and the minimizer pair grows
continuously out of 0 once K exceeds the second-order coupling; for
beta > BETA_C the curve has an inflection, the line can be tangent to it at
positive w, and the global minimum jumps discontinuously at the first-order
coupling, where the positive well is level with the origin.

Minimizing magnetizations lift to macrostates by exponential tilting of the
single-site measure with tilt 2 beta K z.
"""

import math
import sys
from dataclasses import dataclass

from .core import (
    BETA_C,
    PHASE_LABELS,
    UNIFORM,
    CanonicalParams,
    DomainError,
    Macrostate,
    _cumulant_from_moments,
    _curvature,
    _exactly_signed,
    _finite,
    _real,
    _raw_moments,
    _tilted_masses,
    _tilted_moments,
    cramer_rate,
    cumulant,
    energy_per_site,
    mean_tilt,
    rel_entropy,
)
from .rootfind import (_chord_root, _landau_starts, bisect_newton,
                       even_global_minima, last_point, piecewise_minima,
                       tie_newton)

#: log 4 - BETA_C, the part of log 4 that its float drops: it signs
#: 1 - 3a at the floats next to log 4.
_LOG4_LO = 4.638093627692599e-17

#: Largest inverse temperature the critical couplings accept: the range
#: where well_depth, the tests' oracle for the first-order coupling (in
#: tests/conftest.py), stays finite up to the spinodal e^beta/(4 beta).  It
#: squares the tilt 2 beta K, which there overflows near beta = 356; e^beta
#: itself overflows near beta = 709.8.
BETA_MAX = 300.0


@dataclass(frozen=True)
class CanonicalCriticals:
    """Critical couplings at fixed beta.

    At beta <= BETA_C only the second-order coupling exists.  Above it the
    tangency coupling k_tangent (where the positive well first appears), the
    first-order coupling k_first_order (where it reaches depth zero) and the
    spinodal k_spinodal (where z = 0 destabilizes) satisfy
    k_tangent < k_first_order < k_spinodal; w_tangent is the tilt at tangency.
    Next to log 4 they lie within rounding: k_tangent = min(K1, k_spinodal)
    for the computed K1, and k_first_order is clamped into [k_tangent, k_spinodal].
    """

    beta: float
    k_second_order: float | None = None
    k_first_order: float | None = None
    k_tangent: float | None = None
    k_spinodal: float | None = None
    w_tangent: float | None = None


@dataclass(frozen=True)
class CanonicalSolution:
    """Global minimizers of the magnetization potential and their lifts.

    z_points is symmetric under negation and contains 0 when its size is odd;
    macrostates[i] has mean z_points[i]; types[i] is the type r of the
    minimum, as minimum_type decides it.
    """

    params: CanonicalParams
    z_points: tuple
    w_points: tuple
    macrostates: tuple
    min_value: float
    types: tuple
    phase_label: str


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def _a_eps(beta):
    """(a, 1 - 3a) with a = 2/(e^beta + 2) = c''(0).  1 - 3a is summed as
    -expm1(log 4 - beta)(1 - a), with log 4 in two parts: it keeps its sign
    and its relative precision at every float next to log 4."""
    a = _curvature(beta)
    return a, -math.expm1((BETA_C - beta) + _LOG4_LO) * (1.0 - a)


def _landau(beta, K):
    """The Landau coefficient d = P''(0) = 1/(2 beta K) - a of the tilt
    potential, with the sign of its exact value.

    It is evaluated again at 40 digits where its rounding is not far below
    |d| (_exactly_signed).  Up to log 4 (beta <= BETA_C), where Kc2(beta) is
    the critical coupling, d is 0 where K lies within an ulp of the real
    Kc2(beta), i.e. where |d| <= ulp(K)/(2 beta K^2): no float K lies closer
    to it.  Above log 4 Kc2 is the spinodal of the disordered branch, not a
    critical point, and the exact d stands.  Where 2 beta K^2 underflows to
    0, K lies far below Kc2(beta) >= 3/(4 beta): d = 1/(2 beta K) - a is
    huge, +inf where 2 beta K is subnormal or 0, and no band applies.
    """
    tk = 2.0 * beta * K
    a = _a_eps(beta)[0]
    if tk * K == 0.0:
        return 1.0 / tk - a if tk else math.inf
    inv = 1.0 / tk
    d = _exactly_signed(inv - a, inv + a, lambda D: (
        1 / (2 * D(beta) * D(K)) - 2 / (D(beta).exp() + 2)))
    band = math.ulp(K) / (tk * K)
    return 0.0 if beta <= BETA_C and abs(d) <= band else d


def _sinh_sums(x):
    """Sums over j >= 1 of x^(j+1)/(2j+3)!, x^j/(2j+2)!, (2j+2) x^j/(2j+3)!
    and (2j+2) x^j/(2j+4)! at x = w^2 <= 4, i.e. sinh(w)/w - 1 - x/6,
    (cosh w - 1)/w^2 - 1/2, E/w^3 - 1/3 and D/w^4 - 1/12 with
    E = w cosh w - sinh w and D = w sinh w - 2(cosh w - 1), summed until
    the terms fall under the rounding of the first, the smallest."""
    tail = sw = e3 = d4 = 0.0
    t, n = x / 6.0, 2   # t = x^j/(2j+1)!, n = 2j
    while t > 1e-17 * tail:
        r = t / ((n + 2) * (n + 3))   # x^j/(2j+3)!
        sw += t / (n + 2)
        e3 += (n + 2) * r
        d4 += (n + 2) * r / (n + 4)
        t, n = x * r, n + 2
        tail += t
    return tail, sw, e3, d4


def _tilt_kernels(beta, K, d):
    """(P', P'', P''') of the tilt potential P = w^2/(4 beta K) - c(w), as
    functions of w, given its Landau coefficient d from _landau.

    Up to |w| = 2, with x = w^2, s = cosh w - 1 = 2 sinh(w/2)^2, y = a s and
    eps = 1 - 3a, P'/w = d - a sigma/(1 + y) with sigma = sinh(w)/w - 1 - y
    = x eps/6 + sum_{j>=2} x^j/(2j+1)! - a x sum_{j>=1} x^j/(2j+2)!, and
    P'' = d - a s (eps - a y)/(1 + y)^2.  d carries the cancellation of
    1/(2 beta K) against c''(0) = a, and no other term cancels as w -> 0
    or beta -> log 4.  Above |w| = 2 the plain forms w/(2 beta K) - c'(w)
    and 1/(2 beta K) - c''(w) are exact enough.  P''' = -c'''(w), with
    c''' from _c3 up to |w| = 2 and from the moments above.  Above |w| = 2
    the three read one moments evaluation per point (last_point): Newton
    takes the derivative where it has just taken the value.
    """
    tk = 2.0 * beta * K
    a, eps = _a_eps(beta)
    moments = last_point(lambda w: _raw_moments(beta, w))

    def slope(w):
        if abs(w) > 2.0:
            return w / tk - moments(w)[0]
        x = w * w
        tail, sw = _sinh_sums(x)[:2]
        sigma = x * eps / 6.0 + tail - a * x * sw
        return w * (d - a * sigma / (1.0 + 2.0 * a * math.sinh(0.5 * w) ** 2))

    def curvature(w):
        if abs(w) > 2.0:
            m1, m2 = moments(w)[:2]
            return 1.0 / tk - (m2 - m1 * m1)
        s = 2.0 * math.sinh(0.5 * w) ** 2
        y = a * s
        return d - a * s * (eps - a * y) / (1.0 + y) ** 2

    def third(w):
        if abs(w) > 2.0:
            return -_cumulant_from_moments(*moments(w)[:2], 3)
        return -_c3(a, eps, w)

    return slope, curvature, third


def _c3(a, eps, w):
    """c'''(w) at |w| <= 2, given (a, eps) = _a_eps(beta): a sinh(w)
    (eps - (1 - a) y)/(1 + y)^3 with y = a (cosh w - 1) = 2a sinh(w/2)^2.
    eps = 1 - 3a carries the cancellation of c'''(w)/w -> a(1 - 3a) at
    w = 0, so no term cancels as w -> 0 or beta -> log 4, where c''' from
    the raw moments (cumulant) loses its digits at w ~ 1e-7."""
    y = 2.0 * a * math.sinh(0.5 * w) ** 2
    return a * math.sinh(w) * (eps - (1.0 - a) * y) / (1.0 + y) ** 3


def tilt_potential(params: CanonicalParams, w: float, order: int = 0) -> float:
    """Derivative of order 0..6 of w^2/(4 beta K) - c(w) at w.

    Same curve as mag_potential after the substitution w = 2 beta K z, which
    isolates the K-dependence in the quadratic term.  Orders 1 and 2 are
    the cancellation-free kernels of _tilt_kernels; the others read c and
    its derivatives from one moments evaluation at the beta the params
    validated.
    """
    w = _finite(w, "w")
    beta, K = params.beta, params.K
    if order in (1, 2):
        return _tilt_kernels(beta, K, _landau(beta, K))[order - 1](w)
    c0, m1, m2 = _tilted_moments(beta, w)
    if order == 0:
        return 0.5 * w * w / (2.0 * beta * K) - c0
    return -_cumulant_from_moments(m1, m2, order)


def mag_potential(params: CanonicalParams, z: float, order: int = 0) -> float:
    """Derivative of order 0..6 of beta K z^2 - c(2 beta K z) at z: the
    tilt_potential derivative at w = 2 beta K z times (2 beta K)^order.

    Where (2 beta K)^order is below the smallest normal float, the factors
    of 2 beta K are applied one at a time: at 2 beta K = 2e-200, G''(0) =
    (2 beta K)^2 P''(0) with P''(0) ~ 1/(2 beta K) is 2e-200, though
    (2 beta K)^2 underflows.  Where 1/(2 beta K) overflows (2 beta K below
    ~5.6e-309) G'' is 2 beta K (1 - 2 beta K c''(w)).
    """
    a = 2.0 * params.beta * params.K
    z = _finite(z, "z")
    w = _finite(a * z, "the tilt 2 beta K z")
    value = tilt_potential(params, w, order)
    if order == 2 and value == math.inf:   # 1/(2 beta K) overflows
        return a * (1.0 - a * cumulant(params.beta, w, 2))
    try:
        scale = a ** order
        if scale >= sys.float_info.min:
            return scale * value
        for _ in range(order):
            value *= a
        return value
    except OverflowError:
        raise DomainError(
            f"derivative of order {order} of the magnetization potential at "
            f"(beta, K) = ({params.beta}, {params.K}) overflows the float "
            f"range: (2 beta K)^{order} with 2 beta K = {a}") from None


# ---------------------------------------------------------------------------
# Critical couplings
# ---------------------------------------------------------------------------

def _check_beta(beta):
    """beta as a Python float, or a DomainError where it is not in
    (0, BETA_MAX]."""
    beta = _real(beta, "beta")
    if not (math.isfinite(beta) and 0.0 < beta <= BETA_MAX):
        raise DomainError(
            f"beta must be finite and in (0, BETA_MAX = {BETA_MAX}]: above it "
            f"the well depth at the spinodal e^beta/(4 beta) is too large for "
            f"float arithmetic, got {beta}")
    return beta


def second_order_coupling(beta: float) -> float:
    """Coupling at which the curvature of the potential at z = 0 vanishes:
    1/(2 beta c''(0)) = e^beta/(4 beta) + 1/(2 beta).

    This is the continuous critical coupling for beta <= BETA_C; for larger
    beta the same expression is the spinodal of the disordered branch.
    """
    beta = _check_beta(beta)
    return math.exp(beta) / (4.0 * beta) + 1.0 / (2.0 * beta)


#: The canonical tricritical coupling K_c* = 3/(2 log 4).
_KC_STAR = second_order_coupling(BETA_C)


def _kc2_slope(beta):
    """dKc2/dbeta = (e^beta (beta - 1) - 2)/(4 beta^2) of the second-order
    curve e^beta/(4 beta) + 1/(2 beta)."""
    return (math.exp(beta) * (beta - 1.0) - 2.0) / (4.0 * beta * beta)


def cumulant_inflection(beta: float) -> float:
    """Positive w at which c' switches from convex to concave:
    arccosh(e^beta/2 - 4 e^-beta), defined for beta >= BETA_C (zero at BETA_C)."""
    beta = _check_beta(beta)
    if beta < BETA_C:
        raise DomainError(
            f"inflection exists only for beta >= {BETA_C} (log 4), got {beta}")
    return math.acosh(0.5 * math.exp(beta) - 4.0 * math.exp(-beta))


def _scaled_h_g(beta, a, eps, w):
    """(h/w^4, g/w^3, y, c'(w), dh/da/w^4) at w >= 0 for h = w c' - 2c and
    g = h' = w c'' - c', given (a, eps) = _a_eps(beta), with
    a = 2/(e^beta + 2), y = a s and c = log1p(y).  beta enters h only
    through a, and dh/da = (D - 2ys)/(1 + y)^2.

    Up to w = 2, c' = a sinh(w)/(1 + y) (cumulant's c' loses eps/w there),
    h = a D/(1 + y) - 2B and g = a E/(1 + y) - w c'^2, with
    D = w sinh w - 2s, E = w cosh w - sinh w, s = cosh w - 1 and
    B = log1p(y) - y/(1 + y).  Their values a(1 - 3a)/12 and a(1 - 3a)/3 at
    w = 0 are split off, 1 - 3a = -expm1(log 4 - beta)(1 - a) > 0 above
    log 4, and B/y^2 = [2/(1 + v) + 2v sum_k v^2k/(2k + 3)]/(2 + y)^2 with
    v = y/(2 + y); s/w^2 - 1/2, sinh(w)/w - 1, D/w^4 - 1/12 and E/w^3 - 1/3
    are sums over j >= 1 of x^j/(2j+2)!, x^j/(2j+1)!, (2j+2) x^j/(2j+4)! and
    (2j+2) x^j/(2j+3)!, x = w^2.  No term cancels as w -> 0 or beta -> log 4.
    Above w = 2, where s^2 overflows at large beta, dh/da is
    [(1 - r)(w c' - 2r) - 2r^2]/a with r = y/(1 + y).
    """
    y = 2.0 * a * math.sinh(0.5 * w) ** 2
    if w > 2.0:   # h and g cancel only at their roots
        c1 = cumulant(beta, w, 1)
        r = y / (1.0 + y)
        return ((w * c1 - 2.0 * math.log1p(y)) / w ** 4,
                (w * ((a + y) / (1.0 + y) - c1 * c1) - c1) / w ** 3, y, c1,
                ((1.0 - r) * (w * c1 - 2.0 * r) - 2.0 * r * r) / (a * w ** 4))
    x = w * w
    tail, sw, e3, d4 = _sinh_sums(x)
    shw = x / 6.0 + tail
    v = y / (2.0 + y)
    r, t, k = 0.0, 1.0, 3
    while t > 1e-17 * r:
        r, t, k = r + t / k, t * v * v, k + 2
    p1 = v * (2.0 * (1.0 + y) * r / (2.0 + y) ** 2 - 0.5)   # (1 + y) B/y^2 - 1/2
    h = eps / 12.0 + d4 - 2.0 * a * (sw * (1.0 + sw) * (0.5 + p1) + 0.25 * p1)
    g = eps / 3.0 + y / 3.0 + e3 * (1.0 + y) - a * shw * (2.0 + shw)
    return (a * h / (1.0 + y), a * g / (1.0 + y) ** 2, y,
            a * math.sinh(w) / (1.0 + y),
            (1.0 / 12.0 + d4 - 2.0 * a * (0.5 + sw) ** 2) / (1.0 + y) ** 2)


def _tilt_root(beta, i):
    """(w, w/(2 beta c'(w))) at the one root w > 0 of h/w^4 (i = 0) or
    g/w^3 (i = 1), with the K whose line w/(2 beta K) meets c' there.  Both
    are positive at 0 above log 4, and w < 2 beta Kc1 z* < 3 beta/log 4.
    The bracket's ends are closed forms, a eps/12 and a eps/3 at 0
    (_scaled_h_g) and a negative sign at 3 beta/log 4 + 1: neither is
    evaluated.
    Newton starts from their Landau roots sqrt(15 (beta - log 4)) and
    sqrt(10 (beta - log 4)); the slope, and the readout at the root, take
    h and g from the evaluation of the value, and the tangency slope takes
    c''' from _c3 up to w = 2, which keeps its digits next to log 4."""
    if not (math.isfinite(beta) and BETA_C < beta <= BETA_MAX):
        raise DomainError(f"the tangency and first-order couplings take beta "
                          f"in (log 4, BETA_MAX = {BETA_MAX}], got {beta}")
    a, eps = _a_eps(beta)
    at = last_point(lambda x: _scaled_h_g(beta, a, eps, x))

    def slope(x):   # (g/w^3 - 4 h/w^4)/w and c'''/w^2 - 3 (g/w^3)/w
        h, g = at(x)[:2]
        if i == 0:
            return (g - 4.0 * h) / x
        c3 = _c3(a, eps, x) if x <= 2.0 else cumulant(beta, x, 3)
        return (c3 / x - 3.0 * g) / x

    w = bisect_newton(lambda x: at(x)[i], slope, 0.0, 3.0 * beta / BETA_C + 1.0,
                      start=math.sqrt((15.0, 10.0)[i] * (beta - BETA_C)),
                      ends=(a * (eps / (12.0, 3.0)[i]), -1.0))
    return w, w / (2.0 * beta * at(w)[3])


def tangency(beta: float) -> tuple[float, float, float]:
    """(w_tangent, k_tangent, k_spinodal) for beta > BETA_C: the root of
    g = w c'' - c', where the line through 0 touches c' (sqrt(10 (beta -
    log 4)) next to log 4), its coupling and the z = 0 curvature coupling."""
    beta = _real(beta, "beta")
    return (*_tilt_root(beta, 1), second_order_coupling(beta))


def _local_wells(params, d):
    """Every local minimizer w >= 0 of the tilt potential P, increasing,
    given its Landau coefficient d = P''(0) from _landau.

    c' is concave on w > 0 up to log 4 and has one inflection w_c above
    it, so P' = w/(2 beta K) - c'(w) is convex wherever a positive well
    can lie, and each well is the one sign change of a convex function,
    bracketed up to 2 beta K + 1, where P' > 0 even if c' rounds to 1 (P'
    as evaluated there: where it rounds to 0, at beta = 150 and K = Kc2
    (1 + 1e-6), that end is the well).  The origin is a well exactly when
    d >= 0 (d = 0 only in the critical band of _landau).  Up to log 4, P''
    rises from d: with d < 0 the one positive well is the root of P' on
    (0, 2 beta K + 1].  Above log 4, where no well lies below w_c, it is
    the root on [w_c, 2 beta K + 1] where P'(w_c) < 0 (always so where
    d < 0); else P' is least at its spinodal w_s, searched only where
    P''(w_c) < 0 < P''(2 beta K + 1), and a metastable well is the root on
    [w_s, 2 beta K + 1] where P'(w_s) < 0.  The searches start at the
    roots of the _landau_poly polynomial (_landau_starts), the spinodal
    search at the chord where none lies inside: next to Kc2 and Kc1 the
    well is a near-double root of P', which Newton from a start far from
    it approaches by little more than halvings.  P squares the tilt and
    divides by it: DomainError where 2 beta K does not square to a finite
    float (above about 1.34e154) or underflows to 0.
    """
    beta, K = _check_beta(params.beta), params.K
    tk = 2.0 * beta * K
    if not (0.0 < tk and tk * tk < math.inf):
        raise DomainError(
            f"the canonical solver needs 2 beta K > 0 and (2 beta K)^2 "
            f"finite, i.e. 2 beta K from 5e-324 to about 1.34e154, got "
            f"2 beta K = {tk} at (beta, K) = ({beta}, {K})")
    origin, hi = [0.0] * (d >= 0.0), tk + 1.0
    lo = cumulant_inflection(beta) if beta > BETA_C else 0.0
    if beta <= BETA_C and d >= 0.0 or lo >= hi:
        return origin
    slope, curvature, third = _tilt_kernels(beta, K, d)
    well, spinodals = _landau_starts(_landau_poly(beta, d))
    # the sign of P' just above lo: that of d at the origin, where P' = 0
    flo = slope(lo) or curvature(lo)
    if flo > 0.0:
        clo, chi = curvature(lo), curvature(hi)
        if not clo < 0.0 < chi:
            return origin
        start = next((x for x in spinodals if lo < x < hi),
                     _chord_root(lo, hi, clo, chi))
        lo = bisect_newton(curvature, third, lo, hi, start=start,
                           ends=(clo, chi))
        flo = slope(lo)
        if not flo < 0.0:
            return origin
    return origin + [bisect_newton(slope, curvature, lo, hi, start=well,
                                   ends=(flo, slope(hi)))]


def _landau_poly(beta, d):
    """The Landau polynomial (d, b, c) of the tilt potential, P'(w)/w = d +
    b w^2 + c w^4 + O(w^6), given d from _landau: b = -kappa4/6 =
    -a eps/6 and c = -kappa6/120 = -a (1 - 15a + 30a^2)/120, with kappa4
    and kappa6 the cumulants of the single-site law and (a, eps) from
    _a_eps, so that b keeps its sign next to log 4."""
    a, eps = _a_eps(beta)
    return d, -a * eps / 6.0, -a * (1.0 + (30.0 * a - 15.0) * a) / 120.0


def positive_well(beta: float, K: float) -> float:
    """Location of the positive local minimum of the tilt potential P(w).
    Raises DomainError when there is none (K at or below the second-order or
    the tangency coupling)."""
    params = CanonicalParams(beta, K)
    w = _local_wells(params, _landau(params.beta, params.K))[-1]
    if w <= 0.0:
        raise DomainError(f"no positive well at (beta, K) = ({beta}, {K}): K is "
                          f"at or below the coupling where it appears")
    return w


def first_order_coupling(beta: float) -> float:
    """Coupling at which the positive well reaches depth zero (beta > BETA_C).

    There the well is stationary (w = 2 beta K c'(w)) and level with the
    origin (w^2 = 4 beta K c(w)): h = w c' - 2c = 0, with h' the g of
    tangency.  h rises to a hump at w_tangent and falls to -inf; its root w*
    (sqrt(15 (beta - log 4)) next to log 4) gives w*/(2 beta c'(w*)).
    The raw root, which canonical_criticals clamps within rounding next to log 4.
    """
    return _first_order_coupling(_real(beta, "beta"))


def _first_order_coupling(beta):
    """Kc1 at beta > BETA_C, from the tie root of _tilt_root."""
    return _tilt_root(beta, 0)[1]


def _first_order_tie(K):
    """(beta_c1(K), w*) for 1 < K < K_c*: the beta where the first-order
    coupling is K, and the tilt of the tied well there, from one Newton
    solve in (beta, w) of the tie and the stationarity of the well,

        T = (1 + w^3) h/w^4 = 0,    E = w/(2 beta c'(w)) - K = 0.

    beta enters both only through a = 2/(e^beta + 2), so the Jacobian is
    closed-form: dT/dw is the slope of _tilt_root, dT/dbeta =
    -a (1 - a) dh/da/w^4 (_scaled_h_g), dE/dw = -g/(2 beta c'^2) and
    dE/dbeta = (E + K)((1 - a)/(1 + y) - 1/beta).  The factor 1 + w^3
    keeps T from dying like 1/w^3 at large w, where h/w^4 alone has a
    spurious near-root that drew Newton off to BETA_MAX.

    The start is the tangent of the second-order curve at log 4, which Kc1
    leaves tangentially, with w at its Landau root sqrt(15 (beta - log 4));
    from beta = 2.2 on, the asymptote Kc1 - 1 ~ e^-beta/beta (four
    fixed-point steps of beta = -log((K - 1) beta)), with
    w = 2 beta K c'(2 beta K).  A step that leaves log 4 < beta <= BETA_MAX
    or 0 < w < 3 beta/log 4 + 1 (the bracket of _tilt_root) is halved.

    rootfind.tie_newton runs the loop.  Its size is the beta step in units
    of K, |E - T (dE/dw)/(dT/dw)|: within eps K, the step is taken and the
    solve ends; not shrinking after falling below sqrt(eps), it is
    rounding, and the solve ends where it stands.  The bare beta step would
    not do, as next to K = 1 dKc1/dbeta ~ -(K - 1) and rounding moves beta
    by eps/(K - 1); nor would a rule that waits on w, which within 1e-10
    of K_c* is fixed only to about 1e-6 relative.
    """
    b = BETA_C + (K - _KC_STAR) / _kc2_slope(BETA_C)
    if b < 2.2:
        w = math.sqrt(15.0 * (b - BETA_C))
    else:
        for _ in range(4):
            b = -math.log((K - 1.0) * b)
        w = 2.0 * b * K * cumulant(b, 2.0 * b * K, 1)

    def step(b, w):
        a, eps = _a_eps(b)
        t, g, y, c1, t_a = _scaled_h_g(b, a, eps, w)
        scale, k = 1.0 + w ** 3, w / (2.0 * b * c1)
        t_w = scale * (g - 4.0 * t) / w + 3.0 * w * w * t
        t_b = -scale * t_a * a * (1.0 - a)
        t *= scale
        e, e_w = k - K, -k * g * w * w / c1
        e_b = k * ((1.0 - a) / (1.0 + y) - 1.0 / b)
        det = t_b * e_w - t_w * e_b
        return (((t_w * e - t * e_w) / det, (t * e_b - t_b * e) / det),
                abs(e - t * e_w / t_w))

    return tie_newton(
        step, (b, w),
        lambda b, w: BETA_C < b <= BETA_MAX and 0.0 < w < 3.0 * b / BETA_C + 1.0,
        sys.float_info.epsilon * K)


def canonical_criticals(beta: float) -> CanonicalCriticals:
    """All critical couplings at this beta, with undefined entries left None:
    the first-order record exactly at beta > BETA_C, ordered (CanonicalCriticals)."""
    beta = _check_beta(beta)
    if beta <= BETA_C:
        return CanonicalCriticals(beta=beta, k_second_order=second_order_coupling(beta))
    w1, k1, k2 = tangency(beta)
    k1 = min(k1, k2)
    kc1 = min(max(_first_order_coupling(beta), k1), k2)
    return CanonicalCriticals(beta=beta, k_first_order=kc1, k_tangent=k1,
                              k_spinodal=k2, w_tangent=w1)


# ---------------------------------------------------------------------------
# Solution and lift
# ---------------------------------------------------------------------------

def tilt_macrostate(params: CanonicalParams, z: float) -> Macrostate:
    """Macrostate obtained by tilting the single-site measure with 2 beta K z:
    masses proportional to (e^{-2 beta K z - beta}, 1, e^{2 beta K z - beta})."""
    return Macrostate(*_tilted_masses(params.beta,
                                      2.0 * params.beta * params.K * z))


def minimum_type(params: CanonicalParams, z: float) -> tuple[int, tuple]:
    """(r, (G'', G'''', G'''''')) at a global minimizer z: r from _type, as
    solve_canonical decides it, and the even derivatives from mag_potential
    (G'' from the cancellation-free kernel), computed here only, for
    classify_minimum; DomainError where one overflows."""
    beta = params.beta
    return (_type(beta, _landau(beta, params.K), z),
            tuple(mag_potential(params, z, k) for k in (2, 4, 6)))


def _type(beta, d, z):
    """The type r of the minimizer z, given the Landau coefficient d of
    _landau: 1 unless z is the origin and d = 0, i.e. K lies within an ulp
    of the real Kc2(beta) at beta <= BETA_C; there 3 at beta = BETA_C, else
    2.  No tolerance on the even derivatives decides it."""
    if z != 0.0 or d != 0.0:
        return 1
    return 3 if beta == BETA_C else 2


def _canonical_minima(params):
    """(zs, best, d): the sorted global minimizers of the magnetization
    potential, its least value and the Landau coefficient d = _landau(beta,
    K).  As in _micro_minima, the local minimizers (here from _local_wells)
    within TIE_TOL of the least value are all global, mirrored to z < 0: the
    disordered point 0 alone, the symmetric pair +-z, or all three where
    they tie at a first-order coupling.  d decides the origin and, with the
    fourth and sixth cumulants, starts the well searches (_landau_poly): no
    critical coupling is computed.  Every solve and every sweep row takes
    this one path."""
    beta, K = params.beta, params.K
    a = 2.0 * beta * K
    d = _landau(beta, K)
    zs, best = even_global_minima(lambda z: mag_potential(params, z, 0),
                                  [w / a for w in _local_wells(params, d)])
    return zs, best, d


def solve_canonical(params: CanonicalParams) -> CanonicalSolution:
    """Global minimizers of the magnetization potential (_canonical_minima),
    lifted to macrostates, with their types from the Landau coefficient
    (_type): no derivative for the types is computed."""
    zs, best, d = _canonical_minima(params)
    a = 2.0 * params.beta * params.K
    return CanonicalSolution(
        params=params, z_points=tuple(zs), w_points=tuple(a * z for z in zs),
        macrostates=tuple(tilt_macrostate(params, z) for z in zs),
        min_value=best, types=tuple(_type(params.beta, d, z) for z in zs),
        phase_label=PHASE_LABELS[len(zs)])


def free_energy_at(params: CanonicalParams, mu: Macrostate) -> float:
    """R(mu|uniform) + beta * energy_per_site(mu, K) at the macrostate mu."""
    return rel_entropy(mu, UNIFORM) + params.beta * energy_per_site(mu, params.K)


def canonical_free_energy(params: CanonicalParams) -> float:
    """inf over macrostates of R(mu|uniform) + beta * energy_per_site(mu, K),
    evaluated at a lifted minimizer."""
    return free_energy_at(params, solve_canonical(params).macrostates[0])


# ---------------------------------------------------------------------------
# Independent route through the Cramer rate (duality cross-check)
# ---------------------------------------------------------------------------

def dual_route_minimum(params: CanonicalParams):
    """(min value, argmin tuple) of D(z) = cramer_rate(z) - beta K z^2 over
    [-1, 1].

    Deliberately bypasses the potential route: D is the Cramer rate, whose
    derivatives are exact at the tilt t = mean_tilt(beta, z), the root of
    c'(t) = z: D' = t - 2 beta K z, D'' = 1/c''(t) - 2 beta K and
    D''' = -c'''(t)/c''(t)^3.  c'' is summed from the tilted masses as
    p0 (p+ + p-) + 4 p+ p-, which stays positive at the float below 1,
    where m2 - m1^2 rounds to 0.  c''' changes sign only at the inflection
    of c' (above log 4), whose image under c' is
    z_c = sqrt((1 - 16 e^-2beta)/(1 - 4 e^-2beta))/2, so one
    piecewise_minima call on [0, 1 - 2^-53] finds every local minimum.
    Where D' < 0 at the float below 1, the minimizer rounds to +-1, where
    the rate stays finite: it is reported there when D(1) is no larger.
    DomainError where 2 beta K is no float.  Used to verify that both
    routes of the convex-duality identity agree.
    """
    beta, K = params.beta, params.K
    tk = 2.0 * beta * K
    if tk == math.inf:
        raise DomainError(f"the dual route needs 2 beta K finite, got beta = "
                          f"{beta}, K = {K}")
    top = 1.0 - 2.0 ** -53
    tilt = last_point(lambda z: mean_tilt(beta, z))

    def dual(z):
        return cramer_rate(beta, z) - beta * K * z * z

    def inverse_variance(z):   # 1/c''(t); +inf where the masses round to a point
        m, p0, p = _tilted_masses(beta, tilt(z))
        v = p0 * (p + m) + 4.0 * p * m
        return 1.0 / v if v > 0.0 else math.inf

    def third(z):
        r = inverse_variance(z)
        return -cumulant(beta, tilt(z), 3) * (r * r * r)

    cuts = [] if beta <= BETA_C else [0.5 * math.sqrt(
        math.expm1(2.0 * (BETA_C - beta)) / math.expm1(BETA_C - 2.0 * beta))]
    mins = piecewise_minima(lambda z: tilt(z) - tk * z,
                            lambda z: inverse_variance(z) - tk, third,
                            cuts, 0.0, top)
    if mins[-1] == top and dual(1.0) <= dual(top):
        mins[-1] = 1.0
    zs, best = even_global_minima(dual, mins)
    return best, tuple(zs)
