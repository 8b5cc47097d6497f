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
from dataclasses import dataclass

import numpy as np

from .core import (
    BETA_C,
    UNIFORM,
    CanonicalParams,
    DomainError,
    Macrostate,
    _tilt_bracket,
    cramer_rate,
    cumulant,
    cumulant_vec,
    energy_per_site,
    mean_tilt,
    rel_entropy,
)
from .rootfind import (TIE_TOL, bisect_newton, even_global_minima, golden_min,
                       piecewise_minima)

#: Inverse temperatures this close to BETA_C get the continuous critical
#: record (Kc2 alone); decimal approximations of log 4 otherwise land
#: arbitrarily on either side.  It shapes only the record: solve_canonical
#: selects its minimizers by value.
BETA_SNAP_TOL = 1e-7

#: Even-derivative magnitude below which a derivative counts as vanishing in
#: the minimum-type ladder.
DERIV_ZERO_TOL = 1e-10

#: Largest inverse temperature the critical couplings accept: the range
#: where well_depth, the independent check of the first-order coupling,
#: stays finite up to the spinodal e^beta/(4 beta).  It squares the tilt
#: 2 beta K, which there overflows near beta = 356; e^beta itself overflows
#: near beta = 709.8.
BETA_MAX = 300.0


@dataclass(frozen=True)
class CanonicalCriticals:
    """Critical couplings at fixed beta.

    Below BETA_C only the second-order coupling exists.  Above it the
    tangency coupling k_tangent (where the positive well first appears), the
    first-order coupling k_first_order (where it reaches depth zero) and the
    spinodal k_spinodal (where z = 0 destabilizes) satisfy
    k_tangent < k_first_order < k_spinodal; w_tangent is the tilt at tangency.
    """

    beta: float
    k_second_order: float | None = None
    k_first_order: float | None = None
    k_tangent: float | None = None
    k_spinodal: float | None = None
    w_tangent: float | None = None
    near_tricritical: bool = False


@dataclass(frozen=True)
class CanonicalSolution:
    """Global minimizers of the magnetization potential and their lifts.

    z_points is symmetric under negation and contains 0 when its size is odd;
    macrostates[i] has mean z_points[i]; types[i] is the order r of the
    minimum (half the order of the first nonvanishing even derivative).
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

def mag_potential(params: CanonicalParams, z: float, order: int = 0) -> float:
    """Derivative of order 0..6 of beta K z^2 - c(2 beta K z) at z."""
    a = 2.0 * params.beta * params.K
    w = a * z
    if order == 0:
        return 0.5 * a * z * z - cumulant(params.beta, w, 0)
    if order == 1:
        return a * (z - cumulant(params.beta, w, 1))
    if order == 2:
        return a * (1.0 - a * cumulant(params.beta, w, 2))
    try:
        scale = a ** order
    except OverflowError:
        raise DomainError(
            f"derivative of order {order} of the magnetization potential at "
            f"(beta, K) = ({params.beta}, {params.K}) overflows the float "
            f"range: (2 beta K)^{order} with 2 beta K = {a}") from None
    return -scale * cumulant(params.beta, w, order)


def tilt_potential(params: CanonicalParams, w: float, order: int = 0) -> float:
    """Derivative of order 0..6 of w^2/(4 beta K) - c(w) at w.

    Same curve as mag_potential after the substitution w = 2 beta K z, which
    isolates the K-dependence in the quadratic term.
    """
    a = 2.0 * params.beta * params.K
    if order == 0:
        return 0.5 * w * w / a - cumulant(params.beta, w, 0)
    if order == 1:
        return w / a - cumulant(params.beta, w, 1)
    if order == 2:
        return 1.0 / a - cumulant(params.beta, w, 2)
    return -cumulant(params.beta, w, order)


# ---------------------------------------------------------------------------
# Critical couplings
# ---------------------------------------------------------------------------

def _check_beta(beta):
    if not (math.isfinite(beta) and 0.0 < beta <= BETA_MAX):
        raise DomainError(
            f"beta must be finite and in (0, BETA_MAX = {BETA_MAX}]: above it "
            f"the well depth at the spinodal e^beta/(4 beta) is too large for "
            f"float arithmetic, got {beta}")


def second_order_coupling(beta: float) -> float:
    """Coupling at which the curvature of the potential at z = 0 vanishes:
    1/(2 beta c''(0)) = e^beta/(4 beta) + 1/(2 beta).

    This is the continuous critical coupling for beta <= BETA_C; for larger
    beta the same expression is the spinodal of the disordered branch.
    """
    _check_beta(beta)
    return math.exp(beta) / (4.0 * beta) + 1.0 / (2.0 * beta)


def cumulant_inflection(beta: float) -> float:
    """Positive w at which c' switches from convex to concave:
    arccosh(e^beta/2 - 4 e^-beta), defined for beta >= BETA_C (zero at BETA_C)."""
    _check_beta(beta)
    x = 0.5 * math.exp(beta) - 4.0 * math.exp(-beta)
    if x < 1.0:
        raise DomainError(
            f"inflection exists only for beta >= {BETA_C} (log 4), got {beta}")
    return math.acosh(x)


def _tangent_gap(beta, w):
    """g(w) = w c''(w) - c'(w), the derivative of w c'(w) - 2 c(w)."""
    return w * cumulant(beta, w, 2) - cumulant(beta, w, 1)


def tangency(beta: float) -> tuple[float, float, float]:
    """(w_tangent, k_tangent, k_spinodal) for beta > BETA_C.

    w_tangent is the unique positive root of g(w) = w c''(w) - c'(w) beyond
    the inflection of c' (g is positive at the inflection and tends to -1),
    i.e. the point where the line through the origin is tangent to c'.  The
    tangency coupling is 1/(2 beta c''(w_tangent)), which equals
    w_tangent/(2 beta c'(w_tangent)); the spinodal is the z = 0 curvature
    coupling.
    """
    if not (math.isfinite(beta) and beta > BETA_C):
        raise DomainError(f"tangency exists only for beta > {BETA_C} (log 4), got {beta}")
    wc = cumulant_inflection(beta)
    lo = wc
    if _tangent_gap(beta, lo) <= 0.0:
        # g's positive hump peaks at the inflection and scales like
        # (beta - BETA_C)^(3/2); immediately above BETA_C it sinks below
        # floating-point noise and the tangency data degenerate to the
        # inflection point (the couplings pinch onto the spinodal)
        probes = [wc * f for f in (1.25, 1.5, 2.0)]
        lo = next((p for p in probes if _tangent_gap(beta, p) > 0.0), None)
        if lo is None:
            k2 = second_order_coupling(beta)
            return wc, 1.0 / (2.0 * beta * cumulant(beta, wc, 2)), k2
    hi = max(2.0 * wc, 1.0)
    while _tangent_gap(beta, hi) >= 0.0:
        hi *= 2.0
        if hi > 1e6:  # g -> -1, so this cannot happen
            raise RuntimeError("tangency bracket expansion failed")
    w1 = bisect_newton(lambda w: _tangent_gap(beta, w),
                       lambda w: w * cumulant(beta, w, 3), lo, hi,
                       newton_tol=1e-13)
    k1 = 1.0 / (2.0 * beta * cumulant(beta, w1, 2))
    k2 = second_order_coupling(beta)
    return w1, k1, k2


def _local_wells(beta, K):
    """Every local minimizer w >= 0 of the tilt potential P, increasing.

    w = 0 is one exactly when K <= second_order_coupling(beta).  A positive
    well lies where P'' = 1/(2 beta K) - c'' increases: beyond the
    inflection w_c of c' above log 4, anywhere below it (and there only for
    K > Kc2).  One piecewise_minima call with no cuts searches that piece up
    to 2 beta K + 1, where P' > 0 even if c' rounds to 1.  Its left end is
    no well; the origin stands in when none resolves (K just above Kc2).
    """
    params = CanonicalParams(beta, K)
    wells = [0.0] if K <= second_order_coupling(beta) else []
    if beta <= BETA_C and wells:
        return wells
    lo = cumulant_inflection(beta) if beta > BETA_C else 0.0
    wells += [w for w in piecewise_minima(
        lambda w: tilt_potential(params, w, 1),
        lambda w: tilt_potential(params, w, 2), (), lo, 2.0 * beta * K + 1.0)
        if w > lo]
    return wells or [0.0]


def positive_well(beta: float, K: float) -> float:
    """Location of the positive local minimum of the tilt potential P(w).
    Raises DomainError when there is none (K at or below the second-order or
    the tangency coupling)."""
    w = _local_wells(beta, K)[-1]
    if w <= 0.0:
        raise DomainError(f"no positive well at (beta, K) = ({beta}, {K}): K is "
                          f"at or below the coupling where it appears")
    return w


def well_depth(beta: float, K: float) -> float:
    """Tilt-potential value at the positive well, relative to the value 0 at
    the origin.  Continuous and strictly decreasing in K on [k_tangent, inf);
    positive just above tangency, negative beyond the spinodal.  Its unique
    zero is the first-order coupling."""
    w1, k1, _ = tangency(beta)
    if K < k1 - 1e-12:
        raise DomainError(f"well depth defined for K >= {k1} at beta = {beta}, got {K}")
    w = w1 if K <= k1 + 1e-12 else positive_well(beta, K)
    return tilt_potential(CanonicalParams(beta, K), w, 0)


def first_order_coupling(beta: float) -> float:
    """Coupling at which the positive well reaches depth zero (beta > BETA_C).

    With a = 2 beta K, the well is stationary (w/a = c'(w)) and level with
    the origin (w^2/(2a) = c(w)) there.  Eliminating a leaves
    h(w) = w c'(w) - 2 c(w) = 0, whose derivative h' = w c'' - c' is the g
    of tangency: h rises from h(0) = 0 to a hump at w_tangent and falls to
    -inf beyond it.  Its positive root w* gives the coupling
    w*/(2 beta c'(w*)).  When the tangency and spinodal couplings have
    already pinched together (beta just above BETA_C) their midpoint is
    returned as the tricritical continuation; canonical_criticals flags this.
    """
    return _first_order_coupling(beta, *tangency(beta))[0]


def _first_order_coupling(beta, w1, k1, k2):
    """(Kc1, near_tricritical) from the tangency data (w1, k1, k2) of beta."""
    if k2 - k1 < 1e-8:
        return 0.5 * (k1 + k2), True

    def h(w):
        return w * cumulant(beta, w, 1) - 2.0 * cumulant(beta, w, 0)

    hi = max(2.0 * w1, 1.0)
    while h(hi) >= 0.0:
        hi *= 2.0
    # the hump height h(w1) falls like (beta - BETA_C)^3 (6e-10 at 1e-3
    # above it), so the residual target sits far below it
    w = bisect_newton(h, lambda x: _tangent_gap(beta, x), w1, hi,
                      newton_tol=1e-15)
    return w / (2.0 * beta * cumulant(beta, w, 1)), False


def canonical_criticals(beta: float) -> CanonicalCriticals:
    """All critical couplings at this beta, with undefined entries left None."""
    _check_beta(beta)
    if beta - BETA_C <= BETA_SNAP_TOL:
        return CanonicalCriticals(beta=beta, k_second_order=second_order_coupling(beta))
    w1, k1, k2 = tangency(beta)
    kc1, near = _first_order_coupling(beta, w1, k1, k2)
    return CanonicalCriticals(beta=beta, k_first_order=kc1, k_tangent=k1,
                              k_spinodal=k2, w_tangent=w1, near_tricritical=near)


# ---------------------------------------------------------------------------
# Solution and lift
# ---------------------------------------------------------------------------

def tilt_macrostate(params: CanonicalParams, z: float) -> Macrostate:
    """Macrostate obtained by tilting the single-site measure with 2 beta K z:
    masses proportional to (e^{-2 beta K z - beta}, 1, e^{2 beta K z - beta})."""
    t = 2.0 * params.beta * params.K * z
    b = params.beta
    shift = max(-b - t, 0.0, -b + t)
    wm = math.exp(-b - t - shift)
    w0 = math.exp(-shift)
    wp = math.exp(-b + t - shift)
    c = wm + w0 + wp
    return Macrostate(wm / c, w0 / c, wp / c)


def minimum_type(params: CanonicalParams, z: float) -> tuple[int, tuple]:
    """(r, (G'', G'''', G'''''')) at a global minimizer z.

    r is the smallest index whose even derivative of order 2r exceeds
    DERIV_ZERO_TOL after all lower even derivatives vanish to that tolerance.
    When the ladder finds no type but G'' itself is positive (just above
    log 4, G'' can fall under the tolerance while a rounded G'''' is
    negative), r = 1: the exact sign of G'' decides, as the sign of F''(0)
    does at the origin in solve_micro.
    """
    evens = tuple(mag_potential(params, z, j) for j in (2, 4, 6))
    for idx, val in enumerate(evens):
        if any(abs(v) > DERIV_ZERO_TOL for v in evens[:idx]):
            break
        if val > DERIV_ZERO_TOL:
            return idx + 1, evens
    if evens[0] > 0.0:
        return 1, evens
    raise RuntimeError(
        f"type classification failed at z = {z}: even derivatives {evens}")


def solve_canonical(params: CanonicalParams) -> CanonicalSolution:
    """Global minimizers of the magnetization potential, lifted to macrostates.

    As in solve_micro, the local minimizers (here from _local_wells) within
    TIE_TOL of the least value are all global, mirrored to z < 0: the
    disordered point 0 alone, the symmetric pair +-z, or all three where they
    tie at a first-order coupling.  No critical coupling is computed.
    """
    beta, K = params.beta, params.K
    a = 2.0 * beta * K
    zs, best = even_global_minima(lambda z: mag_potential(params, z, 0),
                                  [w / a for w in _local_wells(beta, K)])
    return CanonicalSolution(
        params=params, z_points=tuple(zs), w_points=tuple(a * z for z in zs),
        macrostates=tuple(tilt_macrostate(params, z) for z in zs),
        min_value=best, types=tuple(minimum_type(params, z)[0] for z in zs),
        phase_label={1: "unique", 2: "pair", 3: "triple"}[len(zs)])


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
    """(min value, argmin tuple) of cramer_rate(z) - beta K z^2 over [-1, 1].

    Deliberately bypasses the potential-based solver: the rate is evaluated
    through the inverse tilt (vectorized bisection on c' over a 4001-point
    grid), local minima are refined by golden section on the scalar rate.
    Used to verify that both routes of the convex-duality identity agree.
    """
    beta, K = params.beta, params.K
    zg = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    # the tilt bracket grows with |z|, so the outermost point covers the grid
    lo = np.full_like(zg, -_tilt_bracket(beta, zg[-1]))
    hi = -lo
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        too_low = cumulant_vec(beta, mid, 1) < zg
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    t = 0.5 * (lo + hi)
    rate = t * zg - cumulant_vec(beta, t, 0) - beta * K * zg * zg

    def scalar(z):
        return cramer_rate(beta, z) - beta * K * z * z

    def polish(z):
        # stationarity of the dual objective: mean_tilt(z) = 2 beta K z;
        # golden section stalls at sqrt(eps), Newton on the tilt restores
        # full precision without touching the potential route
        for _ in range(40):
            t = mean_tilt(beta, z)
            resid = t - 2.0 * beta * K * z
            slope = 1.0 / cumulant(beta, t, 2) - 2.0 * beta * K
            if slope == 0.0:
                break
            step = resid / slope
            z_new = min(max(z - step, -1.0 + 1e-12), 1.0 - 1e-12)
            if abs(z_new - z) < 1e-15:
                z = z_new
                break
            z = z_new
        return z

    cands = []
    for i in range(len(zg)):
        left = rate[i - 1] if i > 0 else np.inf
        right = rate[i + 1] if i < len(zg) - 1 else np.inf
        if rate[i] <= left and rate[i] <= right:
            a = zg[max(i - 1, 0)]
            b = zg[min(i + 1, len(zg) - 1)]
            zmin, _ = golden_min(scalar, a, b, tol=1e-10)
            zmin = polish(zmin)
            cands.append((zmin, scalar(zmin)))
    best = min(v for _, v in cands)
    kept = sorted(z for z, v in cands if v <= best + TIE_TOL)
    merged = []
    for z in kept:
        if not merged or abs(z - merged[-1]) > 1e-7:
            merged.append(z)
    return best, tuple(merged)

