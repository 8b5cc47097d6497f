"""Equilibrium solver for the microcanonical ensemble at fixed (u, K).

On the energy shell the relative entropy of a macrostate depends only on its
magnetization z: with q = u + K z^2 the fraction of occupied sites is pinned
and the objective reduces to

    shell_rate(z) = (q+z)/2 log(q+z) + (q-z)/2 log(q-z)
                    + (1-q) log(1-q) - (q log 2 - log 3)

on the admissible set {z : |z| <= q <= 1}.  Global minimizers lift uniquely
back to macrostates via nu_+1 = (q+z)/2, nu_-1 = (q-z)/2, nu_0 = 1-q, and the
negative minimum value is the microcanonical entropy.

No bracketing lemma controls the positive wells here (the objective can hold
up to five stationary points in the first-order regime), but F''' = 2 z
Q(z^2)/(abc)^2 with Q a quartic: F'' is monotone between the roots of Q, so
rootfind.piecewise_minima finds every local minimum, and F' summed from the
curvature at z = 0 resolves the wells just above the second-order coupling.
The first-order coupling is the least coupling (q - u)/z^2 over the points
(z, q) whose rate is at most that of z = 0: one golden-section minimization.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .core import DomainError, Macrostate, MicroParams, energy_domain
from .rootfind import bisect_newton, even_global_minima, golden_min, piecewise_minima

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class MicroSolution:
    """Global minimizers of the shell rate, their lifts and the entropy.

    z_points is symmetric under negation; entropy is the negative minimum
    value (always <= 0); tied marks solutions where z = 0 and a positive well
    coexist within the tie tolerance rootfind.TIE_TOL.
    """

    params: MicroParams
    z_points: tuple
    macrostates: tuple
    entropy: float
    phase_label: str
    tied: bool = False


@dataclass(frozen=True)
class MicroCriticals:
    """Critical couplings at fixed u, with undefined entries left None.

    k_convexity is the threshold above which the derivative of the nonlinear
    shell component is convex on its positive domain (transitions in K are
    continuous above it, discontinuous below); region labels a supplied K
    against that threshold.
    """

    u: float
    k_second_order: float | None = None
    k_first_order: float | None = None
    k_convexity: float | None = None
    region: str | None = None


# ---------------------------------------------------------------------------
# Shell objective
# ---------------------------------------------------------------------------

def _phi_terms(u, K, z):
    """Nonlinear component of the shell rate (array-safe); tiny negative
    arguments from endpoint roundoff are clamped before the logarithms."""
    q = u + K * z * z
    a = np.maximum(q + z, 0.0)
    b = np.maximum(q - z, 0.0)
    c = np.maximum(1.0 - q, 0.0)
    return 0.5 * xlogy(a, a) + 0.5 * xlogy(b, b) + xlogy(c, c)


def _shell_rate_vec(u, K, z):
    q = u + K * z * z
    return _phi_terms(u, K, z) - (q * math.log(2.0) - math.log(3.0))


def _admissible(u, K, z, slack=1e-12):
    q = u + K * z * z
    return abs(z) <= q + slack and q <= 1.0 + slack


def shell_phi(params: MicroParams, z: float) -> float:
    """Nonlinear component of the shell rate (the three entropy terms)."""
    if not _admissible(params.u, params.K, z):
        raise DomainError(f"z = {z} is not admissible at (u, K) = "
                          f"({params.u}, {params.K})")
    return float(_phi_terms(params.u, params.K, z))


def shell_rate(params: MicroParams, z: float) -> float:
    """Relative entropy of the unique shell macrostate with magnetization z.

    Defined on the admissible set {z : |z| <= u + K z^2 <= 1}; boundary
    points use the 0 log 0 = 0 convention.  Equals
    rel_entropy(shell_macrostate(z), UNIFORM) as an algebraic identity.
    """
    if not _admissible(params.u, params.K, z):
        raise DomainError(f"z = {z} is not admissible at (u, K) = "
                          f"({params.u}, {params.K})")
    return float(_shell_rate_vec(params.u, params.K, z))


def shell_macrostate(params: MicroParams, z: float) -> Macrostate:
    """Lift of an admissible magnetization to the energy shell:
    nu_+1 = (q+z)/2, nu_-1 = (q-z)/2, nu_0 = 1 - q with q = u + K z^2."""
    q = params.u + params.K * z * z
    nu_p = 0.5 * (q + z)
    nu_m = 0.5 * (q - z)
    return Macrostate(max(nu_m, 0.0), max(1.0 - q, 0.0), max(nu_p, 0.0))


def admissible_domain(params: MicroParams) -> tuple:
    """Closed components of {z : |z| <= u + K z^2 <= 1}, sorted, as (lo, hi)
    pairs (possibly degenerate).

    The set is [-B, B] with B = sqrt((1-u)/K), minus the open bands where
    K z^2 -+ z + u < 0; solving the three quadratics gives at most a central
    component containing 0 plus a symmetric outer pair.
    """
    u, K = params.u, params.K
    if u > 1.0:
        raise DomainError(f"u = {u} exceeds the maximal energy 1")
    B = math.sqrt(max(1.0 - u, 0.0) / K)
    intervals = [(-B, B)]
    disc = 1.0 - 4.0 * K * u
    if disc > 0.0:
        r = math.sqrt(disc)
        r_lo = (1.0 - r) / (2.0 * K)
        r_hi = (1.0 + r) / (2.0 * K)
        intervals = _subtract_open(intervals, r_lo, r_hi)      # q >= +z fails
        intervals = _subtract_open(intervals, -r_hi, -r_lo)    # q >= -z fails
    intervals = [iv for iv in intervals if iv[1] >= iv[0]]
    if not intervals:
        raise RuntimeError(
            f"admissible set empty at (u, K) = ({u}, {K}) despite u in "
            f"{energy_domain(K)}")
    return tuple(sorted(intervals))


def _subtract_open(intervals, a, b):
    # remove the open band (a, b); closed endpoints survive as degenerate
    # single-point intervals
    out = []
    for lo, hi in intervals:
        if b <= lo or a >= hi:
            out.append((lo, hi))
            continue
        if a >= lo:
            out.append((lo, min(a, hi)))
        if b <= hi:
            out.append((max(b, lo), hi))
    return [iv for iv in out if iv[1] >= iv[0]]


# ---------------------------------------------------------------------------
# Global minimization
# ---------------------------------------------------------------------------

def _log_odds(u):
    """log(2(1-u)/u), summed so that it stays finite for subnormal u."""
    return _LOG2 + math.log1p(-u) - math.log(u)


def _rate_slope(u, K, z):
    """F'(z) of the shell rate at z >= 0, free of cancellation as z -> 0.

    With p = K z^2, q = u + p and x = z/q, F' = atanh(x) - x + z [g(q) +
    K log1p(-x^2)], g(q) = 1/q - 2K log(2(1-q)/q).  While p < u, g(q) is the
    closed-form curvature g(u) = F''(0) plus log1p increments of order p, so
    the rounding of g(u) bounds the relative error.  +inf at c = 0 and at the
    pinch end b = 0 (2Kz < 1), -inf at the outer b = 0 end (2Kz > 1).
    """
    p = K * z * z
    q = u + p
    if q >= 1.0:
        return math.inf
    x = z / q if q > 0.0 else math.inf
    if x >= 1.0:
        return math.copysign(math.inf, 1.0 - 2.0 * K * z)
    if p < u:
        g = (1.0 / u - 2.0 * K * _log_odds(u) - p / (u * q)
             + 2.0 * K * (math.log1p(p / u) - math.log1p(-p / (1.0 - u))))
    else:
        g = 1.0 / q - 2.0 * K * _log_odds(q)
    return math.atanh(x) - x + z * (g + K * math.log1p(-x * x))


def _rate_curvature(u, K, z):
    """F''(z) = a'^2/(2a) + b'^2/(2b) + c'^2/c + K log(ab/(2c)^2) at z >= 0
    (a' = 1+2Kz, b' = 2Kz-1, c' = -2Kz); +inf where b = 0 or c = 0."""
    q = u + K * z * z
    a, b, c = q + z, q - z, 1.0 - q
    if b <= 0.0 or c <= 0.0:
        return math.inf
    d = 2.0 * K * z
    return ((1.0 + d) ** 2 / (2.0 * a) + (d - 1.0) ** 2 / (2.0 * b) + d * d / c
            + K * (math.log(a) + math.log(b) - 2.0 * math.log(2.0 * c)))


def _local_minima(u, K):
    """Every local minimizer z >= 0 of the shell rate.  The rate is even, so
    piecewise_minima searches the nonnegative part of each component.  z = 0
    is a minimum exactly when the closed-form F''(0), from which F' is
    summed, is positive: no tolerance decides it.
    """
    cuts = [math.sqrt(t) for t in _phi3_roots(u, K)]
    cands = []
    for lo, hi in admissible_domain(MicroParams(u, K)):
        if hi >= 0.0:  # a negative component mirrors a positive one
            cands += piecewise_minima(lambda z: _rate_slope(u, K, z),
                                      lambda z: _rate_curvature(u, K, z),
                                      cuts, max(0.0, lo), hi)
    return cands


def _global_minima(u, K):
    """(global minimizers, minimum value) of the shell rate."""
    return even_global_minima(lambda z: float(_shell_rate_vec(u, K, z)),
                              _local_minima(u, K))


def solve_micro(params: MicroParams) -> MicroSolution:
    """Global minimizers of the shell rate, lifted to macrostates.

    Local minima from the exact derivatives of the rate, ties within TIE_TOL
    all retained.  At most three global minimizers can occur; more indicates
    a violated structural assumption and raises RuntimeError.
    """
    zs, best = _global_minima(params.u, params.K)
    if len(zs) > 3:
        raise RuntimeError(
            f"{len(zs)} tied global minima at (u, K) = ({params.u}, {params.K}); "
            f"the solver assumes at most three: {zs}")
    macs = tuple(shell_macrostate(params, z) for z in zs)
    label = {1: "unique", 2: "pair", 3: "triple"}[len(zs)]
    tied = 0.0 in zs and len(zs) > 1
    return MicroSolution(params=params, z_points=tuple(zs), macrostates=macs,
                         entropy=-best, phase_label=label, tied=tied)


def micro_entropy(params: MicroParams) -> float:
    """Microcanonical entropy: negative minimum of the shell rate (<= 0)."""
    _, best = _global_minima(params.u, params.K)
    return -best


# ---------------------------------------------------------------------------
# Critical couplings
# ---------------------------------------------------------------------------

def second_order_coupling_u(u: float) -> float:
    """Coupling at which the curvature of the shell rate at z = 0 vanishes:
    1 / (2 u log(2(1-u)/u)), defined for 0 < u < 2/3.

    At u >= 2/3 the logarithm is nonpositive and the curvature relation
    degenerates (the uniform state, with energy 2/3, never destabilizes).
    """
    if not (math.isfinite(u) and 0.0 < u < 2.0 / 3.0):
        raise DomainError(
            f"second-order coupling needs 0 < u < 2/3 (the z = 0 curvature "
            f"relation degenerates outside), got {u}")
    k2 = 1.0 / (2.0 * u * _log_odds(u))
    if k2 == math.inf:
        raise DomainError(f"second-order coupling at u = {u} exceeds the float range")
    return k2


def _phi3_quartic(u, K):
    """Coefficients (highest degree first) of the quartic Q with
    phi'''(z) = 2 z Q(z^2) / (a b c)^2, where phi is the nonlinear shell
    component, a = q+z, b = q-z, c = 1-q and q = u + K z^2.

    This is the exact phi''' = (3a'a''/a - a'^3/a^2)/2 + (3b'b''/b - b'^3/b^2)/2
    + 3c'c''/c - c'^3/c^2 (a' = 2Kz+1, b' = 2Kz-1, c' = -2Kz, a'' = b'' = 2K,
    c'' = -2K) over a common denominator.  Q(z^2) carries the sign of phi'''
    on z > 0 without the cancellation of the direct formula near the origin;
    Q(0) = u^4 (1-u)^2 phi''''(0) / 2.
    """
    return (2.0 * K ** 6,
            K ** 3 * (2.0 * K * K + 6.0 * K * u - 4.0 * K - 1.0),
            -K * K * (12.0 * K * K * u * u - 10.0 * K * K * u - 6.0 * K * u * u
                      + 4.0 * K * u + 4.0 * K + 3.0 * u - 4.0),
            -K * (16.0 * K * K * u ** 3 - 14.0 * K * K * u * u + 6.0 * K * u ** 3
                  - 12.0 * K * u * u + 6.0 * K * u - 3.0 * u * u + 4.0 * u - 1.0),
            u * (1.0 - u) * (6.0 * K * K * u * u - 6.0 * K * u * (1.0 - u)
                             + 1.0 - u))


def _phi3_roots(u, K):
    """Positive real parts of the roots of the _phi3_quartic quartic, sorted:
    phi''' changes sign on z > 0 only where z^2 is one of them (the real part
    keeps a nearly real pair; a complex pair adds harmless extra points)."""
    return sorted(r.real for r in np.roots(_phi3_quartic(u, K)) if r.real > 0.0)


def _convexity_indicator(u, K):
    """True when the third derivative of the nonlinear shell component is
    nonnegative over the positive part of the central admissible component,
    False when it is negative somewhere there, None when that part is empty.

    Exact: on (0, top] the sign of phi''' is the sign of the _phi3_quartic
    quartic on (0, top^2], which is constant between consecutive real roots,
    so one evaluation per root-delimited piece decides.
    """
    comps = [iv for iv in admissible_domain(MicroParams(u, K))
             if iv[0] <= 0.0 <= iv[1]]
    if not comps or comps[0][1] <= 0.0:
        return None
    t_top = comps[0][1] ** 2
    cuts = np.array([0.0] + [t for t in _phi3_roots(u, K) if t < t_top]
                    + [t_top])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return bool(np.min(np.polyval(_phi3_quartic(u, K), mids)) >= 0.0)


def _origin_band(u):
    """Coupling band (K_minus, K_plus) over which the fourth z-derivative of
    the nonlinear shell component is negative at the origin, or None.

    That derivative equals 12 K^2 [1/u + 1/(1-u)] - 12 K/u^2 + 2/u^3, whose
    roots in K are (1-u)/(2u) * (1 -+ sqrt((1-3u)/(3(1-u)))); they are real
    only for u <= 1/3.
    """
    if not 0.0 < u <= 1.0 / 3.0:
        return None
    s = math.sqrt((1.0 - 3.0 * u) / (3.0 * (1.0 - u)))
    half = (1.0 - u) / (2.0 * u)
    return half * (1.0 - s), half * (1.0 + s)


#: Sextic in x = 4uK - 1 whose two real roots nearest 0 are the pinch-band
#: edges: row i is the coefficient of x^(6-i), a polynomial in v = 1 - 2u
#: (highest degree first).  It is the factor of the discriminant of the
#: _phi3_quartic quartic left after K^12 (4Ku - 1)^3 (K + u - 1)^2.
_PINCH_SEXTIC = (
    (-4, 0, 3),
    (72, 48, -112, -36, 42),
    (108, 144, 234, -60, -536, -20, 223),
    (720, 596, -892, -756, 224, 288, 32),
    (243, 108, 72, 708, -706, -1216, 768, 512, -256),
    (162, 324, -360, -288, 288, 0, 0, 0, 0),
    (27, 0, 0, 0, 0, 0, 0, 0, 0),
)


def convexity_threshold(u: float) -> float:
    """Coupling above which phi''' >= 0 on the positive central component
    (the derivative of the nonlinear shell component is convex there).

    The non-convex couplings form two bands; the threshold is the top of the
    higher one.  The origin band (u <= 1/3, phi''''(0) < 0) has the closed
    form of _origin_band.  The pinch band (1/3 < u < 1/2) lies around
    K = 1/(4u): just below z0 = 1/(2K) the mass nu_- = (q-z)/2 pinches
    toward 0 and its terms drive phi''' negative.  Its edges are where the
    _phi3_quartic quartic gains a double root, the roots x1 < 0 < x2 of
    _PINCH_SEXTIC, so its top is the smallest positive root.  It narrows like
    (1-2u)^4.  Below u = 1/3 the origin band (top >= 1) covers the pinch
    band, so the threshold jumps from 1 to about 0.786 there; at u >= 1/2 no
    coupling is non-convex and a DomainError is raised.
    """
    if not (math.isfinite(u) and 0.0 < u < 0.5):
        raise DomainError(
            f"convexity threshold needs 0 < u < 1/2 (for u >= 1/2 the shell "
            f"entropy derivative is convex at every K), got {u}")
    band = _origin_band(u)
    if band is not None:
        if band[1] == math.inf:
            raise DomainError(
                f"convexity threshold at u = {u} exceeds the float range: the "
                f"origin-band top (1-u)/(2u) (1+s) ~ 0.79/u overflows for u "
                f"below ~4.4e-309")
        return band[1]
    v = 1.0 - 2.0 * u
    coeffs = [np.polyval(row, v) for row in _PINCH_SEXTIC]
    x = min(r.real for r in np.roots(coeffs) if r.imag == 0.0 and r.real > 0.0)
    return (1.0 + x) / (4.0 * u)


def _gap(u, z, p):
    """F(z, u+p) - F(0, u), where F(z, q) is the shell rate at free q.

    Summed from terms in x = z/q and p that each stay relatively accurate as
    z, p -> 0; the plain difference of the two rates loses eps / z^2 there.
    """
    q = u + p
    x = min(z / q, 1.0)
    mix = (1.0 + x) * math.log1p(x)
    if x < 1.0:
        mix += (1.0 - x) * math.log1p(-x)
    return (0.5 * q * mix + p * math.log(q) + u * math.log1p(p / u)
            - p * math.log1p(-q) + (1.0 - u) * math.log1p(-p / (1.0 - u))
            - p * _LOG2)


def _level_coupling(u, p):
    """Least coupling p / z^2 over the magnetizations z > 0 whose rate at
    occupation q = u + p is at most the rate of z = 0 (inf when none is).

    F increases in z on [0, q] (F_z = atanh(z/q)), so those z form an
    interval [0, z_p] and the least coupling belongs to its end z_p, the
    root of the gap, or z_p = q when the whole interval qualifies.
    """
    q = u + p
    # q = 1 (nu_0 = 0) is the end of the search, where F_q = +inf: no tied
    # well sits there
    if q >= 1.0 or _gap(u, 0.0, p) >= 0.0:
        return math.inf
    if _gap(u, q, p) <= 0.0:
        return p / (q * q)

    def slope(z):
        x = z / q
        return math.atanh(x) if x < 1.0 else math.inf

    # the gap terms are of size p, so this tolerance is their roundoff
    z = bisect_newton(lambda z: _gap(u, z, p), slope, 0.0, q,
                      newton_tol=1e-15 * p)
    return p / (z * z)


def first_order_coupling_u(u: float) -> float:
    """Coupling at which a positive well of the shell rate ties with z = 0.

    Every shell macrostate is a point (z, q = u + K z^2) and F(0, u) does
    not depend on K, so Kc1(u), the least K at which some z > 0 reaches the
    rate of the origin, is the least (q - u)/z^2 over the points with
    F(z, q) <= F(0, u): the minimum over p = q - u of _level_coupling.  At
    an interior minimizer the Lagrange condition F_z + 2 K z F_q = 0 is the
    stationarity of the shell rate, so the minimizer is the tied well.  As
    p -> 0 the level coupling tends to k2(u), which is part of the infimum,
    so the golden-section minimum is capped by it.  Defined in the
    first-order regime k2(u) < C(u), i.e. 0 < u < u* (the tricritical
    energy); elsewhere the transition in K is continuous and a DomainError
    is raised.
    """
    if not (math.isfinite(u) and 0.0 < u < 0.5
            and (k2 := second_order_coupling_u(u)) < convexity_threshold(u)):
        raise DomainError(
            f"first-order coupling needs k2(u) < C(u), i.e. 0 < u < u* "
            f"~ 0.3303 (the transition in K is continuous elsewhere), got {u}")
    # at small u the tied well sits next to nu_- = 0 and nu_0 = 0, where the
    # level coupling turns sharply: tol 1e-10 would leave 2e-11 at u = 1e-5
    _, k = golden_min(lambda p: _level_coupling(u, p), 1e-12, 1.0 - u,
                      tol=1e-12)
    return min(k, k2)


def micro_criticals(u: float, K: float | None = None) -> MicroCriticals:
    """All critical couplings at this u; region labels a supplied K by a
    direct convexity test at (u, K) ('above' = convex = continuous regime)."""
    k2 = None
    if 0.0 < u < 2.0 / 3.0:
        k2 = second_order_coupling_u(u)
    try:
        c = convexity_threshold(u)
    except DomainError:
        c = None
    try:
        k1 = first_order_coupling_u(u)
    except DomainError:
        k1 = None
    region = None
    if K is not None:
        ind = _convexity_indicator(u, K)
        if ind is not None:
            region = "above" if ind else "below"
    return MicroCriticals(u=u, k_second_order=k2, k_first_order=k1,
                          k_convexity=c, region=region)
