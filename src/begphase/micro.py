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
Q(z^2)/(abc)^2 with Q a quartic: F'' is monotone between the roots of Q,
which rootfind.polynomial_roots finds, so rootfind.piecewise_minima finds
every local minimum.  The pinch-band edges of the convexity threshold are
real roots of a sextic, which polynomial_roots finds too.  F' and F'' are
summed from the curvature g = F''(0), exactly signed, which resolves the
wells just above the second-order coupling and decides the origin; with the
quartic and sextic Landau coefficients it gives each search its start.
The first-order coupling is where a positive well ties with z = 0: one
Newton solve of the tie and the stationarity of the rate, in unknowns scaled
so that they stay well conditioned at both ends of the first-order regime.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (PHASE_LABELS, DomainError, Macrostate, MicroParams,
                   _exactly_signed, _finite, _real)
from .rootfind import (_SQRT_EPS, _horner, even_global_minima,
                       piecewise_minima, polynomial_roots)

_LOG2 = math.log(2.0)

#: Newton steps allowed to the tie solve; from its starts it takes 1 to 15.
_TIE_MAX_NEWTON = 80


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
    against that threshold.  k_first_order <= k_second_order where both exist.
    """

    u: float
    k_second_order: float | None = None
    k_first_order: float | None = None
    k_convexity: float | None = None
    region: str | None = None


# ---------------------------------------------------------------------------
# Shell objective
# ---------------------------------------------------------------------------

def _xlogx(x):
    """x log x with 0 log 0 = 0, at x >= 0; NaN stays NaN."""
    return 0.0 if x == 0.0 else x * math.log(x)


def _shell_rate(u, K, z):
    """The nonlinear component of the shell rate, the three entropy terms,
    less its linear part q log 2 - log 3; tiny negative arguments from
    endpoint roundoff are clamped before the logarithms."""
    q = u + K * z * z
    return ((0.5 * _xlogx(max(q + z, 0.0)) + 0.5 * _xlogx(max(q - z, 0.0))
             + _xlogx(max(1.0 - q, 0.0))) - (q * _LOG2 - math.log(3.0)))


def _admissible(u, K, z, slack=1e-12):
    """|z| <= q <= 1 with q = u + K z^2, each within slack, decided without
    rounding q, which drops K z^2 below ulp(u)/2: as |z| - u <= K z^2 and
    K z^2 <= 1 - u, whose differences are exact next to u = |z| and
    u = 1."""
    p = K * z * z
    return abs(z) - u <= p + slack and p <= (1.0 - u) + slack


def shell_rate(params: MicroParams, z: float) -> float:
    """Relative entropy of the unique shell macrostate with magnetization z.

    Defined on the admissible set {z : |z| <= u + K z^2 <= 1}; boundary
    points use the 0 log 0 = 0 convention.  Equals
    rel_entropy(shell_macrostate(z), UNIFORM) as an algebraic identity.
    """
    if not _admissible(params.u, params.K, z):
        raise DomainError(f"z = {z} is not admissible at (u, K) = "
                          f"({params.u}, {params.K})")
    return float(_shell_rate(params.u, params.K, z))


def shell_macrostate(params: MicroParams, z: float) -> Macrostate:
    """Lift of an admissible magnetization to the energy shell:
    nu_+1 = (q+z)/2, nu_-1 = (q-z)/2, nu_0 = 1 - q with q = u + K z^2."""
    q = params.u + params.K * z * z
    nu_p = 0.5 * (q + z)
    nu_m = 0.5 * (q - z)
    return Macrostate(max(nu_m, 0.0), max(1.0 - q, 0.0), max(nu_p, 0.0))


def _positive_components(u, K):
    """Closed components of {z >= 0 : z <= u + K z^2 <= 1}, increasing, as
    (lo, hi) pairs (possibly degenerate).  With B = sqrt((1-u)/K) and
    r_lo < r_hi the roots of K z^2 - z + u where 1 - 4Ku > 0, they are the
    central [0, min(r_lo, B)] when r_lo >= 0, and the outer [r_hi, B]
    exactly when K >= 1/2 and u >= 1 - K (r_hi <= 1), with r_hi capped at
    B, past which it rounds within a few ulps of u = 1 - K.
    """
    B = math.sqrt((1.0 - u) / K)
    disc = 1.0 - 4.0 * K * u
    if disc <= 0.0:
        return ((0.0, B),)
    r = math.sqrt(disc)
    r_lo = (1.0 - r) / (2.0 * K)
    comps = ((0.0, min(r_lo, B)),) if r_lo >= 0.0 else ()
    if K >= 0.5 and u >= 1.0 - K:
        comps += ((min((1.0 + r) / (2.0 * K), B), B),)
    return comps


def admissible_domain(params: MicroParams) -> tuple:
    """Closed components of {z : |z| <= u + K z^2 <= 1}, sorted, as (lo, hi)
    pairs (possibly degenerate): the _positive_components mirrored, at most
    a central component [-min(r_lo, B), min(r_lo, B)] and a symmetric outer
    pair +-[r_hi, B], at least one of them."""
    comps = []
    for lo, hi in _positive_components(params.u, params.K):
        comps += [(-hi, hi)] if lo == 0.0 else [(-hi, -lo), (lo, hi)]
    return tuple(sorted(comps))


# ---------------------------------------------------------------------------
# Global minimization
# ---------------------------------------------------------------------------

def _log_odds(u):
    """log(2(1-u)/u), summed so that it stays finite for subnormal u."""
    return _LOG2 + math.log1p(-u) - math.log(u)


def _origin_curvature(u, K):
    """The Landau coefficient g = F''(0) = 1/u - 2K log(2(1-u)/u) of the
    shell rate at 0 < u < 1, with the sign of its exact value: it is
    evaluated again at 40 digits where its rounding is not far below |g|
    (_exactly_signed).  NaN elsewhere, where z = 0 is no interior point.
    The 40-digit logarithm is the float one, lam, corrected by one
    exponential: log X = lam + log1p(r) with r = X e^-lam - 1 ~ 1e-16,
    summed as r - r^2/2."""
    if not 0.0 < u < 1.0:
        return math.nan
    inv, lw, lu = 1.0 / u, math.log1p(-u), math.log(u)
    lam = _LOG2 + lw - lu

    def exact(D):
        r = 2 * (1 - D(u)) / D(u) * (-D(lam)).exp() - 1
        return 1 / D(u) - 2 * D(K) * (D(lam) + r - r * r / 2)

    return _exactly_signed(inv - 2.0 * K * lam,
                           inv + 2.0 * K * (_LOG2 - lw - lu), exact)


def _g_at(u, K, g, p, q):
    """g(q) = 1/q - 2K log(2(1-q)/q) at q = u + p, p = K z^2.  While p < u
    it is the Landau coefficient g = g(u) plus log1p increments of order p,
    so the rounding of g bounds its error."""
    if p < u:
        return (g - p / (u * q)
                + 2.0 * K * (math.log1p(p / u) - math.log1p(-p / (1.0 - u))))
    return 1.0 / q - 2.0 * K * _log_odds(q)


def _rate_slope(u, K, g, z):
    """F'(z) of the shell rate at z >= 0, given g = _origin_curvature(u, K).

    With p = K z^2, q = u + p, x = z/q and t = x^2, F'/z = t A(t)/q + g(q)
    + K log1p(-t): t A(t)/q = (atanh(x) - x)/z, with A(t) = sum_j
    t^j/(2j+3) summed as a series below t = 0.01, where the difference
    cancels, and g(q) from _g_at, which leaves the cancellation of 1/u
    against 2K log(2(1-u)/u) to g alone.  +inf at c = 0 and at the pinch
    end b = 0 (2Kz < 1), -inf at the outer b = 0 end (2Kz > 1).
    """
    p = K * z * z
    q = u + p
    if q >= 1.0:
        return math.inf
    x = z / q if q > 0.0 else math.inf
    if x >= 1.0:
        return math.copysign(math.inf, 1.0 - 2.0 * K * z)
    t = x * x
    if t < 0.01:
        A, tj, k = 0.0, 1.0, 3
        while tj > 1e-17:
            A, tj, k = A + tj / k, tj * t, k + 2
        h = t * A / q
    else:
        h = (math.atanh(x) - x) / z
    return z * (h + _g_at(u, K, g, p, q) + K * math.log1p(-t))


def _rate_curvature(u, K, g, z):
    """F''(z) of the shell rate at z >= 0, given g = _origin_curvature(u, K):
    g(q) + z^2 (1 - 4Ku)/(q a b) + 4Kp (1/c + 1/q) + K log1p(-t), with
    a = q + z, b = q - z, c = 1 - q, and p, q, t and g(q) as in
    _rate_slope.  Every term after g(q) is O(z^2), so g signs F''(0).
    +inf where b = 0 or c = 0."""
    p = K * z * z
    q = u + p
    b, c = q - z, 1.0 - q
    if b <= 0.0 or c <= 0.0:
        return math.inf
    return (_g_at(u, K, g, p, q) + z * z * (1.0 - 4.0 * K * u) / (q * (q + z) * b)
            + 4.0 * K * p * (1.0 / c + 1.0 / q) + K * math.log1p(-(z / q) ** 2))


def _rate_third(quartic, u, K, z):
    """F'''(z) = 2z Q(z^2)/(abc)^2 at z >= 0, Q the _phi3_quartic quartic
    with its coefficients `quartic`; +inf where abc = 0."""
    q = u + K * z * z
    den = ((q + z) * (q - z) * (1.0 - q)) ** 2
    if den <= 0.0:
        return math.inf
    return 2.0 * z * _horner(quartic, z * z) / den


def _local_minima(u, K):
    """Every local minimizer z >= 0 of the shell rate.  The rate is even, so
    piecewise_minima searches each of the _positive_components, with the
    slope and the curvature summed from the Landau coefficient g = F''(0),
    computed once, and the searches on the central component started at
    the roots of the _landau_poly polynomial, the expansion about z = 0,
    which lie next to the near-double roots of F' and F'' close to the
    critical curves.  z = 0 is a minimum exactly when
    g > 0: no tolerance decides it.  piecewise_minima takes the end values
    of F' in closed form: 0 at z = 0, -inf at r_hi (b = 0, 2Kz > 1) and +inf
    at every upper end (b = 0 with 2Kz < 1, or c = 0); next to an end F'
    rounds to either sign on a component a few ulps wide.
    """
    g = _origin_curvature(u, K)
    quartic = _phi3_quartic(u, K)
    cuts = [math.sqrt(t) for t in polynomial_roots(quartic, 0.0, 1.0)]
    landau = _landau_poly(u, K, g)
    cands = []
    for lo, hi in _positive_components(u, K):
        cands += piecewise_minima(lambda z: _rate_slope(u, K, g, z),
                                  lambda z: _rate_curvature(u, K, g, z),
                                  lambda z: _rate_third(quartic, u, K, z),
                                  cuts, lo, hi,
                                  ends=(-math.inf if lo else 0.0, math.inf),
                                  landau=None if lo else landau)
    return cands


def _landau_poly(u, K, g):
    """The Landau polynomial (g, b, c) of the shell rate, F'(z)/z = g + b z^2
    + c z^4 + O(z^6), given g = _origin_curvature(u, K); None where z = 0 is
    no interior point (u outside (0, 1)).

    b = F''''(0)/6 = Q(0)/(3 u^4 (1-u)^2), Q the _phi3_quartic quartic, and
    c = F^(6)(0)/120; with y = K u and w = 1 - u they are
    (6y^2 - 6wy + w)/(3w u^3) and [10(2u-1) y^3 + w^2 (30y^2 - 15y + 2)]
    /(10 w^2 u^5), summed by Horner in y and divided by u one factor at a
    time: a subnormal u or a large K makes them infinite or NaN, which
    piecewise_minima's starts pass over, and nothing raises.
    """
    if not 0.0 < u < 1.0:
        return None
    y, w = K * u, 1.0 - u
    w2 = w * w
    b = ((6.0 * y - 6.0 * w) * y + w) / (3.0 * w) / u / u / u
    c = ((((20.0 * u - 10.0) * y + 30.0 * w2) * y - 15.0 * w2) * y
         + 2.0 * w2) / (10.0 * w2) / u / u / u / u / u
    return g, b, c


def _micro_minima(params):
    """(zs, best, lifts): the sorted global minimizers of the shell rate, its
    least value and {z: shell_macrostate(params, z)} over the distinct
    z >= 0 among them, so that a lift leaving the simplex refuses (u, K).

    Local minima from the exact derivatives of the rate, each search
    started at its Landau root (_local_minima), ties within TIE_TOL all
    retained.  At most three global minimizers can occur; more indicates a
    violated structural assumption and raises RuntimeError.
    """
    u, K = params.u, params.K
    zs, best = even_global_minima(lambda z: _shell_rate(u, K, z),
                                  _local_minima(u, K))
    if len(zs) > 3:
        raise RuntimeError(
            f"{len(zs)} tied global minima at (u, K) = ({u}, {K}); "
            f"the solver assumes at most three: {zs}")
    return zs, best, {z: shell_macrostate(params, z) for z in zs if z >= 0.0}


def solve_micro(params: MicroParams) -> MicroSolution:
    """Global minimizers of the shell rate (_micro_minima), lifted to
    macrostates: -z to the mirror of the lift of z, which is the lift of -z
    bit for bit, as q = u + K z^2 takes z only through z * z."""
    zs, best, lifts = _micro_minima(params)
    lifts.update({-z: Macrostate(m.nu_plus, m.nu_zero, m.nu_minus)
                  for z, m in lifts.items() if z > 0.0})
    return MicroSolution(params=params, z_points=tuple(zs),
                         macrostates=tuple(lifts[z] for z in zs), entropy=-best,
                         phase_label=PHASE_LABELS[len(zs)],
                         tied=0.0 in zs and len(zs) > 1)


def micro_entropy(params: MicroParams) -> float:
    """Microcanonical entropy: negative minimum of the shell rate (<= 0), from
    _micro_minima, so that it refuses the (u, K) that solve_micro refuses."""
    return -_micro_minima(params)[1]


# ---------------------------------------------------------------------------
# Critical couplings
# ---------------------------------------------------------------------------

def second_order_coupling_u(u: float) -> float:
    """Coupling at which the curvature of the shell rate at z = 0 vanishes:
    1 / (2 u log(2(1-u)/u)), defined for 0 < u < 2/3.

    At u >= 2/3 the logarithm is nonpositive and the curvature relation
    degenerates (the uniform state, with energy 2/3, never destabilizes).
    """
    u = _real(u, "u")
    if not (math.isfinite(u) and 0.0 < u < 2.0 / 3.0):
        raise DomainError(
            f"second-order coupling needs 0 < u < 2/3 (the z = 0 curvature "
            f"relation degenerates outside), got {u}")
    k2 = 1.0 / (2.0 * u * _log_odds(u))
    if k2 == math.inf:
        raise DomainError(f"second-order coupling at u = {u} exceeds the float range")
    return k2


#: The microcanonical tricritical point (u*, K_m*), where the second-order
#: coupling k2(u) meets the top C(u) of the origin band (_origin_band) and
#: the transition in K changes from first to second order.  U_STAR is the
#: float nearest the root u* = 0.33034382864171059824642..., 0.34 ulp below
#: it, and the float test k2(u) < C(u) holds exactly at 0 < u <= U_STAR:
#: that is the first-order regime.  The tests check both against a 60-digit
#: root.
U_STAR = 0.3303438286417106
K_STAR = second_order_coupling_u(U_STAR)


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
    try:
        quartic = (
            2.0 * K ** 6,
            K ** 3 * (2.0 * K * K + 6.0 * K * u - 4.0 * K - 1.0),
            -K * K * (12.0 * K * K * u * u - 10.0 * K * K * u - 6.0 * K * u * u
                      + 4.0 * K * u + 4.0 * K + 3.0 * u - 4.0),
            -K * (16.0 * K * K * u ** 3 - 14.0 * K * K * u * u + 6.0 * K * u ** 3
                  - 12.0 * K * u * u + 6.0 * K * u - 3.0 * u * u + 4.0 * u - 1.0),
            u * (1.0 - u) * (6.0 * K * K * u * u - 6.0 * K * u * (1.0 - u)
                             + 1.0 - u))
    except OverflowError:   # a power past the float range
        quartic = (math.inf,)
    if not all(math.isfinite(c) for c in quartic):
        raise DomainError(
            f"the shell-rate quartic at (u, K) = ({u}, {K}) leaves the float "
            f"range: its coefficients grow like K^6 and K^3 |u|^3, which are "
            f"finite up to K ~ 1.5e51 (2.1e51 where |u| <= 1)")
    return quartic


def _convexity_indicator(u, K):
    """True when the third derivative of the nonlinear shell component is
    nonnegative over (0, top], [0, top] the central _positive_components,
    False when it is negative somewhere there, None when top is 0 or absent.

    On (0, top] the sign of phi''' is the sign of the _phi3_quartic quartic
    on (0, top^2], constant between consecutive real roots: one evaluation
    per root-delimited piece decides.  At 1/3 < u < 1/2 the dip of Q (down
    to -4e-21) lies below its rounding; there 4uK - 1, rounded once, against
    the pinch band (_pinch_edges) decides."""
    if 1.0 / 3.0 < u < 0.5:
        x1, x2 = _pinch_edges(u)
        return not x1 < float(4 * Fraction(u) * Fraction(K) - 1) < x2
    lo, top = _positive_components(u, K)[0]
    if lo > 0.0 or top <= 0.0:
        return None
    t_top = top ** 2
    quartic = _phi3_quartic(u, K)
    roots = polynomial_roots(quartic, 0.0, 1.0)
    cuts = [0.0] + [t for t in roots if t < t_top] + [t_top]
    return all(_horner(quartic, 0.5 * (a + b)) >= 0.0
               for a, b in zip(cuts, cuts[1:]))


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
    toward 0 and its terms drive phi''' negative; its top is the upper edge
    from _pinch_edges.  Below u = 1/3 the origin band (top >= 1) covers the
    pinch band, so the threshold jumps from 1 to about 0.786 there; at
    u >= 1/2 no coupling is non-convex and a DomainError is raised.
    """
    u = _real(u, "u")
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
    return (1.0 + _pinch_edges(u)[1]) / (4.0 * u)


def _pinch_edges(u):
    """The pinch band x1 < 4uK - 1 < x2 at 1/3 < u < 1/2: the roots of
    _PINCH_SEXTIC nearest 0, which shrink like v^4 (v = 1 - 2u), solved in
    r = v^4/x inside Cauchy's bound on its roots, to 8e-16 relative (in x
    they were lost past u = 1/2 - 1e-8)."""
    v = 1.0 - 2.0 * u
    # the coefficient of r^(6-i) is that of x^i times v^(4i - 8)
    rev = [_horner(row, v) * v ** e if e >= 0 else _horner(row[:e], v)
           for row, e in zip(reversed(_PINCH_SEXTIC), range(-8, 17, 4))]
    bound = 1.0 + max(abs(c) for c in rev[1:]) / abs(rev[0])
    r = polynomial_roots(rev, -bound, bound)
    return v ** 4 / min(x for x in r if x < 0.0), v ** 4 / max(x for x in r if x > 0.0)


def _series(y, coef):
    """(sum_j coef(j) y^j, its derivative in y) for |y| <= 1/4, summed until
    y^j falls under the rounding of the leading term."""
    v = dv = 0.0
    yj, j = 1.0, 0
    while abs(yj) > 1e-17:
        v += coef(j) * yj
        dv += (j + 1) * coef(j + 1) * yj
        yj *= y
        j += 1
    return v, dv


def _xi_terms(xi):
    """(x, t, t', A, A', l, l', m, m') at xi = atanh(z/q) > 0, primes d/dxi.

    x = tanh xi, t = x^2, A = xi/x, l = L/t with L = x xi - log cosh xi the
    mixing part of F(z, q)/q, and m = M/t^2 with M = x xi - 2L =
    sum_{k>=2} (k-1)/(k(2k-1)) t^k, so that l = (A - t m)/2.  Below x = 1/2,
    A and m are power series in t; above, they are read from xi and
    e = exp(-2 xi), so that 1 - t = 4e/(1+e)^2 and L stay exact where t
    rounds to 1.
    """
    x = math.tanh(xi)
    t = x * x
    if x < 0.5:
        dt = 2.0 * x * (1.0 - t)
        A, dA = _series(t, lambda j: 1.0 / (2 * j + 1))
        m, dm = _series(t, lambda j: (j + 1) / ((j + 2) * (2 * j + 3)))
        return (x, t, dt, A, dt * dA, 0.5 * (A - t * m),
                0.5 * dt * (dA - m - t * dm), m, dt * dm)
    e = math.exp(-2.0 * xi)
    omt = 4.0 * e / (1.0 + e) ** 2
    L = _LOG2 - math.log1p(e) - 2.0 * e * xi / (1.0 + e)
    M = x * xi - 2.0 * L
    dA = (x - xi * omt) / t
    m = M / (t * t)
    return (x, t, 2.0 * x * omt, xi / x, dA, L / t, omt * M / (t * x), m,
            (dA - 4.0 * x * omt * m) / t)


def _p_terms(u, p):
    """(d0, d0', G, G', lambda(q), (lambda(u) - lambda(q))/p) at p = q - u > 0,
    primes d/dp, with lambda = _log_odds.

    d0 = [F(0, q) - F(0, u)]/p, summed as log(q/(2(1-u))) + log1p(r)/r +
    nu0 log1p(-r')/p with r = p/u, r' = p/(1-u) and nu0 = (1-u) - p, so that
    no term grows as nu0 -> 0, and G = KL(u||q)/p^2.  Below r = 0.1 the
    terms that cancel to O(p) are series: KL(u||q)/p^2 = g(r)/u +
    g(-r')/(1-u) and KL(q||u)/p^2 = psi(r)/u + psi(-r')/(1-u), with
    g(r) = (r - log1p r)/r^2 and psi(r) = ((1+r) log1p r - r)/r^2.
    """
    w = 1.0 - u
    q = u + p
    nu0 = w - p
    r, rw = p / u, p / w
    lq = math.log1p(r)
    # past r' = 1/2, 1 - r' cancels; nu0/w keeps the digits of nu0 -> 0
    l0 = math.log1p(-rw) if rw < 0.5 else math.log(nu0 / w)
    d0 = math.log(q / (2.0 * w)) + lq / r + nu0 * l0 / p
    lam_q = math.log(2.0 * nu0 / q)
    if r < 0.1:
        g_u, dg_u = _series(-r, lambda j: 1.0 / (j + 2))
        g_w, dg_w = _series(rw, lambda j: 1.0 / (j + 2))
        h_u, dh_u = _series(-r, lambda j: 1.0 / ((j + 1) * (j + 2)))
        h_w, dh_w = _series(rw, lambda j: 1.0 / ((j + 1) * (j + 2)))
        kl = h_u / u + h_w / w
        dd0 = kl + p * (dh_w / (w * w) - dh_u / (u * u))
        return (d0, dd0, g_u / u + g_w / w, dg_w / (w * w) - dg_u / (u * u),
                lam_q, dd0 + kl)
    G = (-u * lq - w * l0) / (p * p)
    return (d0, -(lam_q + d0) / p, G, (1.0 / (q * nu0) - 2.0 * G) / p, lam_q,
            (lq - l0) / p)


def _tie(u, xi, s):
    """The tie at fixed u in the unknowns xi = atanh(z/q) and s = K q^2.

    With t = tanh(xi)^2, p = s t = K z^2 and q = u + p, the residuals are
    e1 = E1/t and e2 = (E2 - 2 E1)/t^2, where E1 = F(z, q) - F(0, u) is the
    tie and E2 = z F_z + 2p F_q is z times the shell-rate slope.  Divided by
    t alone, both lead with terms that vanish together at K = k2(u), which
    is why E2 - 2 E1 = u M - p x xi + 2 KL(u||q) stands in for E2:
    e1 = q l + s d0 and e2 = u m - s A + 2 s^2 KL(u||q)/p^2, which tend to
    u/2 - lambda(u) s and u/6 - s + s^2/(u(1-u)) as t -> 0.

    Returns ((e1, e2), ((de1/dxi, de1/ds), (de2/dxi, de2/ds)), dt/dxi,
    readouts), the readouts being Kc1 = s/q^2, z* = q x and the envelope slope
    dKc1/du = -(F_q + lambda(u))/(z^2 F_q), with F_q = -lambda(q) -
    log cosh xi and both parts of the numerator divided by t, so that it
    stays finite as t -> 0.
    """
    x, t, dt, A, dA, l, dl, m, dm = _xi_terms(xi)
    p = s * t
    q = u + p
    d0, dd0, G, dG, lam_q, dlam = _p_terms(u, p)
    dp = s * dt
    h = l + s * dd0
    logcosh_t = A - l    # log cosh(xi)/t
    return ((q * l + s * d0, u * m - s * A + 2.0 * s * s * G),
            ((dp * h + q * dl, t * h + d0),
             (u * dm - s * dA + 2.0 * s * s * dG * dp,
              4.0 * s * G + 2.0 * s * s * dG * t - A)), dt,
            (s / (q * q), q * x,
             (s * dlam - logcosh_t) / (q * q * (lam_q + t * logcosh_t))))


def _tie_start(u, lam, k2, top):
    """(xi, s) to start Newton from: the Landau start where it predicts a
    smaller t than the corner start does, else the corner start.

    Landau: as t -> 0, e1 ~ a(s) + b t and e2 ~ c(s) + d t with
    a = u/2 - lambda s, b = s/2 + u/12 + s^2/(2u(1-u)), c = u/6 - s +
    s^2/(u(1-u)) and d = 2u/15 - s/3 + (2s^3/3)(1/(1-u)^2 - 1/u^2).  c
    vanishes at s0 = u^2 C(u), C the top of the origin band, where
    a = (u/2)(k2 - C)/k2 < 0 below u*; one linear step from (t, s) =
    (0, s0) gives t0 ~ u* - u.  Corner: next to u = 0 the tie has
    nu_- = nu_0^4 and nu_0 (log nu_0 - 1) = u (log(u/2) - 1), which three
    fixed-point steps from nu_0 = u solve well enough.
    """
    w = u * (1.0 - u)
    s0 = u * u * top
    b = 0.5 * s0 + u / 12.0 + s0 * s0 / (2.0 * w)
    d = (2.0 * u / 15.0 - s0 / 3.0
         + 2.0 * s0 ** 3 * (1.0 / (1.0 - u) ** 2 - 1.0 / (u * u)) / 3.0)
    dc = 2.0 * s0 / w - 1.0
    t0 = -0.5 * u * (k2 - top) / k2 / (b + lam * d / dc)
    n0 = u
    for _ in range(3):
        n0 = u * (math.log(0.5 * u) - 1.0) / (math.log(n0) - 1.0)
    xi = 0.5 * math.log1p(-n0 - n0 ** 4) - 2.0 * math.log(n0)
    t = math.tanh(xi) ** 2
    if 0.0 < t0 < t:
        return math.atanh(math.sqrt(t0)), s0 - d * t0 / dc
    return xi, (1.0 - u - n0) / t


def _first_order_coupling_u(u):
    """(Kc1, z*, dKc1/du) in the first-order regime 0 <= u <= U_STAR: the
    first-order coupling, the tied well and the envelope slope along the
    first-order curve.

    One Newton solve of _tie from _tie_start, until the step stops
    shrinking at the rounding level.  Where 1 - u rounds to 1, nu_0 ~ u is
    not representable next to q ~ 1; Kc1 = 1 + O(u/log(1/u)) and
    z* = 1 - O(u) round to 1 there, and the slope (about log 2/log(1/u)) is
    left 0.
    """
    if 1.0 - u == 1.0:
        return 1.0, 1.0, 0.0
    lam, k2, top = _log_odds(u), second_order_coupling_u(u), _origin_band(u)[1]
    xi, s = _tie_start(u, lam, k2, top)
    size = math.inf
    for _ in range(_TIE_MAX_NEWTON):
        (e1, e2), ((a, b), (c, d)), dt, readouts = _tie(u, xi, s)
        det = a * d - b * c
        d_xi, d_s = (b * e2 - d * e1) / det, (c * e1 - a * e2) / det
        # the step in t = x^2 and in s, relative: z/q is resolved in t, not
        # in xi, as it shrinks to 0 at u*
        step = max(abs(dt * d_xi), abs(d_s) / s)
        # Newton squares its step: once the last one was under sqrt(eps),
        # a step that does not shrink is the rounding of the residuals
        if step >= size and size < _SQRT_EPS:
            return readouts
        xi, s, size = abs(xi + d_xi), s + d_s, step
    raise RuntimeError(f"the tie at u = {u} did not converge in "
                       f"{_TIE_MAX_NEWTON} Newton steps")


def first_order_coupling_u(u: float) -> float:
    """Coupling at which a positive well of the shell rate ties with z = 0.

    Every shell macrostate is a point (z, q = u + K z^2) and F(0, u) does
    not depend on K, so Kc1(u) solves two equations in (z, K): the tie
    F(z, q) = F(0, u) and the stationarity F_z + 2 K z F_q = 0 of the shell
    rate.  _first_order_coupling_u solves them in Landau-scaled unknowns
    that stay well conditioned both as the tied well shrinks to the origin
    at the tricritical energy u* and as it runs into the corner z -> 1 as
    u -> 0, where Kc1 rounds to 1.  Defined in the first-order regime
    0 < u <= U_STAR, where k2(u) < C(u); elsewhere the transition in K is
    continuous and a DomainError is raised.
    """
    u = _real(u, "u")
    if not 0.0 < u <= U_STAR:
        raise DomainError(
            f"first-order coupling needs 0 < u <= u* = {U_STAR} (the "
            f"transition in K is continuous elsewhere), got {u}")
    return _first_order_coupling_u(u)[0]


def micro_criticals(u: float, K: float | None = None) -> MicroCriticals:
    """All critical couplings at this u; region labels a supplied K by a
    direct convexity test at (u, K) ('above' = convex = continuous regime).

    A coupling that does not exist at a finite u (or overflows) is None;
    a non-finite u, or a (u, K) that MicroParams refuses, raises
    DomainError.  Kc1(u) is solved only in the first-order regime
    0 < u <= U_STAR, down to the subnormal u where k2 and C overflow and
    Kc1 rounds to 1; it is capped at k2, which rounding crosses next to u*."""
    u, K = _finite(u, "u"), None if K is None else _real(K, "K")
    try:
        k2 = second_order_coupling_u(u)
    except DomainError:     # u outside (0, 2/3), or k2 past the float range
        k2 = None
    try:
        c = convexity_threshold(u)
    except DomainError:     # u outside (0, 1/2), or the origin band past it
        c = None
    k1 = min(_first_order_coupling_u(u)[0], k2 or math.inf) if 0 < u <= U_STAR else None
    region = None
    if K is not None:
        MicroParams(u, K)   # refuses an invalid (u, K)
        ind = _convexity_indicator(u, K)
        if ind is not None:
            region = "above" if ind else "below"
    return MicroCriticals(u=u, k_second_order=k2, k_first_order=k1,
                          k_convexity=c, region=region)
