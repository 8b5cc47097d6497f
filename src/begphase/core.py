"""Domain types and single-site thermodynamics of the mean-field spin-1 model.

Spins live on {-1, 0, +1}.  The prior is uniform; at inverse temperature beta
the quadratic single-site energy tilts it to

    single_site_measure(beta) = (e^-beta, 1, e^-beta) / (1 + 2 e^-beta).

This module provides the cumulant generating function of that measure with
closed-form derivatives through order six, the energy-per-site function, the
relative entropy, the Cramer rate function of the magnetization and the
large-deviation rate functions of the two ensembles.
"""

import decimal
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# unused here: kept for perfbench, which traces bisect_newton in each importer
from .rootfind import bisect_newton

#: Inverse temperature at which the concavity of the cumulant derivative
#: changes character; transitions are continuous in K below, discontinuous above.
BETA_C = math.log(4.0)

_MASS_TOL = 1e-12

#: Phase of a set of 1, 2 or 3 global minimizers.
PHASE_LABELS = {1: "unique", 2: "pair", 3: "triple"}


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _real(x, name):
    """x as a Python float when it is a real number (an int, a bool, a float,
    a Fraction, a Decimal or a numpy scalar of any precision, np.bool_
    included), else a TypeError naming it: a string, None, a complex or a
    numpy array, 0-d included, is no real number.  The solvers then run in
    double precision on plain floats."""
    if type(x) is float:
        return x
    if isinstance(x, (numbers.Real, np.bool_)):
        return float(x)
    if isinstance(x, decimal.Decimal):   # float() refuses a signaling NaN
        return math.nan if x.is_snan() else float(x)
    raise TypeError(f"{name} must be a real number, got {x!r}")


def _positive(x, name):
    """x as a Python float, or a DomainError naming it where it is not finite
    and positive; the TypeError of _real where it is no real number."""
    if type(x) is not float:   # _real's first test, without its call
        x = _real(x, name)
    if math.isfinite(x) and x > 0.0:
        return x
    raise DomainError(f"{name} must be finite and positive, got {x}")


@dataclass(frozen=True)
class Macrostate:
    """Probability vector (nu_minus, nu_zero, nu_plus) over the spin values.

    Equilibrium states of both ensembles are macrostates; nu_i is the
    asymptotic fraction of sites carrying spin i.
    """

    nu_minus: float
    nu_zero: float
    nu_plus: float

    def __post_init__(self):
        masses = (self.nu_minus, self.nu_zero, self.nu_plus)
        if not all(math.isfinite(m) for m in masses):
            raise DomainError(f"macrostate masses must be finite, got {masses}")
        if min(masses) < -_MASS_TOL or max(masses) > 1.0 + _MASS_TOL:
            raise DomainError(f"macrostate masses must lie in [0, 1], got {masses}")
        if abs(sum(masses) - 1.0) > _MASS_TOL:
            raise DomainError(f"macrostate masses must sum to 1, got {masses}")

    def mean(self) -> float:
        """Average spin, in [-1, 1]."""
        return self.nu_plus - self.nu_minus

    def quad(self) -> float:
        """Average squared spin (fraction of nonzero sites), in [0, 1]."""
        return self.nu_plus + self.nu_minus

    def isclose(self, other, tol=1e-9) -> bool:
        return (abs(self.nu_minus - other.nu_minus) <= tol
                and abs(self.nu_zero - other.nu_zero) <= tol
                and abs(self.nu_plus - other.nu_plus) <= tol)


UNIFORM = Macrostate(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class CanonicalParams:
    """Inverse temperature beta > 0 and interaction strength K > 0.

    Both are stored as Python floats: a numpy scalar of any precision is
    solved in double precision.
    """

    beta: float
    K: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _positive(self.beta, "beta"))
        object.__setattr__(self, "K", _positive(self.K, "K"))


def energy_domain(K: float) -> tuple[float, float]:
    """Range [min(1-K, 0), 1] of the energy per site at coupling K > 0."""
    return (min(1.0 - _positive(K, "K"), 0.0), 1.0)


def _check_energy(u, domain):
    """u as a Python float, or a DomainError where it is not a finite point
    of domain = energy_domain(K)."""
    u = _real(u, "u")
    lo, hi = domain
    if not (math.isfinite(u) and lo <= u <= hi):
        raise DomainError(
            f"u must lie in the attainable energy range [{lo}, {hi}], got {u}")
    return u


@dataclass(frozen=True)
class MicroParams:
    """Energy per site u and interaction strength K > 0.

    u must lie in the attainable energy range [min(1-K, 0), 1], with no
    slack: its energy shell is nonempty.  Both are stored as Python floats:
    a numpy scalar of any precision is solved in double precision.
    """

    u: float
    K: float

    def __post_init__(self):
        object.__setattr__(self, "K", _positive(self.K, "K"))
        object.__setattr__(self, "u", _check_energy(self.u, energy_domain(self.K)))


# ---------------------------------------------------------------------------
# Cumulant generating function of the tilted single-site measure
# ---------------------------------------------------------------------------

def _curvature(beta):
    """a = 2/(e^beta + 2) = c''(0), the variance of the untilted spin."""
    # 2 e^-beta is 2/(e^beta + 2) to the last bit where e^beta overflows
    return 2.0 / (math.exp(beta) + 2.0) if beta < 700.0 else 2.0 * math.exp(-beta)


def _raw_moments(beta, t):
    """(m1, m2, shift, d): the first two raw moments of the spin under the
    measure with masses proportional to (e^{-beta-t}, 1, e^{-beta+t}), all
    that the derivatives of c read, and the shift and shifted sum d of the
    masses.  Max-shifted so large |t| neither overflows nor underflows; sums
    are grouped so the moments are exactly odd/even under t -> -t."""
    lw_m = -beta - t
    lw_p = -beta + t
    shift = max(0.0, lw_m, lw_p)
    w0 = math.exp(-shift)
    wm = math.exp(lw_m - shift)
    wp = math.exp(lw_p - shift)
    d = w0 + (wm + wp)
    return (wp - wm) / d, (wm + wp) / d, shift, d


def _tilted_moments(beta, t):
    """(c(t), m1, m2): cumulant value and the moments of _raw_moments.

    Up to |t| = 700 the value is c = log1p(2 a sinh(t/2)^2) with a = c''(0),
    which keeps its relative precision as t -> 0 and is exactly zero at
    t = 0; beyond, sinh(t/2)^2 nears overflow and c is the difference of
    the shifted logs, which no longer cancel.
    """
    m1, m2, shift, d = _raw_moments(beta, t)
    if abs(t) <= 700.0:
        c0 = math.log1p(2.0 * _curvature(beta) * math.sinh(0.5 * abs(t)) ** 2)
    else:
        c0 = shift + math.log(d) - math.log1p(2.0 * math.exp(-beta))
    return c0, m1, m2


def _tilted_masses(beta, t):
    """(nu_-, nu_0, nu_+) of the single-site measure tilted by t, max-shifted
    and summed as in _raw_moments: exact mirrors under t -> -t."""
    shift = max(-beta - t, 0.0, -beta + t)
    wm = math.exp(-beta - t - shift)
    w0 = math.exp(-shift)
    wp = math.exp(-beta + t - shift)
    c = w0 + (wm + wp)
    return wm / c, w0 / c, wp / c


def _cumulant_from_moments(m1, m2, order):
    """Cumulant of given order from the raw moments of a {-1,0,1} variable.

    Powers of the spin repeat (odd moments all equal m1, even ones m2), so the
    standard moment-to-cumulant expansions close over (m1, m2).  Elementwise,
    hence valid for scalars and numpy arrays alike.
    """
    if order == 1:
        return m1
    m1sq = m1 * m1
    if order == 2:
        return m2 - m1sq
    if order == 3:
        return m1 * (1.0 - 3.0 * m2 + 2.0 * m1sq)
    if order == 4:
        return m2 - 4.0 * m1sq - 3.0 * m2 * m2 + 12.0 * m2 * m1sq - 6.0 * m1sq * m1sq
    if order == 5:
        return m1 * (1.0 - 15.0 * m2 + 20.0 * m1sq + 30.0 * m2 * m2
                     - 60.0 * m2 * m1sq + 24.0 * m1sq * m1sq)
    if order == 6:
        m2sq = m2 * m2
        return (m2 - 16.0 * m1sq - 15.0 * m2sq + 150.0 * m2 * m1sq
                + 30.0 * m2sq * m2 - 120.0 * m1sq * m1sq - 270.0 * m2sq * m1sq
                + 360.0 * m2 * m1sq * m1sq - 120.0 * m1sq * m1sq * m1sq)
    raise DomainError(f"derivative order must be in 0..6, got {order}")


def _exactly_signed(value, scale, exact):
    """`value`, a float sum of terms whose magnitudes add up to `scale`, or
    exact(Decimal) evaluated at 40 digits where its rounding, bounded by
    2^-51 scale (four roundings), exceeds 1e-10 |value|.  Both ensembles
    take their Landau coefficients through it: their signs decide the
    branches next to the critical curves."""
    if 1e-10 * abs(value) >= 2.0 ** -51 * scale:
        return value
    with decimal.localcontext(decimal.Context(prec=40)):
        return float(exact(decimal.Decimal))


def _finite(x, name):
    """x as a Python float, or a DomainError naming it where it is not
    finite; the TypeError of _real where it is no real number."""
    x = _real(x, name)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def cumulant(beta: float, t: float, order: int = 0) -> float:
    """Derivative of order `order` (0..6) of the cumulant generating function

        c(t) = log[(1 + e^-beta (e^t + e^-t)) / (1 + 2 e^-beta)].

    Derivatives at t are the cumulants of the exp(t y)-tilted single-site
    measure, written in closed form from its first two raw moments; e.g.
    c'(t) = 2 e^-beta sinh t / (1 + 2 e^-beta cosh t) and
    c'''(t) = c'(t) (1 - 3 m2 + 2 c'(t)^2).  No numerical differentiation
    is involved; finite differences appear only in the test suite.
    """
    beta = _positive(beta, "beta")
    t = _finite(t, "t")
    if order not in (0, 1, 2, 3, 4, 5, 6):
        raise DomainError(f"derivative order must be in 0..6, got {order}")
    if order == 0:
        return _tilted_moments(beta, t)[0]
    return _cumulant_from_moments(*_raw_moments(beta, t)[:2], order)


# ---------------------------------------------------------------------------
# Measures, energy and entropy
# ---------------------------------------------------------------------------

def single_site_measure(beta: float) -> Macrostate:
    """Quadratically tilted single-site measure (e^-beta, 1, e^-beta)/(1+2e^-beta)."""
    return Macrostate(*_tilted_masses(_positive(beta, "beta"), 0.0))


def energy_per_site(mu: Macrostate, K: float) -> float:
    """Mean energy per site (mu_1 + mu_-1) - K (mu_1 - mu_-1)^2."""
    m = mu.mean()
    return mu.quad() - K * m * m


def rel_entropy(mu: Macrostate, base: Macrostate) -> float:
    """Relative entropy sum_i mu_i log(mu_i / base_i), with 0 log 0 = 0.

    Against the uniform base this is sum_i mu_i log(3 mu_i), the large-deviation
    rate of the empirical spin frequencies.
    """
    total = 0.0
    for m, b in ((mu.nu_minus, base.nu_minus), (mu.nu_zero, base.nu_zero),
                 (mu.nu_plus, base.nu_plus)):
        if b <= 0.0:
            raise DomainError("base measure must have strictly positive masses")
        if m > 0.0:
            total += m * math.log(m / b)
    return total


# ---------------------------------------------------------------------------
# Cramer rate function of the magnetization
# ---------------------------------------------------------------------------

def mean_tilt(beta: float, z: float) -> float:
    """Unique tilt t with c'(t) = z, for |z| < 1.

    This is also the derivative of the Cramer rate function at z.  With
    a = e^-beta and x = e^t, c'(t) = z is the quadratic
    a(1-z) x^2 - z x - a(1+z) = 0, so for y = |z| the tilt is
    log1p(N / (2a(1-y))) with N = y + r - 2a(1-y), r = sqrt(y^2 + 4a^2 s^2)
    and s = sqrt(1-y^2).  N is summed as positive terms, which leaves no
    cancellation at small y or small a.  Where 2a(1-y) is not a normal float
    the tilt is taken in logs, with log a = -beta exactly.  Exactly odd in z.
    """
    beta, z = _positive(beta, "beta"), _real(z, "z")
    if not abs(z) < 1.0:
        raise DomainError(f"mean must satisfy |z| < 1, got {z}")
    if z == 0.0:
        return 0.0
    y = abs(z)
    a = math.exp(-beta)
    lo, hi = math.sqrt(1.0 - y), math.sqrt(1.0 + y)
    s2a = 2.0 * a * (lo * hi)
    # N = y + (r - 2as) + 2a(s - (1-y)), each difference in closed form
    n = y + y * (y / (math.hypot(y, s2a) + s2a)) + 4.0 * a * y * lo / (hi + lo)
    d = 2.0 * a * (1.0 - y)
    if d >= sys.float_info.min and (xm1 := n / d) < math.inf:
        t = math.log1p(xm1)
    else:
        big = math.log(n) - math.log(2.0 * (1.0 - y)) + beta
        t = big + math.log1p(math.exp(-big))
    return t if z > 0.0 else -t


def cramer_rate(beta: float, z: float) -> float:
    """Cramer rate of the magnetization: sup_t { t z - c(t) } for |z| <= 1.

    For |z| < 1 the supremum sits at the tilt t* = mean_tilt(beta, z), the
    closed-form root of c'(t*) = z; at z = +-1 the root diverges but the
    rate stays finite with the analytic limit beta + log(1 + 2 e^-beta), the
    relative entropy of a pure +-1 state.
    """
    beta, z = _positive(beta, "beta"), _real(z, "z")
    if not (math.isfinite(z) and abs(z) <= 1.0):
        raise DomainError(f"mean must satisfy |z| <= 1, got {z}")
    if z == 0.0:
        return 0.0
    if abs(z) == 1.0:
        return beta + math.log1p(2.0 * math.exp(-beta))
    t = mean_tilt(beta, z)
    return t * z - _tilted_moments(beta, t)[0]


# ---------------------------------------------------------------------------
# Ensemble rate functions
# ---------------------------------------------------------------------------

def canonical_rate(mu: Macrostate, params: CanonicalParams) -> float:
    """Canonical large-deviation rate R(mu|uniform) + beta*energy - free energy.

    Nonnegative, and zero exactly on the canonical equilibrium set.
    """
    from .canonical import canonical_free_energy  # solver builds on this module

    return (rel_entropy(mu, UNIFORM)
            + params.beta * energy_per_site(mu, params.K)
            - canonical_free_energy(params))


def micro_rate(mu: Macrostate, params: MicroParams) -> float:
    """Microcanonical rate: R(mu|uniform) + s(u) on the energy shell, inf off it.

    Shell membership is tested as |energy_per_site(mu, K) - u| <= 1e-9.
    """
    from .micro import micro_entropy

    if abs(energy_per_site(mu, params.K) - params.u) > 1e-9:
        return math.inf
    return rel_entropy(mu, UNIFORM) + micro_entropy(params)
