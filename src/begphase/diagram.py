"""Phase-diagram sweeps, critical-curve inversion, tricritical points,
ensemble-equivalence reports and the brute-force simplex oracle.

The solvers of this package work at fixed coupling-like parameters; physical
phase transitions live on the other axes (inverse temperature for the
canonical ensemble, energy per site for the microcanonical one).  This module
sweeps grids, inverts the monotone critical curves onto the physical axes,
locates both tricritical couplings and compares the sets of order-parameter
values the two ensembles realize at a fixed coupling.  For 1 < K < 3/(2 log 4)
the canonical order parameter jumps from 0 to a well farther out than the
microcanonical one reaches by its own jump (or by its continuous growth, above
the microcanonical tricritical coupling), so a band of magnetizations is
realized only microcanonically: the ensembles are nonequivalent there at the
level of equilibrium macrostates.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .canonical import (
    _KC_STAR,
    BETA_MAX,
    _canonical_minima,
    _check_beta,
    _first_order_tie,
    _kc2_slope,
    canonical_criticals,
    second_order_coupling,
    solve_canonical,
)
from .core import (
    BETA_C,
    PHASE_LABELS,
    CanonicalParams,
    DomainError,
    Macrostate,
    MicroParams,
    _check_energy,
    _positive,
    _real,
    energy_domain,
)
from .micro import (
    K_STAR,
    U_STAR,
    _first_order_coupling_u,
    _log_odds,
    _micro_minima,
    micro_criticals,
    solve_micro,
)
from .rootfind import bisect_newton, last_point

@dataclass(frozen=True)
class PhaseDiagramRow:
    """One grid point of a sweep: minimizers, order parameter, labels and
    the optimal value (the potential minimum G_min for canonical rows, the
    entropy for micro rows)."""

    ensemble: str              # 'canonical' | 'micro'
    control: tuple             # (beta, K) or (u, K)
    minimizers: tuple
    order_parameter: float
    branch: str                # 'unique' | 'pair' | 'triple'
    transition_order: int | None
    value: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Order-parameter sets realized by each ensemble at a fixed coupling.

    Every field is computed when the report is made: K, the grids (those
    given, or the defaults) as tuples of floats, gap_intervals, gap_measure,
    verdict and beta_c1.  canonical_z and micro_z are solved on first read.

    gap_intervals holds the band [z_m, z_c) of |z| values realized only
    microcanonically, one interval for 1 < K < K_c* = 3/(2 log 4) and none
    otherwise: z_c = w*/(2 beta K) from the tie tilt w* at beta_c1(K), which
    both ensembles realize, and z_m the tied microcanonical well at u_c1(K)
    below the microcanonical tricritical coupling K_m*, 0 from K_m* on.  lo is
    included when positive (0 is realized by both), hi is excluded.  The
    verdict is 'nonequivalent' exactly when gap_intervals is nonempty.  Both
    ends are Newton roots: hi to max(1e-12, 1e-15/(K_c* - K)) relative and
    lo to max(1e-12, 1e-15/(K_m* - K)) relative or 5e-14 absolute, the
    scale on which each moves per ulp of K next to its tricritical coupling.
    beta_c1 is beta_c1(K) where the gap is nonempty, else None.

    canonical_z and micro_z are the |z| values solved at the points of
    beta_grid and u_grid, except at beta_c1, where the tie gives {0, z_c}: a
    solve at the float beta_c1 answers for that float, whose rounding moves
    its well off z_c.
    """

    K: float
    beta_grid: tuple
    u_grid: tuple
    gap_intervals: tuple
    gap_measure: float
    verdict: str
    beta_c1: float | None

    @cached_property
    def canonical_z(self) -> np.ndarray:
        b, K = self.beta_c1, self.K
        tie = (0.0, self.gap_intervals[0][1]) if b in self.beta_grid else ()
        return np.union1d(tie, _realized(
            [x for x in self.beta_grid if x != b],
            lambda x: solve_canonical(CanonicalParams(x, K))))

    @cached_property
    def micro_z(self) -> np.ndarray:
        return _realized(self.u_grid, lambda u: solve_micro(MicroParams(u, self.K)))


def tricritical_canonical() -> float:
    """Coupling where the canonical transition changes order:
    the second-order coupling at BETA_C, i.e. 3/(2 log 4) ~ 1.0820."""
    return _KC_STAR


def tricritical_micro() -> tuple:
    """(u*, K_m*) = (micro.U_STAR, micro.K_STAR) ~ (0.33034, 1.0812965),
    where the microcanonical transition changes order.

    There the quadratic and the quartic Landau coefficients of the shell
    rate at z = 0 vanish together: the second-order curve meets the top of
    the origin band, which is the convexity threshold C(u) for u <= 1/3.
    U_STAR is the float nearest that root and the last float of the
    first-order regime: the first-order coupling is defined at u* and not at
    the next float up.
    """
    return U_STAR, K_STAR


# ---------------------------------------------------------------------------
# Critical-curve inversion onto the physical axes
# ---------------------------------------------------------------------------

def beta_c2_of_K(K: float) -> float:
    """Inverse temperature of the second-order canonical transition at K.

    The second-order curve e^beta/(4 beta) + 1/(2 beta) falls from its value
    at beta = 0.02 to K_c* at BETA_C, so one Newton search with its
    closed-form slope attains every K between.  It starts from 3/(4K - 1),
    where the curve's lower bound 3/(4 beta) + 1/4 reaches K: left of the
    root, from where Newton on the convex curve approaches it from one side.
    """
    K = _real(K, "K")
    k_lo, k_hi = _KC_STAR, second_order_coupling(0.02)
    if not k_lo <= K <= k_hi:
        raise DomainError(
            f"K = {K} has no second-order canonical transition on "
            f"[0.02, log 4]: the second-order coupling falls from {k_hi} at "
            f"beta = 0.02 to K_c* = {k_lo} at log 4")
    return bisect_newton(lambda b: second_order_coupling(b) - K, _kc2_slope,
                         0.02, BETA_C, start=3.0 / (4.0 * K - 1.0),
                         ends=(k_hi - K, k_lo - K))


def beta_c1_of_K(K: float) -> float:
    """Inverse temperature of the first-order canonical transition at K.

    Kc1(beta) falls from K_c* at BETA_C toward 1, staying above 1 at every
    finite beta (it rounds to 1 from beta ~ 37 on), so every float K between
    has its beta_c1.  It is the beta of one Newton solve in (beta, w) of the
    tie h = w c' - 2c = 0 and the stationarity w/(2 beta c'(w)) = K
    (canonical._first_order_tie): 1 to 9 evaluations of the tie kernel,
    started on the tangent of the second-order curve at log 4 (of slope
    _kc2_slope(log 4) = -0.0591659) or, from beta = 2.2 on, on the
    asymptote Kc1 - 1 ~ e^-beta/beta.
    """
    return _beta_c1_tie(K)[0]


def _beta_c1_tie(K):
    """(beta_c1(K), (K, w*)): the tie record (Kc1, w*) of the joint solve,
    whose coupling is K, with the tied tilt w* at index 1."""
    K = _real(K, "K")
    if not 1.0 < K < _KC_STAR:
        raise DomainError(
            f"K = {K} has no first-order canonical transition: the first-order "
            f"coupling Kc1(beta) falls from {_KC_STAR} at log 4 and exceeds 1 "
            f"at every finite beta")
    b, w = _first_order_tie(K)
    return b, (K, w)


def u_c2_of_K(K: float) -> float:
    """Energy per site of the second-order microcanonical transition at K.

    The second-order curve 1/(2u lambda(u)) rises from K_m* at the
    tricritical energy u* to +inf at u = 2/3, where lambda(2/3) = 0; one
    Newton search on 2u lambda(u) - 1/K, with its closed-form slope
    2(lambda - 1/(1-u)), attains every K from K_m* on.  It starts where the
    tangent 6(2/3 - u) of the concave 2u lambda at 2/3 reaches 1/K, right
    of the root, from where Newton approaches it from one side.
    """
    K = _real(K, "K")
    if not K_STAR <= K < math.inf:
        raise DomainError(
            f"K = {K} has no second-order microcanonical transition: the "
            f"second-order coupling rises from K_m* = {K_STAR} at u* = "
            f"{U_STAR} to +inf at u = 2/3")

    def excess(u):
        # closed forms at the ends: 1/K_m* at u*, and 0 at 2/3; the float
        # 2/3 lies 3.7e-17 below it, where 2u lambda reads 2.2e-16 and would
        # leave K above 4.5e15 unattained
        if U_STAR < u < 2.0 / 3.0:
            return 2.0 * u * _log_odds(u) - 1.0 / K
        return (1.0 / K_STAR if u == U_STAR else 0.0) - 1.0 / K

    return bisect_newton(excess, lambda u: 2.0 * (_log_odds(u) - 1.0 / (1.0 - u)),
                         U_STAR, 2.0 / 3.0, start=min(2.0 / 3.0 - 1.0 / (6.0 * K),
                                                      math.nextafter(2.0 / 3.0, 0.0)))


def u_c1_of_K(K: float) -> float:
    """Energy per site of the first-order microcanonical transition at K.

    Kc1(u) rises from 1 as u -> 0 to K_m* at the tricritical energy u*,
    where it meets the second-order curve, so one Newton search on [0, u*]
    with its envelope slope, and the closed forms at both ends, attains
    every float K between.  Kc1 meets k2 tangentially at u*, and the search
    starts where that tangent reaches K (from the midpoint where it does so
    below u = 0).
    """
    return _u_c1_tie(K)[0]


def _u_c1_tie(K):
    """(u_c1(K), _first_order_coupling_u(u_c1(K))): the tie of the last
    Newton iterate, read back from last_point, or solved at u* where the
    search ends on that closed-form end."""
    K = _real(K, "K")
    if not 1.0 < K < K_STAR:
        raise DomainError(
            f"K = {K} has no first-order microcanonical transition: the "
            f"first-order coupling Kc1(u) rises from 1 as u -> 0 to K_m* = "
            f"{K_STAR} at u* = {U_STAR}")
    tie = last_point(_first_order_coupling_u)
    slope = 2.0 * K_STAR * K_STAR * (1.0 / (1.0 - U_STAR) - _log_odds(U_STAR))
    u = bisect_newton(
        lambda u: (1.0 if u == 0.0 else K_STAR if u == U_STAR else tie(u)[0]) - K,
        lambda u: tie(u)[2], 0.0, U_STAR, start=U_STAR - (K_STAR - K) / slope,
        ends=(1.0 - K, K_STAR - K))
    return u, tie(u)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _canonical_row(crit, K):
    zs, best, _ = _canonical_minima(CanonicalParams(crit.beta, K))
    return PhaseDiagramRow(
        ensemble="canonical", control=(crit.beta, K), minimizers=tuple(zs),
        order_parameter=max(abs(z) for z in zs), branch=PHASE_LABELS[len(zs)],
        transition_order=2 if crit.k_first_order is None else 1, value=best)


def sweep_canonical(beta_grid, K_grid):
    """(rows, curves) over a (beta, K) grid.

    rows holds one PhaseDiagramRow per grid point, sorted by (beta, K);
    curves holds canonical_criticals(beta) per beta, which labels the
    transition order of the rows at that beta.
    """
    betas = sorted(float(b) for b in beta_grid)
    Ks = sorted(float(K) for K in K_grid)
    curves = [canonical_criticals(b) for b in betas]
    return [_canonical_row(c, K) for c in curves for K in Ks], curves


def _micro_row(crit, K):
    zs, best, _ = _micro_minima(MicroParams(crit.u, K))
    # the transition in K at this u is discontinuous exactly when it has
    # a first-order coupling (z = 0 destabilizes inside the non-convex band)
    order = None
    if crit.k_second_order is not None:
        order = 1 if crit.k_first_order is not None else 2
    return PhaseDiagramRow(
        ensemble="micro", control=(crit.u, K), minimizers=tuple(zs),
        order_parameter=max(abs(z) for z in zs), branch=PHASE_LABELS[len(zs)],
        transition_order=order, value=-best)


def sweep_micro(u_grid, K_grid):
    """(rows, curves) over a (u, K) grid, sorted by (u, K); inadmissible
    pairs are skipped.

    curves holds micro_criticals(u) per u, which labels the transition
    order of the rows at that u.
    """
    Ks = [(K, *energy_domain(K)) for K in sorted(float(K) for K in K_grid)]
    curves = [micro_criticals(u) for u in sorted(float(u) for u in u_grid)]
    rows = [_micro_row(c, K) for c in curves for K, lo, hi in Ks
            if lo <= c.u <= hi]
    return rows, curves


# ---------------------------------------------------------------------------
# Ensemble equivalence at fixed coupling
# ---------------------------------------------------------------------------

def _realized(grid, solve):
    """Sorted array of the |z| values solve(control).z_points realizes over
    the grid."""
    return np.array(sorted({abs(z) for c in grid for z in solve(c).z_points}))


def _beta_star(K):
    """(beta, tie) of the canonical transition at K: beta_c1(K) and its
    _beta_c1_tie record below K_c*, beta_c2(K) and None from K_c* on, and
    (None, None) where not attained."""
    try:
        return (beta_c2_of_K(K), None) if K >= _KC_STAR else _beta_c1_tie(K)
    except DomainError:
        return None, None


def _u_star(K):
    """(u, tie) of the microcanonical transition at K, as _beta_star."""
    try:
        return (u_c2_of_K(K), None) if K >= K_STAR else _u_c1_tie(K)
    except DomainError:
        return None, None


def _gap_intervals(K, b, b_tie, u_tie):
    """The gap_intervals of EquivalenceReport at 1 < K < K_c*, from
    (b, b_tie) = _beta_c1_tie(K) and u_tie, the record of _u_c1_tie(K),
    which is read only below K_m*.  The canonical |z| jumps from 0 to
    z_c = w*(b)/(2bK), the microcanonical one to the tied well z_m at
    u_c1(K) (or grows from 0 from K_m* on), and both grow from there."""
    lo = 0.0 if K >= K_STAR else u_tie[1]
    return ((lo, b_tie[1] / (2.0 * b * K)),)


def nonequivalence_gap(K: float) -> tuple:
    """The gap_intervals of equivalence_report(K), from the inverted
    critical points alone: no ensemble is solved at any grid point.  Empty
    outside 1 < K < K_c*, where nothing is inverted; from K_m* on the lower
    end is 0, and u_c1(K) is not inverted either."""
    K = _positive(K, "K")
    if not 1.0 < K < _KC_STAR:
        return ()
    return _gap_intervals(K, *_beta_c1_tie(K),
                          _u_c1_tie(K)[1] if K < K_STAR else None)


def _linspace(start, stop, num):
    """np.linspace(start, stop, num).tolist() for num >= 2 and a step
    (stop - start)/(num - 1) that is 0 or normal: numpy's own arithmetic
    i * step + start, with stop as the last point."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _geomspace(start, stop, num):
    """np.geomspace(start, stop, num).tolist() for 0 < start, stop, as numpy
    builds it without its dtype, sign and array machinery: 10 to the power
    of the linspace between the log10 of the ends, with the two exact ends
    put back."""
    logs = _linspace(float(np.log10(start)), float(np.log10(stop)), num)
    grid = np.power(10.0, logs).tolist()
    grid[0], grid[-1] = start, stop
    return grid


# the K-free pieces of the default beta grid, built once, at import, by the
# builders above: a first np.geomspace call raises a process's peak resident
# memory by about 0.4 MB, which nothing else the package does at import needs
_BETA_BASE = _linspace(0.3, 8.0, 40)
_BETA_APPROACH = _geomspace(1e-7, 2.0, 70)


def _beta_grid(b_star):
    """The default beta grid around the canonical transition at b_star (or
    None): 40 points from 0.3 to 8; 70 above b_star at geometric offsets
    from 1e-7 to 2, or to 8 - b_star where b_star lies in (6, 8); b_star
    itself and 4 fractions of it; sorted and cut to (0, BETA_MAX].

    The doubles are those of np.linspace and np.geomspace, bit for bit.  The
    base grid and the offsets up to 2 do not depend on K and are built once,
    at import; the offsets up to 8 - b_star are built per call.  ROADMAP
    item 4 moves the grid path to the tests.
    """
    if b_star is None:
        return sorted(_BETA_BASE)
    # approach up to the base grid's top, or over 2 when b_star lies above it
    span = min(2.0, 8.0 - b_star) if b_star < 8.0 else 2.0
    offsets = _BETA_APPROACH if span == 2.0 else _geomspace(1e-7, span, 70)
    grid = sorted(_BETA_BASE + [b_star + x for x in offsets]
                  + [b_star * f for f in (0.7, 0.9, 0.99, 0.9999)] + [b_star])
    return grid[bisect_right(grid, 0.0):bisect_right(grid, BETA_MAX)]


def _u_grid(K, u_star):
    """The default u grid at K around the microcanonical transition at
    u_star (or None): 40 points across energy_domain(K) pulled in by 1e-9;
    80 below u_star at geometric offsets from 1e-8 down to that range's
    bottom (all at 1e-8 where u_star lies within 1e-8 of it); u_star itself
    and 4 points above it; sorted and cut to the range.

    The doubles are those of np.linspace and np.geomspace, bit for bit.
    Every piece depends on K, so _linspace and _geomspace build them per
    call.  ROADMAP item 4 moves the grid path to the tests.
    """
    u_min, u_max = energy_domain(K)
    eps = 1e-9
    lo, hi = u_min + eps, u_max - eps
    base = _linspace(lo, hi, 40)
    if u_star is None:
        return sorted(base)
    # next to K = 1, u_c1 lies within eps of u_min: nothing to approach from
    span = max(u_star - u_min - eps, 1e-8)
    approach = [u_star - x for x in _geomspace(1e-8, span, 80)]
    above = [u_star + (u_max - u_star) * f for f in (1e-4, 0.01, 0.1, 0.5)]
    grid = sorted(base + approach + above + [u_star])
    return grid[bisect_left(grid, lo):bisect_right(grid, hi)]


def _default_beta_grid(K):
    return _beta_grid(_beta_star(K)[0])


def _default_u_grid(K):
    return _u_grid(K, _u_star(K)[0])


def equivalence_report(K: float, beta_grid=None, u_grid=None) -> EquivalenceReport:
    """Compare the order-parameter sets realized by the two ensembles at K.

    The gap and the verdict are nonequivalence_gap(K), computed here; the
    |z| values at the grid points, by default clustered around the
    transitions the gap comes from, are solved when canonical_z or micro_z
    is first read.  The grids are checked here without solving: a DomainError
    names a beta that is not finite and in (0, BETA_MAX], or a u outside
    energy_domain(K).  An error the bounds cannot see (a tilt 2 beta K that
    leaves the float range, say) surfaces on first read.
    """
    K = _positive(K, "K")
    (b_star, b_tie), (u_star, u_tie) = _beta_star(K), _u_star(K)
    if beta_grid is None:
        beta_grid = _beta_grid(b_star)
    if u_grid is None:
        u_grid = _u_grid(K, u_star)
    beta_grid = tuple(map(_check_beta, beta_grid))
    u_grid = tuple(map(_check_energy, u_grid, repeat(energy_domain(K))))
    gaps = _gap_intervals(K, b_star, b_tie, u_tie) if 1.0 < K < _KC_STAR else ()
    return EquivalenceReport(
        K=K, beta_grid=beta_grid, u_grid=u_grid, gap_intervals=gaps,
        gap_measure=sum(hi - lo for lo, hi in gaps),
        verdict="nonequivalent" if gaps else "equivalent",
        beta_c1=b_star if gaps else None)


# ---------------------------------------------------------------------------
# Brute-force simplex oracle
# ---------------------------------------------------------------------------

def simplex_oracle(kind: str, *, beta: float | None = None, u: float | None = None,
                   K: float, tol: float = 5e-4, grid_step: float = 5e-4):
    """Exhaustive scan of the probability simplex: ground truth for solvers.

    kind 'canonical' minimizes R(mu|uniform) + beta * energy over the whole
    2-simplex grid (two row-chunked passes keep memory flat).  kind 'micro'
    minimizes R(mu|uniform) on the exact energy shell: per grid row nu_minus
    the shell condition is a quadratic in nu_plus, solved exactly, with `tol`
    a residual feasibility slack.  (Masking a grid slab |energy - u| <= tol
    instead would bias minimizers by the slab half-width times the shell
    sensitivity, overwhelming the comparison tolerances the oracle backs.)
    Returns (macrostates, min_value) with every scan point within 1e-9 of
    the scanned minimum.  The parameters are checked as CanonicalParams and
    MicroParams check them, after tol and grid_step.
    """
    if not 1e-14 <= tol <= 1e-2:
        raise DomainError(f"tolerance must lie in [1e-14, 1e-2], got {tol}")
    if not 1e-4 <= grid_step <= 1e-2:
        raise DomainError(f"grid_step must lie in [1e-4, 1e-2], got {grid_step}")
    if kind not in ("canonical", "micro"):
        raise DomainError(f"kind must be 'canonical' or 'micro', got {kind!r}")
    if kind == "canonical" and beta is None:
        raise DomainError("canonical oracle needs beta")
    if kind == "micro" and u is None:
        raise DomainError("micro oracle needs u")
    N = int(round(1.0 / grid_step))
    if kind == "micro":
        params = MicroParams(u, K)
        return _micro_shell_scan(params.u, params.K, N, tol)
    params = CanonicalParams(beta, K)
    beta, K = params.beta, params.K
    log3 = math.log(3.0)

    def row_values(i):
        nm = i / N
        npl = np.arange(0, N - i + 1) / N
        nz = 1.0 - nm - npl
        ent = _xlogx(nm) + _xlogx(npl) + _xlogx(np.maximum(nz, 0.0)) + log3
        energy = (nm + npl) - K * (npl - nm) ** 2
        return ent + beta * energy

    best = np.inf
    for i in range(N + 1):
        m = row_values(i).min()
        if m < best:
            best = m
    minima = []
    for i in range(N + 1):
        vals = row_values(i)
        hits = np.nonzero(vals <= best + 1e-9)[0]
        for j in hits:
            minima.append(Macrostate(i / N, 1.0 - i / N - j / N, j / N))
    return minima, best


def _xlogx(x):
    """x log x elementwise for x >= 0, with 0 log 0 = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _micro_shell_scan(u, K, N, tol):
    nm = np.arange(N + 1) / N
    b = 2.0 * K * nm + 1.0
    c = K * nm * nm - nm + u
    disc = b * b - 4.0 * K * c
    ok0 = disc >= 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    cands = []
    for sign in (1.0, -1.0):
        npl = (b + sign * root) / (2.0 * K)
        nz = 1.0 - nm - npl
        good = (ok0 & (npl >= -1e-12) & (npl <= 1.0 + 1e-12) & (nz >= -1e-12))
        npl_c = np.clip(npl, 0.0, 1.0)
        nz_c = np.maximum(nz, 0.0)
        vals = _xlogx(nm) + _xlogx(npl_c) + _xlogx(nz_c) + math.log(3.0)
        energy = (nm + npl_c) - K * (npl_c - nm) ** 2
        good &= np.abs(energy - u) <= max(tol, 1e-9)
        vals = np.where(good, vals, np.inf)
        cands.append((npl_c, nz_c, vals))
    best = min(float(v.min()) for _, _, v in cands)
    if not np.isfinite(best):
        raise DomainError(f"no scan point reaches the energy shell u = {u}")
    minima = []
    for npl_c, nz_c, vals in cands:
        for i in np.nonzero(vals <= best + 1e-9)[0]:
            minima.append(Macrostate(nm[i], nz_c[i], npl_c[i]))
    # the scan grid is not swap-symmetric, so close the set under the exact
    # spin-flip symmetry of the shell problem
    mirrored = [Macrostate(m.nu_plus, m.nu_zero, m.nu_minus) for m in minima]
    for mm in mirrored:
        if not any(mm.isclose(m, tol=1e-12) for m in minima):
            minima.append(mm)
    return minima, best
