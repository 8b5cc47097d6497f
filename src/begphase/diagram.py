"""Phase-diagram sweeps, critical-curve inversion, tricritical points,
ensemble-equivalence reports and the brute-force simplex oracle.

The solvers of this package work at fixed coupling-like parameters; physical
phase transitions live on the other axes (inverse temperature for the
canonical ensemble, energy per site for the microcanonical one).  This module
sweeps grids, inverts the monotone critical curves onto the physical axes,
locates both tricritical couplings and compares the sets of order-parameter
values the two ensembles realize at a fixed coupling.  For couplings strictly
between the microcanonical and canonical tricritical values the canonical
order parameter jumps while the microcanonical one moves continuously, so a
band of magnetizations is realized only microcanonically: the ensembles are
nonequivalent there at the level of equilibrium macrostates.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .canonical import (
    _continuous_branch,
    canonical_criticals,
    first_order_coupling,
    second_order_coupling,
    solve_canonical,
)
from .core import (
    BETA_C,
    CanonicalParams,
    DomainError,
    Macrostate,
    MicroParams,
    energy_domain,
)
from .micro import (
    MicroCriticals,
    _origin_band,
    first_order_coupling_u,
    micro_criticals,
    second_order_coupling_u,
    solve_micro,
)
from .rootfind import BracketError, bisect_monotone

#: Order-parameter values closer than this are considered realized by both
#: ensembles when hunting for microcanonical-only gaps.
GAP_CLUSTER_TOL = 1e-3


@dataclass(frozen=True)
class PhaseDiagramRow:
    """One grid point of a sweep: minimizers, order parameter and labels."""

    ensemble: str              # 'canonical' | 'micro'
    control: tuple             # (beta, K) or (u, K)
    minimizers: tuple
    order_parameter: float
    branch: str                # 'unique' | 'pair' | 'triple'
    transition_order: int | None


@dataclass(frozen=True)
class EquivalenceReport:
    """Order-parameter sets realized by each ensemble at a fixed coupling.

    gap_intervals lists maximal bands of |z| values realized only
    microcanonically (clusters wider than 3 * GAP_CLUSTER_TOL); the verdict
    is 'nonequivalent' exactly when gap_intervals is nonempty.  An interval
    end is a sampled micro |z|, so the lower end of a gap that opens at the
    canonical value 0 is the first sample above GAP_CLUSTER_TOL: it is
    resolved only to the 8e-4 refinement target and moves within that
    width under tiny shifts of the grid.
    """

    K: float
    canonical_z: np.ndarray
    micro_z: np.ndarray
    gap_intervals: tuple
    gap_measure: float
    verdict: str


def tricritical_canonical() -> float:
    """Coupling where the canonical transition changes order:
    the second-order coupling at BETA_C, i.e. 3/(2 log 4) ~ 1.0820."""
    return second_order_coupling(BETA_C)


def tricritical_micro() -> tuple:
    """(u, K) where the microcanonical transition changes order, K ~ 1.0812965.

    There the quadratic and the quartic Landau coefficients of the shell
    rate at z = 0 vanish together: the second-order curve meets the top of
    the origin band, which is the convexity threshold for u <= 1/3.  Both
    are closed forms, so u is their crossing on [0.30, 1/3], bisected to
    1e-15.
    """
    u_star = bisect_monotone(
        lambda u: _origin_band(u)[1] - second_order_coupling_u(u),
        0.30, 1.0 / 3.0, 0.0, tol=1e-15)
    return u_star, second_order_coupling_u(u_star)


# ---------------------------------------------------------------------------
# Critical-curve inversion onto the physical axes
# ---------------------------------------------------------------------------

def invert_critical_curve(curve, K: float, lo: float, hi: float,
                          tol: float = 1e-9) -> float:
    """Control value x in [lo, hi] with curve(x) = K, for monotone curves.

    Bisection to `tol`; raises DomainError naming the attainable interval
    when K lies outside the curve's range on [lo, hi].
    """
    try:
        return bisect_monotone(curve, lo, hi, K, tol=tol)
    except BracketError as exc:
        raise DomainError(f"K = {K} is not attained by the curve: {exc}") from exc


def beta_c2_of_K(K: float, beta_lo: float = 0.02, tol: float = 1e-9) -> float:
    """Inverse temperature of the second-order canonical transition at K.

    Defined for K above the canonical tricritical coupling; the second-order
    curve decreases from second_order_coupling(beta_lo) down to the
    tricritical value at BETA_C.
    """
    return invert_critical_curve(second_order_coupling, K, beta_lo, BETA_C,
                                 tol=tol)


def beta_c1_of_K(K: float, beta_hi: float = 12.0, tol: float = 1e-9) -> float:
    """Inverse temperature of the first-order canonical transition at K.

    Defined for K below the canonical tricritical coupling and above the
    value of the first-order curve at beta_hi (the curve decreases toward 1
    for large beta but never provably reaches it).
    """
    return invert_critical_curve(first_order_coupling, K,
                                 BETA_C + 1e-9, beta_hi, tol=tol)


def u_c2_of_K(K: float, tol: float = 1e-9) -> float:
    """Energy per site of the second-order microcanonical transition at K.

    Uses the increasing branch of the second-order critical curve between the
    tricritical energy and 2/3 (where the curve diverges).
    """
    u_star, _ = tricritical_micro()
    return invert_critical_curve(second_order_coupling_u, K, u_star,
                                 2.0 / 3.0 - 1e-9, tol=tol)


def u_c1_of_K(K: float, u_lo: float = 0.02, tol: float = 1e-9) -> float:
    """Energy per site of the first-order microcanonical transition at K.

    Uses the first-order critical curve, which increases from u_lo up to the
    tricritical energy u* (where it meets the second-order curve), so K is
    attained between Kc1(u_lo) and the tricritical coupling.
    """
    u_star, _ = tricritical_micro()
    return invert_critical_curve(first_order_coupling_u, K, u_lo,
                                 u_star - 1e-9, tol=tol)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _maybe_parallel(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def sweep_canonical(beta_grid, K_grid, threads: int = 1):
    """(rows, curves) over a (beta, K) grid.

    rows holds one PhaseDiagramRow per grid point, sorted by (beta, K);
    curves holds canonical_criticals(beta) per beta.  Grid points are
    independent work items; results are canonicalized by sorting, so the
    output does not depend on scheduling.
    """
    betas = sorted(float(b) for b in beta_grid)
    Ks = sorted(float(K) for K in K_grid)
    curves = _maybe_parallel(canonical_criticals, betas, threads)

    def row(bk):
        beta, K = bk
        sol = solve_canonical(CanonicalParams(beta, K))
        return PhaseDiagramRow(
            ensemble="canonical", control=(beta, K), minimizers=sol.z_points,
            order_parameter=max(abs(z) for z in sol.z_points),
            branch=sol.phase_label,
            transition_order=2 if _continuous_branch(beta) else 1)

    rows = _maybe_parallel(row, [(b, K) for b in betas for K in Ks], threads)
    return rows, curves


def sweep_micro(u_grid, K_grid, threads: int = 1, with_convexity: bool = True):
    """(rows, curves) over a (u, K) grid; inadmissible pairs are skipped.

    curves holds micro_criticals(u) per u; with_convexity=False keeps only
    the second-order coupling, skipping the first-order coupling along with
    the convexity threshold.
    """
    us = sorted(float(u) for u in u_grid)
    Ks = sorted(float(K) for K in K_grid)

    def crit(u):
        if with_convexity:
            return micro_criticals(u)
        k2 = second_order_coupling_u(u) if 0.0 < u < 2.0 / 3.0 else None
        return MicroCriticals(u=u, k_second_order=k2)

    curves = _maybe_parallel(crit, us, threads)
    crit_by_u = dict(zip(us, curves))

    def row(uk):
        u, K = uk
        lo, hi = energy_domain(K)
        if not lo <= u <= hi:
            return None
        sol = solve_micro(MicroParams(u, K))
        crit_u = crit_by_u[u]
        # the transition in K at this u is discontinuous exactly when it has
        # a first-order coupling (z = 0 destabilizes inside the non-convex band)
        order = None
        if crit_u.k_second_order is not None:
            order = 1 if crit_u.k_first_order is not None else 2
        return PhaseDiagramRow(
            ensemble="micro", control=(u, K), minimizers=sol.z_points,
            order_parameter=max(abs(z) for z in sol.z_points),
            branch=sol.phase_label, transition_order=order)

    rows = _maybe_parallel(row, [(u, K) for u in us for K in Ks], threads)
    return [r for r in rows if r is not None], curves


# ---------------------------------------------------------------------------
# Ensemble equivalence at fixed coupling
# ---------------------------------------------------------------------------

def _fill_gaps(controls, values, solver, budget=4000, target=8e-4):
    """Insert control points until realized |z| values step by at most
    `target` (except across genuine jumps, where refinement bottoms out)."""
    pts = sorted(zip(controls, values))
    rounds = 0
    while len(pts) < budget and rounds < 60:
        inserts = []
        for (c1, v1), (c2, v2) in zip(pts, pts[1:]):
            if abs(v2 - v1) > target and c2 - c1 > 1e-12:
                inserts.append(0.5 * (c1 + c2))
        if not inserts:
            break
        for c in inserts[: budget - len(pts)]:
            pts.append((c, solver(c)))
        pts.sort()
        rounds += 1
    return pts


def _realized(grid, solve):
    """Sorted array of |z| values realized over the refined control grid.

    solve(control) returns a solution with z_points; each control is solved
    once, and the refinement's own solves supply the realized values.
    """
    solved = {}

    def op(control):
        solved[control] = solve(control).z_points
        return max(abs(z) for z in solved[control])

    pts = _fill_gaps(list(grid), [op(c) for c in grid], op)
    return np.array(sorted({abs(z) for c, _ in pts for z in solved[c]}))


def _default_beta_grid(K):
    base = list(np.linspace(0.3, 8.0, 40))
    try:
        if K >= tricritical_canonical():
            b_star = beta_c2_of_K(K)
        else:
            b_star = beta_c1_of_K(K)
    except DomainError:
        return sorted(base)
    approach = list(b_star + np.geomspace(1e-7, min(2.0, 8.0 - b_star), 70))
    below = [b_star * f for f in (0.7, 0.9, 0.99, 0.9999)]
    return sorted(b for b in base + approach + below + [b_star] if b > 0)


def _default_u_grid(K):
    u_min, u_max = energy_domain(K)
    eps = 1e-9
    base = list(np.linspace(u_min + eps, u_max - eps, 40))
    try:
        if K >= tricritical_micro()[1]:
            u_star = u_c2_of_K(K)
        else:
            u_star = u_c1_of_K(K)
    except DomainError:
        return sorted(base)
    span = u_star - u_min - eps
    approach = list(u_star - np.geomspace(1e-8, span, 80))
    above = [u_star + (u_max - u_star) * f for f in (1e-4, 0.01, 0.1, 0.5)]
    return sorted(u for u in base + approach + above + [u_star]
                  if u_min + eps <= u <= u_max - eps)


def equivalence_report(K: float, beta_grid=None, u_grid=None) -> EquivalenceReport:
    """Compare the order-parameter sets realized by the two ensembles at K.

    Both grids are refined adaptively until realized values are dense (steps
    below GAP_CLUSTER_TOL) away from genuine jumps; by default they are built
    around the inverted transition points.  A microcanonical value counts as
    canonically realized when a canonical value lies within GAP_CLUSTER_TOL;
    leftover values are merged into intervals and intervals wider than
    3 * GAP_CLUSTER_TOL constitute the nonequivalence gap.
    """
    if not (math.isfinite(K) and K > 0.0):
        raise DomainError(f"K must be finite and positive, got {K}")
    if beta_grid is None:
        beta_grid = _default_beta_grid(K)
    if u_grid is None:
        u_grid = _default_u_grid(K)
    canon = _realized(beta_grid, lambda b: solve_canonical(CanonicalParams(b, K)))
    mic = _realized(u_grid, lambda u: solve_micro(MicroParams(u, K)))

    idx = np.searchsorted(canon, mic)
    left = np.abs(mic - canon[np.clip(idx - 1, 0, len(canon) - 1)])
    right = np.abs(mic - canon[np.clip(idx, 0, len(canon) - 1)])
    only = mic[np.minimum(left, right) > GAP_CLUSTER_TOL]

    intervals = []
    if len(only):
        start = prev = only[0]
        for v in only[1:]:
            if v - prev > 10.0 * GAP_CLUSTER_TOL:
                intervals.append((start, prev))
                start = v
            prev = v
        intervals.append((start, prev))
    gaps = tuple((a, b) for a, b in intervals if b - a > 3.0 * GAP_CLUSTER_TOL)
    measure = sum(b - a for a, b in gaps)
    verdict = "nonequivalent" if gaps else "equivalent"
    return EquivalenceReport(K=K, canonical_z=canon, micro_z=mic,
                             gap_intervals=gaps, gap_measure=measure,
                             verdict=verdict)


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
    the scanned minimum.
    """
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
        return _micro_shell_scan(u, K, N, tol)
    log3 = math.log(3.0)

    def row_values(i):
        nm = i / N
        npl = np.arange(0, N - i + 1) / N
        nz = 1.0 - nm - npl
        ent = (xlogy(nm, nm) + xlogy(npl, npl) + xlogy(np.maximum(nz, 0.0), nz)
               + log3)
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
        vals = (xlogy(nm, nm) + xlogy(npl_c, npl_c) + xlogy(nz_c, nz_c)
                + math.log(3.0))
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
