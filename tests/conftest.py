"""Shared helpers: independent oracles and random-state generators."""

import itertools
import math
from array import array

import numpy as np
from scipy.special import gammaln, logsumexp

from begphase.canonical import (positive_well, solve_canonical, tangency,
                                tilt_potential)
from begphase.core import CanonicalParams, DomainError, Macrostate, MicroParams
from begphase.diagram import _default_beta_grid, _default_u_grid
from begphase.limits import _PROPOSALS, MetropolisResult
from begphase.micro import solve_micro
from begphase.rootfind import _landau_starts, bisect_newton


def central_diff(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def random_macrostates(rng, count):
    return [Macrostate(*pt) for pt in rng.dirichlet((1.0, 1.0, 1.0), size=count)]


def brute_force_spin_pmf(n, beta, K):
    """Total-spin law by full 3^n configuration enumeration."""
    masses = {}
    for cfg in itertools.product((-1, 0, 1), repeat=n):
        S = sum(cfg)
        Q = sum(c * c for c in cfg)
        w = math.exp(-beta * Q + beta * K * S * S / n)
        masses[S] = masses.get(S, 0.0) + w
    total = sum(masses.values())
    return np.array([masses.get(k, 0.0) / total for k in range(-n, n + 1)])


def summed_spin_pmf(n, beta, K):
    """Total-spin law by multinomial summation, O(n^2): for each k the
    masses of all (n_+, n_-) with n_+ - n_- = k are summed in log space."""
    lgfact = gammaln(np.arange(n + 1) + 1.0)
    half = np.empty(n + 1)
    for k in range(n + 1):
        n_minus = np.arange(0, (n - k) // 2 + 1)
        n_plus = n_minus + k
        n_zero = n - n_plus - n_minus
        terms = (lgfact[n] - lgfact[n_plus] - lgfact[n_minus] - lgfact[n_zero]
                 - beta * (n_plus + n_minus) + beta * K * k * k / n)
        half[k] = logsumexp(terms)
    log_w = np.concatenate([half[:0:-1], half])
    probs = np.exp(log_w - logsumexp(log_w))
    return probs / probs.sum()


def well_depth(beta, K):
    """Tilt-potential value at the positive well, relative to the value 0 at
    the origin.  Continuous and strictly decreasing in K on [k_tangent, inf);
    positive just above tangency, negative beyond the spinodal.  Its unique
    zero is the first-order coupling."""
    w1, k1, _ = tangency(beta)
    params = CanonicalParams(beta, K)
    if params.K < k1 - 1e-12:
        raise DomainError(f"well depth defined for K >= {k1} at beta = {beta}, "
                          f"got {K}")
    w = w1 if params.K <= k1 + 1e-12 else positive_well(beta, K)
    return tilt_potential(params, w, 0)


#: Largest n whose 3^n configurations are enumerated (exact_config_probs)
#: and tallied (reference_metropolis).
CONFIG_TALLY_MAX_N = 8


def exact_config_probs(n, params):
    """Exact ensemble probabilities over all 3^n configurations, indexed by
    base-3 code sum_j 3^j (spin_j + 1).  Oracle for sampler stationarity."""
    assert n <= CONFIG_TALLY_MAX_N
    beta, K = params.beta, params.K
    codes = np.arange(3 ** n)
    digits = (codes[:, None] // np.array([3 ** j for j in range(n)])) % 3 - 1
    S = digits.sum(axis=1)
    Q = (digits * digits).sum(axis=1)
    log_w = -beta * Q + beta * K * S * S / n
    probs = np.exp(log_w - logsumexp(log_w))
    return probs / probs.sum()


def reference_metropolis(n, params, steps, seed):
    """The Metropolis chain of metropolis_sampler by its first per-step loop:
    the spin, S, Q, the acceptance count and the configuration code are all
    updated at every step.  Oracle for the sampler's tallies, which are
    recovered from the per-step changes of S instead.  Returns the
    MetropolisResult and the empirical law over all 3^n configurations,
    indexed as in exact_config_probs (None for n > CONFIG_TALLY_MAX_N)."""
    beta, K = params.beta, params.K
    bK = beta * K
    m = min(n, steps)
    moves = []
    for s, props in zip((-1, 0, 1), _PROPOSALS):
        pair = []
        for prop in props:
            ds, dq = prop - s, prop * prop - s * s
            des = (beta * dq - bK * (2 * S * ds + ds * ds) / n
                   for S in range(-m, m + 1))
            pair.append((prop, ds, dq,
                         [1.0 if de <= 0.0 else math.exp(-de) for de in des]))
        moves.append(pair)
    rng = np.random.default_rng(seed)
    state = [0] * n
    S = 0
    Q = 0
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    acc = 0
    sum_s = 0
    sum_q = 0
    tally_configs = n <= CONFIG_TALLY_MAX_N
    if tally_configs:
        config_counts = np.zeros(3 ** n, dtype=np.int64)
        pow3 = [3 ** j for j in range(n)]
        code = sum(pow3[j] * (state[j] + 1) for j in range(n))
    done = 0
    while done < steps:
        block = min(65536, steps - done)
        sites = memoryview(rng.integers(0, n, size=block))
        picks = memoryview(rng.integers(0, 2, size=block))
        us = memoryview(rng.random(block))
        s_buf = array("i")
        code_buf = array("i")
        for jsite, pick, u in zip(sites, picks, us):
            s = state[jsite]
            prop, ds, dq, row = moves[s + 1][pick]
            if u < row[S + m]:
                state[jsite] = prop
                S += ds
                Q += dq
                acc += 1
                if tally_configs:
                    code += ds * pow3[jsite]
            s_buf.append(S)
            sum_s += S
            sum_q += Q
            if tally_configs:
                code_buf.append(code)
        block_s = np.frombuffer(s_buf, dtype=np.intc)
        counts += np.bincount(block_s + n, minlength=2 * n + 1)
        if tally_configs:
            config_counts += np.bincount(np.frombuffer(code_buf, dtype=np.intc),
                                         minlength=3 ** n)
        done += block
    sum_plus = (sum_q + sum_s) >> 1
    sum_zero = steps * n - sum_q
    freq_plus = sum_plus / (steps * n)
    freq_zero = sum_zero / (steps * n)
    spin_freq = Macrostate(1.0 - freq_plus - freq_zero, freq_zero, freq_plus)
    result = MetropolisResult(
        n=n, beta=beta, K=K, steps=steps, seed=seed, s_probs=counts / steps,
        spin_freq=spin_freq, acceptance_rate=acc / steps)
    return result, config_counts / steps if tally_configs else None


def reference_piecewise_minima(fp, fpp, fppp, cuts, lo, hi, *, ends=None,
                               landau=None):
    """The local minimizers of rootfind.piecewise_minima by its first loop:
    every root of f'' between the nodes is found (Newton on f'' from the
    Landau spinodal start inside its piece, else from the root of the
    chord), and f' is then monotone between consecutive points, each sign
    change from - to + a minimum.  Oracle for the search that decides most
    pieces from the end signs of f' alone."""
    if hi <= lo:
        return [lo]
    nodes = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    well, spinodals = _landau_starts(landau)
    vals = [fpp(x) for x in nodes]
    roots, last = [], None
    for i, fb in enumerate(vals):
        if fb == 0.0:
            continue
        if last is not None and (fb < 0.0) != (vals[last] < 0.0):
            a, b, fa = nodes[last], nodes[i], vals[last]
            start = a - fa * ((b - a) / (fb - fa))
            for s in spinodals:
                if a < s < b:
                    start = s
                    break
            roots.append(nodes[last + 1] if last < i - 1 else bisect_newton(
                fpp, fppp, a, b, start=start, ends=(fa, fb)))
        last = i
    xs = sorted(nodes + roots)
    flo, fhi = (fp(lo), fp(hi)) if ends is None else ends
    d = [-1.0, flo] + [fp(x) for x in xs[1:-1]] + [fhi, 1.0]
    xs = [lo] + xs + [hi]
    mins = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        if d[i] < 0.0 < d[i + 1]:
            mins.append(a if a == b else bisect_newton(
                fp, fpp, a, b, start=well, ends=(d[i], d[i + 1])))
        elif d[i + 1] == 0.0 and d[i] < 0.0 < d[i + 2]:
            mins.append(b)
    return mins


def constrained_mean_entropy(beta, z, step=1e-4):
    """min R(mu | tilted single-site measure) over mu with mean z, by a dense
    1-D scan (the mean constraint leaves one free mass) plus one local
    refinement pass around the scan argmin."""
    e = math.exp(-beta)
    base = np.array([e, 1.0, e]) / (1.0 + 2.0 * e)
    lo = max(0.0, -z)
    hi = (1.0 - z) / 2.0

    def values(nm):
        npl = nm + z
        nz = 1.0 - nm - npl
        ok = (npl >= -1e-15) & (nz >= -1e-15)
        stacked = np.stack([nm, np.maximum(nz, 0.0), np.maximum(npl, 0.0)],
                           axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(stacked > 0, stacked * np.log(stacked / base), 0.0)
        out = terms.sum(axis=1)
        out[~ok] = np.inf
        return out

    nm = np.arange(lo, hi + step, step)
    vals = values(nm)
    i = int(np.argmin(vals))
    a = nm[max(i - 1, 0)]
    b = nm[min(i + 1, len(nm) - 1)]
    fine = values(np.linspace(a, b, 400))
    return float(min(vals[i], fine.min()))


def assert_sets_close(solver_macs, oracle_macs, tol):
    """Every solver macrostate has an oracle neighbor within tol per
    component, and vice versa."""
    def close(a, b):
        return (abs(a.nu_minus - b.nu_minus) <= tol
                and abs(a.nu_zero - b.nu_zero) <= tol
                and abs(a.nu_plus - b.nu_plus) <= tol)

    for m in solver_macs:
        assert any(close(m, o) for o in oracle_macs), \
            f"solver state {m} unmatched by oracle"
    for o in oracle_macs:
        assert any(close(o, m) for m in solver_macs), \
            f"oracle state {o} unmatched by solver"


# ---------------------------------------------------------------------------
# Sampled equivalence oracle: the adaptive sampling that estimated the
# nonequivalence gap before it was computed from the critical points
# ---------------------------------------------------------------------------

#: Order-parameter values closer than this are considered realized by both
#: ensembles when hunting for microcanonical-only gaps.
GAP_CLUSTER_TOL = 1e-3


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


def sampled_gap_intervals(K):
    """Bands of |z| realized only microcanonically at K, estimated from the
    default grids refined adaptively until realized values are dense (steps
    below GAP_CLUSTER_TOL) away from genuine jumps.  A microcanonical value
    counts as canonically realized when a canonical value lies within
    GAP_CLUSTER_TOL; leftover values are merged into intervals and intervals
    wider than 3 * GAP_CLUSTER_TOL constitute the gap.  An interval end is a
    sampled micro |z|, so the lower end of a gap that opens at the canonical
    value 0 is the first sample above GAP_CLUSTER_TOL, resolved only to the
    8e-4 refinement target.
    """
    beta_grid = _default_beta_grid(K)
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
    return tuple((a, b) for a, b in intervals if b - a > 3.0 * GAP_CLUSTER_TOL)
