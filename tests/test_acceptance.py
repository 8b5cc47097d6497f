"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math

import numpy as np

from conftest import GAP_CLUSTER_TOL, assert_sets_close, sampled_gap_intervals

from begphase.canonical import (
    dual_route_minimum,
    first_order_coupling,
    second_order_coupling,
    solve_canonical,
)
from begphase.core import BETA_C, CanonicalParams, MicroParams
from begphase.diagram import (
    equivalence_report,
    simplex_oracle,
    tricritical_micro,
)
from begphase.limits import (
    classify_minimum,
    conditioned_clt_check,
    convergence_diagnostic,
    exact_spin_pmf,
    metropolis_sampler,
)
from begphase.micro import solve_micro


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_tricritical_canonical_constant():
    val = second_order_coupling(math.log(4.0))
    closed = 3.0 / (2.0 * math.log(4.0))
    ok = abs(val - closed) < 1e-12 and abs(val - 1.0820) < 5e-5
    report(1, ok, f"coupling at log 4 = {val!r} vs 3/(2 log 4) = {closed!r}")


def test_criterion_02_tricritical_micro_constant():
    _, k_star = tricritical_micro()
    ok = abs(k_star - 1.0813) < 1e-3
    report(2, ok, f"convexity/second-order intersection K = {k_star:.6f} "
                  f"(target 1.0813 +- 1e-3)")


def test_criterion_03_duality_identity():
    rng = np.random.default_rng(2024)
    worst_val = 0.0
    worst_arg = 0.0
    for _ in range(50):
        params = CanonicalParams(rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0))
        dual_val, dual_args = dual_route_minimum(params)
        sol = solve_canonical(params)
        worst_val = max(worst_val, abs(dual_val - sol.min_value))
        assert len(dual_args) == len(sol.z_points)
        for a, b in zip(dual_args, sol.z_points):
            worst_arg = max(worst_arg, abs(a - b))
    ok = worst_val < 1e-9 and worst_arg < 1e-8
    report(3, ok, f"50 draws: worst value gap {worst_val:.2e} (< 1e-9), "
                  f"worst argmin gap {worst_arg:.2e} (< 1e-8)")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(20):
        beta = rng.uniform(0.4, 2.8)
        K = rng.uniform(0.3, 2.2)
        sol = solve_canonical(CanonicalParams(beta, K))
        minima, _ = simplex_oracle("canonical", beta=beta, K=K, grid_step=5e-4)
        assert_sets_close(sol.macrostates, minima, tol=2e-3)
    for _ in range(20):
        K = rng.uniform(0.4, 2.2)
        lo = min(1.0 - K, 0.0)
        u = rng.uniform(lo + 0.05, 0.95)
        sol = solve_micro(MicroParams(u, K))
        minima, _ = simplex_oracle("micro", u=u, K=K, tol=5e-4, grid_step=5e-4)
        assert_sets_close(sol.macrostates, minima, tol=2e-3)
    report(4, True, "20 canonical + 20 microcanonical instances within 2e-3 "
                    "per component of the 5e-4 simplex scan")


def test_criterion_05_branch_structure():
    delta = 1e-4
    counts = {}
    for beta in (0.7, 1.0, BETA_C):
        kc2 = second_order_coupling(beta)
        counts[beta] = tuple(
            len(solve_canonical(CanonicalParams(beta, K)).z_points)
            for K in (kc2 - delta, kc2, kc2 + delta))
        assert counts[beta] == (1, 1, 2)
    for beta in (2.0, 3.0):
        kc1 = first_order_coupling(beta)
        counts[beta] = tuple(
            len(solve_canonical(CanonicalParams(beta, K)).z_points)
            for K in (kc1 - delta, kc1, kc1 + delta))
        assert counts[beta] == (1, 3, 2)
    report(5, True, f"branch counts around the critical couplings: {counts}")


def test_criterion_06_continuity_versus_jump():
    kc2 = second_order_coupling(1.0)
    ladder2 = [max(solve_canonical(CanonicalParams(1.0, kc2 + d)).z_points)
               for d in (1e-2, 1e-3, 1e-4)]
    ok2 = ladder2[0] > ladder2[1] > ladder2[2] > 0.0

    kc1 = first_order_coupling(2.0)
    z_at = max(solve_canonical(CanonicalParams(2.0, kc1)).z_points)
    # regression constant confirmed by the solver itself
    ok1 = abs(z_at - 0.768242030211) < 1e-6 and z_at > 0.1
    ladder1 = [max(solve_canonical(CanonicalParams(2.0, kc1 + d)).z_points)
               for d in (1e-2, 1e-3, 1e-4)]
    ok1 = ok1 and all(z >= z_at for z in ladder1)
    report(6, ok2 and ok1,
           f"continuous ladder {[f'{z:.4f}' for z in ladder2]} shrinks to 0; "
           f"first-order ladder stays above z = {z_at:.6f} > 0.1")


def test_criterion_07_limit_law_constants():
    ktri = 3.0 / (2.0 * math.log(4.0))
    rep = classify_minimum(CanonicalParams(BETA_C, ktri), 0.0)
    ok6 = rep.r == 3 and abs(rep.derivative_values[2] - 162.0) < 1e-9
    kc2 = second_order_coupling(1.0)
    rep2 = classify_minimum(CanonicalParams(1.0, kc2), 0.0)
    ok4 = rep2.r == 2 and rep2.derivative_values[1] > 0.0
    report(7, ok6 and ok4,
           f"sixth derivative at the tricritical point = "
           f"{rep.derivative_values[2]!r} (== 162 within 1e-9); type at "
           f"(1, Kc2) is r = {rep2.r} with positive fourth derivative")


def test_criterion_08_asymptotic_distribution_ladders():
    ns = [500, 1000, 2000]
    results = {}
    results["r=1"] = convergence_diagnostic(ns, CanonicalParams(1.0, 1.0))
    kc2 = second_order_coupling(1.0)
    results["r=2"] = convergence_diagnostic(ns, CanonicalParams(1.0, kc2))
    ktri = 3.0 / (2.0 * math.log(4.0))
    results["r=3"] = convergence_diagnostic(ns, CanonicalParams(BETA_C, ktri))
    ok = all(v[0] > v[1] > v[2] for v in results.values())
    cond = [conditioned_clt_check(n, CanonicalParams(1.0, 1.5)) for n in
            (1000, 2000)]
    ok = ok and cond[0] > cond[1]
    detail = {k: [f"{x:.2e}" for x in v] for k, v in results.items()}
    detail["conditioned"] = [f"{x:.2e}" for x in cond]
    report(8, ok, f"KS ladders strictly decreasing: {detail}")


def test_criterion_09_variance_identity():
    params = CanonicalParams(1.0, 1.0)
    sigma2 = classify_minimum(params, 0.0).sigma2
    gaps = []
    for n in (1000, 4000):
        pmf = exact_spin_pmf(n, params)
        gaps.append(abs(pmf.var() / n - sigma2) / sigma2)
    ok = gaps[1] < 0.05 and gaps[1] < gaps[0]
    report(9, ok, f"n Var(S_n/n) vs sigma^2 = {sigma2:.6f}: relative gaps "
                  f"{gaps[0]:.4f} (n=1000) -> {gaps[1]:.4f} (n=4000)")


def test_criterion_10_nonequivalence_regime():
    sampled = sampled_gap_intervals(1.0817)
    ok_sampled = len(sampled) == 1
    # the gap opens at the canonical value 0, so the sampled lower end is the
    # first sampled micro |z| above the cluster tolerance, within the 8e-4
    # refinement target of it
    s_lo, s_hi = sampled[0] if ok_sampled else (math.nan, math.nan)
    ok_sampled = ok_sampled and GAP_CLUSTER_TOL < s_lo <= GAP_CLUSTER_TOL + 8e-4
    rep = equivalence_report(1.0817)
    ok_gap = rep.verdict == "nonequivalent" and len(rep.gap_intervals) == 1
    # exactly: from 0 (realized by both) to the canonical jump, both ends
    # within the sampling resolution of the sampled ones
    lo, hi = rep.gap_intervals[0] if ok_gap else (math.nan, math.nan)
    ok_gap = (ok_gap and lo == 0.0 and abs(hi - 0.0946349454213502) < 1e-12
              and abs(lo - s_lo) < 2e-3 and abs(hi - s_hi) < 2e-3)
    rep2 = equivalence_report(1.5)
    ok_eq = rep2.verdict == "equivalent" and len(rep2.gap_intervals) == 0
    report(10, ok_sampled and ok_gap and ok_eq,
           f"K=1.0817 -> {rep.verdict} with gap {rep.gap_intervals}, sampled "
           f"{sampled}; K=1.5 -> {rep2.verdict}")


def test_criterion_11_metropolis_cross_check():
    params = CanonicalParams(1.0, 1.0)
    res = metropolis_sampler(50, params, 10 ** 6, seed=12345)
    pmf = exact_spin_pmf(50, params)
    tv = 0.5 * float(np.abs(res.s_probs - pmf.probabilities).sum())
    ok = tv < 0.02
    report(11, ok, f"10^6 single-site steps at n=50: total variation to the "
                   f"exact law = {tv:.4f} (< 0.02)")
