import math

import numpy as np
import pytest

from begphase.canonical import first_order_coupling, second_order_coupling, solve_canonical
from begphase.core import BETA_C, CanonicalParams, DomainError, single_site_measure
from begphase.diagram import (
    beta_c1_of_K,
    beta_c2_of_K,
    equivalence_report,
    simplex_oracle,
    sweep_canonical,
    sweep_micro,
    tricritical_canonical,
    tricritical_micro,
    u_c1_of_K,
    u_c2_of_K,
)
from begphase.micro import first_order_coupling_u, second_order_coupling_u


# ---------------------------------------------------------------------------
# tricritical points
# ---------------------------------------------------------------------------

def test_tricritical_canonical():
    assert abs(tricritical_canonical() - 3.0 / (2.0 * math.log(4.0))) < 1e-15
    assert abs(tricritical_canonical() - 1.0820) < 5e-5


def test_tricritical_micro():
    u_star, k_star = tricritical_micro()
    assert abs(k_star - 1.0813) < 1e-3
    assert 0.3 < u_star < 1.0 / 3.0
    # root of two closed forms: the origin-band top meets the second-order curve
    assert abs(u_star - 0.330343829) < 1e-9
    assert abs(k_star - 1.081296450) < 1e-9


def test_tricritical_separation():
    _, k_micro = tricritical_micro()
    gap = tricritical_canonical() - k_micro
    assert 4e-4 < gap < 1e-3   # ~7e-4


# ---------------------------------------------------------------------------
# curve inversion
# ---------------------------------------------------------------------------

def test_invert_second_order_curve():
    assert abs(beta_c2_of_K(tricritical_canonical()) - BETA_C) < 1e-6
    assert abs(beta_c2_of_K(second_order_coupling(1.0)) - 1.0) < 1e-4


def test_invert_first_order_curve():
    K = 1.05
    beta = beta_c1_of_K(K)
    assert beta > BETA_C
    assert abs(first_order_coupling(beta) - K) < 1e-8
    with pytest.raises(DomainError):
        beta_c1_of_K(1.5)   # defined only below the canonical tricritical


def test_invert_micro_second_order_curve():
    K = second_order_coupling_u(0.5)
    assert abs(u_c2_of_K(K) - 0.5) < 1e-6


@pytest.mark.parametrize("K", [1.01, 1.05, 1.081, 1.0812])
def test_invert_micro_first_order_curve(K):
    # up to the tricritical coupling ~ 1.0812965
    assert abs(first_order_coupling_u(u_c1_of_K(K)) - K) <= 1e-9


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_canonical_topology():
    betas = [0.7, 1.0, BETA_C, 2.0, 3.0]
    Ks = [0.8, 1.05, 1.3]
    rows, curves = sweep_canonical(betas, Ks)
    assert len(rows) == len(betas) * len(Ks)
    by_beta = {c.beta: c for c in curves}
    for beta in (0.7, 1.0, BETA_C):
        c = by_beta[beta]
        assert c.k_second_order is not None and c.k_first_order is None
    for beta in (2.0, 3.0):
        c = by_beta[beta]
        assert c.k_tangent < c.k_first_order < c.k_spinodal
    # both critical curves decrease and meet near the tricritical coupling
    kc2s = [by_beta[b].k_second_order for b in (0.7, 1.0, BETA_C)]
    assert kc2s[0] > kc2s[1] > kc2s[2]
    kc1s = [first_order_coupling(b) for b in (1.5, 2.0, 3.0, 5.0)]
    assert all(a > b for a, b in zip(kc1s, kc1s[1:]))
    assert abs(by_beta[BETA_C].k_second_order
               - first_order_coupling(BETA_C + 1e-3)) < 1e-2


def test_sweep_canonical_threads_deterministic():
    betas = [0.8, 1.1, 2.2]
    Ks = [0.9, 1.2]
    rows1, _ = sweep_canonical(betas, Ks, threads=1)
    rows2, _ = sweep_canonical(betas, Ks, threads=3)
    assert [r.control for r in rows1] == [r.control for r in rows2]
    assert [r.minimizers for r in rows1] == [r.minimizers for r in rows2]


def test_sweep_canonical_transition_order_at_log4_decimal():
    # the README's decimal for log 4 lies within BETA_SNAP_TOL of BETA_C, so
    # the row takes the continuous branch, as solve_canonical does
    beta = 1.3862944
    rows, curves = sweep_canonical([beta], [1.0])
    assert rows[0].transition_order == 2
    assert curves[0].k_second_order is not None


def test_sweep_micro():
    us = [0.25, 0.4, 0.5]
    Ks = [1.0, 1.6]
    rows, curves = sweep_micro(us, Ks)
    by_u = {c.u: c for c in curves}
    assert abs(by_u[0.5].k_second_order - 1.0 / math.log(2.0)) < 1e-12
    orders = {r.control: r.transition_order for r in rows}
    assert orders[(0.25, 1.0)] == 1      # below the convexity curve
    assert orders[(0.5, 1.6)] == 2       # above it
    assert by_u[0.25].k_first_order is not None
    assert by_u[0.5].k_first_order is None


# ---------------------------------------------------------------------------
# order-parameter continuity along fixed-K paths
# ---------------------------------------------------------------------------

def _largest_jump(K, betas):
    ops = [max(abs(z) for z in solve_canonical(CanonicalParams(b, K)).z_points)
           for b in betas]
    i = int(np.argmax(np.abs(np.diff(ops))))
    return abs(ops[i + 1] - ops[i]), betas[i], betas[i + 1]


def test_continuity_for_large_coupling():
    # K above both tricritical values: refining the grid shrinks the largest
    # order-parameter step (no genuine jump)
    K = 1.5
    b_star = beta_c2_of_K(K)
    coarse = np.linspace(b_star - 0.05, b_star + 0.05, 21)
    jump, b1, b2 = _largest_jump(K, coarse)
    fine = np.linspace(b1, b2, 21)
    jump_fine, _, _ = _largest_jump(K, fine)
    assert jump_fine < 0.5 * jump


def test_jump_for_small_coupling():
    # K below both tricritical values: the jump survives refinement
    K = 1.05
    b_star = beta_c1_of_K(K)
    coarse = np.linspace(b_star - 0.05, b_star + 0.05, 21)
    jump, b1, b2 = _largest_jump(K, coarse)
    fine = np.linspace(b1, b2, 21)
    jump_fine, _, _ = _largest_jump(K, fine)
    assert jump_fine > 0.8 * jump
    assert jump_fine > 0.1


# ---------------------------------------------------------------------------
# simplex oracle
# ---------------------------------------------------------------------------

def test_oracle_unique_phase():
    minima, _ = simplex_oracle("canonical", beta=1.0, K=0.5, grid_step=1e-3)
    rho = single_site_measure(1.0)
    assert len(minima) <= 3
    for m in minima:
        assert m.isclose(rho, tol=2e-3)


def test_oracle_micro_uniform():
    minima, value = simplex_oracle("micro", u=2.0 / 3.0, K=1.0, grid_step=1e-3)
    assert value < 1e-5
    for m in minima:
        assert abs(m.nu_minus - 1.0 / 3.0) < 2e-3


def test_oracle_symmetric_pair_clusters():
    minima, _ = simplex_oracle("canonical", beta=1.0, K=1.5, grid_step=1e-3)
    ups = [m for m in minima if m.mean() > 0]
    downs = [m for m in minima if m.mean() < 0]
    assert ups and downs
    for m in ups:
        mirror = any(abs(m.nu_minus - d.nu_plus) < 1e-12
                     and abs(m.nu_zero - d.nu_zero) < 1e-12 for d in downs)
        assert mirror


def test_oracle_validation():
    with pytest.raises(DomainError):
        simplex_oracle("canonical", beta=1.0, K=1.0, grid_step=0.5)
    with pytest.raises(DomainError):
        simplex_oracle("banana", beta=1.0, K=1.0)
    with pytest.raises(DomainError):
        simplex_oracle("micro", K=1.0)


# ---------------------------------------------------------------------------
# equivalence (light case; the paper-regime cases run in the acceptance suite)
# ---------------------------------------------------------------------------

def test_equivalence_no_transition_coupling():
    rep = equivalence_report(0.5)
    assert (len(rep.gap_intervals) > 0) == (rep.verdict == "nonequivalent")
    assert rep.verdict == "equivalent"
    assert rep.gap_measure == 0.0
