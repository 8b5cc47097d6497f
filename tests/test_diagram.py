import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sampled_gap_intervals

from begphase import canonical
from begphase.canonical import (
    BETA_MAX,
    dual_route_minimum,
    first_order_coupling,
    second_order_coupling,
    solve_canonical,
)
from begphase.core import (
    BETA_C,
    CanonicalParams,
    DomainError,
    MicroParams,
    single_site_measure,
)
from begphase.diagram import (
    _default_beta_grid,
    beta_c1_of_K,
    beta_c2_of_K,
    equivalence_report,
    nonequivalence_gap,
    simplex_oracle,
    sweep_canonical,
    sweep_micro,
    tricritical_canonical,
    tricritical_micro,
    u_c1_of_K,
    u_c2_of_K,
)
from begphase.micro import first_order_coupling_u, second_order_coupling_u, solve_micro


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


@pytest.mark.parametrize("K", [1.0, 0.5])
def test_first_order_inversion_refuses_K_at_most_one(K):
    # Kc1(beta) > 1 at every finite beta; in floating point it rounds to 1
    # from beta ~ 37 on, and K = 1 used to come back as BETA_MAX
    with pytest.raises(DomainError, match="exceeds 1 at every finite beta"):
        beta_c1_of_K(K)


def test_equivalence_at_unit_coupling_keeps_the_base_beta_grid(monkeypatch):
    from begphase import diagram

    betas = []

    def spy(params):
        betas.append(params.beta)
        return solve_canonical(params)

    monkeypatch.setattr(diagram, "solve_canonical", spy)
    rep = equivalence_report(1.0)
    assert rep.verdict == "equivalent"
    assert betas and max(betas) <= 8.0


def test_invert_micro_second_order_curve():
    K = second_order_coupling_u(0.5)
    assert abs(u_c2_of_K(K) - 0.5) < 1e-6


@pytest.mark.parametrize("K", [1.01, 1.05, 1.081, 1.0812])
def test_invert_micro_first_order_curve(K):
    # up to the tricritical coupling ~ 1.0812965
    assert abs(first_order_coupling_u(u_c1_of_K(K)) - K) <= 1e-9


@pytest.mark.parametrize("K", [1.001, 1.003])
def test_invert_micro_first_order_curve_near_one(K):
    # Kc1(u) -> 1 as u -> 0, so the bracket starts at u = 1e-15; from
    # u = 0.02 these couplings (below Kc1(0.02) = 1.00324) were not attained
    u = u_c1_of_K(K)
    assert 1e-15 < u < 0.02
    assert abs(first_order_coupling_u(u) - K) <= 1e-9


def test_invert_first_order_curve_near_one():
    # the bracket reaches BETA_MAX; from beta = 12 a coupling below
    # Kc1(12) = 1.0000005 was not attained
    K = 1.0000001
    beta = beta_c1_of_K(K)
    assert 12.0 < beta < BETA_MAX
    assert abs(first_order_coupling(beta) - K) <= 1e-9


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


def test_sweep_canonical_transition_order_at_log4_decimal():
    # the README's decimal for log 4 lies within BETA_SNAP_TOL of BETA_C, so
    # its record, which labels the row's transition order, is continuous
    beta = 1.3862944
    rows, curves = sweep_canonical([beta], [1.0])
    assert rows[0].transition_order == 2
    assert curves[0].k_second_order is not None


def test_tangency_derived_once_per_beta(monkeypatch):
    # a sweep derives each beta's critical record once, for its curves; the
    # rows and a standalone solve select their minimizers by value and
    # derive no tangency
    calls = []
    tangency = canonical.tangency

    def counting(beta):
        calls.append(beta)
        return tangency(beta)

    monkeypatch.setattr(canonical, "tangency", counting)
    sweep_canonical([2.0, 3.0], [1.0, 1.05, 1.1, 1.3])
    assert calls == [2.0, 3.0]
    calls.clear()
    sol = solve_canonical(CanonicalParams(2.0, 1.1))
    assert sol.phase_label == "pair"
    assert calls == []


def test_sweep_rows_carry_the_optimal_value():
    rows, _ = sweep_canonical([1.0, 2.0], [0.9, 1.05, 1.3])
    for r in rows:
        assert r.value == solve_canonical(CanonicalParams(*r.control)).min_value
    rows, _ = sweep_micro([0.25, 0.5], [1.0, 1.6])
    for r in rows:
        assert r.value == solve_micro(MicroParams(*r.control)).entropy


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


def test_equivalence_above_the_canonical_tricritical_coupling():
    # above 3/(2 log 4) ~ 1.08202 both ensembles grow |z| continuously from 0
    rep = equivalence_report(1.0821)
    assert rep.verdict == "equivalent"
    assert rep.gap_intervals == () and rep.gap_measure == 0.0


# (K, lo, hi) of the gap [lo, hi), to 12 digits: lo from u_c1 bisected to
# 1e-15, where the report's 1e-9 bisection leaves up to 7e-9, hi from the
# 60-digit roots of REFERENCE_TIES.  At K = 1.0817, above the microcanonical
# tricritical coupling, it opens at 0
EXACT_GAPS = [
    (1.001, 0.991592544255, 0.994397306120),
    (1.02, 0.875690846472, 0.909528769434),
    (1.05, 0.668821319138, 0.730172146496),
    (1.0812, 0.0456522002434, 0.150116418875),
    (1.0817, 0.0, 0.0946349454214),
]


@pytest.mark.parametrize("K, lo, hi", EXACT_GAPS)
def test_equivalence_gap_is_exact(K, lo, hi):
    rep = equivalence_report(K)
    assert rep.verdict == "nonequivalent"
    (g_lo, g_hi), = rep.gap_intervals
    assert abs(g_lo - lo) < 1e-8 and abs(g_hi - hi) < 1e-12
    assert rep.gap_measure == g_hi - g_lo
    # hi is the canonical jump: the dual route's well just past beta_c1
    _, args = dual_route_minimum(CanonicalParams(beta_c1_of_K(K),
                                                 K * (1.0 + 1e-9)))
    assert abs(max(abs(z) for z in args) - g_hi) < 1e-5
    # the values solved at the default grid points respect the gap, and
    # beta_c1 itself contributes the tie {0, z_c}
    assert not any(g_lo < z < g_hi for z in rep.canonical_z)
    assert g_hi in rep.canonical_z
    assert any(g_lo <= z < g_hi for z in rep.micro_z)


# (K, beta_c1, z_c): 60-digit roots of h(beta, w) = 0 and
# c'(w)/w = 1/(2 beta K) in the unknowns (beta, w^2), with z_c = c'(w).
# K_c* - 10^-k is the float tricritical_canonical() minus 10^-k
_KS = tricritical_canonical()
REFERENCE_TIES = [
    (1.001, 5.2270653596929645392, 0.99439730612043092341),
    (1.02, 2.6990110495177380098, 0.90952876943396795771),
    (1.05, 1.9020099377217236413, 0.73017214649558251517),
    (1.0812, 1.4000304237997002411, 0.15011641887537310851),
    (1.0817, 1.3917014675404633, 0.094634945421350176503),
    (_KS - 1e-4, 1.3879822509538066974, 0.052987384669197184574),
    (_KS - 1e-6, 1.3863112625330957191, 0.0053073977450579121964),
    (_KS - 1e-7, 1.3862960512818483106, 0.0016783715572187595952),
    (_KS - 1e-8, 1.3862945301362935411, 0.00053074848068506087621),
    (_KS - 1e-10, 1.3862943628100571383, 5.3074892309049107023e-5),
    (_KS - 1e-11, 1.386294361288909192, 1.6783850033079012407e-5),
    (_KS - 1e-12, 1.3862943611367958984, 5.3080566951117863797e-6),
]


@pytest.mark.parametrize("K, beta, z_c", REFERENCE_TIES)
def test_canonical_tie_matches_60_digit_roots(K, beta, z_c):
    # z_c moves by eps K/(K_c* - K) relative per ulp of K, and log 4 itself
    # is a float: that is the bound next to K_c*
    assert abs(beta_c1_of_K(K) - beta) <= 1e-12
    (_, hi), = nonequivalence_gap(K)
    assert abs(hi / z_c - 1.0) <= max(1e-12, 1e-15 / (_KS - K))


_GAP_KS = st.one_of(
    st.floats(1.0, _KS, exclude_min=True, exclude_max=True),
    st.floats(3.0, 13.0).map(lambda x: _KS - 10.0 ** -x),
    st.floats(3.0, 12.0).map(lambda x: 1.0 + 10.0 ** -x))


@settings(max_examples=25, deadline=None)
@given(_GAP_KS, _GAP_KS)
def test_gap_upper_end_is_total_and_monotone(K1, K2):
    # every K in (1, K_c*) has its tie, solved to the last ulp of K; z_c
    # falls with K to within the accuracy bound of the reference test
    his = []
    for K in sorted((K1, K2)):
        (_, hi), = nonequivalence_gap(K)
        assert abs(first_order_coupling(beta_c1_of_K(K)) - K) <= 1e-15
        his.append((hi, max(1e-12, 1e-15 / (_KS - K))))
    (hi1, tol1), (hi2, tol2) = his
    assert hi2 <= hi1 * (1.0 + tol1 + tol2)


def test_equivalence_gap_lower_end_near_the_micro_tricritical_coupling():
    # 6.5e-6 below K_m*, where z_m varies fast with u: the well at (u_c1, K)
    # read 0.0118273, 6e-6 off; the tie at u_c1's own coupling is 1.6e-8 off
    (lo, hi), = nonequivalence_gap(1.08129)
    assert abs(lo - 0.0118210297456) < 3e-8
    assert abs(hi - 0.141850511333) < 1e-8


@pytest.mark.parametrize("dK", [1e-10, 3e-10])
def test_equivalence_gap_at_the_end_of_the_micro_inversion(dK):
    # u_c1_of_K does not attain K within 2.2e-10 below K_m*, and the tie
    # (z_m < 1.5e-3 within 1e-7 of K_m*) is not resolved there: lo reads 0
    # or a few 1e-5, and hi the canonical jump, which moves by about 150 dK
    K_m = tricritical_micro()[1]
    rep = equivalence_report(K_m - dK)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert 0.0 <= lo < 1.5e-3
    (_, hi_m), = nonequivalence_gap(K_m)
    assert abs(hi - hi_m) < 1e-7


def test_equivalence_gap_at_the_end_of_the_canonical_inversion():
    # beta_c1_of_K stopped 6e-11 below K_c*, where a bracket end stood in
    # for the transition; it now attains K, and the jump shrinks to 0 like
    # 5.3 (K_c* - K)^(1/2)
    rep = equivalence_report(tricritical_canonical() - 1e-11)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert lo == 0.0 and abs(hi / 1.6783850033079e-5 - 1.0) < 1e-4


def test_equivalence_in_the_snap_band():
    # beta_c1 = log 4 + 1.7e-9 lies within BETA_SNAP_TOL above log 4 there,
    # and K equals Kc2(beta_c1) to the last ulp: a solve at that grid point
    # raises a RuntimeError from the type ladder, so the report takes the
    # tie there (z_c moves by 1.1e-6 relative per ulp of K here, so K is
    # spelled out)
    rep = equivalence_report(3.0 / (2.0 * math.log(4.0)) - 1e-10)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert lo == 0.0 and abs(hi / 5.3074833384128412e-5 - 1.0) < 1e-5


def test_equivalence_gap_next_to_unit_coupling():
    # u_c1_of_K does not attain K within 3e-13 above 1.  There z_c ~ 1 -
    # 2.7e-12 and z_m ~ 1 - 4e-12 (1 - z_m ~ 1.5 (1 - z_c) as K -> 1), finer
    # than the microcanonical inversion resolves, and lo is capped at hi
    rep = equivalence_report(1.0 + 1e-13)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert 1.0 - 5e-12 < lo <= hi < 1.0 - 2e-12


def test_equivalence_gap_matches_the_sampled_oracle():
    # the adaptive sampling the exact ends replaced resolves them to its
    # 8e-4 refinement target and its 1e-3 cluster tolerance
    (lo, hi), = equivalence_report(1.05).gap_intervals
    (s_lo, s_hi), = sampled_gap_intervals(1.05)
    assert abs(lo - s_lo) < 2e-3 and abs(hi - s_hi) < 2e-3


@pytest.mark.parametrize("beta", [10.0, 20.0])
def test_default_beta_grid_above_its_base_grid(beta):
    # beta_c1 above the base grid's top of 8 left no room to approach it
    # from above, and the grid filled with NaN
    K = first_order_coupling(beta)
    b_star = beta_c1_of_K(K)
    grid = _default_beta_grid(K)
    assert all(math.isfinite(b) and 0.0 < b <= BETA_MAX for b in grid)
    assert b_star in grid
    assert sum(b_star < b <= b_star + 2.0 for b in grid) == 70
