import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from conftest import assert_sets_close, central_diff, second_diff

from begphase.core import DomainError, MicroParams, UNIFORM, rel_entropy
from begphase.diagram import simplex_oracle, sweep_micro, tricritical_micro
from begphase.micro import (
    admissible_domain,
    convexity_threshold,
    first_order_coupling_u,
    micro_criticals,
    micro_entropy,
    second_order_coupling_u,
    shell_macrostate,
    shell_rate,
    solve_micro,
)


def sample_admissible(rng, params, count):
    zs = []
    comps = admissible_domain(params)
    while len(zs) < count:
        lo, hi = comps[rng.integers(0, len(comps))]
        zs.append(float(rng.uniform(lo, hi)))
    return zs


# ---------------------------------------------------------------------------
# shell rate and admissible domain
# ---------------------------------------------------------------------------

def test_shell_rate_collapses_at_uniform_energy():
    for K in (0.5, 1.0, 2.0):
        assert abs(shell_rate(MicroParams(2.0 / 3.0, K), 0.0)) < 1e-15


def test_shell_rate_closed_value_at_origin():
    val = shell_rate(MicroParams(0.4, 1.2), 0.0)
    expect = (0.4 * math.log(0.4) + 0.6 * math.log(0.6)
              - 0.4 * math.log(2.0) + math.log(3.0))
    assert abs(val - expect) < 1e-15


def test_shell_rate_even():
    rng = np.random.default_rng(6)
    params = MicroParams(0.45, 1.7)
    for z in sample_admissible(rng, params, 100):
        assert shell_rate(params, z) == shell_rate(params, -z)


def test_shell_rate_domain_error():
    with pytest.raises(DomainError):
        shell_rate(MicroParams(0.2, 1.0), 0.9)   # q < |z|


def test_admissible_domain_structures():
    comps = admissible_domain(MicroParams(2.0 / 3.0, 1.0))
    assert len(comps) == 1 and comps[0][0] <= 0.0 <= comps[0][1]

    comps = admissible_domain(MicroParams(0.0, 2.0))
    assert len(comps) == 3
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = comps
    assert lo2 == hi2 == 0.0
    assert abs(hi3 - math.sqrt(0.5)) < 1e-12 and abs(lo3 - 0.5) < 1e-12
    assert abs(lo1 + math.sqrt(0.5)) < 1e-12 and abs(hi1 + 0.5) < 1e-12

    for (lo, hi) in admissible_domain(MicroParams(0.3, 1.4)):
        for z in (lo, hi):
            mac = shell_macrostate(MicroParams(0.3, 1.4), z)
            assert min(mac.as_array()) >= -1e-12
            assert max(mac.as_array()) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solve_uniform_energy():
    sol = solve_micro(MicroParams(2.0 / 3.0, 1.0))
    assert sol.z_points == (0.0,)
    assert sol.macrostates[0].isclose(UNIFORM, tol=1e-12)
    assert abs(sol.entropy) < 1e-12


def test_solve_pair_regime():
    # K well above the second-order coupling 1/log 2 ~ 1.4427 at u = 1/2
    sol = solve_micro(MicroParams(0.5, 2.0))
    assert sol.phase_label == "pair"
    assert sol.z_points[1] > 0.0
    assert sol.z_points[0] == -sol.z_points[1]


def test_lift_identities():
    for u, K in ((0.5, 2.0), (0.4, 1.1), (0.25, 1.08)):
        params = MicroParams(u, K)
        sol = solve_micro(params)
        for z, mac in zip(sol.z_points, sol.macrostates):
            assert abs(shell_rate(params, z) - rel_entropy(mac, UNIFORM)) < 1e-12
            q = mac.quad()
            assert abs((q - K * mac.mean() ** 2) - u) < 1e-12
        # injectivity: distinct minimizers lift to distinct macrostates
        for i in range(len(sol.z_points)):
            for j in range(i + 1, len(sol.z_points)):
                assert not sol.macrostates[i].isclose(sol.macrostates[j], tol=1e-9)


def test_solver_matches_constrained_oracle():
    rng = np.random.default_rng(43)
    for _ in range(4):
        K = rng.uniform(0.5, 2.2)
        u = rng.uniform(0.15, 0.9)
        sol = solve_micro(MicroParams(u, K))
        minima, _ = simplex_oracle("micro", u=u, K=K, tol=5e-4, grid_step=5e-4)
        assert_sets_close(sol.macrostates, minima, tol=2e-3)


def test_entropy_values():
    assert abs(micro_entropy(MicroParams(2.0 / 3.0, 0.8))) < 1e-12
    # u = 1 forces all mass onto the +-1 states symmetrically
    assert abs(micro_entropy(MicroParams(1.0, 1.2)) + math.log(1.5)) < 1e-12
    rng = np.random.default_rng(47)
    for _ in range(100):
        K = rng.uniform(0.3, 2.5)
        lo = min(1.0 - K, 0.0)
        u = rng.uniform(lo + 1e-6, 1.0 - 1e-6)
        assert micro_entropy(MicroParams(u, K)) <= 1e-15


# ---------------------------------------------------------------------------
# critical couplings
# ---------------------------------------------------------------------------

def test_second_order_coupling_u_values():
    assert abs(second_order_coupling_u(0.5) - 1.0 / math.log(2.0)) < 1e-12
    assert second_order_coupling_u(0.666) > 100.0
    with pytest.raises(DomainError):
        second_order_coupling_u(2.0 / 3.0)
    with pytest.raises(DomainError):
        second_order_coupling_u(0.0)


def test_second_order_coupling_u_is_curvature_root():
    for u in (0.3, 0.4, 0.5):
        kc2 = second_order_coupling_u(u)
        def curv(K):
            return second_diff(lambda z: shell_rate(MicroParams(u, K), z), 0.0,
                               h=1e-4)
        assert curv(kc2 - 1e-3) > 0.0 > curv(kc2 + 1e-3)
        assert abs(curv(kc2)) < 1e-6


def test_convexity_threshold():
    # frozen from the closed-form origin band edge (1-u)/(2u)(1+sqrt((1-3u)/(3(1-u)))):
    # exactly 2 at u = 1/4
    c = convexity_threshold(0.25)
    assert abs(c - 2.0) < 5e-3
    from begphase.micro import _convexity_indicator
    assert _convexity_indicator(0.25, c + 0.01) is True
    assert _convexity_indicator(0.25, c - 0.01) is False
    with pytest.raises(DomainError):
        convexity_threshold(0.5)


# exact third derivative of the nonlinear shell component, written straight
# from a = q+z, b = q-z, c = 1-q with q = u + K z^2 (test-side oracle; it
# cancels near z = 0, so the scans below start at z = 1e-7 * top)
def phi3_direct(u, K, z):
    q = u + K * z * z
    a, b, c = q + z, q - z, 1.0 - q
    da, db, dc = 2.0 * K * z + 1.0, 2.0 * K * z - 1.0, -2.0 * K * z
    return (0.5 * (3.0 * da * 2.0 * K / a - da ** 3 / a ** 2)
            + 0.5 * (3.0 * db * 2.0 * K / b - db ** 3 / b ** 2)
            + (3.0 * dc * (-2.0 * K) / c - dc ** 3 / c ** 2))


def central_top(u, K):
    return [hi for lo, hi in admissible_domain(MicroParams(u, K))
            if lo <= 0.0 <= hi][0]


def min_phi3_scan(u, K):
    """Minimum of phi3_direct over a dense grid of the positive central
    component: uniform, plus geometric refinement toward 0, toward the top
    and around the pinch point z0 = 1/(2K), then a bounded local refinement
    of the grid minimum."""
    top = central_top(u, K)
    z0 = 0.5 / K
    near = np.geomspace(1e-9, 0.5, 20000)
    zs = np.concatenate([np.linspace(0.0, top, 20001), top * near,
                         top * (1.0 - near), z0 * (1.0 - near),
                         z0 * (1.0 + near)])
    zs = np.unique(zs[(zs >= 1e-7 * top) & (zs < top)])
    vals = phi3_direct(u, K, zs)
    i = int(np.argmin(vals))
    lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, len(zs) - 1)]
    res = minimize_scalar(lambda z: phi3_direct(u, K, z), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-15})
    return min(float(vals[i]), float(res.fun))


def test_phi3_direct_matches_finite_differences():
    from begphase.micro import shell_phi
    for u, K, z in ((0.3, 1.2, 0.2), (0.4, 0.63, 0.75), (0.1, 5.0, 0.05)):
        params = MicroParams(u, K)
        fd = central_diff(
            lambda x: second_diff(lambda y: shell_phi(params, y), x, h=3e-4),
            z, h=3e-4)
        assert abs(fd - phi3_direct(u, K, z)) < 1e-3 * max(1.0, abs(fd))


def test_phi3_quartic_factorization():
    from begphase.micro import _phi3_quartic
    rng = np.random.default_rng(11)
    for _ in range(200):
        K = rng.uniform(0.3, 5.0)
        u = rng.uniform(0.01, 0.9)
        top = central_top(u, K)
        z = rng.uniform(0.05, 0.95) * top
        q = u + K * z * z
        abc = (q + z) * (q - z) * (1.0 - q)
        via_quartic = 2.0 * z * np.polyval(_phi3_quartic(u, K), z * z) / abc ** 2
        direct = phi3_direct(u, K, z)
        assert abs(via_quartic - direct) <= 1e-9 * max(1.0, abs(direct))


def test_convexity_threshold_is_origin_band_top():
    from begphase.micro import _origin_band
    for u in (0.005, 0.01, 0.025, 0.1, 0.25, 0.3333):
        top = _origin_band(u)[1]
        assert abs(convexity_threshold(u) - top) <= 1e-12 * top
    # the threshold jumps from the origin band to the pinch band at u = 1/3
    assert convexity_threshold(1.0 / 3.0) == pytest.approx(1.0, rel=1e-12)
    assert 0.78 < convexity_threshold(1.0 / 3.0 + 1e-9) < 0.79
    for u in (0.5, 0.6, 1.0, 0.0, -0.1, math.nan):
        with pytest.raises(DomainError):
            convexity_threshold(u)


def _scan_pinch_top(u):
    # bisection in K on the dense-scan sign, from inside the pinch band
    # (just above 1/(4u), where nu_- pinches at z0) to a convex coupling
    lo, hi = 0.25 / u * (1.0 + 1e-6), 0.25 / u * 1.2
    assert min_phi3_scan(u, lo) < 0.0 <= min_phi3_scan(u, hi)
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if min_phi3_scan(u, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("u", [0.334, 0.35, 0.375, 0.4, 0.45])
def test_pinch_band_top_matches_dense_scan(u):
    c = convexity_threshold(u)
    assert abs(c - _scan_pinch_top(u)) <= 1e-6 * c


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.45))
def test_convexity_threshold_is_sign_change_of_phi3(u):
    from begphase.micro import _convexity_indicator
    # the origin band closes like sqrt(1 - 3u) at u = 1/3: just below it the
    # band is narrower than the 1e-4 probe (as the pinch band is near 1/2)
    assume(not 1.0 / 3.0 - 1e-7 < u <= 1.0 / 3.0)
    c = convexity_threshold(u)
    assert min_phi3_scan(u, c * (1.0 + 1e-4)) >= 0.0
    assert min_phi3_scan(u, c * (1.0 - 1e-4)) < 0.0
    assert _convexity_indicator(u, c * (1.0 + 1e-4)) is True
    assert _convexity_indicator(u, c * (1.0 - 1e-4)) is False


def test_first_order_coupling_u():
    u = 0.25
    kc1 = first_order_coupling_u(u)
    assert kc1 < second_order_coupling_u(u)
    sol = solve_micro(MicroParams(u, kc1))
    assert sol.phase_label == "triple"
    assert sol.tied
    below = solve_micro(MicroParams(u, kc1 - 1e-4))
    above = solve_micro(MicroParams(u, kc1 + 1e-4))
    assert below.z_points == (0.0,)
    assert len(above.z_points) == 2 and above.z_points[1] > 0.0
    # depth difference at the returned coupling is resolved to tie precision
    d = (shell_rate(MicroParams(u, kc1), sol.z_points[-1])
         - shell_rate(MicroParams(u, kc1), 0.0))
    assert abs(d) < 1e-8


def test_first_order_ordering_in_discontinuous_regime():
    for u in (0.2, 0.25, 0.3):
        assert first_order_coupling_u(u) < second_order_coupling_u(u)


def test_first_order_rejects_continuous_regime():
    with pytest.raises(DomainError):
        first_order_coupling_u(0.5)


def test_transition_signatures():
    # continuous above the convexity curve: order parameter shrinks to 0
    kc2 = second_order_coupling_u(0.5)
    ladder = [max(solve_micro(MicroParams(0.5, kc2 + d)).z_points)
              for d in (1e-2, 1e-3, 1e-4)]
    assert ladder[0] > ladder[1] > ladder[2] > 0.0
    # discontinuous below: the order parameter jumps at the transition
    kc1 = first_order_coupling_u(0.25)
    z_above = max(solve_micro(MicroParams(0.25, kc1 + 1e-4)).z_points)
    assert z_above > 10.0 * 1e-4


def test_micro_criticals_regions():
    rep = micro_criticals(0.5, K=2.0)
    assert rep.region == "above"
    assert rep.k_convexity is None
    assert rep.k_first_order is None
    rep2 = micro_criticals(0.25, K=1.0)
    assert rep2.region == "below"
    assert rep2.k_first_order is not None
    assert rep2.k_second_order < rep2.k_convexity


@pytest.mark.parametrize("u, kc1", [
    (0.025, 1.004210565282942),
    (0.1, 1.021567124887080),
    (0.25, 1.061433187521462),
    (0.3, 1.074236971124786),
])
def test_first_order_coupling_u_pins(u, kc1):
    assert abs(first_order_coupling_u(u) - kc1) <= 1e-12 * kc1


@pytest.mark.parametrize("u, kc1", [
    (1e-8, 1.0000000003766678),
    (1e-6, 1.0000000502606051),
])
def test_first_order_coupling_u_near_the_corner(u, kc1):
    # the tied well sits next to z = 1 with nu_0 ~ u; references from a
    # 50-digit solve of the tie
    assert abs(first_order_coupling_u(u) - kc1) <= 1e-10 * kc1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.005, max_value=0.325))
def test_first_order_coupling_u_is_the_scan_transition(u):
    # solve_micro scans the shell rate directly: an independent route
    kc1 = first_order_coupling_u(u)
    assert solve_micro(MicroParams(u, kc1 * (1.0 - 1e-6))).z_points == (0.0,)
    above = solve_micro(MicroParams(u, kc1 * (1.0 + 1e-6)))
    assert len(above.z_points) == 2 and above.z_points[1] > 0.0
    at = solve_micro(MicroParams(u, kc1))
    assert at.phase_label == "triple" and at.tied


def test_first_order_regime_ends_at_tricritical_energy():
    u_star, _ = tricritical_micro()
    for d in (1e-9, 1e-7, 1e-5):
        with pytest.raises(DomainError):
            first_order_coupling_u(u_star + d)
        assert micro_criticals(u_star + d).k_first_order is None
    assert first_order_coupling_u(u_star - 1e-9) <= second_order_coupling_u(u_star - 1e-9)
    assert micro_criticals(u_star - 1e-9).k_first_order is not None
    # Landau picture: k2 - Kc1 ~ (u* - u)^2 approaching the tricritical point
    gap = [second_order_coupling_u(u_star - d) - first_order_coupling_u(u_star - d)
           for d in (1e-5, 1e-6)]
    assert 90.0 <= gap[0] / gap[1] <= 110.0
    rows, curves = sweep_micro([u_star - 1e-9, u_star + 1e-9], [1.0])
    assert [c.k_first_order is not None for c in curves] == [True, False]
    assert [r.transition_order for r in rows] == [1, 2]
