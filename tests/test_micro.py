import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from conftest import assert_sets_close, central_diff, second_diff

from begphase.core import (DomainError, MicroParams, UNIFORM, energy_domain,
                           rel_entropy)
from begphase.diagram import simplex_oracle, sweep_micro, tricritical_micro
from begphase.micro import (
    K_STAR,
    U_STAR,
    _first_order_coupling_u,
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
from begphase.rootfind import polynomial_roots


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
            assert min(astuple(mac)) >= -1e-12
            assert max(astuple(mac)) <= 1.0 + 1e-12


@st.composite
def _bottom_of_the_energy_range(draw):
    # K log-uniform in (1, 1000], u among the first 6 floats from 1 - K up
    K = draw(st.floats(0.0, 3.0).map(lambda x: 10.0 ** x)
             .filter(lambda K: K > 1.0))
    u = 1.0 - K
    for _ in range(draw(st.integers(0, 5))):
        u = math.nextafter(u, 1.0)
    return u, K


@settings(max_examples=100, deadline=None)
@given(_bottom_of_the_energy_range())
def test_solve_at_the_bottom_of_the_energy_range(uK):
    # the shell shrinks to the pure states z = +-1 there, and interval
    # subtraction found it empty (RuntimeError) at many of them.
    # The entropy lies within 1e-14 of the -log 3 of the pure states (60
    # digits at K ~ 1000), but q = u + K z^2 rounds at the scale ulp(K), and
    # so does the rate: the entropy bound scales with K
    u, K = uK
    sol = solve_micro(MicroParams(u, K))
    assert sol.phase_label == "pair"
    assert abs(sol.z_points[1] - 1.0) <= 1e-12
    assert abs(sol.entropy + math.log(3.0)) <= 1e-12 * K


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3).flatmap(lambda K: st.tuples(
    st.floats(min(1.0 - K, 0.0), 1.0), st.just(K))),
    st.floats(-1.0, 1.0))
@example((1.0, 0.0078125), 1e-7)
def test_admissible_domain_is_the_admissible_set(uK, z):
    # z lies in a component exactly when |z| <= u + K z^2 <= 1 holds in
    # floats, away from the component ends, where either may round.  At
    # the example u + K z^2 = 1 + 7.8e-17 rounds to 1, which admitted z
    # outside the degenerate component {0}
    from begphase.micro import _admissible
    u, K = uK
    comps = admissible_domain(MicroParams(u, K))
    assume(all(abs(z - end) >= 1e-12 for iv in comps for end in iv))
    assert any(lo <= z <= hi for lo, hi in comps) == _admissible(u, K, z, 0.0)


@pytest.mark.parametrize("u, K", [(1.0 + 1e-13, 1.0), (-1e-13, 0.5),
                                  (1.0 - 2.0 - 1e-13, 2.0),
                                  (1.0 - 37.0 - 1e-13, 37.0)])
def test_empty_shell_inside_the_params_slack_raises(u, K):
    # u 1e-13 outside [min(1-K, 0), 1] has an empty shell: MicroParams
    # refuses it, as it tests the range with no slack.  With a 1e-12 slack
    # it was admitted, and the solver raised (a RuntimeError below the
    # bottom before it named the empty shell)
    with pytest.raises(DomainError, match="u must lie in the attainable energy range"):
        MicroParams(u, K)


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0, 37.0])
def test_params_take_the_energy_range_exactly(K):
    # the float beyond either end is refused, each end itself is solved
    lo, hi = energy_domain(K)
    for u in (math.nextafter(lo, -math.inf), math.nextafter(hi, 2.0)):
        with pytest.raises(DomainError, match="attainable energy range"):
            MicroParams(u, K)
    for u in (lo, hi):
        params = MicroParams(u, K)
        assert admissible_domain(params)
        assert solve_micro(params).entropy <= 0.0


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


@pytest.mark.parametrize("u, K, z", [
    (0.4, 1.2, 0.2), (0.2, 1.07, 0.75), (0.1, 5.0, 0.03), (-0.5, 2.0, 0.83),
    (0.5, 1.5, 1e-3), (0.3, 1.4, 0.6),
])
def test_rate_derivatives_match_central_differences(u, K, z):
    from begphase.micro import _origin_curvature, _rate_curvature, _rate_slope
    params = MicroParams(u, K)

    def rate(x):
        return shell_rate(params, x)

    g = _origin_curvature(u, K)
    d1, d2 = _rate_slope(u, K, g, z), _rate_curvature(u, K, g, z)
    assert abs(d1 - central_diff(rate, z, h=1e-5)) <= 1e-7 * max(1.0, abs(d1))
    assert abs(d2 - second_diff(rate, z, h=1e-4)) <= 1e-5 * max(1.0, abs(d2))


@pytest.mark.parametrize("u, K, z_star", [
    (0.34, 1.0841527751091613, 0.0038366216641551473),
    (0.4, 1.13780017108258, 0.0011870871114157076),
    (0.5, 1.4426964835840042, 0.00050714772686405388),
    (0.6, 2.896719144034752, 0.00017348694623604754),
])
def test_well_just_above_second_order_coupling(u, K, z_star):
    # K is the double k2(u) * (1 + 1e-6), z_star the root of F' there from a
    # 50-digit solve.  The rate is quartic-flat at the well, so a search on
    # its values resolves z only to about eps^(1/4)
    k2 = second_order_coupling_u(u)
    assert K == k2 * (1.0 + 1e-6)
    sol = solve_micro(MicroParams(u, K))
    assert sol.phase_label == "pair" and not sol.tied
    assert abs(sol.z_points[1] - z_star) <= 1e-9 * z_star
    # the sign of the closed-form curvature at z = 0 decides the branch
    assert solve_micro(MicroParams(u, k2 * (1.0 - 1e-12))).z_points == (0.0,)
    above = solve_micro(MicroParams(u, k2 * (1.0 + 1e-12)))
    assert above.phase_label == "pair" and 0.0 < above.z_points[1] < 1e-5


# 60-digit roots of F' at u = 0.5, K = k2(0.5) + m ulps
K2_LADDER = [(1, 5.9963840515389082e-9), (4, 1.2438373453554497e-8),
             (256, 1.0064919364902033e-7), (4096, 4.0266437159476912e-7),
             (2 ** 16, 1.6106743840949554e-6)]


@pytest.mark.parametrize("m, z_ref", K2_LADDER)
def test_well_ladder_above_the_second_order_coupling_u(m, z_ref):
    k2 = second_order_coupling_u(0.5)
    sol = solve_micro(MicroParams(0.5, k2 + m * math.ulp(k2)))
    assert sol.phase_label == "pair" and not sol.tied
    assert abs(sol.z_points[1] - z_ref) <= 1e-9 * z_ref


def test_origin_curvature_next_to_the_second_order_coupling():
    # within 1e-15 of k2(u), g = 1/u - 2K log(2(1-u)/u) cancels to a few
    # ulps of its terms and is evaluated at 40 digits: it is the 60-digit
    # value rounded, sign included
    mpmath = pytest.importorskip("mpmath")
    from begphase.micro import _origin_curvature
    rng = np.random.default_rng(19)
    us = [float(u) for u in rng.uniform(1e-3, 0.66, 16)] + [1e-300, 0.5, 0.65]
    with mpmath.workdps(60):
        for u in us:
            k2 = second_order_coupling_u(u)
            for K in (k2 * (1.0 + s) for s in (-1e-15, -3e-16, 0.0, 3e-16, 1e-15)):
                want = (1 / mpmath.mpf(u) - 2 * mpmath.mpf(K)
                        * mpmath.log(2 * (1 - mpmath.mpf(u)) / mpmath.mpf(u)))
                got = _origin_curvature(u, K)
                assert (got > 0.0) == (want > 0) and (got < 0.0) == (want < 0)
                assert abs(got - want) <= abs(want) * 2.0 ** -52


@pytest.mark.parametrize("u, K", [(0.33, 1.08), (0.2, 1.3), (0.05, 3.0),
                                  (0.45, 0.7)])
def test_landau_poly_is_the_taylor_expansion_of_the_slope(u, K):
    # F'(z)/z = g + b z^2 + c z^4: b = 4 t4 and c = 6 t6 of the Taylor
    # coefficients t_n of the shell rate F at 0
    mpmath = pytest.importorskip("mpmath")
    from begphase.micro import _landau_poly, _origin_curvature
    with mpmath.workdps(60):
        um, km = mpmath.mpf(u), mpmath.mpf(K)

        def rate(z):
            q = um + km * z * z
            return ((q + z) / 2 * mpmath.log(q + z) + (q - z) / 2 * mpmath.log(q - z)
                    + (1 - q) * mpmath.log(1 - q) - q * mpmath.log(2))

        taylor = mpmath.taylor(rate, 0, 6)
        want = [float(n * taylor[n]) for n in (4, 6)]
    g = _origin_curvature(u, K)
    got = _landau_poly(u, K, g)
    assert got[0] == g
    # next to u* the terms of b and c cancel: their magnitudes bound the
    # rounding, with y = K u and w = 1 - u
    y, w = K * u, 1.0 - u
    scales = ((6.0 * y * y + 6.0 * w * y + w) / (3.0 * w * u ** 3),
              (10.0 * abs(2.0 * u - 1.0) * y ** 3 + w * w * (30.0 * y * y + 15.0 * y + 2.0))
              / (10.0 * w * w * u ** 5))
    for x, want_x, scale in zip(got[1:], want, scales):
        assert abs(x - want_x) <= 1e-14 * abs(want_x) + 2.0 ** -50 * scale


@pytest.mark.parametrize("u", [5e-324, 1e-300, 1e-100, 0.5, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("K", [1e-300, 1.0, 1e40, 1e300])
def test_landau_poly_never_raises(u, K):
    # a subnormal u, u next to 1 and a large K make the coefficients
    # infinite or NaN, which the searches' starts pass over
    from begphase.micro import _landau_poly
    assert _landau_poly(u, K, 1.0)[0] == 1.0
    assert _landau_poly(0.0, K, 1.0) is None and _landau_poly(-0.5, K, 1.0) is None
    if K < 1.5e51:
        solve_micro(MicroParams(u, K))
    else:   # K^6 of the shell-rate quartic leaves the float range: refused
        with pytest.raises(DomainError, match="K ~ 1.5e51"):
            solve_micro(MicroParams(u, K))


def test_well_next_to_the_tricritical_point():
    # the 60-digit well is 6.9708074537436519e-5; F' in plain floats put it
    # at 1.0959e-4
    sol = solve_micro(MicroParams(0.3303438281844679, 1.081296450057609))
    assert sol.phase_label == "pair" and 0.0 not in sol.z_points
    assert abs(sol.z_points[1] - 6.9708074537436519e-5) <= 1e-6 * 6.97e-5


@st.composite
def shell_points(draw):
    """(u, K) over the whole admissible domain, weighted toward its edges:
    u near 0, u near 1, negative u (K > 1) and the tricritical point."""
    kind = draw(st.sampled_from(["bulk", "small u", "u near 1", "negative u",
                                 "tricritical"]))
    K = draw(st.floats(0.3, 3.0))
    if kind == "bulk":
        u = draw(st.floats(0.0, 1.0))
    elif kind == "small u":
        u = draw(st.floats(1e-12, 1e-3))
    elif kind == "u near 1":
        u = 1.0 - draw(st.floats(1e-12, 1e-3))
    elif kind == "negative u":
        K = draw(st.floats(1.0 + 1e-6, 3.0))
        u = draw(st.floats(1.0 - K, 0.0))
    else:
        u = U_STAR + draw(st.floats(-1e-4, 1e-4))
        K = K_STAR * (1.0 + draw(st.floats(-1e-4, 1e-4)))
    return u, K


@settings(max_examples=80, deadline=None)
@given(shell_points())
def test_solver_minima_beat_a_dense_grid(point):
    # test-only oracle: a 4001-point grid on every admissible component
    from begphase.micro import _origin_curvature, _rate_curvature, _shell_rate
    u, K = point
    sol = solve_micro(MicroParams(u, K))
    comps = admissible_domain(MicroParams(u, K))
    grid_min = min(_shell_rate(u, K, z) for lo, hi in comps
                   for z in np.linspace(lo, hi, 4001).tolist())
    assert -sol.entropy <= grid_min + 1e-12
    for z in sol.z_points:
        if any(lo < z < hi for lo, hi in comps):   # not an isolated point
            assert _rate_curvature(u, K, _origin_curvature(u, K), abs(z)) >= 0.0


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


def test_second_order_coupling_u_at_subnormal_u():
    # 2(1-u)/u overflows below u ~ 1e-308; log 2 + log1p(-u) - log u does
    # not.  Reference from a 50-digit evaluation at the double u
    assert second_order_coupling_u(1e-310) == pytest.approx(6.9979542431638368e306,
                                                          rel=1e-12)
    with pytest.raises(DomainError, match="float range"):
        second_order_coupling_u(5e-324)   # the true k2 is about 1.3e320


@pytest.mark.parametrize("u", [1e-310, 5e-324])
def test_convexity_threshold_at_subnormal_u_raises(u):
    # the origin-band top ~ 0.79/u exceeds the float range; it used to come
    # out inf, and the first-order coupling then cut at k2 (55.6 at 1e-310)
    with pytest.raises(DomainError, match="float range"):
        convexity_threshold(u)
    # u lies in the first-order regime 0 < u <= U_STAR, where Kc1 = 1 +
    # O(u/log(1/u)) rounds to 1
    assert first_order_coupling_u(u) == 1.0


def test_micro_criticals_at_subnormal_u():
    crit = micro_criticals(1e-310)
    assert crit.k_second_order == pytest.approx(6.9979542431638368e306,
                                                rel=1e-12)
    assert crit.k_first_order == 1.0 and crit.k_convexity is None
    # still finite at u = 1e-300, where Kc1(u) -> 1 as u -> 0
    crit = micro_criticals(1e-300)
    assert crit.k_first_order == pytest.approx(1.0, abs=1e-12)
    assert crit.k_convexity == pytest.approx(7.886751345948128e299, rel=1e-12)
    assert crit.k_second_order == pytest.approx(7.230985553221756e296,
                                                rel=1e-12)


@pytest.mark.parametrize("u", [1e-320, 3.8e-312, 5e-324])
def test_micro_criticals_where_k2_overflows(u):
    # below u ~ 3.9e-312 the second-order coupling exceeds the float range:
    # a None in the record, as for the convexity threshold, not a DomainError
    with pytest.raises(DomainError, match="float range"):
        second_order_coupling_u(u)
    crit = micro_criticals(u)
    assert crit.k_second_order is None and crit.k_convexity is None
    assert crit.k_first_order == 1.0


def _landau_root_gap(u):
    """1/lambda(u) - (1-u)(1+s) at an mpmath u: zero where k2(u) = C(u)."""
    import mpmath
    s = mpmath.sqrt((1 - 3 * u) / (3 * (1 - u)))
    return 1 / mpmath.log(2 * (1 - u) / u) - (1 - u) * (1 + s)


def test_tricritical_constants_against_60_digit_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        root = mpmath.findroot(_landau_root_gap, (mpmath.mpf("0.3303"),
                                                  mpmath.mpf("0.3304")),
                               solver="anderson")
        assert abs(root - mpmath.mpf("0.33034382864171059824642303491")) < 1e-28
        # the nearest float, and not above the root
        assert float(root) == U_STAR and mpmath.mpf(U_STAR) <= root
        k_star = 1 / (2 * root * mpmath.log(2 * (1 - root) / root))
        assert float(k_star) == K_STAR
    assert tricritical_micro() == (U_STAR, K_STAR)


def test_first_order_regime_is_u_at_most_u_star():
    # the float test k2(u) < C(u) holds exactly at u <= U_STAR: at the 20000
    # floats on each side of U_STAR, log-uniform u down to 1e-300 and
    # uniform u in (0, 1/2), which crosses into the pinch band
    us = [U_STAR]
    for step in (0.0, 1.0):
        u = U_STAR
        for _ in range(20000):
            u = math.nextafter(u, step)
            us.append(u)
    rng = np.random.default_rng(21)
    us += np.exp(rng.uniform(math.log(1e-300), math.log(0.5), 10000)).tolist()
    us += [u for u in rng.uniform(0.0, 0.5, 2000).tolist() if u > 0.0]
    for u in us:
        assert (second_order_coupling_u(u) < convexity_threshold(u)) == (u <= U_STAR), u


def test_micro_record_is_ordered():
    # Kc1 < k2 in exact arithmetic, and the record keeps Kc1 <= k2 where
    # they meet within rounding: the tie solve put Kc1 = 1.081296450157609
    # above k2 = 1.0812964501576088 at u = 0.33034382864171036, 3 ulps below
    # u*, and at 5973 of the 20000 floats below u*
    us, u = [], U_STAR
    for _ in range(20000):
        us.append(u)
        u = math.nextafter(u, 0.0)
    rng = np.random.default_rng(5)
    us += np.exp(rng.uniform(math.log(1e-300), math.log(U_STAR), 2000)).tolist()
    for u in us:
        crit = micro_criticals(u)
        if crit.k_second_order is not None:
            assert crit.k_first_order <= crit.k_second_order, u


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
    # the shell rate is phi less q log 2 - log 3, quadratic in z: the same
    # third derivative
    for u, K, z in ((0.3, 1.2, 0.2), (0.4, 0.63, 0.75), (0.1, 5.0, 0.05)):
        params = MicroParams(u, K)
        fd = central_diff(
            lambda x: second_diff(lambda y: shell_rate(params, y), x, h=3e-4),
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


def _convexity_indicator_by_eigenvalues(u, K):
    # _convexity_indicator as it stood with the companion-matrix roots of
    # np.roots, complex pairs kept by their real parts (test-side oracle)
    from begphase.micro import _phi3_quartic
    comps = [iv for iv in admissible_domain(MicroParams(u, K))
             if iv[0] <= 0.0 <= iv[1]]
    if not comps or comps[0][1] <= 0.0:
        return None
    t_top = comps[0][1] ** 2
    quartic = _phi3_quartic(u, K)
    roots = sorted(r.real for r in np.roots(quartic) if r.real > 0.0)
    cuts = np.array([0.0] + [t for t in roots if t < t_top] + [t_top])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return bool(np.min(np.polyval(quartic, mids)) >= 0.0)


_MICRO_DOMAIN = st.floats(1e-3, 1e3).flatmap(lambda K: st.tuples(
    st.floats(min(1.0 - K, 0.0), 1.0), st.just(K)))


def _poly_rem(a, b):
    # remainder of the exact polynomial division a / b (highest degree first)
    a = list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        a = [x - f * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    while a and a[0] == 0:
        a = a[1:]
    return a


def _squarefree(coeffs):
    # Q / gcd(Q, Q') in exact rationals: the distinct roots of Q, all simple,
    # which Durand-Kerner resolves where a multiple root of Q stalls it, as
    # at (u, K) = (1/2, 1/2)
    q = [Fraction(c) for c in coeffs]
    n = len(q) - 1
    a, b = q, [c * (n - i) for i, c in enumerate(q[:-1])]
    while b:
        a, b = b, _poly_rem(a, b)
    out, rest = [], q
    while len(rest) >= len(a):
        f = rest[0] / a[0]
        out.append(f)
        rest = [x - f * y for x, y in zip(rest, a + [0] * (len(rest) - len(a)))][1:]
    return out


def _rounding_radius(quartic, r):
    # how far a root r of Q of any multiplicity moves under the rounding
    # E = 8 u sum |c_i| r^i (u = 2^-53) of Horner's rule: the least
    # (E/|Q^(m)(r)/m!|)^(1/m) over m = 1..4, the distance at which the
    # leading Taylor term of Q at r reaches E
    r = float(r)
    size = sum(abs(c * r ** i) for i, c in zip(range(4, -1, -1), quartic))
    radius, poly = math.inf, np.poly1d(quartic)
    for m in range(1, 5):
        poly = poly.deriv()
        term = abs(poly(r)) / math.factorial(m)
        if term > 0.0:
            radius = min(radius, (8.0 * 2.0 ** -53 * size / term) ** (1.0 / m))
    return radius


@settings(max_examples=150, deadline=None)
@given(_MICRO_DOMAIN)
def test_phi3_roots_are_the_sign_changes_of_the_quartic(uK):
    # every sign change of Q on (0, 1) against 30-digit roots of the same
    # float coefficients, and no point where Q has no root, to 1e-12 or to
    # the rounding radius of Q where that is larger: at a multiple root, as
    # the triple root t = 1/16 at (u, K) = (1/8, 2) on the pinch line
    # 4Ku = 1, or next to a close complex pair, as at (-103, 189), where
    # np.roots is 4.2e-12 off
    mpmath = pytest.importorskip("mpmath")
    from begphase.micro import _convexity_indicator, _phi3_quartic
    u, K = uK
    quartic = _phi3_quartic(u, K)
    got = polynomial_roots(quartic, 0.0, 1.0)
    # a root within rounding of an end may come out as that end
    assert got == sorted(got) and all(0.0 <= t <= 1.0 for t in got)
    roots = []
    with mpmath.workdps(30):
        simple = [mpmath.mpf(c.numerator) / c.denominator
                  for c in _squarefree(quartic)]
        if len(simple) > 1:
            # Durand-Kerner stops at an absolute error of 1e-30: Newton
            # polishes its roots to a relative one, which resolves a root
            # next to 0, as c0/c1 = 1.7e-128 at (u, K) = (-1.3e-126, 73)
            for r in mpmath.polyroots(simple, maxsteps=200, extraprec=100,
                                      cleanup=False):
                for _ in range(100):
                    value, slope = mpmath.polyval(simple, r, derivative=True)
                    step = value / slope
                    r -= step
                    if abs(step) <= 1e-28 * abs(r):
                        break
                roots.append(r)
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-25 * abs(r))
    inside = [r for r in real if 0 < r < 1]
    tol = {r: max(1e-12, _rounding_radius(quartic, r.real)) for r in roots}
    tol.update({r.real: tol[r] for r in roots})
    # the sign of Q between consecutive roots, exactly: next to a double
    # root at the end t = 1, as at (u, K) = (-2, 3), Q is below the
    # rounding of a 30-digit evaluation
    ends = [Fraction(0)] + [_fraction(r) for r in inside] + [Fraction(1)]
    values = [_exact_value(quartic, (a + b) / 2) for a, b in zip(ends, ends[1:])]
    signs = [(v > 0) - (v < 0) for v in values]
    changes = [r for r, s0, s1 in zip(inside, signs, signs[1:]) if s0 != s1]
    # where Q between two real roots, or at a complex pair, is below the
    # rounding of its evaluation in floats, whether it changes sign there
    # is not resolved: as between the roots 9.3e-7 apart at (u, K) =
    # (-908.657904254718, 909.6640625), at the pair 1 -+ 2.7e-8 i at the
    # bottom u = 1 - K of the energy range at K = 52.13623807350313, or at
    # the near-triple root next to the pinch line at (0.010355857767234885,
    # 24.14092638380765)
    flat = set()
    for r, o in zip(real, real[1:]):
        if _below_rounding(quartic, (_fraction(r) + _fraction(o)) / 2):
            flat |= {r, o}
    for r in roots:
        if r.real not in real and _below_rounding(quartic, _fraction(r.real)):
            flat |= {o for o in real if abs(o - r) <= tol[r]} | {r.real}
    for r in changes:
        assert r in flat or any(abs(t - r) <= tol[r] for t in got)
    for t in got:
        assert any(abs(t - r) <= tol[r] for r in roots)
    # the indicator against Q signed exactly between its real roots, and
    # against np.roots where that finds the real roots below the top: it
    # splits a multiple root into nearby real ones, as the fourfold t = 1
    # at (1/2, 1/2), and makes a resolved pair complex next to a large root,
    # as at (0.9984141641973294, 0.0015858358159511407)
    if flat:
        return
    comps = [iv for iv in admissible_domain(MicroParams(u, K))
             if iv[0] <= 0.0 <= iv[1]]
    got_indicator = _convexity_indicator(u, K)
    if not comps or comps[0][1] <= 0.0:
        assert got_indicator is None
        return
    t_top = Fraction(comps[0][1]) ** 2
    cuts = ([Fraction(0)] + [_fraction(r) for r in inside if _fraction(r) < t_top]
            + [t_top])
    assert got_indicator == all(_exact_value(quartic, (a + b) / 2) >= 0
                                for a, b in zip(cuts, cuts[1:]))
    eigen = [r.real for r in np.roots(quartic)
             if r.imag == 0.0 and 0.0 < r.real < float(t_top)]
    if len(simple) == len(quartic) and len(eigen) == len(cuts) - 2:
        assert got_indicator == _convexity_indicator_by_eigenvalues(u, K)


def _fraction(x):
    return Fraction(x.man) * Fraction(2) ** x.exp if x else Fraction(0)


def _exact_value(quartic, t):
    return sum(Fraction(c) * t ** (4 - i) for i, c in enumerate(quartic))


def _below_rounding(quartic, t):
    # |Q(t)| within the rounding bound 8 u sum |c_i t^i| of Horner's rule
    size = sum(abs(Fraction(c) * t ** (4 - i)) for i, c in enumerate(quartic))
    return abs(_exact_value(quartic, t)) <= Fraction(8, 2 ** 53) * size


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


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_micro_criticals_refuse_a_non_finite_u(u):
    # the record came back all None, and micro-critical printed nan,,,,
    with pytest.raises(DomainError, match="u must be finite"):
        micro_criticals(u)


def _pinch_edges_60(u):
    # the pinch edges from 60-digit roots of the sextic in r = v^4/x, with
    # v = 1 - 2u from the exact u: its real roots of largest magnitude
    import mpmath
    from begphase.micro import _PINCH_SEXTIC
    with mpmath.workdps(60):
        v = 1 - 2 * mpmath.mpf(u)
        rows = [mpmath.polyval(row, v) for row in _PINCH_SEXTIC]
        rev = [rows[6 - i] * v ** (4 * i - 8) for i in range(7)]
        real = [r.real for r in mpmath.polyroots(rev, maxsteps=500, extraprec=300)
                if abs(r.imag) <= mpmath.mpf(10) ** -40 * abs(r)]
        return (v ** 4 / min(r for r in real if r < 0),
                v ** 4 / max(r for r in real if r > 0))


_PINCH_US = (np.random.default_rng(29).uniform(1.0 / 3.0, 0.5, 40).tolist()
             + [0.4999999925494194, math.nextafter(0.5, 0.0)])


@pytest.mark.parametrize("u", _PINCH_US)
def test_pinch_edges_against_60_digit_roots(u):
    # the companion-matrix roots of np.roots were up to 2.9e-15 off
    pytest.importorskip("mpmath")
    from begphase.micro import _pinch_edges
    for got, want in zip(_pinch_edges(u), _pinch_edges_60(u)):
        assert abs(got - want) <= 1e-15 * abs(want)


_THRESHOLD_US = [5e-324, 1e-310, 4.387151062103913e-309, 4.38715106210392e-309,
                 1e-300, 0.25, 1.0 / 3.0, math.nextafter(1.0 / 3.0, 1.0), 0.4,
                 math.nextafter(0.5, 0.0), 0.5, 2.0 / 3.0, 0.9, 0.0, -0.5,
                 -1e3]


@pytest.mark.parametrize("u", _THRESHOLD_US + np.random.default_rng(31).uniform(
    -0.5, 1.0, 20).tolist())
def test_micro_criticals_takes_the_convexity_threshold(u):
    # one definition: the record's C(u) is convexity_threshold(u), and None
    # where that raises (outside (0, 1/2), and where the origin-band top
    # overflows, below u = 4.38715106210392e-309)
    try:
        want = convexity_threshold(u)
    except DomainError:
        want = None
    assert micro_criticals(u).k_convexity == want
    assert (want is None) == (not 4.38715106210392e-309 <= u < 0.5)


@pytest.mark.parametrize("u", [0.334, 0.4, 0.45])
def test_convexity_threshold_in_the_pinch_band_is_a_float(u):
    # the smallest positive root of the sextic came back as an np.float64
    assert type(convexity_threshold(u)) is float
    assert type(micro_criticals(u).k_convexity) is float


def _min_quartic_60(u, K):
    # min over (0, top^2] of the _phi3_quartic quartic Q, from the exact u and
    # K at 60 digits: Q at top^2 and at its interior stationary points
    import mpmath
    with mpmath.workdps(60):
        u, K = mpmath.mpf(u), mpmath.mpf(K)
        Q = [2 * K ** 6,
             K ** 3 * (2 * K * K + 6 * K * u - 4 * K - 1),
             -K * K * (12 * K * K * u * u - 10 * K * K * u - 6 * K * u * u
                       + 4 * K * u + 4 * K + 3 * u - 4),
             -K * (16 * K * K * u ** 3 - 14 * K * K * u * u + 6 * K * u ** 3
                   - 12 * K * u * u + 6 * K * u - 3 * u * u + 4 * u - 1),
             u * (1 - u) * (6 * K * K * u * u - 6 * K * u * (1 - u) + 1 - u)]
        disc = 1 - 4 * K * u
        top = mpmath.sqrt((1 - u) / K)
        if disc > 0:
            top = min(top, (1 - mpmath.sqrt(disc)) / (2 * K))
        ts = [top ** 2] + [r.real for r in mpmath.polyroots(
            [4 * Q[0], 3 * Q[1], 2 * Q[2], Q[3]], maxsteps=400, extraprec=200)
            if abs(r.imag) < mpmath.mpf(10) ** -40 and 0 < r.real < top ** 2]
        return min(mpmath.polyval(Q, t) for t in ts)


@pytest.mark.parametrize("u, K, region", [(0.497, 0.503018109020862, "below"),
                                          (0.498, 0.502008037305, "above")])
def test_pinch_band_region_against_60_digit_quartic(u, K, region):
    # min Q = -3.6e-19 and +5.2e-17 at 60 digits: Q in floats rounds by
    # about 7e-16, and its sign gave the other region at both
    pytest.importorskip("mpmath")
    assert (_min_quartic_60(u, K) < 0) == (region == "below")
    assert micro_criticals(u, K).region == region


@settings(max_examples=25, deadline=None)
@given(st.floats(1.0 / 3.0, 0.5, exclude_min=True, exclude_max=True),
       st.sampled_from(["top", "middle", "bottom"]))
@example(0.4999999925494194, "middle")
def test_pinch_band_region_is_the_sign_of_the_quartic(u, where):
    # next to each edge of the pinch band (1e-8 relative) and at its middle,
    # the region against the sign of min Q at 60 digits; the band narrows
    # like (1 - 2u)^4, to 1e-31 at the example
    pytest.importorskip("mpmath")
    from begphase.micro import _pinch_edges
    c = convexity_threshold(u)
    bottom = (1.0 + _pinch_edges(u)[0]) / (4.0 * u)
    K = {"top": c * (1.0 + 1e-8), "middle": 0.5 * (bottom + c),
         "bottom": bottom * (1.0 - 1e-8)}[where]
    want = "below" if _min_quartic_60(u, K) < 0 else "above"
    assert micro_criticals(u, K).region == want


def test_micro_criticals_regions():
    rep = micro_criticals(0.5, K=2.0)
    assert rep.region == "above"
    assert rep.k_convexity is None
    assert rep.k_first_order is None
    rep2 = micro_criticals(0.25, K=1.0)
    assert rep2.region == "below"
    assert rep2.k_first_order is not None
    assert rep2.k_second_order < rep2.k_convexity


def test_float32_u_is_solved_in_double_precision():
    # a float32 u ran the tie in mixed precision, which did not converge in
    # 80 Newton steps, and solve_micro returned float32 magnetizations
    assert micro_criticals(np.float32(0.25)) == micro_criticals(0.25)
    assert micro_criticals(np.float32(0.25), np.float32(1.0)) == micro_criticals(0.25, 1.0)
    sol = solve_micro(MicroParams(np.float32(0.25), 1.2))
    assert sol.z_points[-1] == 0.5348653741504781
    assert repr(sol) == repr(solve_micro(MicroParams(0.25, 1.2)))


@pytest.mark.parametrize("u, kc1", [
    (0.025, 1.004210565282942),
    (0.1, 1.021567124887080),
    (0.25, 1.061433187521462),
    (0.3, 1.074236971124786),
])
def test_first_order_coupling_u_pins(u, kc1):
    assert abs(first_order_coupling_u(u) - kc1) <= 1e-12 * kc1


@pytest.mark.parametrize("u, kc1", [
    (1e-4, 1.0000075461321385),
    (1e-6, 1.0000000502606051),
    (1e-8, 1.0000000003766678),
    (1e-9, 1.0000000000334746),
    (1e-12, 1.000000000000025),
])
def test_first_order_coupling_u_near_the_corner(u, kc1):
    # the tied well sits next to z = 1 with nu_0 ~ u and nu_- ~ nu_0^4;
    # references are the doubles nearest 50-digit solves of the tie (Kc1 - 1
    # = 7.5461321384174328e-6, 5.0260605073354510e-8, 3.7666775576975019e-10,
    # 3.3474515452809015e-11, 2.5097136609148239e-14).  Golden-section
    # minimization lost the tie below u ~ 1e-8 (Kc1 - 1 read -1.5e-11 at
    # u = 1e-9)
    assert abs(first_order_coupling_u(u) - kc1) <= 4.4e-16


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-12, max_value=tricritical_micro()[0] - 1e-6))
def test_first_order_coupling_u_is_the_scan_transition(u):
    # solve_micro finds the minima of the shell rate itself: an independent route
    kc1 = first_order_coupling_u(u)
    assert kc1 >= 1.0
    assert solve_micro(MicroParams(u, kc1 * (1.0 - 1e-6))).z_points == (0.0,)
    above = solve_micro(MicroParams(u, kc1 * (1.0 + 1e-6)))
    assert len(above.z_points) == 2 and above.z_points[1] > 0.0
    at = solve_micro(MicroParams(u, kc1))
    assert at.phase_label == "triple" and at.tied


@pytest.mark.parametrize("u", [1e-3, 0.01, 0.1, 0.3, 0.33])
def test_first_order_coupling_u_envelope_slope(u):
    # dKc1/du along the curve, the slope u_c1_of_K borders its steps with:
    # at the tie, dKc1/du + grad Kc1 . d(xi, s)/du with d(xi, s)/du =
    # -J^-1 (de1/du, de2/du) from _tie, against central differences of Kc1
    from begphase.micro import _tie
    kc1, z = _first_order_coupling_u(u)
    q = u + kc1 * z * z
    xi, s = math.atanh(z / q), kc1 * q * q
    rows = np.array(_tie(u, xi, s)[1])
    d_xi, d_s = -np.linalg.solve(rows[:, :2], rows[:, 2])
    x = z / q
    k_q = -2.0 * s / q ** 3
    slope = k_q * (1.0 + 2.0 * s * x * (1.0 - x * x) * d_xi + x * x * d_s) + d_s / q ** 2
    h = 1e-5 * u
    fd = (first_order_coupling_u(u + h) - first_order_coupling_u(u - h)) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("u, xi, s", [
    (0.3, 0.3, 0.2),     # r = p/u = 0.057, x = tanh(xi) = 0.29
    (0.3, 1.0, 0.04),    # r = 0.077, x = 0.76
    (0.1, 0.3, 0.5),     # r = 0.43, x = 0.29
    (0.1, 1.0, 0.5),     # r = 2.9, x = 0.76
    (0.01, 3.0, 0.8),    # r = 79, x = 0.995, p/(1-u) = 0.8
])
def test_tie_u_column_is_the_u_derivative(u, xi, s):
    # the joint (u, xi, s) solve of u_c1 steps with de1/du and de2/du at
    # fixed (xi, s), on both branches of _p_terms (r below and above 0.1)
    # and of _xi_terms (x below and above 1/2), against central differences
    from begphase.micro import _tie
    (_, _, e1_u), (_, _, e2_u) = _tie(u, xi, s)[1]
    for i, got in enumerate((e1_u, e2_u)):
        fd = central_diff(lambda v: _tie(v, xi, s)[0][i], u, h=1e-5 * u)
        assert got == pytest.approx(fd, rel=1e-7, abs=1e-9)


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
