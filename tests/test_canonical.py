import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import central_diff, well_depth

from begphase import canonical
from begphase.canonical import (
    BETA_MAX,
    canonical_criticals,
    canonical_free_energy,
    cumulant_inflection,
    dual_route_minimum,
    first_order_coupling,
    mag_potential,
    minimum_type,
    positive_well,
    second_order_coupling,
    solve_canonical,
    tangency,
    tilt_potential,
)
from begphase.core import (
    BETA_C,
    UNIFORM,
    CanonicalParams,
    DomainError,
    cumulant,
    energy_per_site,
    mean_tilt,
    rel_entropy,
    single_site_measure,
)
from begphase.diagram import simplex_oracle
from begphase.limits import classify_minimum
from begphase.rootfind import bisect_monotone


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potential_zero_at_origin():
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = CanonicalParams(rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0))
        assert mag_potential(params, 0.0) == 0.0


def test_tilt_potential_example():
    params = CanonicalParams(1.0, 1.0)
    assert abs(tilt_potential(params, 1.0) - (0.25 - cumulant(1.0, 1.0, 0))) < 1e-15


def test_potentials_agree_under_substitution():
    rng = np.random.default_rng(4)
    for _ in range(100):
        params = CanonicalParams(rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0))
        w = rng.uniform(-4.0, 4.0)
        a = 2.0 * params.beta * params.K
        assert abs(tilt_potential(params, w) - mag_potential(params, w / a)) < 1e-13
        z = rng.uniform(-1.0, 1.0)
        assert mag_potential(params, z) == mag_potential(params, -z)


def test_potentials_take_cumulant_values_exactly():
    # orders 0 and 3..6 read c and its derivatives from one moments call and
    # are the cumulant expressions bit for bit; orders 1 and 2 are the
    # cancellation-free kernels, which equal them to rounding up to |w| = 2
    # and bit for bit above; mag_potential is tilt_potential at w = 2 beta K z
    # times (2 beta K)^j, bit for bit
    rng = np.random.default_rng(14)
    for _ in range(200):
        beta, K = rng.uniform(0.05, 8.0), rng.uniform(0.2, 3.0)
        params = CanonicalParams(beta, K)
        a = 2.0 * params.beta * params.K
        w, z = rng.uniform(-30.0, 30.0), rng.uniform(-1.0, 1.0)
        tilt = [0.5 * w * w / a - cumulant(beta, w, 0), w / a - cumulant(beta, w, 1),
                1.0 / a - cumulant(beta, w, 2)]
        for j in range(3, 7):
            tilt.append(-cumulant(beta, w, j))
        got = [tilt_potential(params, w, j) for j in range(7)]
        if abs(w) <= 2.0:
            assert abs(got[1] - tilt[1]) <= 1e-15 * (abs(w) / a + 1.0)
            assert abs(got[2] - tilt[2]) <= 1e-15 * (1.0 / a + 1.0)
            got[1:3], tilt[1:3] = [], []
        assert got == tilt
        assert [mag_potential(params, z, j) for j in range(7)] == [
            a ** j * tilt_potential(params, a * z, j) for j in range(7)]


@pytest.mark.parametrize("potential", [tilt_potential, mag_potential])
def test_potential_domain_errors(potential):
    params = CanonicalParams(1.0, 1.0)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="must be finite"):
            potential(params, x, 1)
    for x in ("0.5", None, 0.5j):
        with pytest.raises(TypeError, match="must be a real number"):
            potential(params, x, 1)
    for order in (-1, 7, 2.5, None):
        with pytest.raises(DomainError, match="order must be in 0..6"):
            potential(params, 0.5, order)


def test_potential_derivatives_match_finite_differences():
    params = CanonicalParams(1.3, 0.9)
    for order in range(1, 5):
        for z in (0.15, 0.6):
            fd = central_diff(lambda x: mag_potential(params, x, order - 1), z)
            assert abs(mag_potential(params, z, order) - fd) < 1e-5


# ---------------------------------------------------------------------------
# critical couplings
# ---------------------------------------------------------------------------

def test_second_order_coupling_closed_forms_agree():
    for beta in (0.3, 0.7, 1.0, BETA_C, 2.0):
        direct = second_order_coupling(beta)
        via_curvature = 1.0 / (2.0 * beta * cumulant(beta, 0.0, 2))
        assert abs(direct - via_curvature) < 1e-12


def test_second_order_coupling_values():
    tri = second_order_coupling(BETA_C)
    assert abs(tri - 3.0 / (2.0 * math.log(4.0))) < 1e-12
    assert abs(tri - 1.0820) < 5e-5
    assert abs(second_order_coupling(1.0) - 1.17957) < 5e-6
    with pytest.raises(DomainError):
        second_order_coupling(0.0)


def test_second_order_coupling_is_curvature_root():
    beta = 1.0
    kc2 = second_order_coupling(beta)
    assert abs(mag_potential(CanonicalParams(beta, kc2), 0.0, 2)) < 1e-12
    # cross-check as the root in K of the curvature at the origin
    root = bisect_monotone(
        lambda K: mag_potential(CanonicalParams(beta, K), 0.0, 2),
        0.5, 3.0, 0.0, tol=1e-12)
    assert abs(root - kc2) < 1e-9


def test_large_beta_raises_domain_error_naming_bound():
    # e^beta overflows near beta = 710, the well depth at the spinodal near 356
    for call in (lambda: solve_canonical(CanonicalParams(800.0, 1.0)),
                 lambda: second_order_coupling(800.0),
                 lambda: cumulant_inflection(800.0),
                 lambda: canonical_criticals(400.0)):
        with pytest.raises(DomainError, match="BETA_MAX"):
            call()
    sol = solve_canonical(CanonicalParams(BETA_MAX, 1.5))
    assert sol.phase_label == "pair"


@pytest.mark.parametrize("beta, K", [(1e-160, 1e-160), (1.0, 1e-200),
                                     (0.5, 5e-324), (2.0, 1e-170)])
def test_tiny_couplings_give_the_origin_alone(beta, K):
    # 2 beta K^2 underflows to 0, and the band of the Landau coefficient
    # divided by it (ZeroDivisionError); d lies far on its +inf side, and
    # the dual route, which never divides by 2 beta K, answers {0} too
    params = CanonicalParams(beta, K)
    sol = solve_canonical(params)
    assert sol.z_points == (0.0,) and sol.types == (1,)
    assert sol.phase_label == "unique"
    assert dual_route_minimum(params)[1] == sol.z_points
    assert canonical._landau(beta, K) > 0.0


def test_underflowed_tilt_raises_domain_error():
    # 2 beta K rounds to 0 at beta < 0.5 and K = 5e-324: the tilt
    # w = 2 beta K z maps every z to 0
    with pytest.raises(DomainError, match="2 beta K > 0"):
        solve_canonical(CanonicalParams(0.2, 5e-324))


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_sixth_derivative_overflow_raises_domain_error(factor):
    # at the spinodal e^beta/(4 beta) of beta = 150, (2 beta K)^6 exceeds
    # the float range; an OverflowError used to escape.  The derivatives are
    # computed only where they are asked for: by mag_potential and by
    # classify_minimum, not by solve_canonical, which decides the types from
    # the Landau coefficient and returns the pair at +-1
    params = CanonicalParams(150.0, second_order_coupling(150.0) * factor)
    for call in (lambda: mag_potential(params, 0.0, 6),
                 lambda: classify_minimum(params, 1.0)):
        with pytest.raises(DomainError, match="overflows the float range"):
            call()
    sol = solve_canonical(params)
    assert sol.z_points == (-1.0, 1.0) and sol.types == (1, 1)
    beta, K = params.beta, params.K
    value = -beta * K + beta + math.log1p(2.0 * math.exp(-beta))
    assert abs(sol.min_value - value) <= 1e-12 * abs(value)


def test_minimum_type_when_curvature_falls_under_tolerance():
    # just above log 4 the record is near-tricritical: at z = 0, G'' = 6.7e-14
    # while G'''' = -4.4e-6 is negative, so a ladder of even derivatives
    # against an absolute tolerance found no type; K lies 109 ulps below
    # Kc2, outside the one-ulp critical band, so the origin is of type 1
    params = CanonicalParams(1.3862946035660924, 1.082021266322187)
    r, evens = minimum_type(params, 0.0)
    assert 0.0 < evens[0] < 1e-13 and evens[1] < 0.0
    assert r == 1
    sol = solve_canonical(params)
    assert sol.phase_label == "triple"
    assert sol.types[sol.z_points.index(0.0)] == 1


def test_cumulant_inflection():
    assert cumulant_inflection(BETA_C) == 0.0
    expect = math.log(1.7 + math.sqrt(1.7 ** 2 - 1.0))
    assert abs(cumulant_inflection(math.log(5.0)) - expect) < 1e-12
    wc = cumulant_inflection(2.0)
    assert cumulant(2.0, wc - 0.01, 3) > 0.0 > cumulant(2.0, wc + 0.01, 3)
    with pytest.raises(DomainError):
        cumulant_inflection(1.0)


def test_tangency_self_consistency():
    beta = 2.0
    w1, k1, k2 = tangency(beta)
    g = w1 * cumulant(beta, w1, 2) - cumulant(beta, w1, 1)
    assert abs(g) < 1e-11
    k1_alt = w1 / (2.0 * beta * cumulant(beta, w1, 1))
    assert abs(k1 - k1_alt) < 1e-11
    assert w1 > cumulant_inflection(beta)
    assert k1 < k2


def test_positive_well():
    beta, K = 1.0, 1.5
    params = CanonicalParams(beta, K)
    w = positive_well(beta, K)
    assert w > 0.0
    assert abs(tilt_potential(params, w, 1)) < 1e-12
    assert tilt_potential(params, w, 2) > 0.0
    assert positive_well(1.0, 1.3) < positive_well(1.0, 1.6)
    with pytest.raises(DomainError):
        positive_well(1.0, 1.0)
    with pytest.raises(DomainError):   # below tangency above log 4
        positive_well(2.0, tangency(2.0)[1] * (1.0 - 1e-3))


def test_pair_rows_next_to_log4_derive_one_tangency(monkeypatch):
    # beta = 1.3862944 lies 5.7e-8 above log 4: its first-order record
    # derives the tangency once, and its rows select their minimizers by
    # value, with no tangency of their own
    from begphase.diagram import sweep_canonical
    calls = []
    real = canonical.tangency
    monkeypatch.setattr(canonical, "tangency",
                        lambda beta: calls.append(beta) or real(beta))
    rows, _ = sweep_canonical([1.3862944], [1.0, 1.05, 1.1, 1.15, 1.2])
    assert [r.branch for r in rows].count("pair") == 3
    assert calls == [1.3862944]


def test_positive_well_approaches_tangency_point():
    beta = 2.0
    w1, k1, _ = tangency(beta)
    gaps = [positive_well(beta, k1 + d) - w1 for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(g > 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05


def test_well_depth_signs_and_monotonicity():
    beta = 2.0
    w1, k1, k2 = tangency(beta)
    assert well_depth(beta, k1) > 0.0
    assert well_depth(beta, k2) < 0.0
    ds = [well_depth(beta, K) for K in np.linspace(k1, k2, 20)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_first_order_coupling():
    beta = 2.0
    kc1 = first_order_coupling(beta)
    w1, k1, k2 = tangency(beta)
    assert k1 < kc1 < k2
    assert abs(well_depth(beta, kc1)) < 1e-10
    assert abs(first_order_coupling(BETA_C + 1e-3) - 1.0820) < 1e-2
    assert 1.0 < first_order_coupling(5.0) < 1.0820


@pytest.mark.parametrize("delta", [1e-6, 1e-5, 1e-4, 1e-3])
def test_tricritical_landau_limit(delta):
    # with G = a2 z^2 + a4 z^4 + a6 z^6 the tangency is a2 = a4^2/(3 a6)
    # and the tie a2 = a4^2/(4 a6), so Kc1 sits 3/4 of the way from the
    # spinodal k2 down to the tangency coupling k_t; w_t ~ sqrt(10 delta)
    beta = BETA_C + delta
    w1, k1, k2 = tangency(beta)
    assert abs((k2 - first_order_coupling(beta)) / (k2 - k1) - 0.75) < 1e-3
    assert abs(w1 / math.sqrt(10.0 * delta) - 1.0) < 1e-3


@pytest.mark.parametrize("ulps", [1, 4, 100])
def test_first_order_data_next_to_log4(ulps):
    # the scaled h and g start from a(1 - 3a) > 0 at w = 0 for every
    # beta > log 4, so both roots exist a few ulps above it; the couplings
    # lie within 0.6 (beta - log 4)^2 of each other, far under an ulp
    beta = BETA_C
    for _ in range(ulps):
        beta = math.nextafter(beta, 2.0)
    w1, k1, k2 = tangency(beta)
    kc1 = first_order_coupling(beta)
    assert 0.0 < w1 < 1e-6
    assert max(abs(k1 - k2), abs(kc1 - k2)) <= 2.0 * math.ulp(k2)


# (beta, (w*, Kc1), (w_t, k_t)) of _tilt_root(beta, 0) and (beta, 1), pinned
# from the search that evaluated both ends of its bracket
TILT_ROOTS = [
    (math.nextafter(BETA_C, math.inf), (5.133181303754602e-08, 1.0820212806667227),
     (4.191224983797756e-08, 1.0820212806667224)),
    (1.3917014675404638, (0.284927551849022, 1.0817),
     (0.23250236303985902, 1.0816956372227167)),
    (1.9020099377217228, (2.916468825652617, 1.05),
     (2.270452335684816, 1.0270850013000183)),
    (3.2821548290023923, (6.329307697369272, 1.01),
     (4.55181540753496, 0.8883947664696078)),
    (37.0, (74.0, 1.0), (40.680869187093435, 0.5635955438914799)),
    (BETA_MAX, (600.0, 1.0), (305.71939132467776, 0.5112044550541114)),
]


@pytest.mark.parametrize("beta, first_order, tangent", TILT_ROOTS)
def test_tilt_root_takes_its_bracket_ends_in_closed_form(monkeypatch, beta,
                                                         first_order, tangent):
    # the scaled h and g are a(1 - 3a)/12 and a(1 - 3a)/3 > 0 at w = 0 and
    # negative at 3 beta/log 4 + 1: neither end is evaluated, and the roots
    # keep their bits
    a, eps = canonical._a_eps(beta)
    hi = 3.0 * beta / BETA_C + 1.0
    h, g = canonical._scaled_h_g(beta, a, eps, 0.0)[:2]
    assert (h, g) == (a * (eps / 12.0), a * (eps / 3.0)) and h > 0.0 and g > 0.0
    assert all(v < 0.0 for v in canonical._scaled_h_g(beta, a, eps, hi)[:2])
    points = []
    scaled = canonical._scaled_h_g
    monkeypatch.setattr(canonical, "_scaled_h_g", lambda b, a, eps, w:
                        points.append(w) or scaled(b, a, eps, w))
    for i, want in enumerate((first_order, tangent)):
        points.clear()
        assert canonical._tilt_root(beta, i)[:2] == want
        assert points and 0.0 not in points and hi not in points


@pytest.mark.parametrize("beta, kc1", [(1.39, 1.0818013889715028),
                                       (2.0, 1.0448832063996722),
                                       (5.0, 1.0013046030279322),
                                       (12.0, 1.0000005119815132)])
def test_first_order_coupling_pins(beta, kc1):
    assert abs(first_order_coupling(beta) - kc1) <= 1e-13 * kc1


@settings(max_examples=60, deadline=None)
@given(st.floats(BETA_C + 1e-5, BETA_MAX))
def test_first_order_coupling_levels_the_well(beta):
    # the root of w c'(w) = 2 c(w) is checked against the well search, down
    # to log 4 + 1e-5, where k2 - k_t is 6e-11
    _, k1, k2 = tangency(beta)
    kc1 = first_order_coupling(beta)
    assert k1 < kc1 < k2
    assert abs(well_depth(beta, kc1)) <= 1e-13
    assert solve_canonical(CanonicalParams(beta, kc1)).phase_label == "triple"


def test_criticals_report():
    low = canonical_criticals(1.0)
    assert low.k_second_order is not None and low.k_first_order is None
    high = canonical_criticals(2.0)
    assert high.k_second_order is None
    assert high.k_tangent < high.k_first_order < high.k_spinodal
    # beta > BETA_C is the regime test, exactly: log 4 lies between BETA_C
    # and the next float, and decimal approximations of log 4 take the
    # branch of their side
    assert canonical_criticals(BETA_C).k_first_order is None
    for beta in (math.nextafter(BETA_C, 2.0), 1.3862944):
        crit = canonical_criticals(beta)
        assert crit.k_second_order is None and crit.k_first_order is not None
    assert canonical_criticals(1.3862943).k_first_order is None


def test_float32_beta_is_solved_in_double_precision():
    # np.float32 is no Python float: the beta check of cumulant refused it
    # with "beta must be finite and positive, got 1.0"
    assert repr(solve_canonical(CanonicalParams(np.float32(1.0), 1.5))) == repr(
        solve_canonical(CanonicalParams(1.0, 1.5)))
    assert canonical_criticals(np.float32(2.0)) == canonical_criticals(2.0)
    assert type(canonical_criticals(np.float64(2.0)).beta) is float


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solve_unique_phase():
    sol = solve_canonical(CanonicalParams(1.0, 1.0))
    assert sol.z_points == (0.0,)
    assert sol.phase_label == "unique"
    assert sol.macrostates[0].isclose(single_site_measure(1.0), tol=1e-12)


def test_solve_pair_phase_swap_symmetry():
    sol = solve_canonical(CanonicalParams(1.0, 1.5))
    assert sol.phase_label == "pair"
    lo, hi = sol.macrostates
    assert lo.nu_minus == hi.nu_plus
    assert lo.nu_zero == hi.nu_zero
    assert lo.nu_plus == hi.nu_minus
    assert sol.z_points[1] > 0.0
    for z, w in zip(sol.z_points, sol.w_points):
        assert w == 2.0 * 1.0 * 1.5 * z
        assert abs(mag_potential(sol.params, z, 1)) < 1e-10
        assert mag_potential(sol.params, z, 0) - sol.min_value < 1e-12


def test_solve_triple_at_first_order_coupling():
    beta = 2.0
    kc1 = first_order_coupling(beta)
    sol = solve_canonical(CanonicalParams(beta, kc1))
    assert sol.phase_label == "triple"
    gvals = [mag_potential(sol.params, z, 0) for z in sol.z_points]
    assert max(gvals) - min(gvals) < 1e-12
    assert all(abs(mag_potential(sol.params, z, 1)) < 1e-10 for z in sol.z_points)


def test_branch_boundaries():
    for beta in (0.7, 1.0, BETA_C):
        kc2 = second_order_coupling(beta)
        assert len(solve_canonical(CanonicalParams(beta, kc2 - 1e-4)).z_points) == 1
        assert len(solve_canonical(CanonicalParams(beta, kc2)).z_points) == 1
        # G''(0) < 0 just above Kc2: the origin is no minimizer there
        assert len(solve_canonical(CanonicalParams(beta, kc2 + 5e-10)).z_points) == 2
        assert len(solve_canonical(CanonicalParams(beta, kc2 + 1e-4)).z_points) == 2
    for beta in (2.0, 3.0):
        kc1 = first_order_coupling(beta)
        assert len(solve_canonical(CanonicalParams(beta, kc1 - 1e-4)).z_points) == 1
        assert len(solve_canonical(CanonicalParams(beta, kc1)).z_points) == 3
        assert len(solve_canonical(CanonicalParams(beta, kc1 + 1e-4)).z_points) == 2


def test_solve_in_the_snap_band():
    # beta = log 4 + 1.8e-9 lies in (log 4, log 4 + 1e-7], where decimal
    # approximations of log 4 fall; K = 3/(2 log 4) - 1e-10 exceeds the
    # spinodal Kc2(beta), so the origin is no minimizer (G''(0) < 0).
    # Branch selection from the record kept z = 0 there and the type ladder
    # raised.  The well is the 60-digit root 0.0019730956448654; P' in plain
    # floats put it at 0.00197355860319, 2.3e-4 away
    K = 3.0 / (2.0 * math.log(4.0)) - 1e-10
    params = CanonicalParams(1.3862943629346534, K)
    crit = canonical_criticals(params.beta)
    assert crit.k_first_order <= crit.k_spinodal < K
    assert mag_potential(params, 0.0, 2) < 0.0
    sol = solve_canonical(params)
    assert sol.phase_label == "pair"
    z = sol.z_points[1]
    assert sol.z_points[0] == -z and abs(z - 0.0019730956448654) < 1e-12


def test_solve_one_float_above_log4():
    # beta is the float above log 4, K within an ulp of Kc2(beta): the
    # Landau coefficient is d = -3.27e-17 < 0 (80 digits), so the origin is
    # a maximum and the minimizers are the 60-digit wells
    # +-1.2151140498295703e-4, with P = -1.45e-24 there.  Zeroing d within
    # an ulp of log 4 gave the triple {0, +-1.976e-8}, with the origin of
    # type 3; c(w) summed as the difference of two logs reported the depth
    # as +1.14e-16, a global minimum above the origin's exact 0
    sol = solve_canonical(CanonicalParams(1.3862943611198908, 1.0820212806667227))
    assert sol.phase_label == "pair" and sol.types == (1, 1)
    z = sol.z_points[1]
    assert sol.z_points[0] == -z
    assert abs(z - 1.2151140498295703e-4) <= 1e-9 * z
    assert abs(sol.min_value) <= 1e-23


def test_type_three_only_at_beta_c():
    kc2 = second_order_coupling(BETA_C)
    assert solve_canonical(CanonicalParams(BETA_C, kc2)).types == (3,)
    below = math.nextafter(BETA_C, 0.0)
    kc2 = second_order_coupling(below)
    assert solve_canonical(CanonicalParams(below, kc2)).types == (2,)


def _couplings_60(beta):
    # (k_tangent, k_first_order, k_spinodal) at 60 digits: the roots of
    # w c'' = c' and w c' = 2c, each read as w/(2 beta c'(w)), and
    # e^beta/(4 beta) + 1/(2 beta)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        e = mpmath.exp(-b)
        delta = b - mpmath.log(4)

        def c(w):
            return mpmath.log((1 + 2 * e * mpmath.cosh(w)) / (1 + 2 * e))

        def c1(w):
            return 2 * e * mpmath.sinh(w) / (1 + 2 * e * mpmath.cosh(w))

        def c2(w):
            return 2 * e * (mpmath.cosh(w) + 2 * e) / (1 + 2 * e * mpmath.cosh(w)) ** 2

        w_t = mpmath.findroot(lambda w: (w * c2(w) - c1(w)) / w ** 3,
                              mpmath.sqrt(10 * delta))
        w_s = mpmath.findroot(lambda w: (w * c1(w) - 2 * c(w)) / w ** 4,
                              mpmath.sqrt(15 * delta))
        return ([w / (2 * b * c1(w)) for w in (w_t, w_s)]
                + [mpmath.exp(b) / (4 * b) + 1 / (2 * b)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(BETA_C, BETA_C + 1e-7, exclude_min=True),
                 st.integers(1, 60).map(lambda n: BETA_C + n * math.ulp(BETA_C))))
@example(1.3862944)
def test_record_next_to_log4_is_first_order_and_ordered(beta):
    # the three couplings lie within 0.6 (beta - log 4)^2 of one another,
    # less than their rounding: the record orders them.  Unordered, 167 of
    # 397 records in (log 4, log 4 (1 + 1e-7)] came out misordered
    crit = canonical_criticals(beta)
    assert crit.k_second_order is None
    assert crit.k_tangent <= crit.k_first_order <= crit.k_spinodal


@pytest.mark.parametrize("beta", [1.3862944, 1.38629441,
                                  BETA_C + 60 * math.ulp(BETA_C)])
def test_record_next_to_log4_matches_60_digit_couplings(beta):
    crit = canonical_criticals(beta)
    got = (crit.k_tangent, crit.k_first_order, crit.k_spinodal)
    for k, want in zip(got, _couplings_60(beta)):
        assert abs(k - want) <= 2.0 * math.ulp(k)


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(0.03), math.log(30.0)).map(math.exp), st.floats(0.2, 4.0))
@example(1.196595328470077, 1.1091536357548972)
def test_lifted_minimizers_are_exact_mirrors(beta, K):
    # the tilted masses at -t are those at t mirrored to the last bit; the
    # sum wm + w0 + wp left nu at z and -z 1 ulp apart at the example
    sol = solve_canonical(CanonicalParams(beta, K))
    for lo, hi in zip(sol.macrostates, reversed(sol.macrostates)):
        assert (lo.nu_minus, lo.nu_zero, lo.nu_plus) == (
            hi.nu_plus, hi.nu_zero, hi.nu_minus)


# 60-digit roots of P' at beta = 1, K = Kc2(1.0) + m ulps; plain floats put
# the well 9.6x too far out at m = 2 and read m = 256 as the origin alone
KC2_LADDER = [(2, 3.1606716984515128e-8), (4, 4.9930849040593686e-8),
              (16, 1.0704074201053727e-7), (256, 4.3674974039509037e-7),
              (4096, 1.7491232604619536e-6), (2 ** 16, 6.9970237738293069e-6),
              (2 ** 20, 2.7988227765563787e-5)]


@pytest.mark.parametrize("m, z_ref", KC2_LADDER)
def test_well_ladder_above_the_second_order_coupling(m, z_ref):
    kc2 = second_order_coupling(1.0)
    sol = solve_canonical(CanonicalParams(1.0, kc2 + m * math.ulp(kc2)))
    assert sol.phase_label == "pair" and sol.types == (1, 1)
    assert abs(sol.z_points[1] - z_ref) <= 1e-9 * z_ref


def test_one_ulp_above_the_second_order_coupling_is_critical():
    # Kc2(1.0) + 1 ulp lies 0.34 ulp above the real Kc2, inside the one-ulp
    # critical band: the origin alone, of type 2
    kc2 = second_order_coupling(1.0)
    sol = solve_canonical(CanonicalParams(1.0, kc2 + math.ulp(kc2)))
    assert sol.z_points == (0.0,) and sol.types == (2,)


@pytest.mark.parametrize("beta, K, r", [
    (1.0, second_order_coupling(1.0), 2),
    (BETA_C, 3.0 / (2.0 * BETA_C), 3),
    (1.3862946035660924, 1.082021266322187, 1),   # 109 ulps below Kc2
])
def test_type_of_the_origin(beta, K, r):
    params = CanonicalParams(beta, K)
    sol = solve_canonical(params)
    assert sol.types[sol.z_points.index(0.0)] == r
    assert minimum_type(params, 0.0)[0] == r


@st.composite
def _canonical_points(draw):
    # the bulk, and K within a few ulps of Kc2(beta) up to log 4, where the
    # origin is critical, including the floats next to log 4
    beta = draw(st.one_of(
        st.floats(0.05, 5.0),
        st.sampled_from([BETA_C, math.nextafter(BETA_C, 0.0),
                         math.nextafter(BETA_C, 2.0)]),
        st.floats(0.05, BETA_C)))
    K = draw(st.one_of(st.floats(0.2, 4.0), st.integers(-4, 4).map(
        lambda m: second_order_coupling(beta) * (1.0 + m * 2.0 ** -52))))
    return CanonicalParams(beta, K)


@settings(max_examples=120, deadline=None)
@given(_canonical_points())
def test_solver_types_are_minimum_type(params):
    # solve_canonical decides the types from the Landau coefficient alone;
    # minimum_type decides them the same way next to its derivatives
    sol = solve_canonical(params)
    assert sol.types == tuple(minimum_type(params, z)[0] for z in sol.z_points)


def test_solver_takes_no_higher_derivative(monkeypatch):
    # the types come from the Landau coefficient: no G or G'' is
    # computed, in every branch (origin, pair, triple; r = 1, 2, 3)
    orders = []
    potential = canonical.mag_potential

    def counted(params, z, order=0):
        orders.append(order)
        return potential(params, z, order)

    monkeypatch.setattr(canonical, "mag_potential", counted)
    for beta, K in ((1.0, 1.0), (1.0, 1.5), (1.0, second_order_coupling(1.0)),
                    (BETA_C, 3.0 / (2.0 * BETA_C)), (2.0, 1.05),
                    (1.3862946035660924, 1.082021266322187)):
        solve_canonical(CanonicalParams(beta, K))
    assert orders and max(orders) < 4


@pytest.mark.parametrize("beta, K", [(0.5, 1e200), (1.0, 1e308),
                                     (300.0, 1e307), (1.0, 6.8e153)])
def test_solver_refuses_a_tilt_whose_square_overflows(beta, K):
    # the potential squares 2 beta K: (0.5, 1e200) came out min_value = inf
    # and 2 beta K = inf raised BracketError on [0, inf]
    with pytest.raises(DomainError, match="2 beta K"):
        solve_canonical(CanonicalParams(beta, K))


def test_solver_takes_the_largest_tilt_that_squares():
    sol = solve_canonical(CanonicalParams(1.0, 6.5e153))
    assert sol.phase_label == "pair" and math.isfinite(sol.min_value)


def test_no_raise_next_to_the_spinodal_above_log4():
    # K = Kc2(beta) + m ulps, |m| <= 4, beta - log 4 from 1e-14 to 1e-2: the
    # even-derivative ladder raised RuntimeError at 323 of these 3600 solves.
    # beta lies more than an ulp above log 4, so every minimizer is of type 1
    for delta in np.logspace(-14, -2, 400):
        beta = BETA_C + float(delta)
        kc2 = second_order_coupling(beta)
        for m in range(-4, 5):
            sol = solve_canonical(CanonicalParams(beta, kc2 + m * math.ulp(kc2)))
            assert set(sol.types) == {1}


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, BETA_C, exclude_max=True), st.integers(2, 2 ** 30),
       st.integers(2, 2 ** 30))
def test_well_grows_from_the_second_order_coupling(beta, m1, m2):
    # below log 4, a K more than an ulp above the real Kc2 gives a pair of
    # type-1 minimizers whose |z| does not decrease with K.  The float Kc2
    # is off by up to 1.4 ulps, so Kc2 + 2 ulps can still lie in the one-ulp
    # critical band, where the origin alone is of type 2
    kc2 = second_order_coupling(beta)
    with decimal.localcontext(decimal.Context(prec=40)):
        b = decimal.Decimal(beta)
        real_kc2 = (b.exp() + 2) / (4 * b)
    zs = [0.0]
    for m in sorted((m1, m2)):
        params = CanonicalParams(beta, kc2 + m * math.ulp(kc2))
        sol = solve_canonical(params)
        if decimal.Decimal(params.K) - real_kc2 <= math.ulp(params.K):
            assert sol.z_points == (0.0,) and sol.types == (2,)
            continue
        assert sol.phase_label == "pair"
        rep = classify_minimum(params, sol.z_points[1])
        assert rep.r == 1 and rep.sigma2 > 0.0
        zs.append(sol.z_points[1])
    assert zs == sorted(zs)


def test_two_ulps_above_a_float_kc2_off_by_more_than_an_ulp():
    # the float Kc2(0.8291353678826543) lies 1.0 ulp below the real one
    beta = 0.8291353678826543
    kc2 = second_order_coupling(beta)
    sol = solve_canonical(CanonicalParams(beta, kc2 + 2.0 * math.ulp(kc2)))
    assert sol.z_points == (0.0,) and sol.types == (2,)
    sol = solve_canonical(CanonicalParams(beta, kc2 + 3.0 * math.ulp(kc2)))
    assert sol.phase_label == "pair" and sol.types == (1, 1)


@pytest.mark.parametrize("beta, K", [(1.0, 1.0), (1.0, 1.5), (BETA_C, 1.1),
                                     (BETA_C + 1e-8, 1.0821), (2.0, 1.0),
                                     (2.0, 1.1), (2.0, first_order_coupling(2.0))])
def test_solve_canonical_derives_no_critical_coupling(monkeypatch, beta, K):
    # the minimizers are selected by value: no tangency or first-order root
    def refuse(*args):
        raise AssertionError(f"derived a critical coupling at {args}")

    for name in ("canonical_criticals", "tangency", "_first_order_coupling"):
        monkeypatch.setattr(canonical, name, refuse)
    sol = solve_canonical(CanonicalParams(beta, K))
    assert sol.phase_label in ("unique", "pair", "triple")


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-2, BETA_MAX), st.floats(-0.5, 0.5))
def test_solver_agrees_with_the_critical_record(beta, s):
    # two independent routes: the record's critical coupling against the
    # value comparison of the solver, away from the coupling by > 1e-6
    assume(abs(s) > 1e-6)
    crit = canonical_criticals(beta)
    kc = crit.k_second_order if beta <= BETA_C else crit.k_first_order
    K = kc * (1.0 + s)
    label = solve_canonical(CanonicalParams(beta, K)).phase_label
    assert label == ("unique" if K < kc else "pair")


def test_continuity_versus_jump():
    kc2 = second_order_coupling(1.0)
    ladder = [max(solve_canonical(CanonicalParams(1.0, kc2 + d)).z_points)
              for d in (1e-2, 1e-3, 1e-4)]
    assert ladder[0] > ladder[1] > ladder[2] > 0.0
    kc1 = first_order_coupling(2.0)
    z_at = max(solve_canonical(CanonicalParams(2.0, kc1)).z_points)
    assert z_at > 0.1
    for d in (1e-2, 1e-3, 1e-4):
        z = max(solve_canonical(CanonicalParams(2.0, kc1 + d)).z_points)
        assert z >= z_at


def test_stationarity_via_rate_derivative():
    for beta, K in ((1.0, 1.5), (2.0, 1.2), (0.8, 2.0)):
        sol = solve_canonical(CanonicalParams(beta, K))
        for z in sol.z_points:
            if z != 0.0:
                assert abs(mean_tilt(beta, z) - 2.0 * beta * K * z) < 1e-8


def test_lifted_means_match_minimizers():
    for beta, K in ((1.0, 1.5), (2.0, 1.05), (3.0, 1.4), (0.5, 3.0)):
        sol = solve_canonical(CanonicalParams(beta, K))
        for z, mac in zip(sol.z_points, sol.macrostates):
            assert abs(mac.mean() - z) < 1e-10


def test_duality_of_both_minimization_routes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = CanonicalParams(rng.uniform(0.2, 4.0), rng.uniform(0.2, 3.0))
        dual_val, dual_args = dual_route_minimum(params)
        sol = solve_canonical(params)
        assert abs(dual_val - sol.min_value) < 1e-9
        assert len(dual_args) == len(sol.z_points)
        for a, b in zip(dual_args, sol.z_points):
            assert abs(a - b) < 1e-8


@pytest.mark.parametrize("beta, K", [(1.0, 1.5), (2.0, 1.05), (0.5, 0.8)])
def test_dual_route_returns_python_floats(beta, K):
    # the grid rates were numpy arrays, so the minimum was an np.float64
    value, args = dual_route_minimum(CanonicalParams(beta, K))
    assert type(value) is float
    assert args and all(type(z) is float for z in args)


@pytest.mark.parametrize("K", [1e3, 1e6, 1e10])
def test_dual_route_at_large_coupling(K):
    # the minimizers round to +-1, past the last grid point 1 - 1e-9; at
    # K = 1e10 the Newton polish left its golden bracket and converged to 0
    params = CanonicalParams(1.0, K)
    value, args = dual_route_minimum(params)
    sol = solve_canonical(params)
    assert sol.z_points == (-1.0, 1.0)
    assert args == (-1.0, 1.0)
    assert abs(value - sol.min_value) <= 4.0 * math.ulp(sol.min_value)


def test_dual_route_at_large_beta():
    # a 4001-point grid with golden section and a Newton polish returned
    # the one minimizer -1.667e-4 with value 3.4e-3
    assert dual_route_minimum(CanonicalParams(30.0, 0.5)) == (0.0, (0.0,))
    # past BETA_MAX, where e^-beta underflows and c''(0) rounds to 0
    assert dual_route_minimum(CanonicalParams(1e4, 0.5)) == (0.0, (0.0,))
    assert dual_route_minimum(CanonicalParams(1e4, 1.001))[1] == (-1.0, 1.0)
    with pytest.raises(DomainError, match="2 beta K finite"):
        dual_route_minimum(CanonicalParams(1e300, 1e10))


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(math.exp(x), hi))


@settings(max_examples=300, deadline=None)
@given(_log_uniform(1e-2, 300.0), _log_uniform(1e-2, 1e6))
def test_dual_route_matches_the_solver(beta, K):
    assume(abs(K / second_order_coupling(beta) - 1.0) > 1e-6)
    assume(beta <= BETA_C or abs(K / first_order_coupling(beta) - 1.0) > 1e-6)
    params = CanonicalParams(beta, K)
    value, args = dual_route_minimum(params)
    sol = solve_canonical(params)
    assert len(args) == len(sol.z_points)
    assert abs(value - sol.min_value) <= 1e-12 * max(1.0, abs(sol.min_value))
    assert all(abs(a - z) <= 1e-10 for a, z in zip(args, sol.z_points))


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.3, BETA_C + 1e-3, 2.0, 5.0,
                                  30.0, 150.0, 300.0])
def test_dual_route_counts_next_to_the_critical_couplings(beta):
    # within 1e-8 of Kc2 and Kc1 the grid route counted other minimizers
    couplings = [second_order_coupling(beta)]
    if beta > BETA_C:
        couplings.append(first_order_coupling(beta))
    for kc in couplings:
        for k in range(4, 13):
            for sign in (-1.0, 1.0):
                params = CanonicalParams(beta, kc * (1.0 + sign * 10.0 ** -k))
                _, args = dual_route_minimum(params)
                assert len(args) == len(solve_canonical(params).z_points)


@pytest.mark.parametrize("beta, K", [(1.2, 1.1), (1.5, 1.0), (0.7, 2.0),
                                     (BETA_C + 1e-9, 1.08)])
def test_landau_poly_is_the_taylor_expansion_of_the_slope(beta, K):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b, k = mpmath.mpf(beta), mpmath.mpf(K)
        taylor = mpmath.taylor(lambda w: w * w / (4 * b * k) - mpmath.log(
            1 + mpmath.exp(-b) * 2 * mpmath.cosh(w)), 0, 6)
        want = [float(n * taylor[n]) for n in (4, 6)]
    # P'(w)/w = d + b w^2 + c w^4: b = 4 t4 and c = 6 t6 of the Taylor
    # coefficients t_n of P; d is _landau's, signed exactly
    d = canonical._landau(beta, K)
    got = canonical._landau_poly(beta, d)
    assert got[0] == d
    for g, w in zip(got[1:], want):
        assert abs(g - w) <= 1e-14 * abs(w)


def test_solver_matches_simplex_oracle():
    rng = np.random.default_rng(37)
    from conftest import assert_sets_close

    for _ in range(4):
        beta = rng.uniform(0.4, 2.8)
        K = rng.uniform(0.3, 2.2)
        sol = solve_canonical(CanonicalParams(beta, K))
        minima, _ = simplex_oracle("canonical", beta=beta, K=K, grid_step=5e-4)
        assert_sets_close(sol.macrostates, minima, tol=2e-3)


def test_free_energy():
    params = CanonicalParams(1.0, 0.9)   # below critical
    rho = single_site_measure(1.0)
    expect = rel_entropy(rho, UNIFORM) + 1.0 * energy_per_site(rho, 0.9)
    assert abs(canonical_free_energy(params) - expect) < 1e-14

    pair = CanonicalParams(1.0, 1.5)
    sol = solve_canonical(pair)
    vals = [rel_entropy(m, UNIFORM) + 1.0 * energy_per_site(m, 1.5)
            for m in sol.macrostates]
    assert abs(vals[0] - vals[1]) < 1e-10

    rng = np.random.default_rng(41)
    for _ in range(5):
        beta = rng.uniform(0.4, 2.5)
        K = rng.uniform(0.3, 2.0)
        _, oracle_val = simplex_oracle("canonical", beta=beta, K=K, grid_step=1e-3)
        assert abs(canonical_free_energy(CanonicalParams(beta, K)) - oracle_val) < 1e-5


def test_free_energy_duality_chain():
    # the free energy equals the potential minimum shifted by the log
    # normalizer of the single-site tilt: min G - log((1 + 2 e^-beta)/3)
    for beta, K in ((0.8, 0.9), (1.0, 1.5), (2.3, 1.1)):
        sol = solve_canonical(CanonicalParams(beta, K))
        shift = math.log((1.0 + 2.0 * math.exp(-beta)) / 3.0)
        assert abs(canonical_free_energy(CanonicalParams(beta, K))
                   - (sol.min_value - shift)) < 1e-10
