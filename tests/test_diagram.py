import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from conftest import floats_from, sampled_gap_intervals

from begphase import canonical, micro
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
    energy_domain,
    single_site_measure,
)
from begphase.diagram import (
    _default_beta_grid,
    _default_u_grid,
    _realized,
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
from begphase.micro import (
    U_STAR,
    _first_order_coupling_u,
    first_order_coupling_u,
    micro_entropy,
    second_order_coupling_u,
    shell_macrostate,
    solve_micro,
)


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


def test_tricritical_micro_is_the_last_first_order_float():
    # the bisection to 1e-15 stopped 7 ulps past it, where the first-order
    # coupling raised DomainError
    u_star, k_star = tricritical_micro()
    assert type(first_order_coupling_u(u_star)) is float
    with pytest.raises(DomainError):
        first_order_coupling_u(math.nextafter(u_star, 1.0))


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


@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, BETA_C])
def test_second_order_canonical_inversion_round_trips(beta):
    # Newton on the closed-form curve with its closed-form slope
    assert abs(beta_c2_of_K(second_order_coupling(beta)) - beta) <= 4.0 * math.ulp(beta)


@pytest.mark.parametrize("u", [tricritical_micro()[0], 0.4, 0.5, 0.6])
def test_second_order_micro_inversion_round_trips(u):
    assert abs(u_c2_of_K(second_order_coupling_u(u)) - u) <= 4.0 * math.ulp(u)


def test_second_order_inversions_name_the_attained_range():
    with pytest.raises(DomainError, match="falls from .* to K_c\\*"):
        beta_c2_of_K(1.05)
    with pytest.raises(DomainError, match="rises from K_m\\*"):
        u_c2_of_K(1.05)
    # the curve reaches +inf at u = 2/3, where lambda(2/3) = 0 closes the
    # bracket: the float 2/3 sits 3.7e-17 below it
    assert u_c2_of_K(1e300) == pytest.approx(2.0 / 3.0, abs=4.0 * math.ulp(2.0 / 3.0))


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
    rep.canonical_z   # the grid is solved on first read
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
    # Kc1(u) -> 1 as u -> 0, so the bracket starts at u = 0; from u = 0.02
    # these couplings (below Kc1(0.02) = 1.00324) were not attained
    u = u_c1_of_K(K)
    assert 0.0 < u < 0.02
    assert abs(first_order_coupling_u(u) - K) <= 1e-9


@pytest.mark.parametrize("invert, tie, module, kernel", [
    (beta_c1_of_K, "_first_order_tie", canonical, "_scaled_h_g"),
    (u_c1_of_K, "_first_order_tie_u", micro, "_tie")])
def test_first_order_inversion_solves_the_tie_once_per_iterate(monkeypatch, invert,
                                                               tie, module, kernel):
    # each inversion is one joint Newton solve, and each of its tie-kernel
    # evaluations counts as a point
    from begphase import diagram

    points = []
    solve = getattr(diagram, tie)

    def counted(x):
        points.append(x)
        return solve(x)

    expect = invert(1.05)
    monkeypatch.setattr(diagram, tie, counted)
    evaluate = getattr(module, kernel)
    monkeypatch.setattr(module, kernel,
                        lambda *args: points.append(args) or evaluate(*args))
    assert invert(1.05) == expect
    assert points and len(points) == len(set(points))
    # the gap and the report take the tie at the root from the inversion:
    # they solve it at the points the inversion alone solves, once each
    for K in (1.05, 1.0817, _KM - 1e-10):
        points.clear()
        try:
            invert(K)
        except DomainError:   # u_c1 from K_m* on
            pass
        alone = set(points)
        for make in (nonequivalence_gap, equivalence_report):
            points.clear()
            make(K)
            assert len(points) == len(set(points)) and set(points) == alone


@pytest.mark.parametrize("kind", [np.float32, np.float64])
def test_numpy_coupling_is_inverted_in_double_precision(kind):
    # a float32 K left the upper end of the gap in float32 and moved its
    # lower end by 1.3e-7
    K = kind(1.05)
    gap = nonequivalence_gap(K)
    assert gap == nonequivalence_gap(float(K))
    assert all(type(x) is float for x in gap[0])
    for invert in (beta_c1_of_K, u_c1_of_K):
        assert invert(K) == invert(float(K))
    assert beta_c2_of_K(kind(1.2)) == beta_c2_of_K(float(kind(1.2)))
    assert u_c2_of_K(kind(1.2)) == u_c2_of_K(float(kind(1.2)))


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


def test_sweep_canonical_transition_order_by_log4_decimals():
    # each decimal for log 4 labels its rows with the transition order of
    # its side: the record at beta > BETA_C, 1.3862944 among them, is the
    # first-order one
    rows, curves = sweep_canonical([1.3862943, 1.3862944], [1.0])
    assert [r.transition_order for r in rows] == [2, 1]
    assert curves[0].k_second_order is not None
    assert curves[1].k_second_order is None


def test_tangency_derived_once_per_beta(monkeypatch):
    # a sweep derives each beta's critical record once, for its curves, and
    # the record decides the rows below its first-order coupling (K = 1.0
    # at both beta) with no well search; the other rows and a standalone
    # solve select their minimizers by value and derive no tangency
    calls, searched = [], []
    tangency = canonical.tangency
    local_wells = canonical._local_wells
    piecewise_minima = canonical.piecewise_minima

    def counting(beta):
        calls.append(beta)
        return tangency(beta)

    def wells(params, d):
        searched.append((params.beta, params.K))
        return local_wells(params, d)

    def pieces(*args, **kwargs):
        searched.append("piecewise_minima")
        return piecewise_minima(*args, **kwargs)

    monkeypatch.setattr(canonical, "tangency", counting)
    monkeypatch.setattr(canonical, "_local_wells", wells)
    monkeypatch.setattr(canonical, "piecewise_minima", pieces)
    rows, _ = sweep_canonical([2.0, 3.0], [1.0, 1.05, 1.1, 1.3])
    assert calls == [2.0, 3.0]
    assert [r.minimizers for r in rows if r.control[1] == 1.0] == [(0.0,)] * 2
    assert [x for x in searched if x != "piecewise_minima"] == [
        (b, K) for b in (2.0, 3.0) for K in (1.05, 1.1, 1.3)]
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


def _bits(xs):
    return tuple(float(x).hex() for x in xs)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(0.3, 3.0), st.floats(-1e-6, 1e-6).map(lambda d: BETA_C + d)),
       st.lists(st.floats(0.8, 1.6), min_size=1, max_size=3), st.integers(-4, 4))
def test_sweep_canonical_rows_are_the_solves_bit_for_bit(beta, Ks, m):
    # the rows read the minimization solve_canonical lifts, also across
    # log 4 and m ulps from a first-order tie
    if beta > BETA_C:
        kc1 = first_order_coupling(beta)
        Ks = Ks + [kc1 + m * math.ulp(kc1)]
    rows, _ = sweep_canonical([beta], Ks)
    for r in rows:
        sol = solve_canonical(CanonicalParams(*r.control))
        assert _bits(r.minimizers) == _bits(sol.z_points)
        assert _bits([r.value]) == _bits([sol.min_value])
        assert r.branch == sol.phase_label


@st.composite
def _first_order_betas(draw):
    """beta > log 4: the floats just above it and up to 1e-15..1 above it,
    where the band grows like 1/z_t^2, the bulk, and up to BETA_MAX."""
    return draw(st.one_of(
        st.integers(1, 40).map(lambda n: floats_from(BETA_C, n, 2.0)),
        st.floats(-15.0, 0.0).map(lambda e: BETA_C + 10.0 ** e),
        st.floats(BETA_C, 10.0, exclude_min=True),
        st.floats(10.0, BETA_MAX),
        st.just(BETA_MAX)))


@settings(max_examples=150, deadline=None)
@given(_first_order_betas(), st.integers(-4, 4), st.floats(0.0, 1.0),
       st.floats(-300.0, 0.0))
def test_rows_below_the_band_are_the_search_bit_for_bit(beta, m, f, e):
    # the rows the record decides (K below Kc1 - band) are those of the
    # search: m ulps from the band's edge, anywhere below Kc1, and at a
    # log-uniform K down to 1e-300
    from begphase.diagram import _disordered_below
    crit = canonical.canonical_criticals(beta)
    cut = _disordered_below(crit)
    kc1 = crit.k_first_order
    Ks = [f * kc1, 10.0 ** e, crit.k_tangent, math.nextafter(crit.k_tangent, 0.0)]
    if cut > 0.0:
        Ks.append(floats_from(cut, abs(m), math.copysign(math.inf, m)))
    Ks = [K for K in Ks if K > 0.0]
    rows, _ = sweep_canonical([beta], Ks)
    for r in rows:
        zs, best, _ = canonical._canonical_minima(CanonicalParams(*r.control))
        assert _bits(r.minimizers) == _bits(zs)
        assert _bits([r.value]) == _bits([best])


@settings(max_examples=40, deadline=None)
@given(st.floats(-4.0, math.log10(BETA_MAX - BETA_C)), st.floats(0.01, 0.99))
@example(math.log10(BETA_MAX - BETA_C), 0.5)
def test_well_depth_bound_below_the_first_order_coupling(e, f):
    # D(K) >= beta z_t^2 (Kc1 - K) between the tangency and the first-order
    # coupling, at 60 digits: the depth of the one positive well, which the
    # band of _disordered_below reads from the record
    mpmath = pytest.importorskip("mpmath")
    beta = min(BETA_C + 10.0 ** e, BETA_MAX)
    crit = canonical.canonical_criticals(beta)
    kc1, k_t = crit.k_first_order, crit.k_tangent
    K = k_t + f * (kc1 - k_t)
    assume(k_t < K < kc1)
    w = canonical.positive_well(beta, K)
    with mpmath.workdps(60):
        b, k = mpmath.mpf(beta), mpmath.mpf(K)
        a = 2 * mpmath.exp(-b)

        def c(x):
            return mpmath.log(1 + a * mpmath.cosh(x)) - mpmath.log(1 + a)

        # the well: z = c'(2 beta K z)
        z = mpmath.findroot(lambda x: x - a * mpmath.sinh(2 * b * k * x)
                            / (1 + a * mpmath.cosh(2 * b * k * x)),
                            mpmath.mpf(w) / (2 * b * k))
        depth = b * k * z * z - c(2 * b * k * z)
        z_t = mpmath.mpf(crit.w_tangent) / (2 * b * mpmath.mpf(k_t))
        assert z > z_t
        assert depth >= b * z_t * z_t * (mpmath.mpf(kc1) - k)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(0.05, 0.6), st.floats(-1e-6, 1e-6).map(lambda d: U_STAR + d)),
       st.lists(st.floats(0.8, 1.6), min_size=1, max_size=3), st.integers(-4, 4))
def test_sweep_micro_rows_are_the_solves_bit_for_bit(u, Ks, m):
    if u < U_STAR:
        kc1 = first_order_coupling_u(u)
        Ks = Ks + [kc1 + m * math.ulp(kc1)]
    rows, _ = sweep_micro([u], Ks)
    assert len(rows) == len(Ks)
    for r in rows:
        params = MicroParams(*r.control)
        sol = solve_micro(params)
        assert _bits(r.minimizers) == _bits(sol.z_points)
        assert _bits([r.value]) == _bits([sol.entropy])
        assert r.branch == sol.phase_label
        # the mirrored lift of -z is the lift of -z
        for z, mac in zip(sol.z_points, sol.macrostates):
            lift = shell_macrostate(params, z)
            assert _bits(vars(mac).values()) == _bits(vars(lift).values())


def test_sweep_micro_refuses_where_solve_micro_does():
    # the lift of z = 0.2236 leaves the simplex (q = u + K z^2 rounds at
    # ulp(K) = 16): it alone refuses a row whose entropy -1.111 < -log 3
    # no macrostate can have, and micro_entropy, which returned that entropy
    u, K = -4999999999999992.0, 1e17
    with pytest.raises(DomainError) as want:
        solve_micro(MicroParams(u, K))
    for call in (lambda: sweep_micro([u], [K]),
                 lambda: micro_entropy(MicroParams(u, K))):
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == str(want.value)
    assert "masses must lie in [0, 1]" in str(got.value)


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
    # the parameters are checked as the params types check them: the scan
    # returned a minimum at K = -1 and ([], inf) at beta = nan, and divided
    # by zero at K = 0
    for kind, kw, name in (("canonical", dict(beta=1.0, K=-1.0), "K"),
                           ("canonical", dict(beta=math.nan, K=1.0), "beta"),
                           ("micro", dict(u=0.3, K=0.0), "K")):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive"):
            simplex_oracle(kind, **kw)
    with pytest.raises(DomainError, match="tolerance must lie in"):
        simplex_oracle("canonical", beta=1.0, K=1.0, tol=0.5)


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


def _refuse_solves(monkeypatch):
    from begphase import diagram

    def refuse(params):
        raise AssertionError(f"solved at {params}")

    monkeypatch.setattr(diagram, "solve_canonical", refuse)
    monkeypatch.setattr(diagram, "solve_micro", refuse)


@pytest.mark.parametrize("K", [0.5, 1.05, 1.0817, 1.5])
def test_equivalence_report_solves_no_grid_point_until_read(monkeypatch, K):
    _refuse_solves(monkeypatch)
    rep = equivalence_report(K)
    gaps = nonequivalence_gap(K)
    assert rep.gap_intervals == gaps
    assert rep.verdict == ("nonequivalent" if gaps else "equivalent")
    with pytest.raises(AssertionError, match="solved at"):
        rep.canonical_z
    with pytest.raises(AssertionError, match="solved at"):
        rep.micro_z


def _eager_z(K, beta_grid, u_grid):
    """canonical_z and micro_z as the report computed them when it solved
    every grid point as it was made: the tie {0, z_c} at beta_c1."""
    beta_grid, u_grid = list(beta_grid), list(u_grid)
    gaps = nonequivalence_gap(K)
    b_c1 = beta_c1_of_K(K) if gaps else None
    tie = (0.0, gaps[0][1]) if b_c1 in beta_grid else ()
    canon = np.union1d(tie, _realized(
        [b for b in beta_grid if b != b_c1],
        lambda b: solve_canonical(CanonicalParams(b, K))))
    return canon, _realized(u_grid, lambda u: solve_micro(MicroParams(u, K)))


@pytest.mark.parametrize("K, grids", [
    (1.05, "default"), (1.5, "default"), (1.05, "beta_c1"), (1.0817, "generator")])
def test_equivalence_values_read_back_match_the_eager_solves(K, grids):
    # bit for bit, the tie at beta_c1 included: the default grids and the
    # user grid hold beta_c1_of_K(K)
    if grids == "default":
        beta_grid, u_grid = _default_beta_grid(K), _default_u_grid(K)
        rep = equivalence_report(K)
    else:
        b_c1 = beta_c1_of_K(K)
        beta_grid = [0.5, 1.0, b_c1, b_c1 + 1e-6, 2.0, 3.0]
        u_grid = [0.05, 0.2, 0.4, 0.7]
        if grids == "generator":
            rep = equivalence_report(K, (b for b in beta_grid), (u for u in u_grid))
        else:
            rep = equivalence_report(K, beta_grid, u_grid)
    assert rep.beta_grid == tuple(beta_grid) and rep.u_grid == tuple(u_grid)
    canon, mic = _eager_z(K, beta_grid, u_grid)
    assert rep.canonical_z.tobytes() == canon.tobytes()
    assert rep.micro_z.tobytes() == mic.tobytes()
    assert rep.canonical_z is rep.canonical_z


@pytest.mark.parametrize("K, beta_grid, u_grid, bad", [
    (1.05, [1.0, -1.0], [0.2], "-1.0"),
    (1.05, [1.0, math.nan], [0.2], "nan"),
    (1.05, [1.0, BETA_MAX * 1.5], [0.2], "450.0"),
    (1.05, [1.0], [0.2, 1.5], "1.5"),
    (1.5, [1.0], [0.2, -0.6], "-0.6"),
    (1.5, [1.0], [math.inf], "inf"),
    (1.05, [0.5, 1.0, -1.0, math.nan, 2.0], [0.2], "-1.0"),
    (1.05, [1.0], [0.1, 0.2, 1.5, -5.0], "1.5"),
])
def test_equivalence_report_checks_its_grids_without_solving(monkeypatch, K,
                                                             beta_grid, u_grid, bad):
    # a point outside the domain is refused when the report is made, not on
    # first read of the values it would be solved for; the first bad point
    # is named, and generator grids are read once, up to that point
    _refuse_solves(monkeypatch)
    with pytest.raises(DomainError, match=f"got {bad}$"):
        equivalence_report(K, beta_grid, u_grid)
    read = []
    with pytest.raises(DomainError, match=f"got {bad}$"):
        equivalence_report(K, (read.append(b) or b for b in beta_grid),
                           (read.append(u) or u for u in u_grid))
    assert read == (beta_grid + u_grid)[:len(read)] and str(read[-1]) == bad


# (K, lo, hi) of the gap [lo, hi), to 12 digits, from the roots of
# REFERENCE_MICRO_TIES and REFERENCE_TIES.  At K = 1.0817, above the
# microcanonical tricritical coupling, it opens at 0
EXACT_GAPS = [
    (1.001, 0.991592544255, 0.994397306120),
    (1.02, 0.875690846472, 0.909528769434),
    (1.05, 0.668821319138, 0.730172146496),
    (1.0812, 0.0456522002542, 0.150116418875),
    (1.0817, 0.0, 0.0946349454214),
]


@pytest.mark.parametrize("K, lo, hi", EXACT_GAPS)
def test_equivalence_gap_is_exact(K, lo, hi):
    rep = equivalence_report(K)
    assert rep.verdict == "nonequivalent"
    (g_lo, g_hi), = rep.gap_intervals
    assert abs(g_lo - lo) < 1e-12 and abs(g_hi - hi) < 1e-12
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


# tie-kernel (_scaled_h_g) evaluations of beta_c1_of_K when it ran a
# Newton search over beta with a tie solve in w at each iterate; at
# K = 1.0121 half of its 13 tie solves were steps at the rounding level of Kc1
NESTED_EVALS = dict(zip([K for K, _, _ in REFERENCE_TIES] + [1.0121],
                        [78, 42, 40, 18, 16, 13, 9, 7, 14, 2, 3, 4, 95]))


@pytest.mark.parametrize("K", [K for K, _, _ in REFERENCE_TIES if K >= 1.001]
                         + [1.0121])
def test_canonical_inversion_starts_next_to_its_root(monkeypatch, K):
    # one Newton solve in (beta, w) from the tangent start needs at most
    # half the kernel evaluations of the nested search, and no 1-D search
    # over beta
    from begphase import diagram

    def refuse(*args, **kw):
        raise AssertionError("a 1-D search ran inside the inversion")

    for module in (canonical, diagram):
        monkeypatch.setattr(module, "bisect_newton", refuse)
    monkeypatch.setattr(canonical, "last_point", refuse)
    calls = []
    kernel = canonical._scaled_h_g
    monkeypatch.setattr(canonical, "_scaled_h_g",
                        lambda *args: calls.append(args) or kernel(*args))
    beta_c1_of_K(K)
    assert 0 < 2 * len(calls) <= NESTED_EVALS[K]


@pytest.mark.parametrize("K", [math.nextafter(1.0, 2.0), 1.0 + 1e-15,
                               math.nextafter(_KS, 0.0)])
def test_canonical_inversion_at_the_ends_of_its_range(K):
    # next to 1 the solve starts on the asymptote Kc1 - 1 ~ e^-beta/beta
    # (beta_c1 ~ 32.6 at the float above 1), next to K_c* on the tangent
    # of the second-order curve
    assert abs(first_order_coupling(beta_c1_of_K(K)) - K) <= 1e-15
    assert len(nonequivalence_gap(K)) == 1


def test_first_order_coupling_rounds_to_one_at_beta_max():
    # Kc1 - 1 ~ e^-beta/beta rounds to 0 from beta ~ 37 on
    assert first_order_coupling(BETA_MAX) == 1.0


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


# (K, u_c1, z_m): 80- to 100-digit roots of the tie F(z, q) = F(0, u) and
# the shell-rate stationarity at the float K, solved in (u, z) next to K_m*
# and in (log nu_0, log nu_-) next to 1.  K_m* - 10^-k is spelled out
REFERENCE_MICRO_TIES = [
    (1.0000000000001, 3.789207386728054659477e-12, 0.9999999999961108725410413),
    (1.000000000001, 3.472763512025050062091e-11, 0.9999999999642722759779621),
    (1.00000000001, 3.153949119527277805729e-10, 0.9999999996746050871204946),
    (1.0000000001, 2.836796042967914774613e-9, 0.9999999970632039407206363),
    (1.000000001, 2.521303387692017384871e-8, 0.9999999737869654056423453),
    (1.00000001, 2.207875542270498341467e-7, 0.9999997692123971865587588),
    (1.0000001, 1.897107160719212423557e-6, 0.9999980028892501928052446),
    (1.000001, 1.590012554257581282675e-5, 0.9999830996226352206489429),
    (1.00001, 1.288806814878208539398e-4, 0.9998611028038327508656189),
    (1.0001, 9.992771987828547698482e-4, 0.9988997321472424873567),
    (1.001, 0.007353523536546990102727, 0.9915925442554016676245),
    (1.02, 0.09376367319291972168225, 0.8756908464720567676095),
    (1.05, 0.2073562811994706053692, 0.6688213191375934970261),
    (1.0812, 0.3299033053209475945767, 0.04565220025424902855997),
    (1.08129, 0.3303143378991345819959, 0.01182103278058734874118),
    (1.081196450157609, 0.32988711044523806961, 0.04648236842878849531165),
    (1.081286450157609, 0.330298109551219443297, 0.01471797571819073364863),
    (1.081295450157609, 0.3303392562574531675066, 0.004654835309724410060793),
    (1.081296350157609, 0.3303433713985309237967, 0.001472007240072463312929),
    (1.081296440157609, 0.3303437829173463740893, 0.0004654901575906481625168),
    (1.081296449157609, 0.3303438240692742815903, 0.0001472009223527230973057),
    (1.081296450057609, 0.3303438281844679491886, 4.654896917576821624827e-5),
    (1.081296450147609, 0.3303438285959873206558, 1.471991761953048935462e-5),
    (1.081296450156609, 0.3303438286371388517356, 4.654550786606620742501e-6),
]
_KM = tricritical_micro()[1]


def test_newton_searches_end_before_their_step_limit(monkeypatch):
    # every bracketed search of the inversions and of the tie and tangency
    # tilts, and every joint tie solve of the first-order inversions,
    # converges inside _MAX_NEWTON steps, out to the ends of their domains:
    # K -> 1, both tricritical couplings, beta -> log 4 and BETA_MAX
    from begphase import diagram, rootfind

    steps = []
    search = rootfind.bisect_newton

    def counted(f, fprime, lo, hi, **kw):
        evals = []

        def g(x):
            evals.append(x)
            return f(x)

        x = search(g, fprime, lo, hi, **kw)
        # f at the ends unless given, then at the start and once per step
        steps.append(len(evals) - 1 - 2 * (kw.get("ends") is None))
        return x

    for module in (canonical, diagram):
        monkeypatch.setattr(module, "bisect_newton", counted)
    newton = rootfind.tie_newton

    def counted_tie(step, x, inside, tol):
        taken = []

        def g(*x):
            taken.append(x)
            return step(*x)

        x = newton(g, x, inside, tol)
        steps.append(len(taken))
        return x

    for module in (canonical, micro):
        monkeypatch.setattr(module, "tie_newton", counted_tie)
    near_one = [1.0 + 10.0 ** -k for k in range(2, 14)]
    for K in near_one + [_KS - 10.0 ** -k for k in range(3, 13)]:
        beta_c1_of_K(K)
    for K in near_one + [_KM - 10.0 ** -k for k in range(3, 11)]:
        u_c1_of_K(K)
    for K in [_KS + 10.0 ** -k for k in range(1, 13)] + [2.0, 10.0, 37.0]:
        beta_c2_of_K(K)
    for K in ([_KM + 10.0 ** -k for k in range(1, 13)]
              + [10.0 ** k for k in range(1, 301, 20)]):
        u_c2_of_K(K)
    for beta in ([BETA_C + 10.0 ** -k for k in range(1, 16)]
                 + [1.5, 2.0, 5.0, 10.0, 37.0, 100.0, BETA_MAX]):
        canonical.tangency(beta)
        first_order_coupling(beta)
    assert len(steps) > 100 and max(steps) < rootfind._MAX_NEWTON
    # the tangency next to log 4, where its slope takes c''' in closed form:
    # from the raw moments c''' lost its digits at w ~ 1e-7, and the search
    # took up to 57 steps within 5e-15 of log 4
    del steps[:]
    ladder = {BETA_C + 10.0 ** (-16.0 + 15.0 * i / 599) for i in range(600)}
    for beta in sorted(ladder - {BETA_C}):
        canonical.tangency(beta)
    assert len(steps) > 500 and max(steps) <= 12


def _lower_end_tol(K, z):
    # z_m ~ 4.65 (K_m* - K)^(1/2) moves by ulp(K)/(2 (K_m* - K)) relative
    # per ulp of K, and next to K = 1 it sits within 4e-12 of 1
    return max(5e-14, z * max(1e-12, 1e-15 / (_KM - K)))


@pytest.mark.parametrize("K, u_c1, z_m", REFERENCE_MICRO_TIES)
def test_micro_tie_matches_80_digit_roots(K, u_c1, z_m):
    assert abs(u_c1_of_K(K) - u_c1) <= max(1e-12 * u_c1, 5e-14)
    (lo, hi), = nonequivalence_gap(K)
    assert abs(lo - z_m) <= _lower_end_tol(K, z_m)
    assert lo < hi
    # the tie is a triple point of the shell rate at its own (u, K), which
    # solve_micro resolves up to 1e-8 below K_m*
    if _KM - K >= 1e-8:
        assert solve_micro(MicroParams(u_c1, K)).phase_label == "triple"


#: |Kc1(u_c1(K)) - K| allowed: Kc1(u) carries 1.5 ulps of rounding (rms,
#: next to u = 0.32, where dKc1/de1 ~ 5 meets e1 terms of 0.2), and the
#: inversion lands on it within 7 ulps in 34000 sampled K there
_KC1_ROUND_TRIP = 2e-15


@settings(max_examples=25, deadline=None)
@given(st.one_of(_GAP_KS, st.floats(4.0, 13.0).map(lambda x: _KM - 10.0 ** -x)),
       st.one_of(_GAP_KS, st.floats(4.0, 13.0).map(lambda x: _KM - 10.0 ** -x)))
def test_gap_lower_end_is_total_and_monotone(K1, K2):
    # every K in (1, K_c*) has its gap, the microcanonical tie below K_m*
    # solved to the rounding of Kc1(u); z_m falls with K to within the
    # accuracy bound of the reference test
    los = []
    for K in sorted((K1, K2)):
        (lo, hi), = nonequivalence_gap(K)
        assert 0.0 <= lo <= hi
        if K < _KM:
            # the private form is total: within 2 ulps of K_m*, u_c1 may
            # round past the last u where the closed forms put k2 < C
            assert abs(_first_order_coupling_u(u_c1_of_K(K))[0] - K) <= _KC1_ROUND_TRIP
            los.append((lo, _lower_end_tol(K, lo)))
        else:
            los.append((lo, 0.0))
    (lo1, tol1), (lo2, tol2) = los
    assert lo2 <= lo1 + tol1 + tol2


@pytest.mark.parametrize("K", [math.nextafter(1.0, 2.0), 1.0 + 1e-15,
                               math.nextafter(_KM, 0.0)])
def test_micro_inversion_at_the_ends_of_its_range(K):
    # next to 1 the solve starts on the asymptote Kc1 - 1 ~ u log 2/log(1/u)
    # (u_c1 ~ 1e-14 at the float above 1), next to K_m* on the tangent of
    # the second-order curve
    assert abs(_first_order_coupling_u(u_c1_of_K(K))[0] - K) <= _KC1_ROUND_TRIP
    assert len(nonequivalence_gap(K)) == 1


@pytest.mark.parametrize("K", [K for K, _, _ in REFERENCE_MICRO_TIES])
def test_micro_inversion_is_one_joint_solve(monkeypatch, K):
    # the nested search, a Newton search over u with a tie solve at each
    # iterate, took 57 tie-kernel evaluations at 1 + 1e-13 and 41 at 1.05
    from begphase import diagram, rootfind

    def refuse(*args, **kw):
        raise AssertionError("a 1-D search ran inside the inversion")

    assert not hasattr(diagram, "last_point")
    for module in (diagram, rootfind):
        monkeypatch.setattr(module, "bisect_newton", refuse)
    monkeypatch.setattr(rootfind, "last_point", refuse)
    calls = []
    kernel = micro._tie
    monkeypatch.setattr(micro, "_tie", lambda *args: calls.append(args) or kernel(*args))
    u_c1_of_K(K)
    assert 0 < len(calls) <= 10


def test_equivalence_gap_lower_end_near_the_micro_tricritical_coupling():
    # 6.5e-6 below K_m*, where z_m varies fast with u: the well at the
    # bisected u_c1 used to read 0.0118273, and the tie there 1.6e-8 off
    K, _, z_m = REFERENCE_MICRO_TIES[14]
    (lo, hi), = nonequivalence_gap(K)
    assert abs(lo - z_m) <= _lower_end_tol(K, z_m)
    assert abs(hi - 0.141850511333) < 1e-8


@pytest.mark.parametrize("dK", [1e-10, 3e-10])
def test_equivalence_gap_at_the_end_of_the_micro_inversion(dK):
    # u_c1_of_K stopped 2.2e-10 below K_m*, where the bracket end stood in
    # for the transition and lo read 0 or a few 1e-5; it now attains K, and
    # hi is the canonical jump, which moves by about 150 dK.  z_m at
    # K_m* - 1e-10 is a REFERENCE_MICRO_TIES root; at K_m* - 3e-10 =
    # 1.081296449857609 a 100-digit root in (u, z) gives u_c1 =
    # 0.3303438272699804601036
    K = _KM - dK
    z_m = {1e-10: 4.654896917576821624827e-5, 3e-10: 8.062524390199898241552e-5}[dK]
    rep = equivalence_report(K)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert abs(lo - z_m) <= _lower_end_tol(K, z_m)
    (_, hi_m), = nonequivalence_gap(_KM)
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
    # K_c* - 1e-10, where beta_c1 = log 4 + 1.7e-9 and Kc2(beta_c1) lies an
    # ulp above K: a solve at the float beta_c1 finds the origin alone, and
    # the report's canonical values there come from the tie {0, z_c} (z_c
    # moves by 1.1e-6 relative per ulp of K here, so K is spelled out)
    rep = equivalence_report(3.0 / (2.0 * math.log(4.0)) - 1e-10)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert lo == 0.0 and abs(hi / 5.3074833384128412e-5 - 1.0) < 1e-5


def test_equivalence_gap_next_to_unit_coupling():
    # u_c1_of_K stopped 3e-13 above 1, where the bracket end stood in for
    # the transition.  There z_c ~ 1 - 2.7e-12 and z_m = 1 - 3.8891e-12
    # (1 - z_m ~ 1.5 (1 - z_c) as K -> 1)
    K, _, z_m = REFERENCE_MICRO_TIES[0]
    rep = equivalence_report(K)
    assert rep.verdict == "nonequivalent"
    (lo, hi), = rep.gap_intervals
    assert abs(lo - z_m) <= 5e-14 and lo < hi < 1.0 - 2e-12


# (K, lo, hi) of nonequivalence_gap(K) when every inversion ran at every K,
# on a ladder within 1e-10 of 1, K_m* and K_c*.  Each lo > 0 is the tied
# well of the joint (u, xi, s) solve of u_c1; its relative error against
# an 80-digit root at the float K, with that of the nested search over u
# it replaced: 4.5e-15 (2.7e-15), 1.2e-15 (9.8e-17), 4.5e-16 (7.8e-16),
# 1.2e-7 (1.2e-7) and, an ulp below K_m*, where z_m = 6.6511071e-8 moves
# by half itself per ulp of K, 0.069 (0.41)
GAP_LADDER = [
    (1.0 + 1e-10, 0.9999999970632084, 0.9999999979971278),
    (1.0 + 1e-6, 0.9999830996226364, 0.9999886127820449),
    (1.05, 0.6688213191375938, 0.7301721464955837),
    (1.0817, 0.0, 0.09463494542136233),
    (_KM - 1e-10, 4.654901510114231e-05, 0.14123773893031352),
    (math.nextafter(_KM, 0.0), 7.112814119420534e-08, 0.14123772940758927),
    (_KM, 0.0, 0.14123772940756685),
    (_KM + 1e-10, 0.0, 0.14123771988481815),
    (_KS - 1e-7, 0.0, 0.0016783715559988213),
    (_KS - 1e-10, 0.0, 5.3074859132340546e-05),
    (math.nextafter(_KS, 0.0), 0.0, 1.1825948399549264e-07),
]


@pytest.mark.parametrize("K, lo, hi", GAP_LADDER)
def test_nonequivalence_gap_ladder(K, lo, hi):
    assert nonequivalence_gap(K) == ((lo, hi),)


@pytest.mark.parametrize("K, inverted", [
    (0.5, set()), (1.0, set()), (1.0 + 1e-10, {"beta_c1_of_K", "u_c1_of_K"}),
    (1.05, {"beta_c1_of_K", "u_c1_of_K"}),
    (math.nextafter(_KM, 0.0), {"beta_c1_of_K", "u_c1_of_K"}),
    (_KM, {"beta_c1_of_K"}), (1.0817, {"beta_c1_of_K"}),
    (math.nextafter(_KS, 0.0), {"beta_c1_of_K"}), (_KS, set()), (1.5, set()),
    (1e300, set())])
def test_nonequivalence_gap_inverts_only_what_it_reads(monkeypatch, K, inverted):
    # the first-order inversions are spied on at their private entry
    # points, which also hand their ties on
    from begphase import diagram
    calls = []
    for name, label in (("_beta_c1_tie", "beta_c1_of_K"), ("beta_c2_of_K",) * 2,
                        ("_u_c1_tie", "u_c1_of_K"), ("u_c2_of_K",) * 2):
        def counted(K, _label=label, _f=getattr(diagram, name)):
            calls.append(_label)
            return _f(K)
        monkeypatch.setattr(diagram, name, counted)
    gaps = nonequivalence_gap(K)
    assert set(calls) == inverted and len(calls) == len(inverted)
    assert bool(gaps) == bool(inverted)


def test_equivalence_gap_matches_the_sampled_oracle():
    # the adaptive sampling the exact ends replaced resolves them to its
    # 8e-4 refinement target and its 1e-3 cluster tolerance
    (lo, hi), = equivalence_report(1.05).gap_intervals
    (s_lo, s_hi), = sampled_gap_intervals(1.05)
    assert abs(lo - s_lo) < 2e-3 and abs(hi - s_hi) < 2e-3


def _float64_beta_grid(b):
    """The default beta grid's recipe on lists of np.float64, built with
    np.linspace and np.geomspace, the elements it held before it was built
    from Python floats."""
    betas = list(np.linspace(0.3, 8.0, 40))
    if b is not None:
        span = min(2.0, 8.0 - b) if b < 8.0 else 2.0
        betas += list(b + np.geomspace(1e-7, span, 70))
        betas += [b * f for f in (0.7, 0.9, 0.99, 0.9999)] + [b]
    return sorted(x for x in betas if 0.0 < x <= BETA_MAX)


def _float64_u_grid(K, u):
    """The default u grid's recipe at K on lists of np.float64, as
    _float64_beta_grid."""
    lo, hi = energy_domain(K)
    us = list(np.linspace(lo + 1e-9, hi - 1e-9, 40))
    if u is not None:
        us += list(u - np.geomspace(1e-8, max(u - lo - 1e-9, 1e-8), 80))
        us += [u + (hi - u) * f for f in (1e-4, 0.01, 0.1, 0.5)] + [u]
    return sorted(x for x in us if lo + 1e-9 <= x <= hi - 1e-9)


def _float64_grids(K):
    """Both references around the transitions at K."""
    from begphase import diagram
    return (_float64_beta_grid(diagram._beta_star(K)[0]),
            _float64_u_grid(K, diagram._u_star(K)[0]))


def _same_doubles(got, want):
    return (all(type(x) is float for x in got)
            and np.array(got).tobytes() == np.array(want).tobytes())


@pytest.mark.parametrize("K", [0.5, 1.0 + 1e-10, 1.05, 1.0817, _KM, 1.5])
def test_default_grids_are_python_floats(K):
    # the report checks each point on _real's float path; the doubles are
    # those of np.float64 elements, bit for bit
    for got, want in zip((_default_beta_grid(K), _default_u_grid(K)),
                         _float64_grids(K)):
        assert _same_doubles(got, want)


@seed(28)
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), st.floats(BETA_C, BETA_MAX, exclude_min=True),
                 st.floats(6.0, 8.0), st.floats(8.0, 20.0),
                 st.sampled_from([6.0, math.nextafter(6.0, 7.0),
                                  math.nextafter(8.0, 0.0), 8.0, BETA_MAX])))
def test_beta_grid_is_numpys_bit_for_bit(b):
    # above 6 the approach offsets run to 8 - b, not to the constant 2
    from begphase import diagram
    assert _same_doubles(diagram._beta_grid(b), _float64_beta_grid(b))


@st.composite
def _u_grid_cases(draw):
    K = 10.0 ** draw(st.floats(-3.0, 3.0))
    lo, hi = energy_domain(K)
    # within 1e-8 of lo + 1e-9 the span floor makes geomspace's ends coincide
    u = draw(st.one_of(st.none(), st.floats(lo, hi),
                       st.floats(-1e-8, 1e-8).map(lambda d: lo + 1e-9 + d)))
    return K, u


@seed(28)
@settings(max_examples=300, deadline=None)
@given(_u_grid_cases())
def test_u_grid_is_numpys_bit_for_bit(case):
    from begphase import diagram
    assert _same_doubles(diagram._u_grid(*case), _float64_u_grid(*case))


def test_equivalence_report_checks_and_converts_a_numpy_grid(monkeypatch):
    _refuse_solves(monkeypatch)
    rep = equivalence_report(1.05, [np.float32(1.5), np.float64(2.0), np.int64(3)],
                             [np.float64(0.2), np.float32(0.4), np.longdouble(0.7)])
    assert rep.beta_grid == (1.5, 2.0, 3.0)
    assert rep.u_grid == (0.2, float(np.float32(0.4)), float(np.longdouble(0.7)))
    assert all(type(x) is float for x in rep.beta_grid + rep.u_grid)
    rep = equivalence_report(1.05, np.linspace(1.0, 2.0, 3),
                             np.array([0.2, 0.4], dtype=np.float32))
    assert rep.beta_grid == (1.0, 1.5, 2.0)
    assert rep.u_grid == (float(np.float32(0.2)), float(np.float32(0.4)))
    assert all(type(x) is float for x in rep.beta_grid + rep.u_grid)
    with pytest.raises(DomainError, match="got -1.0$"):
        equivalence_report(1.05, [np.float32(-1.0)], [0.2])
    with pytest.raises(DomainError, match="got -1.0$"):
        equivalence_report(1.05, np.array([1.0, 2.0, -1.0, -2.0]), [0.2])
    with pytest.raises(DomainError, match="got 1.5$"):
        equivalence_report(1.05, [1.0], [np.float64(1.5)])


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
