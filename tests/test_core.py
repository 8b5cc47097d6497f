import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (central_diff, constrained_mean_entropy, random_macrostates,
                      well_depth)

from begphase import canonical, diagram, micro
from begphase.canonical import cumulant_inflection, solve_canonical
from begphase.core import (
    BETA_C,
    UNIFORM,
    CanonicalParams,
    DomainError,
    Macrostate,
    MicroParams,
    canonical_rate,
    cramer_rate,
    cumulant,
    energy_domain,
    energy_per_site,
    mean_tilt,
    micro_rate,
    rel_entropy,
    single_site_measure,
)
from begphase.diagram import equivalence_report, nonequivalence_gap, sweep_micro
from begphase.micro import solve_micro


# ---------------------------------------------------------------------------
# cumulant generating function
# ---------------------------------------------------------------------------

def test_cumulant_vanishes_at_origin():
    for beta in (0.3, 1.0, BETA_C, 2.5):
        assert cumulant(beta, 0.0, 0) == 0.0
        assert cumulant(beta, 0.0, 1) == 0.0


@pytest.mark.parametrize("beta", [0.3, 1.0, BETA_C, 1.3862943611198908, 5.0, 30.0])
def test_cumulant_value_against_120_digits(beta):
    # c(t) ~ a t^2 / 2 at small t: summed as the difference of two logs it
    # kept an absolute rounding of ~1e-16, its whole value below t ~ 1e-8
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(120):
        e = mpmath.exp(-mpmath.mpf(beta))
        for t in (1e-12, -1e-8, 3.6e-4, 1e-2, -0.5, 3.0, 40.0):
            tm = mpmath.mpf(t)
            ref = mpmath.log((1 + e * (mpmath.exp(tm) + mpmath.exp(-tm)))
                             / (1 + 2 * e))
            assert abs(cumulant(beta, t, 0) - ref) <= 4e-16 * ref


def test_cumulant_second_derivative_closed_value():
    # e^-beta = 1/4 gives 2 e^-beta / (1 + 2 e^-beta) = 1/3
    val = cumulant(math.log(4.0), 0.0, 2)
    assert abs(val - 1.0 / 3.0) < 1e-15
    fd = central_diff(lambda t: cumulant(math.log(4.0), t, 1), 0.0)
    assert abs(val - fd) < 1e-8


def test_cumulant_third_negative_in_concave_regime():
    val = cumulant(1.0, 0.7, 3)
    assert val < 0.0
    fd = central_diff(lambda t: cumulant(1.0, t, 2), 0.7)
    assert fd < 0.0 and abs(val - fd) < 1e-6 * abs(val)


def test_cumulant_third_matches_explicit_form():
    rng = np.random.default_rng(3)
    for _ in range(30):
        beta = rng.uniform(0.2, 4.0)
        w = rng.uniform(-3.0, 3.0)
        e = math.exp(-beta)
        explicit = (2.0 * e * math.sinh(w)) * (1.0 - 2.0 * e * math.cosh(w)
                                               - 8.0 * e * e) \
            / (1.0 + 2.0 * e * math.cosh(w)) ** 3
        assert abs(cumulant(beta, w, 3) - explicit) < 1e-12


def test_cumulant_fourth_derivative_closed_form():
    # the analytic fourth derivative at the origin is
    # 2 e^-b (1 - 4 e^-b) / (1 + 2 e^-b)^2; a superficially similar closed
    # form with denominator (1 + e^-b)^4 (and numerator factored through
    # 1 - 2 e^-b - 8 e^-2b) disagrees with finite differences and is wrong
    for beta in (0.6, 1.0, 2.0):
        e = math.exp(-beta)
        correct = 2.0 * e * (1.0 - 4.0 * e) / (1.0 + 2.0 * e) ** 2
        variant = (2.0 * e * (1.0 + 2.0 * e) * (1.0 - 2.0 * e - 8.0 * e * e)
                   / (1.0 + e) ** 4)
        val = cumulant(beta, 0.0, 4)
        fd = central_diff(lambda t: cumulant(beta, t, 3), 0.0)
        assert abs(val - correct) < 1e-14
        assert abs(val - fd) < 1e-7
        assert abs(val - variant) > 1e-2


def test_cumulant_domain_errors():
    with pytest.raises(DomainError):
        cumulant(1.0, math.inf, 0)
    with pytest.raises(DomainError):
        cumulant(-1.0, 0.0, 0)
    with pytest.raises(DomainError):
        cumulant(1.0, 0.0, 7)


def test_derivative_ladder_matches_finite_differences():
    # analytic derivatives agree with central differences of the next-lower
    # order; points where the derivative nearly vanishes are skipped since
    # relative error degenerates there
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(50):
        beta = rng.uniform(0.1, 5.0)
        t = rng.uniform(-3.0, 3.0)
        for order in range(1, 7):
            val = cumulant(beta, t, order)
            if abs(val) < 1e-3:
                continue
            fd = central_diff(lambda x: cumulant(beta, x, order - 1), t)
            assert abs(val - fd) < 1e-6 * abs(val)
            checked += 1
    assert checked > 150


def test_concavity_split_of_derivative():
    # below the split temperature the derivative curve is concave on w > 0;
    # above it, convex before the inflection and concave after
    for beta in (0.7, 1.0, BETA_C):
        for w in np.linspace(1e-3, 5.0, 100):
            assert cumulant(beta, w, 3) < 0.0
    for beta in (1.6, 2.0, 3.0):
        wc = cumulant_inflection(beta)
        for w in np.linspace(1e-4, wc - 1e-9, 50):
            assert cumulant(beta, w, 3) > 0.0
        for w in np.linspace(wc + 1e-6, wc + 5.0, 50):
            assert cumulant(beta, w, 3) < 0.0


def test_ladder_invariants():
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = rng.uniform(0.1, 5.0)
        t = rng.uniform(-4.0, 4.0)
        assert abs(cumulant(beta, t, 1)) < 1.0
        assert cumulant(beta, t, 2) > 0.0
    lad0 = [cumulant(1.7, 0.0, j) for j in range(7)]
    assert lad0[0] == 0.0
    assert lad0[1] == 0.0 and lad0[3] == 0.0 and lad0[5] == 0.0


# ---------------------------------------------------------------------------
# measures, energy, entropy
# ---------------------------------------------------------------------------

def test_single_site_measure_values():
    m = single_site_measure(math.log(4.0))
    assert abs(m.nu_minus - 1.0 / 6.0) < 1e-15
    assert abs(m.nu_zero - 2.0 / 3.0) < 1e-15
    assert abs(m.nu_plus - 1.0 / 6.0) < 1e-15
    near_uniform = single_site_measure(1e-12)
    assert near_uniform.isclose(UNIFORM, tol=1e-9)
    rng = np.random.default_rng(8)
    for beta in rng.uniform(0.1, 6.0, size=10):
        assert single_site_measure(beta).mean() == 0.0


def test_energy_per_site():
    assert abs(energy_per_site(UNIFORM, 0.7) - 2.0 / 3.0) < 1e-15
    assert energy_per_site(Macrostate(0.0, 0.0, 1.0), 2.0) == -1.0
    assert abs(energy_per_site(Macrostate(0.25, 0.5, 0.25), 1.0) - 0.5) < 1e-15


def test_energy_per_site_range():
    from begphase.core import energy_domain

    rng = np.random.default_rng(9)
    for K in (0.4, 1.0, 2.5):
        lo, hi = energy_domain(K)
        for mu in random_macrostates(rng, 200):
            assert lo - 1e-12 <= energy_per_site(mu, K) <= hi + 1e-12


def test_rel_entropy_examples():
    m = single_site_measure(1.3)
    assert rel_entropy(m, m) == 0.0
    delta_plus = Macrostate(0.0, 0.0, 1.0)
    beta = 0.9
    expect = beta + math.log(1.0 + 2.0 * math.exp(-beta))
    assert abs(rel_entropy(delta_plus, single_site_measure(beta)) - expect) < 1e-12
    half = Macrostate(0.5, 0.0, 0.5)
    assert abs(rel_entropy(half, UNIFORM) - math.log(1.5)) < 1e-15


def test_rel_entropy_nonnegative_with_equality_only_at_base():
    rng = np.random.default_rng(21)
    base = single_site_measure(1.1)
    for mu in random_macrostates(rng, 1000):
        r = rel_entropy(mu, base)
        assert r >= 0.0
        if r < 1e-12:
            assert mu.isclose(base, tol=1e-5)
    with pytest.raises(DomainError):
        rel_entropy(UNIFORM, Macrostate(0.0, 0.0, 1.0))


def test_macrostate_validation():
    with pytest.raises(DomainError):
        Macrostate(0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        Macrostate(-0.1, 0.6, 0.5)
    with pytest.raises(DomainError):
        Macrostate(math.nan, 0.5, 0.5)
    m = Macrostate(0.2, 0.3, 0.5)
    assert abs(m.mean() - 0.3) < 1e-15
    assert abs(m.quad() - 0.7) < 1e-15


@pytest.mark.parametrize("K", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_energy_domain_refuses_the_couplings_micro_params_refuses(K):
    # energy_domain returned (nan, 1.0), (-inf, 1.0) or (0.0, 1.0), and
    # sweep_micro returned no rows at K = nan
    with pytest.raises(DomainError) as want:
        MicroParams(0.2, K)
    for call in (lambda: energy_domain(K), lambda: sweep_micro([0.2], [K])):
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == str(want.value)


def test_params_validation():
    with pytest.raises(DomainError):
        CanonicalParams(0.0, 1.0)
    with pytest.raises(DomainError):
        CanonicalParams(1.0, -2.0)
    with pytest.raises(DomainError):
        MicroParams(5.0, 1.0)
    with pytest.raises(DomainError):
        MicroParams(-0.5, 0.5)   # for K <= 1 the energy floor is 0
    MicroParams(-0.5, 1.5)       # attainable once K > 1


# ---------------------------------------------------------------------------
# Numpy scalars at the parameter boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [int, float, np.float64, np.float32,
                                  np.longdouble, np.int64, np.int32, bool,
                                  pytest.param(np.bool_, id="np.bool_"),
                                  Fraction, Decimal])
def test_params_store_python_floats(kind):
    for p in (CanonicalParams(kind(2), kind(1)), MicroParams(kind(0), kind(1))):
        assert all(type(v) is float for v in vars(p).values())
    assert vars(CanonicalParams(kind(2), kind(1))) == {"beta": float(kind(2)),
                                                      "K": 1.0}
    if kind in (Fraction, Decimal):
        # a Decimal grid was kept, and its first solve raised a TypeError
        got = equivalence_report(1.05, [kind("1.5")], [kind("0.2")])
        want = equivalence_report(1.05, [1.5], [0.2])
        assert got.beta_grid == (1.5,) and got.u_grid == (0.2,)
        assert list(got.canonical_z) == list(want.canonical_z)
        assert list(got.micro_z) == list(want.micro_z)


@pytest.mark.parametrize("bad", [
    "1", b"1", None, 1.05 + 0j,
    pytest.param(np.complex128(1.05 + 0j), id="np.complex128(1.05+0j)"),
    pytest.param(np.complex128(1.05 + 3j), id="np.complex128(1.05+3j)"),
    pytest.param(Decimal("NaN"), id="Decimal('NaN')"),
    pytest.param(Decimal("sNaN"), id="Decimal('sNaN')"),
    pytest.param(np.array(1.05), id="np.array(1.05)")])
def test_params_refuse_non_numbers_as_before(bad):
    # only real numbers are converted to float: a string is never parsed
    # into one, and fails the checks it failed before; a numpy complex is
    # refused as a Python complex is, and a NaN Decimal, signaling or quiet,
    # as the float NaN is, by the finiteness checks (a signaling NaN raised
    # a ValueError that named no parameter, and cumulant refused a non-real
    # beta with a DomainError); a 0-d numpy array was stored as it came, and
    # the first solve raised a TypeError that named no parameter; cumulant
    # refused a non-real t as a DomainError, "t must be finite"
    nan = isinstance(bad, Decimal)
    for make in (lambda: CanonicalParams(bad, 1.0), lambda: CanonicalParams(1.0, bad),
                 lambda: MicroParams(bad, 1.0), lambda: MicroParams(0.5, bad),
                 lambda: nonequivalence_gap(bad),
                 lambda: equivalence_report(1.05, [bad], [0.2]),
                 lambda: equivalence_report(1.05, [1.0], [bad]),
                 lambda: energy_domain(bad), lambda: cumulant(bad, 0.5, 1),
                 lambda: cumulant(1.0, bad, 1), lambda: mean_tilt(1.0, bad),
                 lambda: cramer_rate(1.0, bad)):
        with pytest.raises(DomainError if nan else TypeError):
            make()


@pytest.mark.parametrize("fn", [
    canonical.second_order_coupling, canonical.cumulant_inflection,
    canonical.tangency, canonical.first_order_coupling,
    canonical.canonical_criticals, micro.second_order_coupling_u,
    micro.convexity_threshold, micro.first_order_coupling_u,
    diagram.beta_c1_of_K, diagram.beta_c2_of_K, diagram.u_c1_of_K,
    diagram.u_c2_of_K], ids=lambda fn: fn.__name__)
def test_one_number_functions_refuse_non_reals_by_name(fn):
    # a 0-d numpy array ran through the inversions and the micro couplings
    # and came back as a numpy float64; tangency and first_order_coupling
    # refused a string with a TypeError that named no parameter
    for bad in ("1", None, 1.05 + 0j, np.array(1.05)):
        with pytest.raises(TypeError, match="must be a real number"):
            fn(bad)


def test_cumulant_takes_numpy_scalars_in_double_precision():
    # a float32 beta was refused with "beta must be finite and positive,
    # got 1.0"
    for order in range(7):
        expect = cumulant(1.0, 0.5, order)
        for kind in (np.float32, np.float64):
            got = cumulant(kind(1.0), kind(0.5), order)
            assert type(got) is float and got == expect


@pytest.mark.parametrize("fn, args, x", [
    (canonical.second_order_coupling, (), 1.0),
    (canonical.cumulant_inflection, (), 2.0),
    (canonical.tangency, (), 2.0),
    (canonical.first_order_coupling, (), 2.0),
    (canonical.canonical_criticals, (), 2.0),
    (canonical.positive_well, (1.05,), 2.0),
    (lambda K, b: canonical.positive_well(b, K), (2.0,), 1.05),
    (well_depth, (1.05,), 2.0),
    (micro.second_order_coupling_u, (), 0.25),
    (micro.first_order_coupling_u, (), 0.25),
    (micro.convexity_threshold, (), 0.25),
    (micro.micro_criticals, (), 0.25),
    (mean_tilt, (0.3,), 1.0),
    (lambda z, b: mean_tilt(b, z), (1.0,), 0.3),
    (cramer_rate, (0.3,), 1.0),
    (lambda z, b: cramer_rate(b, z), (1.0,), 0.3),
    (energy_domain, (), 1.3),
], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("kind", [np.float32, np.float64])
def test_public_functions_solve_numpy_scalars_as_their_float(fn, args, x, kind):
    # a float32 ran through in single precision: first_order_coupling_u did
    # not converge, the rest came back as float32, and positive_well and
    # well_depth bisected forever on a bracket that float32 cannot narrow
    got, want = fn(kind(x), *args), fn(float(kind(x)), *args)
    assert repr(got) == repr(want)


def _as_kind(kind, x):
    # the numpy scalar and the float it rounds to, which both solvers see
    y = kind(x)
    return y, float(y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.float64, np.float32]), st.floats(0.05, 6.0),
       st.floats(0.3, 2.5), st.floats(0.0, 1.0), st.floats(0.3, 2.5))
def test_numpy_scalars_solve_as_their_float(kind, beta, K, frac, K_m):
    b, b_f = _as_kind(kind, beta)
    k, k_f = _as_kind(kind, K)
    params = CanonicalParams(b, k)
    assert type(params.beta) is float and type(params.K) is float
    assert repr(solve_canonical(params)) == repr(
        solve_canonical(CanonicalParams(b_f, k_f)))
    k, k_f = _as_kind(kind, K_m)
    lo, hi = energy_domain(k_f)
    u, u_f = _as_kind(kind, lo + (hi - lo) * (0.001 + 0.998 * frac))
    params = MicroParams(u, k)
    assert type(params.u) is float and type(params.K) is float
    assert repr(solve_micro(params)) == repr(solve_micro(MicroParams(u_f, k_f)))


# ---------------------------------------------------------------------------
# Cramer rate function
# ---------------------------------------------------------------------------

def test_cramer_rate_origin_and_endpoints():
    for beta in (0.4, 1.0, 2.7):
        assert cramer_rate(beta, 0.0) == 0.0
    expect = 1.0 + math.log(1.0 + 2.0 * math.exp(-1.0))
    assert abs(cramer_rate(1.0, 1.0) - expect) < 1e-12
    assert abs(cramer_rate(1.0, -1.0) - expect) < 1e-12
    # endpoint value equals the relative entropy of a pure state
    pure = rel_entropy(Macrostate(0.0, 0.0, 1.0), single_site_measure(1.0))
    assert abs(cramer_rate(1.0, 1.0) - pure) < 1e-12
    with pytest.raises(DomainError):
        cramer_rate(1.0, 1.0001)


def test_cramer_rate_against_constrained_scan():
    oracle = constrained_mean_entropy(1.0, 0.5, step=1e-4)
    assert abs(cramer_rate(1.0, 0.5) - oracle) < 1e-6


def test_contraction_principle_at_random_means():
    rng = np.random.default_rng(14)
    for _ in range(20):
        beta = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.85, 0.85)
        oracle = constrained_mean_entropy(beta, z, step=1e-4)
        assert abs(cramer_rate(beta, z) - oracle) < 1e-6


def test_legendre_pairing():
    rng = np.random.default_rng(17)
    for _ in range(100):
        beta = rng.uniform(0.2, 4.0)
        z = rng.uniform(-0.99, 0.99)
        t = mean_tilt(beta, z)
        gap = cumulant(beta, t, 0) + cramer_rate(beta, z) - z * t
        assert abs(gap) < 1e-9


_TILT_BETAS = [1e-8, 1e-3, math.log(2.0), math.log(4.0), 1.0, 5.0, 50.0, 300.0,
               700.0, 745.0, 5000.0, 1e6]
_TILT_MEANS = [1e-300, 1e-100, 1e-16, 1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-9,
               1.0 - 2.0 ** -53]


@pytest.mark.parametrize("beta", _TILT_BETAS)
def test_mean_tilt_against_80_digit_closed_form(beta):
    # the bracketed Newton search stopped at |c'(t) - z| < 1e-13: 2.2e-6
    # relative off at (1, 1e-12) and 1.4e-9 at (1, 1 - 2^-53)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        a = mpmath.exp(-mpmath.mpf(beta))
        for y in _TILT_MEANS:
            for z in (y, -y):
                zm = mpmath.mpf(z)
                s = 1 - zm * zm
                ref = mpmath.asinh(zm * (1 + mpmath.sqrt(zm * zm + 4 * a * a * s))
                                   / (2 * a * s))
                if abs(ref) < mpmath.mpf(2.0 ** -1022):
                    continue    # subnormal tilts carry fewer digits
                t = mean_tilt(beta, z)
                assert abs(t - ref) <= 1e-15 * abs(ref), (beta, z, t)


@pytest.mark.parametrize("beta", _TILT_BETAS)
def test_mean_tilt_is_exactly_odd(beta):
    assert mean_tilt(beta, 0.0) == 0.0
    for y in _TILT_MEANS + [0.3, 0.7, 1.0 - 1e-4]:
        assert mean_tilt(beta, -y) == -mean_tilt(beta, y)


@pytest.mark.parametrize("beta, z", [(0.0, 0.3), (-1.0, 0.3), (math.nan, 0.3),
                                     (math.inf, 0.3), (1.0, 1.0), (1.0, -1.0),
                                     (1.0, 1.5), (1.0, math.nan)])
def test_mean_tilt_domain_errors(beta, z):
    with pytest.raises(DomainError):
        mean_tilt(beta, z)


# ---------------------------------------------------------------------------
# ensemble rate functions
# ---------------------------------------------------------------------------

def test_canonical_rate_zero_on_equilibrium():
    from begphase.canonical import solve_canonical

    for beta, K in ((1.0, 0.8), (1.0, 1.5), (2.0, 1.2)):
        params = CanonicalParams(beta, K)
        for mu in solve_canonical(params).macrostates:
            assert abs(canonical_rate(mu, params)) < 1e-10


def test_canonical_rate_uniform_value():
    from begphase.canonical import canonical_free_energy

    params = CanonicalParams(1.0, 0.5)
    expect = 1.0 * (2.0 / 3.0) - canonical_free_energy(params)
    assert abs(canonical_rate(UNIFORM, params) - expect) < 1e-14


def test_canonical_rate_nonnegative():
    rng = np.random.default_rng(23)
    params = CanonicalParams(1.4, 1.1)
    for mu in random_macrostates(rng, 1000):
        assert canonical_rate(mu, params) >= -1e-10


def test_micro_rate():
    from begphase.micro import solve_micro

    params = MicroParams(0.5, 2.0)
    sol = solve_micro(params)
    for mu in sol.macrostates:
        assert abs(micro_rate(mu, params)) < 1e-10
    off_shell = Macrostate(0.05, 0.9, 0.05)
    assert micro_rate(off_shell, params) == math.inf
    assert abs(micro_rate(UNIFORM, MicroParams(2.0 / 3.0, 1.3))) < 1e-12
