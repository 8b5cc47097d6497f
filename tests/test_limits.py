import hashlib
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from conftest import (brute_force_spin_pmf, exact_config_probs,
                      reference_metropolis, summed_spin_pmf)

import begphase
from begphase.canonical import (first_order_coupling, second_order_coupling,
                                solve_canonical)
from begphase.core import BETA_C, CanonicalParams, DomainError
from begphase.limits import (
    _PROPOSALS,
    _move_table,
    _phase_weights,
    classify_minimum,
    conditioned_clt_check,
    convergence_diagnostic,
    exact_spin_pmf,
    limit_density,
    metropolis_sampler,
)


# ---------------------------------------------------------------------------
# exact total-spin law
# ---------------------------------------------------------------------------

def test_pmf_single_site():
    pmf = exact_spin_pmf(1, CanonicalParams(1.0, 0.4))
    w = math.exp(-1.0 + 0.4)
    expect = np.array([w, 1.0, w])
    expect /= expect.sum()
    assert np.abs(pmf.probabilities - expect).max() < 1e-15


def test_pmf_two_sites_hand_enumeration():
    pmf = exact_spin_pmf(2, CanonicalParams(1.0, 1.0))
    expect = brute_force_spin_pmf(2, 1.0, 1.0)
    assert np.abs(pmf.probabilities - expect).max() < 1e-14


@pytest.mark.parametrize("n", [3, 5, 8])
def test_pmf_matches_full_enumeration(n):
    beta, K = 1.3, 0.7
    pmf = exact_spin_pmf(n, CanonicalParams(beta, K))
    expect = brute_force_spin_pmf(n, beta, K)
    assert np.abs(pmf.probabilities - expect).max() < 1e-13


def test_pmf_symmetry_and_normalization():
    pmf = exact_spin_pmf(100, CanonicalParams(2.0, 1.1))
    assert abs(pmf.probabilities.sum() - 1.0) < 1e-12
    assert np.abs(pmf.probabilities - pmf.probabilities[::-1]).max() < 1e-15


def test_pmf_domain_errors():
    with pytest.raises(DomainError):
        exact_spin_pmf(0, CanonicalParams(1.0, 1.0))
    with pytest.raises(DomainError):
        exact_spin_pmf(20001, CanonicalParams(1.0, 1.0))
    with pytest.raises(DomainError):  # a bool is not a size
        exact_spin_pmf(True, CanonicalParams(1.0, 1.0))


def test_pmf_float32_beta_is_solved_in_double_precision():
    # the law was 2e-8 relative off when beta stayed a float32
    for n in (1, 50):
        got = exact_spin_pmf(n, CanonicalParams(np.float32(1.0), 1.0))
        want = exact_spin_pmf(n, CanonicalParams(1.0, 1.0))
        assert np.array_equal(got.probabilities, want.probabilities)
        assert type(got.beta) is float


@pytest.mark.parametrize("K", [0.2, 1.0, 1.0817, 3.0])
@pytest.mark.parametrize("beta", [1e-3, 1.0, math.log(4.0), 8.0, 50.0, 300.0])
def test_pmf_recurrence_matches_summation(beta, K):
    # the O(n) recurrence against the O(n^2) multinomial sum over both
    # ensembles' regimes; beta = 8, K = 1 at n = 2000 is the largest gap seen
    ns = (1, 2, 7, 500) + ((2000,) if (beta, K) == (8.0, 1.0) else ())
    for n in ns:
        pmf = exact_spin_pmf(n, CanonicalParams(beta, K))
        gap = np.abs(pmf.probabilities - summed_spin_pmf(n, beta, K)).max()
        assert gap <= 1e-12


def test_pmf_recurrence_at_large_beta_against_high_precision():
    # written as T_k = a^k U_k, the recurrence in log U_k keeps its roundoff
    # at machine level; run on T_k itself it would carry eps * beta * n
    # (1.7e-11 in probability here)
    mpmath = pytest.importorskip("mpmath")
    n, beta, K = 500, 300.0, 1.0
    with mpmath.workdps(40):
        a2j = [mpmath.exp(-2 * beta * j) for j in range(n // 2 + 1)]
        half = []  # weights of k = 0..n; the law is even in k
        for k in range(n + 1):
            u = mpmath.fsum(math.comb(n, k + j) * math.comb(n - k - j, j) * a2j[j]
                            for j in range((n - k) // 2 + 1))
            half.append(u * mpmath.exp(beta * k * (mpmath.mpf(K) * k / n - 1)))
        weights = half[:0:-1] + half
        total = mpmath.fsum(weights)
        expect = np.array([float(w / total) for w in weights])
    pmf = exact_spin_pmf(n, CanonicalParams(beta, K))
    assert np.abs(pmf.probabilities - expect).max() <= 1e-13


def test_pmf_at_the_tricritical_point_against_high_precision():
    # the same recurrence run in 40 digits at the top of the KS ladders;
    # summed without compensation, the n log ratios drift to 1.2e-15 in
    # probability here, and run on log U_k itself to 1.1e-14
    mpmath = pytest.importorskip("mpmath")
    n, beta, K = 4000, math.log(4.0), 3.0 / (2.0 * math.log(4.0))
    with mpmath.workdps(40):
        b, kk = mpmath.mpf(beta), mpmath.mpf(K)
        a2 = mpmath.exp(-2 * b)
        u = [mpmath.mpf(0)] * (n + 2)
        u[n] = mpmath.mpf(1)
        for k in range(n, 0, -1):
            u[k - 1] = (a2 * (n + k + 1) * u[k + 1] + k * u[k]) / (n - k + 1)
        half = [u[k] * mpmath.exp(b * k * (kk * k / n - 1)) for k in range(n + 1)]
        weights = half[:0:-1] + half
        total = mpmath.fsum(weights)
        expect = np.array([float(w / total) for w in weights])
    pmf = exact_spin_pmf(n, CanonicalParams(beta, K))
    assert np.abs(pmf.probabilities - expect).max() <= 1e-15


# ---------------------------------------------------------------------------
# type classification
# ---------------------------------------------------------------------------

def test_classify_subcritical_gaussian():
    rep = classify_minimum(CanonicalParams(1.0, 1.0), 0.0)
    assert rep.r == 1
    assert abs(rep.sigma2 - 2.7845) < 1e-3


def test_classify_critical_type_two():
    kc2 = second_order_coupling(1.0)
    rep = classify_minimum(CanonicalParams(1.0, kc2), 0.0)
    assert rep.r == 2
    assert rep.derivative_values[1] > 0.0
    assert rep.sigma2 is None


def test_classify_tricritical_type_three():
    ktri = second_order_coupling(BETA_C)
    rep = classify_minimum(CanonicalParams(BETA_C, ktri), 0.0)
    assert rep.r == 3
    assert abs(rep.derivative_values[2] - 162.0) < 1e-9


@pytest.mark.parametrize("beta, K", [(2.0, 400.0), (300.0, 1.3862943611198906)])
def test_classify_raises_where_the_variance_underflows(beta, K):
    # at (2, 400) and (300, 1.386...) the minimizers round to +-1, where
    # c''(2 beta K z) underflows to 0.  A RuntimeError used to escape
    params = CanonicalParams(beta, K)
    for z in solve_canonical(params).z_points:
        with pytest.raises(DomainError, match="asymptotic variance"):
            classify_minimum(params, z)


@pytest.mark.parametrize("K", [1e-200, 1e-300, 3e-309, 1e-309, 5e-324])
def test_classify_the_origin_where_the_scale_underflows(K):
    # G''(0) = (2 beta K)^2 P''(0) with P''(0) ~ 1/(2 beta K): (2 beta K)^2
    # underflows below 2 beta K ~ 1e-154, and 1/(2 beta K) overflows below
    # 2 beta K ~ 5.6e-309, where G''(0) read inf and this raised; but
    # G''(0) ~ 2 beta K and the variance c''(0)/(1 - 2 beta K c''(0)) ~
    # c''(0) are floats
    rep = classify_minimum(CanonicalParams(1.0, K), 0.0)
    assert rep.r == 1
    assert abs(rep.derivative_values[0] / (2.0 * K) - 1.0) < 1e-14
    assert abs(rep.sigma2 / (2.0 / (math.e + 2.0)) - 1.0) < 1e-15
    if K == 1e-200:
        assert rep.sigma2 == 0.4238831152341709


def test_curvature_sign_flips_at_critical_coupling():
    from begphase.canonical import mag_potential

    for beta in (0.7, 1.0):
        kc2 = second_order_coupling(beta)
        assert mag_potential(CanonicalParams(beta, kc2 - 1e-6), 0.0, 2) > 0.0
        assert mag_potential(CanonicalParams(beta, kc2 + 1e-6), 0.0, 2) < 0.0


def test_phase_weights_symmetric_pair():
    params = CanonicalParams(1.0, 1.5)
    weights = _phase_weights(params, solve_canonical(params).z_points)
    assert len(weights) == 2
    assert abs(sum(weights) - 1.0) < 1e-15
    assert abs(weights[0] - 0.5) < 1e-12


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_phase_weights_at_a_first_order_coupling(beta):
    # the triple of minimizers weighs G''(z_j)^(-1/2): weights from the
    # asymptotic variances gave (0.2156, 0.5689, 0.2156) at beta = 2 against
    # masses (0.2860, 0.4279, 0.2860), and a TV ladder stuck near 0.14
    params = CanonicalParams(beta, first_order_coupling(beta))
    zs = solve_canonical(params).z_points
    assert len(zs) == 3
    pmf = exact_spin_pmf(20000, params)
    masses = [pmf.mass_near(z, 0.1) for z in zs]
    weights = _phase_weights(params, zs)
    assert max(abs(w - m) for w, m in zip(weights, masses)) < 1e-3
    dists = convergence_diagnostic([2000, 8000, 20000], params)
    assert dists[0] > dists[1] > dists[2] and dists[2] < 1e-4


# ---------------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------------

def test_limit_density_gaussian():
    rep = classify_minimum(CanonicalParams(1.0, 1.0), 0.0)
    dens = limit_density(rep)
    assert dens.r == 1
    total, _ = quad(dens.pdf, -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-9
    assert abs(dens.cdf(0.0) - 0.5) < 1e-12


def test_limit_density_sextic_coefficient():
    ktri = second_order_coupling(BETA_C)
    rep = classify_minimum(CanonicalParams(BETA_C, ktri), 0.0)
    dens = limit_density(rep)
    assert dens.r == 3
    assert abs(dens.coef - 0.225) < 1e-9   # 162 / 720
    total, _ = quad(dens.pdf, -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-9
    xs = np.array([-1.3, -0.2, 0.7])
    assert np.abs(dens.pdf(xs) - dens.pdf(-xs)).max() < 1e-15
    assert abs(dens.cdf(1.1) + dens.cdf(-1.1) - 1.0) < 1e-12
    # CDF through the incomplete gamma matches direct quadrature
    direct, _ = quad(dens.pdf, -np.inf, 0.8)
    assert abs(dens.cdf(0.8) - direct) < 1e-9


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

def test_ks_ladder_gaussian_regime():
    dists = convergence_diagnostic([250, 500, 1000], CanonicalParams(1.0, 1.0))
    assert dists[0] > dists[1] > dists[2]


def test_law_of_large_numbers():
    eps = 0.05
    tails = []
    for n in (500, 1000, 2000):
        pmf = exact_spin_pmf(n, CanonicalParams(1.0, 1.0))
        tails.append(1.0 - pmf.mass_near(0.0, eps))
    assert tails[0] > tails[1] > tails[2]


def test_variance_identity():
    params = CanonicalParams(1.0, 1.0)
    sigma2 = classify_minimum(params, 0.0).sigma2
    gaps = []
    for n in (1000, 4000):
        pmf = exact_spin_pmf(n, params)
        gaps.append(abs(pmf.var() / n - sigma2) / sigma2)
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.05


def test_two_phase_masses():
    kc1 = first_order_coupling(2.0)
    params = CanonicalParams(2.0, kc1 + 0.05)
    pmf = exact_spin_pmf(800, params)
    from begphase.canonical import solve_canonical

    z = max(solve_canonical(params).z_points)
    m_plus = pmf.mass_near(z, 0.05)
    m_minus = pmf.mass_near(-z, 0.05)
    assert m_plus + m_minus > 0.95
    assert abs(m_plus - m_minus) < 0.02
    tv = convergence_diagnostic([400, 800], params)
    assert tv[1] < tv[0]


def test_two_phase_diagnostic_solves_once_per_ladder(monkeypatch):
    from begphase import limits
    from begphase.canonical import solve_canonical

    calls = []

    def spy(params):
        calls.append(params)
        return solve_canonical(params)

    monkeypatch.setattr(limits, "solve_canonical", spy)
    params = CanonicalParams(1.0, 1.5)
    convergence_diagnostic([100], params)
    short = len(calls)
    assert short == 1
    calls.clear()
    convergence_diagnostic([100, 200, 300, 400], params)
    assert len(calls) == short


def test_conditioned_clt():
    params = CanonicalParams(1.0, 1.5)
    d1 = conditioned_clt_check(600, params, j="+")
    d2 = conditioned_clt_check(1200, params, j="+")
    assert d2 < d1
    # the window captures essentially half of the symmetric two-phase mass
    from begphase.canonical import solve_canonical

    z = max(solve_canonical(params).z_points)
    a = min(0.1, z / 2.0)
    for n in (600, 1200):
        pmf = exact_spin_pmf(n, params)
        assert pmf.mass_near(z, a) > 0.49
        keep = np.abs(pmf.spins / n - z) <= a
        probs = pmf.probabilities[keep] / pmf.probabilities[keep].sum()
        mean = float(np.dot(pmf.spins[keep], probs))
        assert abs(mean - n * z) / math.sqrt(n) < 0.5
    with pytest.raises(DomainError):
        conditioned_clt_check(600, CanonicalParams(1.0, 1.0))


# ---------------------------------------------------------------------------
# Metropolis cross-check
# ---------------------------------------------------------------------------

def test_metropolis_seed_reproducibility():
    params = CanonicalParams(1.0, 1.0)
    a = metropolis_sampler(12, params, 20000, seed=7)
    b = metropolis_sampler(12, params, 20000, seed=7)
    c = metropolis_sampler(12, params, 20000, seed=8)

    def outputs(r):
        return r.s_probs.tobytes(), r.spin_freq, r.acceptance_rate

    assert outputs(a) == outputs(b)
    assert outputs(a) != outputs(c)


@pytest.mark.parametrize("beta,K", [(1.0, 1.0), (1.0, 1.5)])
def test_metropolis_kernel_exactly_stationary(beta, K):
    # one-phase (1, 1) and two-phase (1, 1.5): the full 81 x 81 transition
    # matrix of the single-site rule at n = 4 leaves the exact law invariant
    n = 4
    params = CanonicalParams(beta, K)
    codes = np.arange(3 ** n)
    spins = (codes[:, None] // 3 ** np.arange(n)) % 3 - 1

    def energy(cfg):
        return beta * np.sum(cfg * cfg) - beta * K * np.sum(cfg) ** 2 / n

    P = np.zeros((3 ** n, 3 ** n))
    for x, cfg in enumerate(spins):
        for j in range(n):
            for prop in _PROPOSALS[cfg[j] + 1]:
                new = cfg.copy()
                new[j] = prop
                y = int(np.sum((new + 1) * 3 ** np.arange(n)))
                p = min(1.0, math.exp(energy(cfg) - energy(new))) / (2 * n)
                P[x, y] += p
                P[x, x] += 1.0 / (2 * n) - p
    pi = exact_config_probs(n, params)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-15, rtol=0.0)
    assert np.max(np.abs(pi @ P - pi)) < 1e-12


@pytest.mark.parametrize(
    "n,K,steps,seed,acceptance,freq,s_sha", [
        (50, 1.0, 10 ** 5, 1, 0.60077,
         (0.21519939999999993, 0.553528, 0.2312726),
         "8cbddf8ad571df5c5f90da0425a2f611413b73a18c72144f0ded52ab2504d781"),
        (4, 1.5, 10 ** 5, 99, 0.37318, (0.363615, 0.279525, 0.35686),
         "db9effaa5cb8d4b29eaafb09f5963736d6ffa032a10740309d34dd3a126aa05d"),
        # fewer steps than sites: the chain cannot reach |S| = n
        (50, 1.0, 30, 1, 0.3,
         (0.04200000000000004, 0.9406666666666667, 0.017333333333333333),
         "8a8d928de3bfb9a87089beedec9ff2fa41e1cf4e43fa0ce844d82d6bed821b92"),
    ])
def test_metropolis_outputs_pinned(n, K, steps, seed, acceptance, freq,
                                   s_sha):
    # the chain of a given seed is fixed bit for bit: the draw order, the
    # block size and the acceptance test u < min(1, e^-dE) must not move
    res = metropolis_sampler(n, CanonicalParams(1.0, K), steps, seed=seed)

    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    assert res.acceptance_rate == acceptance
    assert (res.spin_freq.nu_minus, res.spin_freq.nu_zero,
            res.spin_freq.nu_plus) == freq
    assert res.s_probs.dtype == np.float64 and sha(res.s_probs) == s_sha


@pytest.mark.parametrize("n", [0, -3, 2.0, True])
def test_metropolis_rejects_bad_size(n):
    # n = 0 ended in a ValueError from numpy's integer draw; True ran a
    # one-site chain
    with pytest.raises(DomainError, match="n must be a positive integer"):
        metropolis_sampler(n, CanonicalParams(1.0, 1.0), 10, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, None, True, "3"])
def test_metropolis_rejects_bad_seed(seed):
    # -1 ended in a ValueError from numpy, 1.5 in a TypeError, and None ran
    # from operating-system entropy, unreproducible
    with pytest.raises(DomainError,
                       match="seed must be a nonnegative integer"):
        metropolis_sampler(5, CanonicalParams(1.0, 1.0), 10, seed=seed)


@pytest.mark.parametrize("steps", [0, 2.0, True])
def test_metropolis_rejects_bad_steps(steps):
    # a bool is not a step count; True ended in a TypeError
    with pytest.raises(DomainError, match="steps must be a positive integer"):
        metropolis_sampler(5, CanonicalParams(1.0, 1.0), steps, seed=0)


@pytest.mark.parametrize("steps", [10 ** 13, 2 ** 62, 2 ** 28 + 1])
def test_metropolis_refuses_steps_beyond_the_trace_bound(steps):
    # 10^13 steps once let numpy's _ArrayMemoryError escape for a per-step
    # trace; the bound now caps the run time, and every case is refused
    # before the chain starts
    from begphase.limits import MAX_METROPOLIS_STEPS

    assert MAX_METROPOLIS_STEPS == 2 ** 28
    with pytest.raises(DomainError, match="run time of the chain"):
        metropolis_sampler(5, CanonicalParams(1.0, 1.0), steps, seed=0)


def test_metropolis_memory_does_not_grow_with_the_chain():
    # the sampler holds O(n) state and one 65536-step block: a per-step trace
    # of S once added 4 bytes per step, 3.5 MB between these two chains
    import tracemalloc

    def peak(steps):
        tracemalloc.start()
        try:
            metropolis_sampler(50, CanonicalParams(1.0, 1.0), steps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)   # the imports numpy.random makes on its first use
    assert abs(peak(16 * 65536) - peak(2 * 65536)) < 0.25e6


#: Step counts on and around the 65536-step block edges of the sampler.
BLOCK_EDGE_STEPS = (65535, 65536, 65537, 2 * 65536 + 3)


@st.composite
def chains(draw):
    # sizes the reference tallies configurations of (n <= 8) and larger
    # ones equally often
    n = draw(st.integers(1, 8) | st.integers(9, 60))
    short = st.integers(1, n - 1) if n > 1 else st.nothing()
    steps = draw(short | st.sampled_from(BLOCK_EDGE_STEPS))
    beta = draw(st.floats(0.0, 5.0, exclude_min=True))
    K = draw(st.floats(0.0, 3.0, exclude_min=True))
    return n, steps, beta, K, draw(st.integers(0, 2 ** 32))


@settings(max_examples=30, deadline=None)
@given(chains())
@example((4, 65537, 1.0, 1.5, 99))    # two-phase, tallied, across a block edge
@example((50, 2 * 65536 + 3, 1.0, 1.0, 1))  # one-phase, three blocks
@example((50, 30, 1.0, 1.0, 1))       # fewer steps than sites
@example((300, 65537, 1.0, 1.0, 5))   # 2m + 1 > 256, across a block edge
def test_metropolis_matches_per_step_reference(chain):
    # every output bit for bit against the loop that updates every tally at
    # every step, where the sampler recovers them from the changes of S
    n, steps, beta, K, seed = chain
    params = CanonicalParams(beta, K)
    res = metropolis_sampler(n, params, steps, seed)
    ref, config_probs = reference_metropolis(n, params, steps, seed)

    def bits(r):
        return (r.n, r.beta, r.K, r.steps, r.seed, r.s_probs.tobytes(),
                np.array(astuple(r.spin_freq)).tobytes(),
                np.float64(r.acceptance_rate).tobytes())

    assert bits(res) == bits(ref)
    assert (config_probs is None) == (n > 8)
    if config_probs is not None:
        # the reference's configuration law lumps onto the total-spin law
        digits = (np.arange(3 ** n)[:, None] // 3 ** np.arange(n)) % 3 - 1
        lumped = np.bincount(digits.sum(axis=1) + n, weights=config_probs,
                             minlength=2 * n + 1)
        assert np.allclose(lumped, res.s_probs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("beta,K", [(1.0, 1.0), (1.0, 1.5)])
@pytest.mark.parametrize("n", range(2, 9))
def test_metropolis_lumped_kernel_exact(n, beta, K):
    # the single-site rule sees a configuration only through S and the
    # chosen site's spin, so it lumps exactly onto the counts (n+, n0, n-);
    # the lumped chain built from the sampler's own move table leaves the
    # lumped exact law invariant and is reversible
    params = CanonicalParams(beta, K)
    table = _move_table(n, params, n)
    states = [(npl, nz, n - npl - nz) for npl in range(n + 1)
              for nz in range(n + 1 - npl)]
    index = {x: i for i, x in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for x, counts in enumerate(states):
        S = counts[0] - counts[2]
        for s in (-1, 0, 1):
            for (nxt, ds, row, _), prop in zip(table[s + 1], _PROPOSALS[s + 1]):
                assert ds == prop - s and nxt is table[prop + 1]
                y = list(counts)
                y[1 - s] -= 1
                y[1 - prop] += 1
                if y[1 - s] >= 0:
                    P[x, index[tuple(y)]] += counts[1 - s] / (2 * n) * row[S + n]
    P[np.diag_indices_from(P)] = 1.0 - P.sum(axis=1)

    codes = np.arange(3 ** n)
    digits = (codes[:, None] // 3 ** np.arange(n)) % 3 - 1
    lumped = [index[(int(np.sum(d == 1)), int(np.sum(d == 0)),
                     int(np.sum(d == -1)))] for d in digits]
    pi = np.zeros(len(states))
    np.add.at(pi, lumped, exact_config_probs(n, params))
    assert np.max(np.abs(pi @ P - pi)) < 1e-13
    flow = pi[:, None] * P
    assert np.max(np.abs(flow - flow.T)) < 1e-13


def test_metropolis_detailed_balance_tiny_system():
    # empirical configuration law over all 81 states vs the exact ensemble,
    # tallied by the reference chain, which the hypothesis test above ties
    # bit for bit to the sampler's; 4 * 10^6 steps give TV 0.0024
    params = CanonicalParams(1.0, 1.0)
    _, config_probs = reference_metropolis(4, params, 4 * 10 ** 6, seed=99)
    exact = exact_config_probs(4, params)
    tv = 0.5 * float(np.abs(config_probs - exact).sum())
    assert tv < 0.01


def test_import_leaves_scipy_unloaded():
    # the limit laws use closed forms, and scipy.special is imported by the
    # functions that use it: scipy made up most of the package's import time
    src = str(pathlib.Path(begphase.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, begphase; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
