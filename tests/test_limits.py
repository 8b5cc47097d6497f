import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import brute_force_spin_pmf

import begphase
from begphase.canonical import first_order_coupling, second_order_coupling
from begphase.core import BETA_C, CanonicalParams, DomainError
from begphase.limits import (
    _PROPOSALS,
    classify_minimum,
    conditioned_clt_check,
    convergence_diagnostic,
    exact_config_probs,
    exact_spin_pmf,
    limit_density,
    metropolis_sampler,
    phase_weights,
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


def test_curvature_sign_flips_at_critical_coupling():
    from begphase.canonical import mag_potential

    for beta in (0.7, 1.0):
        kc2 = second_order_coupling(beta)
        assert mag_potential(CanonicalParams(beta, kc2 - 1e-6), 0.0, 2) > 0.0
        assert mag_potential(CanonicalParams(beta, kc2 + 1e-6), 0.0, 2) < 0.0


def test_phase_weights_symmetric_pair():
    weights = phase_weights(CanonicalParams(1.0, 1.5))
    assert len(weights) == 2
    assert abs(sum(weights) - 1.0) < 1e-15
    assert abs(weights[0] - 0.5) < 1e-12


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
    assert np.array_equal(a.trace, b.trace)
    c = metropolis_sampler(12, params, 20000, seed=8)
    assert not np.array_equal(a.trace, c.trace)


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


def test_metropolis_detailed_balance_tiny_system():
    # empirical configuration law over all 81 states vs the exact ensemble
    params = CanonicalParams(1.0, 1.0)
    res = metropolis_sampler(4, params, 10 ** 7, seed=99)
    exact = exact_config_probs(4, params)
    tv = 0.5 * float(np.abs(res.config_probs - exact).sum())
    assert tv < 0.01


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # the limit laws use closed forms; scipy.stats alone costs most of the
    # package's import time
    src = str(pathlib.Path(begphase.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, begphase; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'])))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
