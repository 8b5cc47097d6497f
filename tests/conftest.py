"""Shared helpers: independent oracles and random-state generators."""

import itertools
import math

import numpy as np
from scipy.special import gammaln, logsumexp

from begphase.core import Macrostate


def central_diff(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def random_macrostates(rng, count):
    return [Macrostate(*pt) for pt in rng.dirichlet((1.0, 1.0, 1.0), size=count)]


def brute_force_spin_pmf(n, beta, K):
    """Total-spin law by full 3^n configuration enumeration."""
    masses = {}
    for cfg in itertools.product((-1, 0, 1), repeat=n):
        S = sum(cfg)
        Q = sum(c * c for c in cfg)
        w = math.exp(-beta * Q + beta * K * S * S / n)
        masses[S] = masses.get(S, 0.0) + w
    total = sum(masses.values())
    return np.array([masses.get(k, 0.0) / total for k in range(-n, n + 1)])


def summed_spin_pmf(n, beta, K):
    """Total-spin law by multinomial summation, O(n^2): for each k the
    masses of all (n_+, n_-) with n_+ - n_- = k are summed in log space."""
    lgfact = gammaln(np.arange(n + 1) + 1.0)
    half = np.empty(n + 1)
    for k in range(n + 1):
        n_minus = np.arange(0, (n - k) // 2 + 1)
        n_plus = n_minus + k
        n_zero = n - n_plus - n_minus
        terms = (lgfact[n] - lgfact[n_plus] - lgfact[n_minus] - lgfact[n_zero]
                 - beta * (n_plus + n_minus) + beta * K * k * k / n)
        half[k] = logsumexp(terms)
    log_w = np.concatenate([half[:0:-1], half])
    probs = np.exp(log_w - logsumexp(log_w))
    return probs / probs.sum()


def constrained_mean_entropy(beta, z, step=1e-4):
    """min R(mu | tilted single-site measure) over mu with mean z, by a dense
    1-D scan (the mean constraint leaves one free mass) plus one local
    refinement pass around the scan argmin."""
    e = math.exp(-beta)
    base = np.array([e, 1.0, e]) / (1.0 + 2.0 * e)
    lo = max(0.0, -z)
    hi = (1.0 - z) / 2.0

    def values(nm):
        npl = nm + z
        nz = 1.0 - nm - npl
        ok = (npl >= -1e-15) & (nz >= -1e-15)
        stacked = np.stack([nm, np.maximum(nz, 0.0), np.maximum(npl, 0.0)],
                           axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(stacked > 0, stacked * np.log(stacked / base), 0.0)
        out = terms.sum(axis=1)
        out[~ok] = np.inf
        return out

    nm = np.arange(lo, hi + step, step)
    vals = values(nm)
    i = int(np.argmin(vals))
    a = nm[max(i - 1, 0)]
    b = nm[min(i + 1, len(nm) - 1)]
    fine = values(np.linspace(a, b, 400))
    return float(min(vals[i], fine.min()))


def assert_sets_close(solver_macs, oracle_macs, tol):
    """Every solver macrostate has an oracle neighbor within tol per
    component, and vice versa."""
    def close(a, b):
        return (abs(a.nu_minus - b.nu_minus) <= tol
                and abs(a.nu_zero - b.nu_zero) <= tol
                and abs(a.nu_plus - b.nu_plus) <= tol)

    for m in solver_macs:
        assert any(close(m, o) for o in oracle_macs), \
            f"solver state {m} unmatched by oracle"
    for o in oracle_macs:
        assert any(close(o, m) for m in solver_macs), \
            f"oracle state {o} unmatched by solver"
