"""Host-speed calibration: a fixed kernel that does not touch begphase.

The shared 2-core host this benchmark was built on changes speed by up to
about 1.7x over minutes (CPU time moves with wall time, so the processor
itself runs slower, not just the scheduler).  Ten-run spreads of raw pass
times reached 25-39% of their median, above any usable regression bound.
The benchmark therefore times this kernel next to every measurement and
reports times scaled to a reference kernel time: a time t measured while the
kernel took k seconds is reported as t * REFERENCE_S / k.

The kernel imitates the package's hot paths so that it slows down the way
they do: a well search like ``positive_well`` (frozen parameter object,
closures handed to a bisection-plus-Newton root finder, scalar tilted
moments, a 200-point numpy probe) and a log-sum-exp sweep like
``exact_spin_pmf``.  It shares no code with the package, so a change to
begphase moves the scaled times exactly as it moves the raw ones.  Raw times
are kept in the run record and printed next to the scaled ones.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

#: Kernel wall time that scaled times are expressed against, in seconds
#: (about what the kernel takes on the reference host).
REFERENCE_S = 0.1

_WELLS = 1200
_SWEEPS = 10
_TERMS = np.linspace(-40.0, 0.0, 4000)


@dataclass(frozen=True)
class _Params:
    beta: float
    K: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValueError(f"K must be positive, got {self.K}")


def _moments(beta, t):
    lw_m, lw_p = -beta - t, -beta + t
    shift = max(0.0, lw_m, lw_p)
    w0 = math.exp(-shift)
    wm = math.exp(lw_m - shift)
    wp = math.exp(lw_p - shift)
    d = w0 + (wm + wp)
    return (wp - wm) / d, (wm + wp) / d


def _slope(beta, t, order):
    if not (isinstance(beta, (int, float)) and math.isfinite(beta)):
        raise ValueError(f"beta must be finite, got {beta}")
    m1, m2 = _moments(beta, t)
    return m1 if order == 1 else m2 - m1 * m1


def _root(f, fprime, lo, hi):
    flo = f(lo)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    x = 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(40):
        if abs(fx) < 1e-13:
            break
        x_new = x - fx / fprime(x)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x, fx = x_new, f(x_new)
    return x


def _well(beta, K):
    p = _Params(beta, K)
    a = 2.0 * p.beta * p.K
    probes = np.geomspace(1e-12, a, 200)
    wm = np.exp(-beta - probes)
    wp = np.exp(-beta + probes)
    slopes = probes / a - (wp - wm) / (1.0 + wm + wp)
    start = float(probes[int(np.argmin(slopes))])
    return _root(lambda w: w / a - _slope(p.beta, w, 1),
                 lambda w: 1.0 / a - _slope(p.beta, w, 2), start, a)


def kernel():
    acc = 0.0
    for j in range(_WELLS):
        acc += _well(1.0 + (j % 7) * 0.01, 1.6 + (j % 5) * 0.05)
    for j in range(_SWEEPS):
        for k in range(0, 4000, 100):
            acc += float(logsumexp(_TERMS[k:] - 1e-3 * j))
    return acc


def measure():
    """(wall seconds, CPU seconds) of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0
