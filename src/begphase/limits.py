"""Exact finite-size total-spin laws and their limiting behavior.

The total spin S_n under the fixed-(beta, K) ensemble has an exactly
computable distribution: configurations with n_+ up-spins and n_- down-spins
share the weight exp[-beta (n_+ + n_-) + beta K k^2 / n] with k = n_+ - n_-,
so the mass at total spin k is T_k e^(beta K k^2 / n), where T_k is the
coefficient of x^k in (a/x + 1 + a x)^n with a = e^-beta.  A three-term
recurrence in k gives every T_k in O(n), in log space.  As n grows,
S_n / n^(1 - 1/2r) converges to a limit density governed by the type r of
the potential's minimum: Gaussian for r = 1, exp(-const x^4) or
exp(-const x^6) at critical couplings (Ellis-Newman).  This module computes
the exact laws, classifies minima, builds the limit densities and measures
Kolmogorov-Smirnov distances between the two, plus a seeded single-site
Metropolis chain as an independent stochastic cross-check.  scipy.special
is imported inside the functions that use it, so importing the package does
not load scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .canonical import mag_potential, minimum_type, solve_canonical
from .core import CanonicalParams, DomainError, Macrostate, cumulant

#: Largest n accepted by exact_spin_pmf.  It bounds the size of the output
#: (three arrays of 2n + 1 entries); the cost of the law is O(n).
MAX_PMF_N = 20000

#: Largest chain accepted by metropolis_sampler.  It bounds the run time, not
#: memory: at 0.11-0.13 us per step on a 2-core Intel Xeon, 30-35 s.
MAX_METROPOLIS_STEPS = 2 ** 28


def _is_int(x) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SpinPmf:
    """Exact law of the total spin S_n: support -n..n, log weights and masses."""

    n: int
    beta: float
    K: float
    spins: np.ndarray
    log_weights: np.ndarray
    probabilities: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.spins, self.probabilities))

    def var(self) -> float:
        m = self.mean()
        return float(np.dot((self.spins - m) ** 2, self.probabilities))

    def mass_near(self, center: float, a: float) -> float:
        """Probability that S_n / n lies within [center - a, center + a]."""
        x = self.spins / self.n
        return float(self.probabilities[np.abs(x - center) <= a].sum())


@dataclass(frozen=True)
class TypeReport:
    """Type classification of a potential minimum.

    r is half the order of the first nonvanishing even derivative;
    derivative_values holds the even derivatives (orders 2, 4, 6) at z;
    sigma2 is the asymptotic variance of the spin fluctuation, defined only
    for r = 1.
    """

    params: CanonicalParams
    z: float
    r: int
    derivative_values: tuple
    sigma2: float | None


def exact_spin_pmf(n: int, params: CanonicalParams) -> SpinPmf:
    """Exact total-spin distribution by a three-term recurrence (no sampling).

    With a = e^-beta, the mass at total spin k is T_k e^(beta K k^2 / n),
    where T_k, the coefficient of x^k in (a/x + 1 + a x)^n, sums the
    multinomial weights of all (n_+, n_-) with n_+ - n_- = k.  Writing
    T_k = a^k U_k, the U_k obey U_n = 1, U_(n-1) = n and

        U_(k-1) = [a^2 (n + k + 1) U_(k+1) + k U_k] / (n - k + 1),

    run downward on the log ratios log(U_(k-1) / U_k), which stay O(log n),
    and summed with compensation into log U_k.  Every term is positive, so
    nothing cancels; the weights span thousands of orders of magnitude
    already at n of a few thousand.  Both choices bound the roundoff: run on
    log T_k = log U_k - beta k itself, the recurrence carries an error of
    order eps beta n, and an uncompensated sum of n ratios one of order
    eps |log U_k| sqrt(n).  Cost is O(n); n is capped at MAX_PMF_N.
    """
    from scipy.special import logsumexp

    if not (_is_int(n) and 1 <= n <= MAX_PMF_N):
        raise DomainError(f"n must be an integer in [1, {MAX_PMF_N}], got {n}")
    beta, K = params.beta, params.K
    exp, log = math.exp, math.log
    log_u = [0.0] * (n + 1)
    d = math.inf  # log U_(k-1) - log U_k, here at k = n + 1 (U_(n+1) = 0)
    s = c = 0.0   # log U_k = s + c, compensated (Neumaier) running sum of d
    for k in range(n, 0, -1):
        d = log(((n + k + 1) * exp(-2.0 * beta - d) + k) / (n - k + 1))
        t = s + d
        c += (s - t) + d if abs(s) >= abs(d) else (d - t) + s
        s = t
        log_u[k - 1] = s + c
    k = np.arange(n + 1)
    half = np.array(log_u) + beta * k * (K * k / n - 1.0)
    log_w = np.concatenate([half[:0:-1], half])  # evenness in k -> -k
    probs = np.exp(log_w - logsumexp(log_w))
    probs /= probs.sum()
    return SpinPmf(n=n, beta=beta, K=K, spins=np.arange(-n, n + 1),
                   log_weights=log_w, probabilities=probs)


def classify_minimum(params: CanonicalParams, z: float) -> TypeReport:
    """Type of a global minimizer z of the magnetization potential.

    r comes from minimum_type: 1 at every minimizer but the origin at the
    critical coupling (K within an ulp of Kc2), where it is 2, or 3 at log 4.
    For r = 1 the asymptotic variance is 2 beta K c''(2 beta K z) divided
    by G'' at z, which the cancellation-free kernel keeps positive: c''
    over G''/(2 beta K) = 1 - 2 beta K c'', of order 1 also where 2 beta K
    is subnormal; for r >= 2 no finite variance exists and sigma2 is None.
    DomainError where the variance is no positive float: where the
    minimizer rounds to +-1, c'' underflows to 0 at the tilt 2 beta K z.
    G'' keeps its value where (2 beta K)^2 underflows or 1/(2 beta K)
    overflows (see mag_potential).
    """
    r, evens = minimum_type(params, z)
    sigma2 = None
    if r == 1:
        a = 2.0 * params.beta * params.K
        c2, g2 = cumulant(params.beta, a * z, 2), evens[0]
        sigma2 = c2 / (g2 / a) if g2 > 0.0 else math.nan
        if not 0.0 < sigma2 < math.inf:
            raise DomainError(
                f"the asymptotic variance 2 beta K c''(2 beta K z)/G''(z) at "
                f"(beta, K) = ({params.beta}, {params.K}) and the minimizer "
                f"z = {z} underflows: c''({a * z}) = {c2}, G''(z) = {g2}")
    return TypeReport(params=params, z=z, r=r, derivative_values=evens,
                      sigma2=sigma2)


@dataclass(frozen=True)
class LimitDensity:
    """Limit law of S_n / n^(1-1/2r): normal for r = 1, else proportional to
    exp(-coef * x^(2r)) with coef = (even derivative at 0)/(2r)!.

    The normalization constant is the closed form 2 Gamma(1 + 1/2r) /
    coef^(1/2r); the CDF for r >= 2 uses the regularized incomplete gamma
    function.
    """

    r: int
    sigma2: float | None
    coef: float | None
    norm_const: float

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.r == 1:
            return (np.exp(-x * x / (2.0 * self.sigma2))
                    / math.sqrt(2.0 * math.pi * self.sigma2))
        return np.exp(-self.coef * x ** (2 * self.r)) / self.norm_const

    def cdf(self, x):
        from scipy.special import gammainc, ndtr

        x = np.asarray(x, dtype=float)
        if self.r == 1:
            return ndtr(x / math.sqrt(self.sigma2))
        m = 2 * self.r
        inner = gammainc(1.0 / m, self.coef * np.abs(x) ** m)
        return 0.5 + 0.5 * np.sign(x) * inner


def limit_density(report: TypeReport) -> LimitDensity:
    """Limit density for the scaling n^(1-1/2r) dictated by the report's type."""
    if report.r == 1:
        return LimitDensity(r=1, sigma2=report.sigma2, coef=None, norm_const=1.0)
    m = 2 * report.r
    deriv = report.derivative_values[report.r - 1]
    coef = deriv / math.factorial(m)
    norm_const = 2.0 * math.gamma(1.0 + 1.0 / m) / coef ** (1.0 / m)
    return LimitDensity(r=report.r, sigma2=None, coef=coef, norm_const=norm_const)


def ks_distance(points: np.ndarray, probabilities: np.ndarray, cdf,
                spacing: float) -> float:
    """Sup distance between a lattice law and a continuous CDF.

    Evaluated at every atom (exact sup over the discrete support); the
    continuous CDF is read mid-way between neighboring atoms, which removes
    the spurious half-atom floor a lattice otherwise shows against a
    continuous limit.
    """
    disc = np.cumsum(probabilities)
    cont = np.asarray(cdf(points + 0.5 * spacing))
    return float(np.max(np.abs(disc - cont)))


def _phase_weights(params, z_points):
    """Limit weights b_j of the minimizers z_j for the law of S_n / n.

    b_j is proportional to G''(z_j)^(-1/2): the wells share the depth min G,
    so the mass near z_j is the Gaussian integral of e^(-n G) over its well
    (Ellis-Newman-Rosen 1980).  A symmetric pair splits as (1/2, 1/2).
    DomainError where some G'' is not a positive float.
    """
    curvatures = [mag_potential(params, z, 2) for z in z_points]
    if not all(0.0 < g < math.inf for g in curvatures):
        raise DomainError(
            f"phase weights need G'' > 0 at the minimizers {list(z_points)} "
            f"of (beta, K) = ({params.beta}, {params.K}), got {curvatures}")
    roots = [g ** -0.5 for g in curvatures]
    total = sum(roots)
    return tuple(r / total for r in roots)


def convergence_diagnostic(n_ladder, params: CanonicalParams) -> list[float]:
    """Per-n distance between the exact law and its limit.

    Unique-minimum regime: Kolmogorov-Smirnov distance between the law of
    S_n / n^(1-1/2r) and the limit density of the minimum's type.  Multiple
    minima: total variation distance between the law of S_n / n smeared over
    windows around each minimizer and the discrete limit law sum_j b_j at z_j,
    with b_j proportional to G''(z_j)^(-1/2) (_phase_weights).
    """
    sol = solve_canonical(params)
    out = []
    if len(sol.z_points) == 1:
        report = classify_minimum(params, sol.z_points[0])
        density = limit_density(report)
        scaling = 1.0 - 1.0 / (2.0 * report.r)
        for n in n_ladder:
            pmf = exact_spin_pmf(n, params)
            scale = float(n) ** scaling
            out.append(ks_distance(pmf.spins / scale, pmf.probabilities,
                                   density.cdf, 1.0 / scale))
        return out
    weights = _phase_weights(params, sol.z_points)
    # the window half-width of conditioned_clt_check: one phase per window
    a = min(0.1, max(abs(z) for z in sol.z_points) / 2.0)
    for n in n_ladder:
        pmf = exact_spin_pmf(n, params)
        masses = [pmf.mass_near(z, a) for z in sol.z_points]
        outside = 1.0 - sum(masses)
        tv = 0.5 * (sum(abs(m - b) for m, b in zip(masses, weights)) + outside)
        out.append(tv)
    return out


def conditioned_clt_check(n: int, params: CanonicalParams, j: str = "+",
                          a: float | None = None) -> float:
    """KS distance of the conditioned, centered spin law to its normal limit.

    Conditions S_n / n on the window [z_j - a, z_j + a] around the minimizer
    of sign j, centers by n z_j, scales by sqrt(n) and compares to the
    normal law with the minimizer's asymptotic variance.  Default window
    half-width min(0.1, z/2) isolates one phase while keeping mass.
    """
    sol = solve_canonical(params)
    zpos = max(abs(z) for z in sol.z_points)
    if len(sol.z_points) < 2 or zpos == 0.0:
        raise DomainError("conditioned limit needs multiple minimizers")
    if j not in ("+", "-"):
        raise DomainError(f"phase selector must be '+' or '-', got {j!r}")
    zj = zpos if j == "+" else -zpos
    if a is None:
        a = min(0.1, zpos / 2.0)
    pmf = exact_spin_pmf(n, params)
    keep = np.abs(pmf.spins / n - zj) <= a
    if not np.any(keep):
        raise DomainError(f"empty conditioning window around z = {zj}")
    probs = pmf.probabilities[keep]
    probs = probs / probs.sum()
    xs = (pmf.spins[keep] - n * zj) / math.sqrt(n)
    density = limit_density(classify_minimum(params, zj))
    return ks_distance(xs, probs, density.cdf, 1.0 / math.sqrt(n))


# ---------------------------------------------------------------------------
# Metropolis cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetropolisResult:
    """Empirical output of a single-site Metropolis chain.

    s_probs is the empirical law of the total spin over the chain (support
    -n..n); spin_freq the time-averaged empirical spin frequencies.
    """

    n: int
    beta: float
    K: float
    steps: int
    seed: int
    s_probs: np.ndarray
    spin_freq: Macrostate
    acceptance_rate: float


# proposal table: for the current spin value (index s+1), the two other values
_PROPOSALS = ((0, 1), (-1, 1), (-1, 0))


def _move_table(n: int, params: CanonicalParams, m: int) -> list:
    """Move records of the single-site rule at system size n, for |S| <= m.

    table[s + 1] is the pair of moves open to a site at spin s, one per
    proposal in _PROPOSALS[s + 1].  Each move is (next pair, ds, row, step):
    the pair of the proposed spin, the change ds of the total spin, row,
    where row[S + m] is e^-dE at total spin S, or 1.0 where dE <= 0, with
    dE = beta d(quad) - beta K (2 S ds + ds^2)/n, and step = ds % 256, the
    byte that reads back as ds in int8.  A uniform u in [0, 1) then accepts
    exactly when dE <= 0 or u < e^-dE.  The pairs refer to one another; the
    caller clears them when done.
    """
    beta, K = params.beta, params.K
    bK = beta * K
    table = [[], [], []]
    for s, props in zip((-1, 0, 1), _PROPOSALS):
        for prop in props:
            ds, dq = prop - s, prop * prop - s * s
            des = (beta * dq - bK * (2 * S * ds + ds * ds) / n
                   for S in range(-m, m + 1))
            table[s + 1].append((table[prop + 1], ds,
                                 [1.0 if de <= 0.0 else math.exp(-de)
                                  for de in des], ds % 256))
    return table


def _dq_table() -> np.ndarray:
    """dq = prop^2 - s^2 of a move, indexed by 2 (ds + 2) + pick: ds and the
    proposal index fix both the spin s and the proposed spin prop."""
    dq = np.zeros(10, dtype=np.int64)
    for s, props in zip((-1, 0, 1), _PROPOSALS):
        for pick, prop in enumerate(props):
            dq[2 * (prop - s + 2) + pick] = prop * prop - s * s
    return dq


_DQ = _dq_table()


def metropolis_sampler(n: int, params: CanonicalParams, steps: int,
                       seed: int) -> MetropolisResult:
    """Single-site Metropolis chain targeting the fixed-(beta, K) ensemble.

    A uniformly chosen site proposes one of its two other spin values
    (symmetric proposal), accepted with probability min(1, e^-dE) where
    dE = beta d(quad) - beta K (2 S ds + ds^2)/n; the initial state is all
    zeros.  Randomness is drawn in blocks of 65536 steps, in the order
    sites, proposal picks, uniforms, so a seed fixes the chain bit for bit
    (test_metropolis_outputs_pinned holds its SHA-256 hashes).

    Each site holds the move pair of its current spin (_move_table), so a
    step is one lookup, one comparison u < row[S + m] and, on acceptance,
    a swap of the site's pair and an update of S + m.  The loop records
    only the change ds of S, as one byte: the move's ds % 256 when the step
    is accepted, 0 when it is rejected.  Everything else comes from these
    bytes, read as int8, one block at a time: the path of S is S plus their
    running sum; a step is accepted exactly when ds != 0, since a proposal
    always differs from the current spin; and the change of the sum of
    squared spins Q follows from ds and the pick (_DQ).  Memory is O(n) for
    the table and the state plus one block of draws and one of S, whatever
    the length of the chain; MAX_METROPOLIS_STEPS bounds its run time.
    """
    if not (_is_int(n) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n}")
    if not (_is_int(steps) and steps >= 1):
        raise DomainError(f"steps must be a positive integer, got {steps}")
    if steps > MAX_METROPOLIS_STEPS:
        raise DomainError(
            f"steps must be at most MAX_METROPOLIS_STEPS = {MAX_METROPOLIS_STEPS}:"
            f" a bound on the run time of the chain, got {steps}")
    if not (_is_int(seed) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    m = min(n, steps)  # |S| <= m all along the chain, which starts at S = 0
    table = _move_table(n, params, m)
    rng = np.random.default_rng(seed)
    state = [table[1]] * n
    Sm = m      # S + m, the row index
    S = Q = 0   # at the end of the last block
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    block_s = np.empty(min(65536, steps), dtype=np.int32)  # S over a block
    acc = 0
    sum_q = 0  # sum of Q over the steps; Q + S = 2 n_+ at every step
    done = 0
    while done < steps:
        block = min(65536, steps - done)
        # narrow copies of the draws offset the memory of the step list
        sites = rng.integers(0, n, size=block).astype(np.int32)
        picks = rng.integers(0, 2, size=block).astype(np.int8)
        us = rng.random(block)
        # memoryviews hand out Python numbers one at a time; list.append
        # stores a reference where array.append would convert to a C int, and
        # called as buf.append the interpreter specializes it
        buf = []
        for j, pick, u in zip(memoryview(sites), memoryview(picks),
                              memoryview(us)):
            nxt, d, row, step = state[j][pick]
            if u < row[Sm]:
                state[j] = nxt
                Sm += d
                buf.append(step)
            else:
                buf.append(0)
        del us
        ds = np.frombuffer(bytearray(buf), np.int8)  # the change of S per step
        del buf
        path = block_s[:block]
        np.cumsum(ds, dtype=np.int32, out=path)
        path += S
        counts += np.bincount(path + n, minlength=2 * n + 1)
        acc += np.count_nonzero(ds)
        q = _DQ[2 * (ds + 2) + picks]
        del picks
        np.cumsum(q, out=q)
        q += Q
        sum_q += int(q.sum())
        S, Q = int(path[-1]), int(q[-1])
        done += block
    for pair in table:
        pair.clear()  # the pairs refer to one another
    sum_plus = (sum_q + int(np.arange(-n, n + 1) @ counts)) >> 1
    sum_zero = steps * n - sum_q
    s_probs = counts / steps
    freq_plus = sum_plus / (steps * n)
    freq_zero = sum_zero / (steps * n)
    spin_freq = Macrostate(1.0 - freq_plus - freq_zero, freq_zero, freq_plus)
    return MetropolisResult(n=n, beta=params.beta, K=params.K, steps=steps,
                            seed=seed, s_probs=s_probs, spin_freq=spin_freq,
                            acceptance_rate=acc / steps)

