"""The three benchmark workloads: fixed call lists, references and checks.

Each workload is a closed loop with one client: the next top-level call is
started only when the previous one has returned, in one thread.  A pass is
the workload's fixed call list (``calls``); running it is the timed part.
Reading the outputs back (``capture``), computing references and checking happen
outside the timed region.

Every call goes through a module attribute (``diagram.equivalence_report``,
not a name bound at import), so the tracer's rebinding sees it.
"""

import csv
import math

import numpy as np

from begphase import canonical, cli, diagram, limits
from begphase.core import BETA_C, CanonicalParams

import checks


def run_call(label, fn, *args, **kwargs):
    """(label, result), or (label, exception) when the call raised or exited."""
    try:
        return label, fn(*args, **kwargs)
    except Exception as exc:  # a failed call is counted, never fatal
        return label, exc
    except SystemExit as exc:  # the CLI parser exits on a bad or renamed flag
        return label, RuntimeError(f"exited with code {exc.code!r}")


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Fill the lazy state the pass would otherwise pay for on first use."""

    def calls(self, index):
        """The call list of pass `index`: [(label, function, args)]."""
        raise NotImplementedError

    def capture(self, results):
        """Reduce raw results to the plain data the checks read."""
        return results

    def references(self):
        return {}

    def check(self, captured, refs):
        """[(label, [failure, ...])] for every top-level call of the pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

# (K, beta_hi, u_lo): the K = 1.0817 report is the paper's headline
# (nonequivalent, gap up to the canonical jump); K = 1.5 is the equivalent
# side.  Each grid is the package's default grid with its far end cut at
# beta_hi / u_lo: the default grids run to beta = 8 and to the bottom of the
# energy range, which costs about 51 s per pass at the parent commit and does
# not fit the run-time budget.  The cut keeps the microcanonical order
# parameter at the last u below the canonical one at the last beta (0.292 <
# 0.302 and 0.61 < 0.94), so no spurious gap can open there, and the K = 1.5
# window reaches past log 4 (to beta = 1.485) so both solver branches run.
EQUIVALENCE_CASES = ((1.0817, 1.42, 0.315), (1.5, 1.6, 0.1))


def _report(K, beta_hi, u_lo):
    # the windows are cut inside the pass, where the package would build its
    # default grids
    beta_grid = [b for b in diagram._default_beta_grid(K) if b <= beta_hi]
    u_grid = [u for u in diagram._default_u_grid(K) if u >= u_lo]
    return diagram.equivalence_report(K, beta_grid, u_grid)


class Equivalence(Workload):
    name = "equivalence"

    def setup(self):
        diagram.tricritical_micro()

    def calls(self, index):
        return [(f"equivalence K={K}", _report, (K, b_hi, u_lo))
                for K, b_hi, u_lo in EQUIVALENCE_CASES]

    def capture(self, results):
        return [(label, r if isinstance(r, Exception)
                 else (r.verdict, tuple((float(a), float(b))
                                        for a, b in r.gap_intervals)))
                for label, r in results]

    def references(self):
        # jump magnetization from the dual route, just above the canonical
        # first-order transition at K = 1.0817
        K = EQUIVALENCE_CASES[0][0]
        beta = diagram.beta_c1_of_K(K) + 1e-6
        _, args = canonical.dual_route_minimum(CanonicalParams(beta, K))
        return {"z_jump": max(abs(z) for z in args)}

    def check(self, captured, refs):
        out = []
        for (label, data), (K, _, _) in zip(captured, EQUIVALENCE_CASES):
            if isinstance(data, Exception):
                out.append((label, [f"raised {data!r}"]))
            elif K < diagram.tricritical_canonical():
                out.append((label, checks.check_nonequivalent(
                    *data, refs["z_jump"])))
            else:
                out.append((label, checks.check_equivalent(*data)))
        return out


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------

# (start, step, points) of the README grids; the seed shifts each start by
# less than half a step
CANON_BETA = (0.5, 0.1, 26)
CANON_K = (0.8, 0.05, 13)
MICRO_U = (0.025, 0.025, 24)
MICRO_K = (0.8, 0.1, 9)
CHECKED_ROWS = 10   # seeded subset of rows per sweep checked against oracles
# sweep: (outer axis, inner axis, CSV columns that key a row)
SWEEPS = {"canon": (CANON_BETA, CANON_K, ("beta", "K")),
          "micro": (MICRO_U, MICRO_K, ("u", "K"))}


def _grid(start, step, points):
    # the values begphase.cli parses from the spec below
    return [start + i * step for i in range(points)]


def _spec(start, step, points):
    # stop half a step past the last point, so the parsed count is exact
    return f"{start!r}:{start + (points - 0.5) * step!r}:{step!r}"


def _fmt(x):
    return f"{float(x):.12g}"


def _read_csv(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Diagram(Workload):
    name = "diagram"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.grids = {}
        for key, (start, step, points) in (("beta", CANON_BETA),
                                           ("canon_K", CANON_K),
                                           ("u", MICRO_U),
                                           ("micro_K", MICRO_K)):
            self.grids[key] = (start + rng.uniform(0.0, 0.5) * step, step,
                               points)
        self.canon_subset = rng.choice(CANON_BETA[2] * CANON_K[2],
                                       CHECKED_ROWS, replace=False)
        self.micro_subset = rng.choice(MICRO_U[2] * MICRO_K[2],
                                       CHECKED_ROWS, replace=False)
        self.paths = {k: str(workdir / f"{k}.csv") for k in
                      ("canon", "canon_curves", "micro", "micro_curves")}

    def argv(self):
        g, p = self.grids, self.paths
        return (
            ["diagram-canon", "--beta-grid", _spec(*g["beta"]),
             "--K-grid", _spec(*g["canon_K"]), "--threads", "1",
             "--out", p["canon"], "--curves-out", p["canon_curves"]],
            ["diagram-micro", "--u-grid", _spec(*g["u"]),
             "--K-grid", _spec(*g["micro_K"]), "--threads", "1",
             "--out", p["micro"], "--curves-out", p["micro_curves"]],
        )

    def calls(self, index):
        return [(argv[0], cli.main, (argv,)) for argv in self.argv()]

    def capture(self, results):
        out = []
        for (label, code), kind in zip(results, ("canon", "micro")):
            if isinstance(code, Exception):
                out.append((label, code))
            elif code != 0:
                out.append((label, RuntimeError(f"exit code {code}")))
            else:
                try:
                    data = (_read_csv(self.paths[kind]),
                            _read_csv(self.paths[f"{kind}_curves"]))
                except OSError as exc:
                    data = exc
                out.append((label, data))
        return out

    def _points(self, first, second, subset):
        pts = [(a, b) for a in _grid(*self.grids[first])
               for b in _grid(*self.grids[second])]
        return [pts[i] for i in sorted(subset)]

    def references(self):
        canon = {}
        for beta, K in self._points("beta", "canon_K", self.canon_subset):
            canon[(_fmt(beta), _fmt(K))] = canonical.dual_route_minimum(
                CanonicalParams(beta, K))
        micro = {}
        for u, K in self._points("u", "micro_K", self.micro_subset):
            minima, _ = diagram.simplex_oracle("micro", u=u, K=K, tol=5e-4,
                                               grid_step=5e-4)
            micro[(_fmt(u), _fmt(K))] = [
                (m.nu_minus, m.nu_zero, m.nu_plus) for m in minima]
        return {"canon": canon, "micro": micro}

    def check(self, captured, refs):
        out = []
        for (label, data), kind in zip(captured, ("canon", "micro")):
            if isinstance(data, Exception):
                out.append((label, [f"raised {data!r}"]))
                continue
            rows, curves = data
            first, second, cols = SWEEPS[kind]
            if kind == "canon":
                fails = checks.check_canon_curves(curves, BETA_C)
            else:
                fails = checks.check_micro_curves(curves)
            if len(rows) != first[2] * second[2] or len(curves) != first[2]:
                fails.append(f"{len(rows)} rows / {len(curves)} curve rows, "
                             f"expected {first[2] * second[2]} / {first[2]}")
            by_key = {tuple(r[c] for c in cols): r for r in rows}
            for key, ref in refs[kind].items():
                if key not in by_key:
                    fails.append(f"row {key} missing")
                elif kind == "canon":
                    fails += checks.check_canon_row(by_key[key], *ref)
                else:
                    fails += checks.check_micro_row(by_key[key], ref)
            out.append((label, fails))
        return out


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

# Sized so that several passes fit in one run: the exact law is O(n^2) at
# this commit (n = 20000 alone takes about 4.5 s), so the ladders stop at
# 4000 and the variance identity runs at 8000; the sampler runs at twice the
# steps of acceptance criterion 11, whose bound it must meet.
KS_LADDER = (1000, 2000, 4000)
CONDITIONED_NS = (1000, 2000, 4000)
CONDITIONED_PARAMS = (1.0, 1.5)
PMF_N = 8000
SAMPLER_N = 50
SAMPLER_STEPS = 2 * 10 ** 6


def minimum_types():
    """(r, params) for the three minimum types: Gaussian, quartic and sextic."""
    return ((1, CanonicalParams(1.0, 1.0)),
            (2, CanonicalParams(1.0, canonical.second_order_coupling(1.0))),
            (3, CanonicalParams(math.log(4.0), 3.0 / (2.0 * math.log(4.0)))))


def sampler_seed(seed, index):
    """Chain seed of pass `index`: a fresh stream per pass, fixed by `seed`."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class Limits(Workload):
    name = "limits"

    def calls(self, index):
        out = [(f"ks r={r}", limits.convergence_diagnostic, (KS_LADDER, p))
               for r, p in minimum_types()]
        cond = CanonicalParams(*CONDITIONED_PARAMS)
        out += [(f"conditioned n={n}", limits.conditioned_clt_check, (n, cond))
                for n in CONDITIONED_NS]
        unit = CanonicalParams(1.0, 1.0)
        out.append((f"pmf n={PMF_N}", limits.exact_spin_pmf, (PMF_N, unit)))
        out.append(("metropolis", limits.metropolis_sampler,
                    (SAMPLER_N, unit, SAMPLER_STEPS,
                     sampler_seed(self.seed, index))))
        return out

    def capture(self, results):
        out = []
        for label, r in results:
            if isinstance(r, limits.SpinPmf):
                r = (r.n, r.var())
            elif isinstance(r, limits.MetropolisResult):
                r = r.s_probs
            out.append((label, r))
        return out

    def references(self):
        unit = CanonicalParams(1.0, 1.0)
        return {"sigma2": limits.classify_minimum(unit, 0.0).sigma2,
                "sampler_law": limits.exact_spin_pmf(SAMPLER_N,
                                                     unit).probabilities}

    def check(self, captured, refs):
        out = []
        cond = []
        for label, data in captured:
            if isinstance(data, Exception):
                fails = [f"raised {data!r}"]
            elif label.startswith("ks"):
                fails = checks.check_ladder(label, data)
            elif label.startswith("conditioned"):
                cond.append((label, data))
                continue
            elif label.startswith("pmf"):
                fails = checks.check_variance(*data, refs["sigma2"])
            else:
                tv = 0.5 * float(np.abs(data - refs["sampler_law"]).sum())
                fails = checks.check_sampler(tv)
            out.append((label, fails))
        complete = len(cond) == len(CONDITIONED_NS)
        ladder = (checks.check_ladder("conditioned", [d for _, d in cond])
                  if complete else ["a conditioned call raised"])
        out += [(label, ladder) for label, _ in cond]
        return out


WORKLOADS = {w.name: w for w in (Equivalence, Diagram, Limits)}
