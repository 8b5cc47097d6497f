"""Tracing of begphase from outside the package, by wrapping its functions.

The benchmark may not edit the package, so layer boundaries are observed by
rebinding names.  Every wrapped function is replaced, in every loaded
``begphase`` module whose namespace holds it (a name imported with
``from .core import cumulant`` lives in several namespaces), by a wrapper that
either records a span (name, start, end, parent) or, for hot primitives,
only counts calls.  ``uninstall`` puts every original object back, so module
namespaces are identical before and after a traced run.

Spans stay in memory and are written out when the run ends; self time is
computed from them afterwards (``self_times``).
"""

import functools
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (defining module, attribute, layer, metric name) of functions timed by span.
# ``canonical._first_order_coupling`` is the one entry point shared by
# ``solve_canonical``, ``canonical_criticals`` and the public
# ``first_order_coupling``, so wrapping it counts every re-derivation once.
SPAN_TARGETS = (
    ("canonical", "solve_canonical", "canonical", "solve_canonical"),
    ("canonical", "tangency", "canonical", "tangency"),
    ("canonical", "positive_well", "canonical", "positive_well"),
    ("canonical", "canonical_criticals", "canonical", "canonical_criticals"),
    ("canonical", "_first_order_coupling", "canonical", "first_order_coupling"),
    ("micro", "solve_micro", "micro", "solve_micro"),
    ("micro", "micro_criticals", "micro", "micro_criticals"),
    ("micro", "convexity_threshold", "micro", "convexity_threshold"),
    ("micro", "first_order_coupling_u", "micro", "first_order_coupling_u"),
    ("limits", "exact_spin_pmf", "limits", "exact_spin_pmf"),
    ("limits", "convergence_diagnostic", "limits", "convergence_diagnostic"),
    ("limits", "conditioned_clt_check", "limits", "conditioned_clt_check"),
    ("limits", "metropolis_sampler", "limits", "metropolis_sampler"),
    ("diagram", "equivalence_report", "diagram", "equivalence_report"),
    ("diagram", "tricritical_micro", "diagram", "tricritical_micro"),
    ("diagram", "beta_c1_of_K", "diagram", "beta_c1_of_K"),
    ("diagram", "beta_c2_of_K", "diagram", "beta_c2_of_K"),
    ("diagram", "u_c2_of_K", "diagram", "u_c2_of_K"),
    ("diagram", "sweep_canonical", "diagram", "sweep_canonical"),
    ("diagram", "sweep_micro", "diagram", "sweep_micro"),
    ("cli", "main", "cli", "main"),
)

# Hot primitives: counted, never timed (about 8.7M cumulant calls in one
# default K = 1.0817 report).  The root finders also count the evaluations
# of the f / f' callables they are handed.
COUNT_TARGETS = (
    ("core", "cumulant", "core", "cumulant"),
    ("rootfind", "bisect_newton", "rootfind", "bisect_newton"),
    ("rootfind", "golden_min", "rootfind", "golden_min"),
    ("rootfind", "bisect_monotone", "rootfind", "bisect_monotone"),
)

# positional indices of the callables each root finder receives
_CALLABLE_ARGS = {"bisect_newton": (0, 1), "golden_min": (0,),
                  "bisect_monotone": (0,)}


@dataclass(frozen=True)
class Span:
    name: str          # "<layer>.<fn>"
    start: float
    end: float
    parent: int        # index into the span list, -1 for a root span
    ok: bool           # False when an exception escaped
    args: tuple        # positional arguments (params, beta, u, n, ...)
    value: float | None  # the result when it is a plain float


def begphase_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "begphase"
                                    or name.startswith("begphase."))}


def namespace_snapshot():
    """{module: {name: id(object)}} over every loaded begphase module."""
    return {name: {k: id(v) for k, v in vars(mod).items()}
            for name, mod in begphase_modules().items()}


class Tracer:
    """Installs counting and span wrappers; records into plain lists."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)     # "<layer>.<fn>.<counter>" -> int
        self._stack = []
        self._patches = []                 # (module, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, orig, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            value = None
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                ok = True
                if isinstance(result, float):
                    value = result
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, ok, args, value)
        return wrapper

    def _count_wrapper(self, orig, name, fn):
        counts = self.counts
        calls_key, raised_key = f"{name}.calls", f"{name}.raised"
        callable_args = _CALLABLE_ARGS.get(fn, ())
        evals_key = f"{name}.evals"

        def counted(f):
            def g(*a):
                counts[evals_key] += 1
                return f(*a)
            return g

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if callable_args:
                args = tuple(counted(a) if i in callable_args else a
                             for i, a in enumerate(args))
            try:
                return orig(*args, **kwargs)
            except BaseException:
                counts[raised_key] += 1
                raise
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = begphase_modules()
        for kind, targets in (("span", SPAN_TARGETS), ("count", COUNT_TARGETS)):
            for modname, attr, layer, fn in targets:
                orig = getattr(modules[f"begphase.{modname}"], attr)
                name = f"{layer}.{fn}"
                wrapped = (self._span_wrapper(orig, name) if kind == "span"
                           else self._count_wrapper(orig, name, fn))
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        while self._patches:
            mod, key, orig = self._patches.pop()
            setattr(mod, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,ok\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{int(s.ok)}\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the part of [start, end] its children cover.

    Children are clipped to the parent interval and their union is measured,
    so overlapping or out-of-bounds child spans never count twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start),
                              min(spans[c].end, s.end)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans, name):
    """Indices of spans called `name` with no ancestor of the same name, so
    summed durations never count a recursive call twice."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def pmf_terms(n):
    """Multinomial terms exact_spin_pmf sums at size n (computed, not counted):
    sum over k = 0..n of floor((n - k) / 2) + 1."""
    return sum((n - k) // 2 + 1 for k in range(n + 1))


def origin_band_top(u):
    """Upper edge (1-u)/(2u) (1 + sqrt((1-3u)/(3(1-u)))) of the coupling band
    where the fourth z-derivative of the shell entropy at 0 is negative."""
    return (1.0 - u) / (2.0 * u) * (1.0 + math.sqrt((1.0 - 3.0 * u)
                                                    / (3.0 * (1.0 - u))))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer):
    """{metric name: (value, unit)} for every per-layer metric.

    Every metric is always present; a layer the workload never enters reads
    0 calls and 0 s (see the benchmark README for which workload moves which
    metric).
    """
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    m = {}

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(spans[i].end - spans[i].start for i in outermost(spans, name))

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def distinct_ratio(name):
        n = calls(name)
        return n / len({spans[i].args[0] for i in by_name[name]}) if n else 0.0

    # core
    m["core.cumulant.calls"] = (counts["core.cumulant.calls"], "count")

    # rootfind
    nb = counts["rootfind.bisect_newton.calls"]
    m["rootfind.bisect_newton.calls"] = (nb, "count")
    m["rootfind.bisect_newton.evals_per_call"] = (
        counts["rootfind.bisect_newton.evals"] / nb if nb else 0.0, "evals")
    m["rootfind.golden_min.calls"] = (counts["rootfind.golden_min.calls"],
                                      "count")
    m["rootfind.golden_min.evals"] = (counts["rootfind.golden_min.evals"],
                                      "count")
    m["rootfind.bisect_monotone.evals"] = (
        counts["rootfind.bisect_monotone.evals"], "count")

    # canonical and micro solvers
    for solver in ("canonical.solve_canonical", "micro.solve_micro"):
        d = durations(solver)
        m[f"{solver}.calls"] = (calls(solver), "count")
        m[f"{solver}.self_s"] = (self_total(solver), "s")
        m[f"{solver}.p50_ms"] = (_quantile_ms(d, 50), "ms")
        m[f"{solver}.p90_ms"] = (_quantile_ms(d, 90), "ms")
        m[f"{solver}.repeat_ratio"] = (distinct_ratio(solver), "calls/distinct")
    for name in ("canonical.tangency", "canonical.positive_well",
                 "canonical.canonical_criticals",
                 "canonical.first_order_coupling",
                 "micro.micro_criticals", "micro.convexity_threshold",
                 "micro.first_order_coupling_u", "limits.exact_spin_pmf",
                 "diagram.equivalence_report", "cli.main"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("canonical.tangency", "canonical.positive_well",
                 "canonical.canonical_criticals",
                 "canonical.first_order_coupling", "micro.micro_criticals",
                 "micro.convexity_threshold", "micro.first_order_coupling_u",
                 "limits.exact_spin_pmf", "limits.convergence_diagnostic",
                 "limits.conditioned_clt_check", "limits.metropolis_sampler",
                 "diagram.equivalence_report", "diagram.tricritical_micro",
                 "diagram.beta_c1_of_K", "diagram.beta_c2_of_K",
                 "diagram.u_c2_of_K", "diagram.sweep_canonical",
                 "diagram.sweep_micro"):
        m[f"{name}.time_s"] = (total(name), "s")
    m["canonical.tangency.calls_per_beta"] = (
        distinct_ratio("canonical.tangency"), "calls/beta")
    m["micro.micro_criticals.p50_ms"] = (
        _quantile_ms(durations("micro.micro_criticals"), 50), "ms")

    conv = by_name["micro.convexity_threshold"]
    m["micro.convexity_threshold.wasted_s"] = (
        sum(spans[i].end - spans[i].start for i in conv if not spans[i].ok),
        "s")
    errs = [abs(spans[i].value - origin_band_top(spans[i].args[0]))
            / origin_band_top(spans[i].args[0])
            for i in conv if spans[i].ok and spans[i].value is not None
            and 0.0 < spans[i].args[0] <= 1.0 / 3.0]
    m["micro.convexity_threshold.band_rel_err_max"] = (
        max(errs) if errs else 0.0, "ratio")

    # limits
    pmf = by_name["limits.exact_spin_pmf"]
    terms = sum(pmf_terms(int(spans[i].args[0])) for i in pmf if spans[i].ok)
    pmf_time = sum(spans[i].end - spans[i].start for i in pmf if spans[i].ok)
    m["limits.exact_spin_pmf.terms"] = (terms, "count_computed")
    m["limits.exact_spin_pmf.ns_per_term"] = (
        pmf_time * 1e9 / terms if terms else 0.0, "ns")
    met = [i for i in by_name["limits.metropolis_sampler"] if spans[i].ok]
    met_time = sum(spans[i].end - spans[i].start for i in met)
    met_steps = sum(int(spans[i].args[2]) for i in met)
    m["limits.metropolis_sampler.steps_per_s"] = (
        met_steps / met_time if met_time else 0.0, "1/s")

    # diagram and cli self time
    m["diagram.equivalence_report.self_s"] = (
        self_total("diagram.equivalence_report"), "s")
    m["cli.main.self_s"] = (self_total("cli.main"), "s")

    # escaped exceptions, per wrapped function
    for targets in (SPAN_TARGETS, COUNT_TARGETS):
        for _, _, layer, fn in targets:
            name = f"{layer}.{fn}"
            raised = (counts[f"{name}.raised"] if targets is COUNT_TARGETS
                      else sum(1 for i in by_name[name] if not spans[i].ok))
            m[f"{name}.raised"] = (raised, "count")
    return m
