"""Tests of the benchmark itself: checks, span arithmetic, tracer hygiene.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from begphase import canonical, cli, micro  # noqa: E402
from begphase.core import CanonicalParams  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TRACE_ONLY = {"trace.overhead_s", "trace.traced_wall_s",
              "trace.untraced_wall_s"}


def fmt(x):
    return cli.fmt(x)


# ---------------------------------------------------------------------------
# the checker catches perturbed outputs
# ---------------------------------------------------------------------------

def test_flipped_verdict_is_caught():
    gap = ((0.001, 0.0931),)
    assert checks.check_nonequivalent("nonequivalent", gap, 0.0946) == []
    assert checks.check_nonequivalent("equivalent", gap, 0.0946)
    assert checks.check_nonequivalent("nonequivalent", (), 0.0946)
    assert checks.check_equivalent("equivalent", ()) == []
    assert checks.check_equivalent("nonequivalent", gap)


def test_gap_end_far_from_jump_is_caught():
    assert checks.check_nonequivalent("nonequivalent", ((0.001, 0.09),),
                                      0.0946)


@pytest.mark.parametrize("beta,K", [(1.0, 1.5), (2.0, 1.1), (2.5, 0.9)])
def test_minimizer_moved_by_1e6_is_caught(beta, K):
    params = CanonicalParams(beta, K)
    sol = canonical.solve_canonical(params)
    value, args = canonical.dual_route_minimum(params)
    zs = [fmt(z) for z in sol.z_points] + [""] * (3 - len(sol.z_points))
    row = {"beta": fmt(beta), "K": fmt(K), "z1": zs[0], "z2": zs[1],
           "z3": zs[2], "G_min": fmt(sol.min_value)}
    assert checks.check_canon_row(row, value, args) == []
    moved = dict(row, z1=fmt(sol.z_points[0] + 1e-6))
    assert checks.check_canon_row(moved, value, args)


def test_convexity_threshold_moved_by_one_percent_is_caught():
    crit = micro.micro_criticals(0.25)
    row = {"u": fmt(crit.u), "Kc2": fmt(crit.k_second_order),
           "Kc1": fmt(crit.k_first_order), "C": fmt(crit.k_convexity)}
    assert checks.check_micro_curves([row]) == []
    moved = dict(row, C=fmt(crit.k_convexity * 1.01))
    assert checks.check_micro_curves([moved])


def _limits_pass(sampler_law):
    return ([(f"ks r={r}", [0.03, 0.02, 0.01, 0.005]) for r in (1, 2, 3)]
            + [(f"conditioned n={n}", d) for n, d in
               zip(workloads.CONDITIONED_NS, (0.02, 0.015, 0.01))]
            + [(f"pmf n={workloads.PMF_N}",
                (workloads.PMF_N, workloads.PMF_N * 0.5)),
               ("metropolis", sampler_law)])


def test_sampler_total_variation_of_003_is_caught():
    law = np.full(11, 1.0 / 11)
    refs = {"sigma2": 0.5, "sampler_law": law}
    wl = workloads.Limits(0, HERE)
    ok = wl.check(_limits_pass(law), refs)
    assert [f for _, f in ok if f] == []
    shifted = law.copy()
    shifted[0] += 0.03
    shifted[-1] -= 0.03
    fails = dict(wl.check(_limits_pass(shifted), refs))
    assert fails["metropolis"]
    assert sum(1 for f in fails.values() if f) == 1


def test_ladder_and_variance_checks():
    assert checks.check_ladder("r=1", [0.3, 0.2, 0.2])
    assert checks.check_variance(1000, 1000 * 0.56, 0.5)
    assert checks.check_variance(1000, 1000 * 0.51, 0.5) == []


def test_closed_form_curves():
    beta = 2.0
    crit = canonical.canonical_criticals(beta)
    row = {"beta": fmt(beta), "Kc2": "", "K1": fmt(crit.k_tangent),
           "Kc1": fmt(crit.k_first_order), "K2": fmt(crit.k_spinodal)}
    assert checks.check_canon_curves([row], math.log(4.0)) == []
    swapped = dict(row, K1=row["Kc1"], Kc1=row["K1"])
    assert checks.check_canon_curves([swapped], math.log(4.0))
    off = dict(row, K2=fmt(crit.k_spinodal * (1 + 1e-8)))
    assert checks.check_canon_curves([off], math.log(4.0))


def test_cli_exit_counts_as_a_failed_call(capsys):
    label, result = workloads.run_call("bad flag", cli.main,
                                       ["diagram-canon", "--no-such-flag"])
    assert label == "bad flag"
    assert isinstance(result, RuntimeError)
    assert "exited with code" in str(result)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, True, (), None)


def test_self_time_on_nested_spans():
    spans = [
        _span("a.root", 0.0, 10.0, -1),
        _span("a.child", 1.0, 3.0, 0),
        _span("a.child", 2.0, 4.0, 0),     # overlaps its sibling
        _span("a.child", 5.0, 6.0, 0),
        _span("a.leaf", 5.25, 5.75, 3),
        _span("a.child", 9.5, 11.0, 0),    # runs past its parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.5,
                                   0.5, 1.5])


def test_outermost_skips_recursive_calls():
    spans = [_span("f", 0.0, 4.0, -1), _span("f", 1.0, 2.0, 0),
             _span("g", 5.0, 6.0, -1), _span("f", 5.5, 5.9, 2)]
    assert tracing.outermost(spans, "f") == [0, 3]


def test_pmf_terms_formula():
    # brute-force count of (n_plus, n_minus) pairs with n_plus - n_minus = k
    for n in (1, 2, 7, 30):
        pairs = sum(1 for k in range(n + 1) for nm in range(n + 1)
                    if nm + (nm + k) <= n)
        assert tracing.pmf_terms(n) == pairs


# ---------------------------------------------------------------------------
# tracer hygiene and metric names
# ---------------------------------------------------------------------------

def _traced_calls(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        canonical.solve_canonical(CanonicalParams(2.0, 1.2))
        code = cli.main(["diagram-canon", "--beta-grid", "1.9:2.0:0.1",
                         "--K-grid", "1.0:1.1:0.1", "--threads", "1",
                         "--out", str(tmp_path / "rows.csv"),
                         "--curves-out", str(tmp_path / "curves.csv")])
        assert code == 0
        with pytest.raises(Exception):
            micro.convexity_threshold(0.5)
    return tracer


def test_namespaces_identical_after_traced_run(tmp_path):
    before = tracing.namespace_snapshot()
    originals = {name: dict(vars(mod))
                 for name, mod in tracing.begphase_modules().items()}
    tracer = _traced_calls(tmp_path)
    assert tracing.namespace_snapshot() == before
    for name, mod in tracing.begphase_modules().items():
        for key, val in originals[name].items():
            assert vars(mod)[key] is val, f"{name}.{key} not restored"
    assert tracer.counts["core.cumulant.calls"] > 0
    names = {s.name for s in tracer.spans}
    assert {"canonical.solve_canonical", "canonical.tangency",
            "canonical.first_order_coupling", "cli.main",
            "diagram.sweep_canonical", "canonical.canonical_criticals",
            "micro.convexity_threshold"} <= names
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrappers_reach_every_importing_module(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        from begphase import core, limits, rootfind
        assert canonical.cumulant is core.cumulant is limits.cumulant
        assert canonical.bisect_newton is core.bisect_newton \
            is rootfind.bisect_newton
        assert core.cumulant.__wrapped__ is not None
    assert not hasattr(canonical.cumulant, "__wrapped__")


def test_metric_names_and_units(tmp_path):
    tracer = _traced_calls(tmp_path)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["micro.convexity_threshold.raised"][0] == 1
    assert metrics["micro.convexity_threshold.wasted_s"][0] > 0.0
    for name, (value, unit) in metrics.items():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), (name, unit)
        assert math.isfinite(value), name
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(metrics) | TRACE_ONLY
    for entry in bench["per_layer"] + bench["end_to_end"]:
        assert NAME_RE.match(entry["name"]), entry["name"]
        assert UNIT_RE.match(entry["unit"]), entry["unit"]
    for entry in bench["per_layer"]:
        if entry["name"] in metrics:
            assert entry["unit"] == metrics[entry["name"]][1], entry["name"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_calibration_kernel_never_enters_begphase():
    # the host-speed reference must not move when the package changes
    tracer = tracing.Tracer()
    with tracer:
        wall, cpu = calibration.measure()
    assert wall > 0.0 and cpu > 0.0
    assert tracer.spans == []
    assert not any(tracer.counts.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagram",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
