"""Benchmark of begphase: one workload per process, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload equivalence|diagram|limits \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb) with tracing off; --trace 1 runs one traced pass and one
untraced pass and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the human-readable
report.  Run files (spans, CLI outputs, the run record) go to
.perfbench_work/ at the root of the checkout.  See perfbench/README.md.
"""

import os
import sys

# one worker: pin the BLAS pools before numpy loads and keep the package's
# --threads default at 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BEG_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

#: Seed never used while the benchmark or a change was tuned; a claimed gain
#: must also hold on it.
HELD_OUT_SEED = 90001

#: Set-up is measured in at least this many fresh processes per run; the
#: median is reported.
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("equivalence", "diagram", "limits"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_record(args):
    """Provenance of the run: source, seed and machine."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "begphase").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": 1}


def run_process(workload, seed, index=None):
    """Run pass_process.py in a fresh interpreter: set-up and, with an
    index, pass `index`; return its record.  A failed call inside the pass
    is in the record; a process that dies (the package does not import, say)
    stops the run, since it leaves nothing to time."""
    out = WORKDIR / f"process_{workload}_seed{seed}.pkl"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "pass_process.py"), workload,
           str(seed), str(out)] + ([] if index is None else [str(index)])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0 or not out.is_file():
        raise RuntimeError(f"pass process exited with code "
                           f"{done.returncode}:\n{done.stderr}")
    with open(out, "rb") as fh:
        return pickle.load(fh)


def scaled(t, kernels):
    """A time measured while the calibration kernel took `kernels` seconds
    (their median is used), expressed at the reference host speed."""
    return t * calibration.REFERENCE_S / statistics.median(kernels)


def scaled_pass(kernel_before, calls, i):
    """Scaled time of a pass (i = 0: wall, 1: CPU): each call is scaled by
    the mean of the kernel runs right before and right after it."""
    total, before = 0.0, kernel_before[i]
    for times, after in calls:
        total += scaled(times[i], [before, after[i]])
        before = after[i]
    return total


def check_pass(wl, captured, refs):
    """[(label, failures)] for every top-level call of one pass."""
    try:
        return wl.check(captured, refs)
    except Exception as exc:
        # malformed output: every call of the pass counts as failed
        return [(label, [f"check raised {exc!r}"]) for label, _ in captured]


def run_untraced(wl, seconds):
    records, costs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(run_process(wl.name, wl.seed, len(records)))
        costs.append(time.perf_counter() - t0)
        # start another pass only if it is expected to end inside the window
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            break
    # every pass process also measured set-up; top up with set-up-only
    # processes so the median is over at least SETUP_REPEATS of them
    setups = records + [run_process(wl.name, wl.seed)
                        for _ in range(SETUP_REPEATS - len(records))]
    refs = wl.references()
    checked = [check_pass(wl, r["captured"], refs) for r in records]
    # the host switches between speeds up to 1.7x apart every few seconds,
    # so each time is scaled by kernel runs made right next to it
    walls = [scaled_pass(r["kernels"][-1], r["calls"], 0) for r in records]
    cpus = [scaled_pass(r["kernels"][-1], r["calls"], 1) for r in records]
    setup_s = [scaled(r["setup_s"], [k[0] for k in r["kernels"]])
               for r in setups]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in records),
                        "MB"),
    }
    raw = {"setup_s": [r["setup_s"] for r in setups],
           "wall_s": [sum(t[0] for t, _ in r["calls"]) for r in records],
           "cpu_s": [sum(t[1] for t, _ in r["calls"]) for r in records],
           "rss_mb": [r["rss_mb"] for r in records]}
    detail = {"raw_" + key: values for key, values in raw.items()}
    detail.update(setup_s_all=setup_s, wall_s_all=walls, cpu_s_all=cpus,
                  kernels=[r["kernels"] + [k for _, k in r.get("calls", [])]
                           for r in setups],
                  raw_medians={key: statistics.median(raw[key])
                               for key in ("setup_s", "wall_s", "cpu_s")})
    return metrics, checked, detail


def run_traced(wl, run_id):
    from pass_process import timed_pass
    from tracing import Tracer, layer_metrics, namespace_snapshot

    # the traced pass runs in this process, before anything else of the
    # workload has; the untraced pass runs in a fresh one, like every pass
    # of an untraced run
    before = namespace_snapshot()
    tracer = Tracer()
    with tracer:
        wl.setup()
        kernel = calibration.measure()
        results, calls = timed_pass(wl, 0)
    restored = namespace_snapshot() == before
    captured = wl.capture(results)
    del results
    record = run_process(wl.name, wl.seed, 1)
    refs = wl.references()
    checked = [check_pass(wl, captured, refs),
               check_pass(wl, record["captured"], refs)]
    # scaled like wall_s, so host drift between the passes cancels
    traced = scaled_pass(kernel, calls, 0)
    untraced = scaled_pass(record["kernels"][-1], record["calls"], 0)
    metrics = layer_metrics(tracer)
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    spans_path = WORKDIR / f"spans_{run_id}.csv"
    tracer.write_spans(spans_path)
    detail = {"spans": len(tracer.spans), "spans_file": str(spans_path),
              "namespaces_restored": restored}
    return metrics, checked, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "begphase" / "__init__.py").is_file():
        print(f"perfbench: no begphase sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    run_id = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, WORKDIR)
    if args.trace:
        metrics, checked, detail = run_traced(wl, run_id)
    else:
        metrics, checked, detail = run_untraced(wl, args.seconds)
    attempted = sum(len(calls) for calls in checked)
    failures = [(i, label, fails) for i, calls in enumerate(checked)
                for label, fails in calls if fails]
    correct = not failures and detail.get("namespaces_restored", True)
    error_rate = len(failures) / attempted

    record = run_record(args)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"workload {args.workload}: {len(checked)} pass(es), "
          f"{attempted} top-level calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for name, value in detail.get("raw_medians", {}).items():
        print(f"  unscaled {name} = {value!r} s")
    print(f"  error_rate = {error_rate!r} ratio ({len(failures)} of "
          f"{attempted} calls raised or failed their check)")
    if "namespaces_restored" in detail:
        print(f"  namespaces restored after tracing: "
              f"{detail['namespaces_restored']}")
    for i, label, fails in failures:
        for msg in fails:
            print(f"  FAILED pass {i} {label}: {msg}")
    with open(WORKDIR / f"record_{run_id}.json", "w") as fh:
        json.dump({"record": record, "detail": detail,
                   "error_rate": error_rate,
                   "failures": [[i, label, fails] for i, label, fails
                                in failures],
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}},
                  fh, indent=1, default=repr)
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
