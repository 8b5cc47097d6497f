"""One fresh interpreter of a workload: set-up, then optionally one pass.

Every timed pass runs in a process of its own, as one CLI report does, so
state the package keeps between calls (a module-level cache, say) cannot
turn a later pass into lookups.  Started by run.py:

    python3 perfbench/pass_process.py WORKLOAD SEED OUT [INDEX]

Times the import of begphase (numpy and scipy included) plus the workload's
lazy state fill, then runs the calibration kernel a few times.  With INDEX
it then runs the calls of pass INDEX one by one, timing each (wall and CPU)
and running the kernel again after each, so the kernel samples the host's
speed all through the pass.  It reads the process's peak resident memory and reduces
the outputs for the checks.  Everything is pickled to OUT.
"""

import time

_t0 = time.perf_counter()

import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
from workloads import WORKLOADS, run_call  # noqa: E402

#: Kernel runs right after set-up (a set-up-only process has nothing else).
KERNELS_AFTER_SETUP = 3


def timed_pass(wl, index):
    """Run the calls of pass `index` one by one, each followed by a kernel
    run; return the results and, per call, ((wall s, CPU s), kernel after)."""
    results, calls = [], []
    for label, fn, args in wl.calls(index):
        c0, t0 = time.process_time(), time.perf_counter()
        results.append(run_call(label, fn, *args))
        t1, c1 = time.perf_counter(), time.process_time()
        calls.append(((t1 - t0, c1 - c0), calibration.measure()))
    return results, calls


def main(workload, seed, out, index=None):
    wl = WORKLOADS[workload](int(seed), Path(out).parent)
    wl.setup()
    record = {"setup_s": time.perf_counter() - _t0,
              "kernels": [calibration.measure()
                          for _ in range(KERNELS_AFTER_SETUP)]}
    if index is not None:
        results, record["calls"] = timed_pass(wl, int(index))
        record["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)
        # exceptions travel as plain RuntimeErrors, which always unpickle
        record["captured"] = [
            (label, RuntimeError(repr(data)) if isinstance(data, BaseException)
             else data) for label, data in wl.capture(results)]
    with open(out, "wb") as fh:
        pickle.dump(record, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
