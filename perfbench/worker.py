"""One workload in one process.

    python3 perfbench/worker.py --workload NAME --seed N --budget S \
        [--trace 0|1] [--probe] [--quick] [--spans PATH]

Imports lpiforms (from PYTHONPATH, which run.py points at the checkout's
src/), builds the seeded inputs and prints `ready REF WALL` the moment
set-up is done: REF is the set-up in reference seconds (see refclock.py)
and WALL the same stretch in wall seconds, both from the moment the clock
started, so the parent can time process start to ready.  With --probe it
stops there.  Otherwise it runs whole verification passes until the next
one would end past the budget (at least one pass, so only one with the
default budget of 0; with --trace 1, rounds of one traced and one untraced
pass) and prints one JSON line.  Pass times are in reference seconds;
`wall_s` holds them in wall seconds, calibration pauses left out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def environment(seed: int) -> dict:
    import numpy
    import refclock
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "refclock": {"interval_s": refclock.INTERVAL, "reference_s": refclock.REFERENCE},
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import numpy as np

    clock_wall = time.perf_counter()  # building the clock's inputs is not set-up
    import refclock

    refclock.start()

    import lpiforms
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder()
    restore = tracing.install(rec) if args.trace else None
    inputs = setup(np.random.default_rng(args.seed), args.quick)
    if restore:
        restore()
    print(f"ready {refclock.now()!r} {time.perf_counter() - clock_wall!r}", flush=True)
    if args.probe:
        refclock.stop()
        return 0

    def timed(fn):
        """(reference seconds, wall seconds without calibration) of fn()."""
        r0, w0, p0 = refclock.now(), time.perf_counter(), refclock.paused()
        fn()
        return (refclock.now() - r0,
                time.perf_counter() - w0 - (refclock.paused() - p0))

    start = time.perf_counter()
    checks = workloads.Checks()
    plain, traced, wall, rounds = [], [], [], []
    while True:
        t0 = time.perf_counter()
        if args.trace:
            # traced first, so first-call costs make the overhead larger, not smaller
            rec.pass_id = len(traced)
            restore = tracing.install(rec)
            try:
                traced.append(timed(lambda: run(inputs, checks))[0])
            finally:
                restore()
        ref, w = timed(lambda: run(inputs, checks))
        plain.append(ref)
        wall.append(w)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > args.budget:
            break
    refclock.stop()

    out = {
        "lpiforms": os.path.dirname(lpiforms.__file__),
        "env": environment(args.seed),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "solve_s": plain,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        metrics = rec.metrics(list(range(len(traced))))
        metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
        out["traced_solve_s"] = traced
        out["layers"] = metrics
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["group", "pass", "start", "end", "parent",
                                      "outermost", "size"],
                           "spans": rec.spans,
                           "counts": [[p, k, v] for (p, k), v in rec.counts.items()]}, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
