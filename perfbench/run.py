"""Benchmark of lpiforms: one workload per run, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  lpiforms is pure Python and is
imported from the checkout's src/; without it the run exits with code 2.
Workload, metric names and units come from BENCHMARK.json.

Times are in reference seconds (see refclock.py): wall time scaled by the
host's speed, sampled every 30 ms while a worker runs, so that a shared
host's speed drift cancels.  --trace 0 reports the end-to-end metrics.
It starts two probe processes that only set up, then measuring processes
one after another, as many as fit in --seconds (at least one), each of
which sets up and runs one cold verification pass.  setup_s is the median
time from process start to the end of set-up (importing lpiforms and
building the seeded inputs) over all of them; solve_s is the median pass
time; peak_rss_mb is the median peak resident memory of the measuring
processes.  The wall times of the passes are printed and kept in the
result file.
--trace 1 reports the per-layer metrics from spans around the library's
public functions (see tracing.py), plus trace_overhead.  --quick shrinks
every workload to its smallest size (for selfcheck.py).

BLAS and OpenMP are pinned to one thread.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; `failed` counts
failed checks, so fail_frac = failed / attempted.  A result file with the
environment block is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 2
DEADLINE_S = 170.0  # every run must end within 180 s


def launch(cmd: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run a worker; return (seconds from start to its `ready` line, the
    lines after it).  The part the worker timed with refclock counts in
    reference seconds, the interpreter start before it in wall seconds.
    The worker is killed if it outlives the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines: queue.Queue = queue.Queue()

    def read():
        for line in proc.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        first = lines.get(timeout=max(deadline - time.monotonic(), 0.1))
        ready = time.perf_counter() - t0
        words = (first or "").split()
        if len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
        ready += float(words[1]) - float(words[2])
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        reader.join()
    except (queue.Empty, subprocess.TimeoutExpired):
        raise RuntimeError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    rest = []
    while (line := lines.get()) is not None:
        rest.append(line)
    return ready, rest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (SRC / "lpiforms" / "__init__.py").is_file():
        print(f"error: no lpiforms sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--quick"] if args.quick else [])

    try:
        setups, outs = [], []
        if args.trace:
            budget = args.seconds - (time.monotonic() - start)
            ready, lines = launch(cmd + ["--budget", repr(max(budget, 0.0)), "--trace", "1",
                                         "--spans", str(results / f"{tag}.spans.json")],
                                  env, deadline)
            setups.append(ready)
            outs.append(json.loads(lines[-1]))
        else:
            for _ in range(PROBES):
                setups.append(launch(cmd + ["--probe"], env, deadline)[0])
            # one cold pass per fresh process, as many processes as fit
            took = []
            while not took or time.monotonic() - start + statistics.median(took) <= args.seconds:
                t0 = time.monotonic()
                ready, lines = launch(cmd, env, deadline)
                took.append(time.monotonic() - t0)
                setups.append(ready)
                outs.append(json.loads(lines[-1]))
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        if Path(out["lpiforms"]).resolve() != (SRC / "lpiforms").resolve():
            print(f"error: imported lpiforms from {out['lpiforms']}", file=sys.stderr)
            return 1
    solve = [t for out in outs for t in out["solve_s"]]
    wall = [t for out in outs for t in out["wall_s"]]
    failures = [f for out in outs for f in out["failures"]]
    attempted = sum(out["attempted"] for out in outs)

    if args.trace:
        wanted, values = spec["per_layer"], outs[0]["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups),
                  "solve_s": statistics.median(solve),
                  "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outs)}
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    (results / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "env": outs[0]["env"],
        "setup_s": setups, "solve_s": solve, "wall_s": wall,
        "traced_solve_s": outs[0].get("traced_solve_s"),
        "failures": failures, "result": result,
    }, indent=1))
    for key, value in outs[0]["env"].items():
        print(f"env.{key}: {value}")
    print(f"passes: {len(solve)}, wall s: {[round(w, 3) for w in wall]}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(f"fail_frac: {failed / max(attempted, 1)!r} ({failed}/{attempted})")
    for line in failures[:20]:
        print(f"failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
