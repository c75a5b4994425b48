"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at its smallest size (run.py
--quick), untraced and traced, and asserts that each run prints every
metric BENCHMARK.json names, with its unit, and that no check failed
(fail_frac = 0).  It also asserts that run.py refuses to run, without a
result line, when the lpiforms sources are missing.  Exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            printed = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines[:-1]
                       if ": " in line}
            for m in wanted:
                value = result["metrics"].get(m["name"], {})
                if value.get("unit") != m["unit"] or not isinstance(value.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} missing or wrong unit: {value}")
                elif not printed.get(m["name"], "").endswith(f" {m['unit']}"):
                    problems.append(f"{where}: metric {m['name']} not printed with its unit")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{where}: unexpected metrics {sorted(result['metrics'])}")
            if result["failed"] != 0 or result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{where}: fail_frac = {result['failed']}/{result['attempted']}")
            print(f"{where}: {len(wanted)} metrics, {result['attempted']} checks, "
                  f"{result['failed']} failed", flush=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__", Path(tmp).name))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"bare directory: exit {proc.returncode}, no result")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
