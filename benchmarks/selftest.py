"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 benchmarks/selftest.py

For every workload it runs run.py once plain and once traced on coarse
grids, and checks that every metric BENCHMARK.json names is printed with its
unit, that every operation passed, and that error_rate is 0.  It then checks
that run.py refuses to run in a directory holding only BENCHMARK.json
and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed\n"
                                f"{proc.stderr}")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or not in "
                                    f"{m['unit']}: {got}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            if trace and metrics.get("error_rate", {}).get("value") != 0:
                problems.append(f"{where}: error_rate {metrics.get('error_rate')}")
            print(f"{where}: {result['attempted']} operations, "
                  f"{len(metrics)} metrics", flush=True)

    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py ran without the inls_lab sources")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
