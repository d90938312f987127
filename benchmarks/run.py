"""inls-lab benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload is a fresh
child process (``child.py``), started one at a time, so that set-up time and
peak memory belong to that pass.  The runner first makes a few set-up-only
passes, then repeats whole passes while the next one should still end
within ``--seconds`` (always at least one), then tops the set-up-only passes
up to a fixed number of set-up samples, and prints the medians as one JSON
object on the last line of stdout.

``--trace 0`` reports the end-to-end metrics from plain passes.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of the traced ones, with the tracing overhead.

``--size tiny`` shrinks the grids for the self-test.  The artifacts' SHA-256
are compared with ``reference_hashes.json``, which is committed data.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference_hashes.json"

WORKLOAD_NAMES = ("static_theory", "dichotomy_sweep", "collapse_virial")
DEFAULT_SEED = 1
SETUP_PASSES = 3
# setup_s is the median of this many set-up samples (set-up-only passes and
# the set-up part of plain passes), so that it is as steady on a workload of
# two long passes as on one of eight short ones
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170.0
# no round of passes is started that would end past this, so a run ends
# well inside its three minutes whatever --seconds asks for
LAST_START_S = 120.0

END_TO_END = {
    "setup_s": "s", "wall_cal": "cal", "steps_per_cal": "1/cal",
    "peak_rss_mb": "MB", "output_mb": "MB",
}
PER_LAYER = {
    "ground_state.shoot_calls": "count",
    "ground_state.shoot_s": "s",
    "ground_state.shoot_total_s": "s",
    "ground_state.explicit_W_s": "s",
    "evolution.steps": "count",
    "evolution.step_s": "s",
    "evolution.step_total_s": "s",
    "evolution.evolve_self_s": "s",
    "evolution.states_saved": "count",
    "evolution.states_mb": "MB",
    "evolution.step_probe_us": "us",
    "evolution.cn_probe_us": "us",
    "evolution.phase_probe_us": "us",
    "evolution.bytes_per_step": "B",
    "functionals.diag_probe_us": "us",
    "functionals.threshold_report_s": "s",
    "functionals.energy_calls": "count",
    "virial.dynamic_check_s": "s",
    "virial.fit_envelope_s": "s",
    "virial.bound_check_s": "s",
    "virial.states_processed": "count",
    "virial.resolved_ratio": "ratio",
    "verify.exponents_s": "s",
    "verify.inequalities_s": "s",
    "verify.virial_s": "s",
    "cli.self_s": "s",
    "cli.states_write_s": "s",
    "cli.bytes_written": "B",
    "grids.integrate_calls": "count",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
    "artifact_drift": "count",
}


def machine(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "INLS_LAB_THREADS": threads,
        "blas_threads": 1,
        "seed": seed,
    }


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({
        "INLS_LAB_THREADS": str(threads),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def run_child(args, mode: str, k: int, env: dict) -> dict:
    work = OUT / "work" / f"{args.workload}-{os.getpid()}-{k}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--work", str(work)]
    if mode == "traced":
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}-{k}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ops": [(f"{mode} pass {k} timed out", False)]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"ops": [(f"{mode} pass {k} exit {proc.returncode}", False)]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(results, key):
    vals = [r[key] for r in results if key in r]
    return statistics.median(vals) if vals else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "inls_lab" / "cli.py").is_file():
        print(f"error: no inls_lab sources under {ROOT / 'src'}; run from the "
              "root of an inls-lab checkout", file=sys.stderr)
        return 2

    # one sweep thread: two gain little under the GIL, and a slow spell on
    # either vCPU then stalls the pool (wall_s spread 0.23 against 0.10)
    threads = 1
    env = child_env(threads)
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    setups = [run_child(args, "setup", k, env) for k in range(SETUP_PASSES)]
    plain, traced, rounds = [], [], []
    k = SETUP_PASSES
    while True:
        t = time.perf_counter()
        plain.append(run_child(args, "plain", k, env))
        k += 1
        if args.trace:
            traced.append(run_child(args, "traced", k, env))
            k += 1
        rounds.append(time.perf_counter() - t)
        # start another round only if it should end inside the budget
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) > min(args.seconds, LAST_START_S):
            break
    if not args.trace:
        while len(setups) + len(plain) < SETUP_SAMPLES:
            setups.append(run_child(args, "setup", k, env))
            k += 1

    ops = [op for r in setups + plain + traced for op in r.get("ops", [])]
    failed = [name for name, ok in ops if not ok]
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    drift = sorted({key for r in plain + traced
                    for key, h in r.get("hashes", {}).items()
                    if key in reference and reference[key] != h})
    for key in drift:
        print(f"artifact drift: {key}", file=sys.stderr)

    if args.trace:
        values = {}
        for name in PER_LAYER:
            values[name] = median(
                [r["layers"] for r in traced if "layers" in r], name)
        wall_plain, wall_traced = median(plain, "wall_s"), median(traced, "wall_s")
        values["trace.overhead_ratio"] = (
            wall_traced / wall_plain - 1.0 if wall_plain and wall_traced else None)
        values["error_rate"] = len(failed) / len(ops)
        values["artifact_drift"] = len(drift)
        units = PER_LAYER
    else:
        out = median(plain, "output_bytes")
        values = {
            "setup_s": median(setups + plain, "setup_s"),
            "wall_cal": median(plain, "wall_cal"),
            "steps_per_cal": median(plain, "steps_per_cal"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "output_mb": out / 1e6 if out is not None else None,
        }
        units = END_TO_END

    missing = [name for name, v in values.items() if v is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"machine": machine(threads, args.seed),
                      "passes": {"setup": len(setups), "plain": len(plain),
                                 "traced": len(traced)},
                      "raw": {k: median(plain, k) for k in (
                          "wall_s", "steps_per_s", "ticks")}}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
