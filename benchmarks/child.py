"""One pass of one workload, in a process of its own.

    python3 benchmarks/child.py --workload NAME --seed N --size full|tiny \
        --mode setup|plain|traced --work DIR [--trace-out FILE]

Prints one JSON object as the last line of stdout.  ``setup`` only imports
``inls_lab.cli`` and builds the inputs; ``plain`` also runs the timed
section with the integrator entry points metered (steps counted, no
per-step spans) and the machine-speed ruler ticking (``ruler.py``), and
reports its times also in the ruler's kernel units; ``traced`` wraps every layer boundary in spans and adds
the per-layer figures and standalone probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ruler import Ruler  # noqa: E402
from tracer import Tracer, children_of, self_time, union  # noqa: E402

PROBE_CALLS = 100
PROBE_REPEATS = 5


def _sizes(work: Path, exclude: str | None = None) -> int:
    """Bytes of the files under work, leaving out its subdirectory exclude."""
    return sum(f.stat().st_size for f in work.rglob("*")
               if f.is_file() and f.relative_to(work).parts[0] != exclude)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(res) -> dict:
    return {"rows": len(res.diagnostics.t), "states": len(res.states),
            "state_bytes": sum(u.values.nbytes for _, u in res.states)}


def _capture_first_state(store):
    def annotate(res, args, kwargs):
        if "u0" not in store:
            store["u0"], store["params"], store["dt"] = args[0], args[1], args[2].dt
        return _rows(res)
    return annotate


def _trajectory_nodes(res, args, kwargs):
    return {"nodes": len(res[1])}


def _states_in(res, args, kwargs):
    meta = {"states": len(args[0])}
    if isinstance(res, list):
        meta["rows"] = len(res)
        meta["interior"] = max(len(args[0]) - 4, 0)
    return meta


def install_meter(tracer: Tracer, workload, store) -> None:
    """The plain run's only wrappers: the integrator entry points, one span
    per evolve or shoot call (and per RK4 trajectory), never per step."""
    import inls_lab.evolution as evo
    import inls_lab.ground_state as gs

    if workload.evolution:
        tracer.install(evo, "evolve", "evolution.evolve", _capture_first_state(store))
    else:
        tracer.install(gs, "shoot", "ground_state.shoot")
        tracer.install(gs, "_shoot_trajectory", "ground_state.trajectory",
                       _trajectory_nodes)


def install_tracer(tracer: Tracer, store) -> None:
    import numpy
    import inls_lab.cli as cli
    import inls_lab.evolution as evo
    import inls_lab.functionals as fn
    import inls_lab.grids as grids
    import inls_lab.ground_state as gs
    import inls_lab.verify as ver
    import inls_lab.virial as vir

    for cmd in ("cmd_ground_state", "cmd_verify", "cmd_evolve", "cmd_sweep",
                "cmd_exponents"):
        tracer.install(cli, cmd, f"cli.{cmd}")
    tracer.install(numpy, "savez_compressed", "cli.savez_compressed")
    tracer.install(gs, "shoot", "ground_state.shoot")
    tracer.install(gs, "_shoot_trajectory", "ground_state.trajectory",
                   _trajectory_nodes)
    for fname in ("explicit_W", "W_value", "W_prime", "sharp_sobolev_constant"):
        tracer.install(gs, fname, "ground_state.W")
    tracer.install(evo, "evolve", "evolution.evolve", _capture_first_state(store))
    tracer.install(evo, "step", "evolution.step")
    tracer.install(fn, "energy", "functionals.energy")
    tracer.install(fn, "threshold_report", "functionals.threshold_report")
    for fname in ("virial_dynamic_check", "fit_envelope_constant",
                  "blowup_bound_check"):
        tracer.install(vir, fname, f"virial.{fname}", _states_in)
    tracer.install(vir, "bound_rows_to_csv", "virial.bound_rows_to_csv")
    tracer.install(ver, "run_suites", "verify.run_suites")
    for suite in ("exponents", "inequalities", "virial"):
        tracer.install(ver, f"suite_{suite}", f"verify.{suite}")
    tracer.install(grids, "integrate", "grids.integrate")


def install_ruler(tracer: Tracer, ruler: Ruler) -> None:
    """Poll the ruler at the plain pass's frequent entry points, so that it
    ticks about every INTERVAL_S whichever thread runs the program."""
    import numpy
    import inls_lab.evolution as evo
    import inls_lab.ground_state as gs
    import inls_lab.virial as vir
    import workloads

    for module, attr in ((evo, "step"), (gs, "_shoot_trajectory"),
                         (numpy, "savez_compressed"), (workloads, "_cli"),
                         (vir, "virial_dynamic_check"),
                         (vir, "fit_envelope_constant"),
                         (vir, "blowup_bound_check")):
        tracer.patch(module, attr, ruler.polling)


def integrator_busy(spans, evolution: bool) -> tuple[int, list]:
    """Integrator steps taken, and the intervals spent integrating, as the
    metered entry points recorded them."""
    if evolution:
        runs = [s for s in spans if s[1] == "evolution.evolve"]
        steps = sum(s[5]["rows"] - 1 for s in runs)
    else:
        runs = [s for s in spans if s[1] == "ground_state.shoot"]
        steps = sum(s[5]["nodes"] - 1 for s in spans
                    if s[1] == "ground_state.trajectory")
    return steps, union((s[2], s[3]) for s in runs)


def rate(steps: int, intervals, length) -> float | None:
    """steps per unit of length(start, end) summed over intervals, or None
    when no step was recorded."""
    busy = sum(length(a, b) for a, b in intervals)
    return steps / busy if steps > 0 and busy > 0 else None


def _median_us(fn, *args) -> float:
    per_call = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        for _ in range(PROBE_CALLS):
            fn(*args)
        per_call.append((time.perf_counter() - t) / PROBE_CALLS)
    return statistics.median(per_call) * 1e6


def probes(store) -> dict:
    """Standalone timings of public calls on the workload's own state."""
    import numpy as np
    from inls_lab import evolution, functionals

    u, params, dt = store["u0"], store["params"], store["dt"]
    with np.errstate(over="ignore", invalid="ignore"):
        full = _median_us(evolution.step, u, params, dt)
        cn = _median_us(lambda: evolution.step(u, params, dt, linear_only=True))
    diag = _median_us(lambda: (functionals.mass(u), functionals.energy(u, params),
                               functionals.potential(u, params)))
    n = len(u.values)
    # compulsory traffic of one Strang step, per node: the complex state read
    # and written (32 B), r^b (8 B), the three CN bands (48 B), the two
    # explicit-side coefficients (32 B) and the right-hand side (32 B)
    return {
        "evolution.step_probe_us": full,
        "evolution.cn_probe_us": cn,
        "evolution.phase_probe_us": full - cn,
        "evolution.bytes_per_step": float(152 * n),
        "functionals.diag_probe_us": diag,
    }


def layer_metrics(spans, workload, inputs, store, work: Path) -> tuple[dict, list]:
    kids = children_of(spans)
    by = {}
    for s in spans:
        by.setdefault(s[1], []).append(s)

    def dur(name):
        return [s[3] - s[2] for s in by.get(name, ())]

    def outer(name):
        # spans of this name whose parent is not itself of this name
        ids = {s[0] for s in by.get(name, ())}
        return [s for s in by.get(name, ()) if s[4] not in ids]

    shoot = dur("ground_state.shoot")
    steps = dur("evolution.step")
    evolves = by.get("evolution.evolve", [])
    cli_spans = [s for s in spans if s[1].startswith("cli.cmd_")]
    virial_calls = [s for s in spans if s[1] in (
        "virial.virial_dynamic_check", "virial.fit_envelope_constant",
        "virial.blowup_bound_check")]
    bound = by.get("virial.blowup_bound_check", [])
    interior = sum(s[5]["interior"] for s in bound)
    m = {
        "ground_state.shoot_calls": len(shoot),
        "ground_state.shoot_s": statistics.median(shoot) if shoot else 0.0,
        "ground_state.shoot_total_s": sum(shoot),
        "ground_state.explicit_W_s": sum(s[3] - s[2] for s in outer("ground_state.W")),
        "evolution.steps": len(steps),
        "evolution.step_s": statistics.median(steps) if steps else 0.0,
        "evolution.step_total_s": sum(steps),
        "evolution.evolve_self_s": sum(self_time(s, kids) for s in evolves),
        "evolution.states_saved": sum(s[5]["states"] for s in evolves),
        "evolution.states_mb": sum(s[5]["state_bytes"] for s in evolves) / 1e6,
        "functionals.threshold_report_s": sum(dur("functionals.threshold_report")),
        "functionals.energy_calls": len(by.get("functionals.energy", ())),
        "virial.dynamic_check_s": sum(dur("virial.virial_dynamic_check")),
        "virial.fit_envelope_s": sum(dur("virial.fit_envelope_constant")),
        "virial.bound_check_s": sum(dur("virial.blowup_bound_check")),
        "virial.states_processed": sum(s[5]["states"] for s in virial_calls),
        "virial.resolved_ratio": (sum(s[5]["rows"] for s in bound) / interior
                                  if interior else 0.0),
        "verify.exponents_s": sum(dur("verify.exponents")),
        "verify.inequalities_s": sum(dur("verify.inequalities")),
        "verify.virial_s": sum(dur("verify.virial")),
        "cli.self_s": sum(self_time(s, kids) for s in cli_spans),
        "cli.states_write_s": sum(dur("cli.savez_compressed")),
        "cli.bytes_written": _sizes(work, exclude="post"),
        "grids.integrate_calls": len(by.get("grids.integrate", ())),
    }
    if store.get("u0") is not None:
        m.update(probes(store))
    else:
        m.update({k: 0.0 for k in (
            "evolution.step_probe_us", "evolution.cn_probe_us",
            "evolution.phase_probe_us", "evolution.bytes_per_step",
            "functionals.diag_probe_us")})

    # completeness: every accepted step is a span under its evolve, and the
    # CLI path shoots exactly as often as it is known to
    ops = []
    for s in evolves:
        n_steps = sum(1 for c in kids.get(s[0], ()) if c[1] == "evolution.step")
        ops.append((f"trace: steps under evolve #{s[0]}", n_steps == s[5]["rows"] - 1))
    ops.append(("trace: shoot calls",
                len(shoot) == workload.expected_shoot_calls(inputs)))
    return m, ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    t0 = time.perf_counter()
    from workloads import WORKLOADS
    import inls_lab

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.size)
    setup_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(inls_lab.__file__).resolve().parents:
        raise SystemExit(f"inls_lab imported from {inls_lab.__file__}, not {src}")

    result = {"setup_s": setup_s}
    if args.mode != "setup":
        work = Path(args.work)
        work.mkdir(parents=True)
        os.chdir(work)
        tracer, store, ruler = Tracer(), {}, Ruler()
        if args.mode == "traced":
            install_tracer(tracer, store)
        else:
            install_meter(tracer, workload, store)
            install_ruler(tracer, ruler)
            ruler.tick()
        t1 = time.perf_counter()
        facts = workload.run(inputs, work)
        wall_s = time.perf_counter() - t1
        if args.mode == "plain":
            ruler.tick()
        tracer.uninstall()
        os.chdir(ROOT)

        ops = workload.checks(inputs, facts, work, ROOT)
        # a pass whose integrator no longer goes through the metered entry
        # points fails, and leaves the step rates out rather than reading 0
        steps, busy = integrator_busy(tracer.spans, workload.evolution)
        ops.append(("meter: integrator steps recorded", steps > 0))
        if args.mode == "plain":
            # figures leave the ruler's ticks out; *_cal are in kernel units
            wall_s = ruler.program_s()
            result["wall_cal"] = ruler.cal()
            result["ticks"] = len(ruler.ticks)
            rates = {"steps_per_cal": rate(steps, busy, ruler.cal),
                     "steps_per_s": rate(steps, busy, ruler.program_s)}
        else:
            rates = {"steps_per_s": rate(steps, busy, lambda a, b: b - a)}
        result.update({k: v for k, v in rates.items() if v is not None})
        result.update({
            "wall_s": wall_s,
            "output_bytes": _sizes(work),
            "hashes": {f"{rel} <- {' '.join(argv)}": _sha256(work / rel)
                       for rel, argv in workload.artifacts(inputs)},
        })
        if args.mode == "traced":
            layers, trace_ops = layer_metrics(tracer.spans, workload, inputs,
                                              store, work)
            ops += trace_ops
            result["layers"] = layers
            if args.trace_out:
                with open(args.trace_out, "w") as fh:
                    json.dump({"fields": ["id", "name", "start", "end", "parent",
                                          "meta"], "spans": tracer.spans}, fh)
        result["ops"] = ops
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = peak_kib * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
