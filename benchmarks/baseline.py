"""One-off re-measurement of the ROADMAP baseline rows.

    OPENBLAS_NUM_THREADS=1 python3 benchmarks/baseline.py

Times shoot(Params(3,1,4)) with defaults, one RK4 trajectory, one step() at
n = 8001 nodes, and a 1000-step evolve of 0.5 Q at (3,1,4) with dt = 1e-3,
each as a median over repeats, and prints them as JSON.  The figures are
kept in NOTES.md; this script is not part of a benchmark run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from inls_lab import Params, RadialField, StepperConfig, evolve, make_grid, shoot, step  # noqa: E402
from inls_lab.ground_state import _shoot_trajectory  # noqa: E402


def timed(fn, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def summary(samples: list[float], scale: float = 1.0) -> dict:
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return {"median": med * scale, "iqr": (q3 - q1) * scale,
            "repeats": len(samples)}


def main() -> None:
    p = Params(3, 1.0, 4.0)
    gs = shoot(p)
    grid = make_grid(40.0, 5e-3, 3)
    u = RadialField(grid, (0.5 * gs.resample(grid).values).astype(complex))
    a = gs.shoot_value
    cfg = StepperConfig(dt=1e-3, t_end=1.0)

    def steps():
        for _ in range(200):
            step(u, p, 1e-3)

    rows = {
        "shoot(3,1,4) s": summary(timed(lambda: shoot(p), 7)),
        "RK4 trajectory ms": summary(
            timed(lambda: _shoot_trajectory(a, 3, 1.0, 4.0, 1e-3, 20.0), 15), 1e3),
        "step n=8001 ms": summary(timed(steps, 7), 1e3 / 200),
        "evolve 0.5Q 1000 steps s": summary(timed(lambda: evolve(u, p, cfg), 5)),
        "nodes": len(grid),
        "numpy": np.__version__,
    }
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
