"""Shared session fixtures: ground states and the expensive evolution runs.

Everything here is deterministic; session scope keeps the acceptance suite
inside its time budget by computing each ground state and reference run once.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from inls_lab.grids import Params, RadialField, make_grid
from inls_lab.ground_state import shoot
from inls_lab.evolution import StepperConfig, evolve, step

FIXTURES = Path(__file__).parent / "fixtures"

P314 = Params(3, 1.0, 4.0)
P313 = Params(3, 1.0, 3.0)
P214 = Params(2, 1.0, 4.0)
P425 = Params(4, 2.0, 5.0)

# the RunOutcome fields that decide a run's fate: an outcome-only run
# (evolve with record=False) must end with these as the full run does
FATE = ("status", "t_final", "blowup_time_estimate", "gradient_growth")


@pytest.fixture(scope="session")
def frozen_ground_states():
    with open(FIXTURES / "ground_states.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def q314():
    return shoot(P314)


@pytest.fixture(scope="session")
def q313():
    return shoot(P313)


@pytest.fixture(scope="session")
def q214():
    return shoot(P214)


@pytest.fixture(scope="session")
def evo_grid():
    return make_grid(40.0, 5e-3, 3)


@pytest.fixture(scope="session")
def gauss_state(evo_grid):
    return RadialField(evo_grid, np.exp(-evo_grid.r**2).astype(complex))


@pytest.fixture(scope="session")
def gauss_run(gauss_state):
    """The (3,1,3) Gaussian run at dt = 1e-3 to t = 1."""
    return evolve(gauss_state, P313, StepperConfig(dt=1e-3, t_end=1.0))


@pytest.fixture(scope="session")
def gauss_finals(gauss_state):
    """The (3,1,3) Gaussian stepped to t = 0.5 at dt = 2e-3, 1e-3 and 5e-4,
    keyed by dt: the time-step halving data."""
    finals = {}
    for dt in (2e-3, 1e-3, 5e-4):
        u = gauss_state
        for _ in range(int(round(0.5 / dt))):
            u = step(u, P313, dt)
        finals[dt] = u.values
    return finals


def lumped_laplacian(v, grid):
    """-M^{-1} K v at the interior nodes 1..n-2 (zero elsewhere): the
    generator of the Crank-Nicolson free flow, from the grid's edge
    conductances and the trapezoid mass, with the origin edge carrying no
    flux and the wall sample v[-1] as given."""
    flux = grid.kappa * np.diff(v[1:])  # kappa_i (v_{i+1} - v_i), i = 1..n-2
    out = np.zeros_like(v)
    out[1:-1] = flux
    out[2:-1] -= flux[:-1]
    out[1:-1] /= grid.r[1:-1] ** (grid.N - 1) * grid.dr
    return out


def scaled(ground, grid, c):
    return RadialField(grid, (c * ground.resample(grid).values).astype(complex))


@pytest.fixture(scope="session")
def global_runs(q314, evo_grid):
    """c Q runs on the global branch at (3,1,4), t_end = 2."""
    cfg = StepperConfig(dt=1e-3, t_end=2.0)
    return {
        c: evolve(scaled(q314, evo_grid, c), P314, cfg)
        for c in (0.3, 0.5, 0.8)
    }


@pytest.fixture(scope="session")
def blowup_runs_mc(q313, evo_grid):
    """Mass-critical blow-up runs; 1.6 is the envelope calibration run."""
    cfg = StepperConfig(dt=2.5e-4, t_end=2.0, save_every=4)
    return {
        c: evolve(scaled(q313, evo_grid, c), P313, cfg)
        for c in (1.6, 1.2, 1.5)
    }


@pytest.fixture(scope="session")
def blowup_runs_ic(q314, evo_grid):
    """Intercritical blow-up runs; 1.6 is the envelope calibration run."""
    cfg = StepperConfig(dt=2.5e-4, t_end=2.0, save_every=4)
    return {
        c: evolve(scaled(q314, evo_grid, c), P314, cfg)
        for c in (1.6, 1.2, 1.5)
    }


@pytest.fixture(scope="session")
def half_q_saved(q314, evo_grid):
    """The u0 = 0.5 Q run with states saved every 5e-4 for virial checks."""
    cfg = StepperConfig(dt=2.5e-4, t_end=0.5, save_every=2)
    return evolve(scaled(q314, evo_grid, 0.5), P314, cfg)


@pytest.fixture(scope="session")
def free_phir_saved(evo_grid):
    """Free-flow Gaussian run saved densely, for the O(dt^2) halving check."""
    u0 = RadialField(evo_grid, np.exp(-evo_grid.r**2).astype(complex))
    cfg = StepperConfig(dt=1e-4, t_end=1.0, save_every=250, linear_only=True)
    return evolve(u0, P313, cfg)
