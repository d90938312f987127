"""The three benchmark workloads, each driven through ``inls_lab.cli.main``
plus the public library calls the demos make.

A workload has four parts:

* ``inputs(seed, size)`` builds the argument lists (part of set-up);
* ``run(inputs, work)`` is the timed section; it returns what the checks need;
* ``checks(inputs, facts, work)`` turns the outputs into (operation, ok) pairs;
* ``artifacts(inputs)`` names the files whose SHA-256 is compared with the
  reference hashes.

``size`` is "full" for measurement and "tiny" for the self-test, which keeps
every check valid on coarser grids.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

import numpy as np

from inls_lab.cli import main as cli_main
from inls_lab.grids import Params, RadialField, make_grid
from inls_lab import virial

# Q(0), mass, grad_sq and potential are held to the frozen fixture at the
# tolerance the regression test uses
FIXTURE_REL_TOL = 1e-6
POHOZAEV_TOL = 1e-4
DYNAMIC_VIRIAL_TOL = 1e-2
# the envelope check must emit more rows than this, as the virial tests ask
MIN_ENVELOPE_ROWS = 10

# sweep amplitudes c are drawn on either side of the threshold c = 1
BELOW_BAND = (0.30, 0.90)
ABOVE_BAND = (1.15, 1.50)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def _params_args(N, b, p) -> list[str]:
    return ["--dim", str(N), "--b", str(b), "--p", str(p)]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# static_theory
# ---------------------------------------------------------------------------

class StaticTheory:
    """Shooting, the W path, the verify suites and exact exponent tables."""

    name = "static_theory"
    evolution = False

    def inputs(self, seed: int, size: str) -> dict:
        shots = [(3, 1, 4), (3, 1, 3), (2, 1, 4)] if size == "full" else [(2, 1, 4)]
        triples = [(3, 1, 4), (2, 1, 6), (3, 1, 3), (4, 2, 5), (3, "1/2", "5/2")]
        return {
            "ground_states": [
                (f"{N}_{b}_{p}", ["ground-state", *_params_args(N, b, p),
                                  "--out", f"gs_{N}_{b}_{p}"])
                for N, b, p in shots
            ],
            "W": ["ground-state", *_params_args(4, 2, 5), "--out", "gs_4_2_5"],
            "verify": ["verify", "--suite", "all", "--out", "verify.json"],
            "exponents": [
                ["exponents", *_params_args(N, b, p), "--out",
                 f"exponents_{N}_{str(b).replace('/', 'o')}_"
                 f"{str(p).replace('/', 'o')}.csv"]
                for N, b, p in triples
            ],
        }

    def expected_shoot_calls(self, inputs: dict) -> int:
        return len(inputs["ground_states"])

    def run(self, inputs: dict, work: Path) -> dict:
        facts = {"ground_states": [], "exponents": []}
        for key, argv in inputs["ground_states"]:
            facts["ground_states"].append((key, *_cli(argv)))
        facts["W"] = _cli(inputs["W"])[0]
        facts["verify"] = _cli(inputs["verify"])[0]
        for argv in inputs["exponents"]:
            facts["exponents"].append(_cli(argv)[0])
        return facts

    def checks(self, inputs: dict, facts: dict, work: Path, root: Path) -> list:
        frozen = json.loads((root / "tests" / "fixtures" / "ground_states.json")
                            .read_text())
        ops = []
        for (key, rc, out), (_, argv) in zip(facts["ground_states"],
                                            inputs["ground_states"]):
            ops.append((f"ground-state {key} exit", rc == 0))
            m = re.search(r"Pohozaev residuals \(2\.7\): (\S+), (\S+)", out)
            ops.append((f"ground-state {key} Pohozaev",
                        m is not None and max(float(m.group(1)),
                                              float(m.group(2))) < POHOZAEV_TOL))
            got = json.loads((work / argv[-1] / "ground_state.json").read_text())
            ref = frozen[key]
            ops.append((f"ground-state {key} fixture", all(
                _close(got[f], ref[f], FIXTURE_REL_TOL)
                for f in ("shoot_value", "mass", "grad_sq", "potential"))))
        ops.append(("ground-state W exit", facts["W"] == 0))
        report = json.loads((work / "verify.json").read_text())
        ops.append(("verify exit", facts["verify"] == 0))
        ops.append(("verify all_pass", report["all_pass"] is True))
        for argv, rc in zip(inputs["exponents"], facts["exponents"]):
            text = (work / argv[-1]).read_text()
            ops.append((f"{' '.join(argv[:7])}", rc == 0 and "\ngamma_c," in text))
        return ops

    def artifacts(self, inputs: dict) -> list:
        return ([("verify.json", inputs["verify"])]
                + [(argv[-1], argv) for argv in inputs["exponents"]])


# ---------------------------------------------------------------------------
# dichotomy_sweep
# ---------------------------------------------------------------------------

class DichotomySweep:
    """Five seeded amplitudes of c Q at (3,1,4), three below and two above
    the threshold, evolved to t = 2 by ``sweep``."""

    name = "dichotomy_sweep"
    evolution = True

    def inputs(self, seed: int, size: str) -> dict:
        rng = random.Random(seed)
        amps = sorted([round(rng.uniform(*BELOW_BAND), 3) for _ in range(3)]
                      + [round(rng.uniform(*ABOVE_BAND), 3) for _ in range(2)])
        argv = ["sweep", *_params_args(3, 1, 4),
                "--amplitudes", ",".join(f"{c:g}" for c in amps),
                "--out", "sweep"]
        if size == "tiny":
            argv += ["--dr", "2e-2"]
        return {"amplitudes": amps, "sweep": argv}

    def expected_shoot_calls(self, inputs: dict) -> int:
        return 1

    def run(self, inputs: dict, work: Path) -> dict:
        return {"rc": _cli(inputs["sweep"])[0]}

    def checks(self, inputs: dict, facts: dict, work: Path, root: Path) -> list:
        ops = [("sweep exit", facts["rc"] == 0)]
        lines = (work / "sweep" / "sweep.csv").read_text().splitlines()[1:]
        rows = {float(c): (status, agree)
                for c, _verdict, status, agree in (ln.split(",") for ln in lines)}
        for c in inputs["amplitudes"]:
            status, agree = rows.get(c, (None, None))
            expected = "CompletedGlobal" if c < 1.0 else "BlowupDetected"
            ops.append((f"sweep c={c:g}", agree == "true" and status == expected))
        return ops

    def artifacts(self, inputs: dict) -> list:
        return [("sweep/sweep.csv", inputs["sweep"])]


# ---------------------------------------------------------------------------
# collapse_virial
# ---------------------------------------------------------------------------

class CollapseVirial:
    """Demo 05 through the CLI: a calibration collapse at 1.6 Q and a checked
    collapse at 1.5 Q (the tests validate both 1.2 and 1.5; 1.5 is the
    shorter run), mass-critical (3,1,3), states saved every 4 steps, then
    the localized virial envelope at R = 32, eps = 0.1."""

    name = "collapse_virial"
    evolution = True
    PARAMS = (3, 1, 3)
    R, EPS = 32.0, 0.1

    def inputs(self, seed: int, size: str) -> dict:
        # either way a state is saved every 1e-3 time units, so the early
        # window run[:201:4] of the dynamic check ends at t = 0.2
        if size == "full":
            grid = ["--dt", "2.5e-4", "--save-every", "4"]
        else:
            grid = ["--dt", "1e-3", "--dr", "2e-2", "--save-every", "1"]
        runs = {}
        for tag, c in (("cal", "1.6"), ("run", "1.5")):
            runs[tag] = ["evolve", *_params_args(*self.PARAMS),
                         "--init", f"cQ:{c}", "--tend", "2", *grid,
                         "--out", tag]
        return {"runs": runs, "dr": 5e-3 if size == "full" else 2e-2}

    def expected_shoot_calls(self, inputs: dict) -> int:
        # cQ: init shoots once; the (4.9) bound is skipped at mass-critical p
        return len(inputs["runs"])

    def run(self, inputs: dict, work: Path) -> dict:
        facts = {"rc": {tag: _cli(argv)[0] for tag, argv in inputs["runs"].items()}}
        params = Params(*(float(x) for x in self.PARAMS))
        grid = make_grid(40.0, inputs["dr"], self.PARAMS[0])
        states = {tag: _load_states(work / tag / "states.npz", grid)
                  for tag in inputs["runs"]}
        cal, run = states["cal"], states["run"]
        facts["dynamic_dev"] = virial.virial_dynamic_check(
            run[:201:4], params, virial.quadratic_cutoff(grid))
        C = virial.fit_envelope_constant(cal, params, self.R, self.EPS)
        rows = virial.blowup_bound_check(run, params, self.R, self.EPS, C)
        (work / "post").mkdir()
        virial.bound_rows_to_csv(rows, work / "post" / "virial_bounds.csv")
        facts["rows"] = len(rows)
        facts["rows_hold"] = all(r.holds for r in rows)
        return facts

    def checks(self, inputs: dict, facts: dict, work: Path, root: Path) -> list:
        ops = []
        for tag in inputs["runs"]:
            ops.append((f"evolve {tag} exit", facts["rc"][tag] == 0))
            summary = json.loads((work / tag / "summary.json").read_text())
            ops.append((f"evolve {tag} blow-up branch",
                        summary["outcome"]["status"] == "BlowupDetected"))
        ops.append(("virial dynamic identity",
                    facts["dynamic_dev"] < DYNAMIC_VIRIAL_TOL))
        ops.append(("virial envelope rows hold",
                    facts["rows"] > MIN_ENVELOPE_ROWS and facts["rows_hold"]))
        return ops

    def artifacts(self, inputs: dict) -> list:
        return [(f"{tag}/{f}", argv) for tag, argv in inputs["runs"].items()
                for f in ("diagnostics.csv", "summary.json")]


def _load_states(path: Path, grid) -> list:
    with np.load(path) as z:
        if not np.array_equal(z["r"], grid.r):
            raise ValueError(f"{path}: saved grid differs from the expected one")
        return [(float(t), RadialField(grid, s)) for t, s in zip(z["t"], z["states"])]


WORKLOADS = {w.name: w for w in (StaticTheory(), DichotomySweep(), CollapseVirial())}
