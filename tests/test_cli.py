import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inls_lab
from inls_lab import cli, verify
from inls_lab.cli import main
from inls_lab.evolution import StepperConfig
from inls_lab.grids import Params, RadialField, make_grid

from conftest import FATE


def run(args):
    return main(args)


class TestExponentsCommand:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run(["exponents", "--dim", "3", "--b", "1", "--p", "4",
                    "--out", str(out)]) == 0
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert rows["q"] == "8/3"
        assert rows["r"] == "4"
        assert rows["k"] == "8"
        assert rows["m"] == "8/5"
        assert rows["l"] == "12/5"
        assert rows["delta"] == "1/2"
        assert rows["sigma_c"] == "1"
        assert rows["regime"] == "Intercritical"

    def test_mass_critical_sigma_inf(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["exponents", "--dim", "3", "--b", "1", "--p", "3",
                    "--out", str(out)]) == 0
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert rows["sigma_c"] == "inf"
        assert rows["regime"] == "MassCritical"

    def test_mass_critical_band_sigma_inf(self, capsys):
        # p = 3 + 2e-12 is within classify's tolerance of p = 3
        assert run(["exponents", "--dim", "3", "--b", "1",
                    "--p", "3.000000000002"]) == 0
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["gamma_c"] == "3/2000000000002"
        assert (rows["sigma_c"], rows["regime"]) == ("inf", "MassCritical")


class TestVerifyCommand:
    def test_exponents_suite(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "exponents", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_pass"]
        for check in report["checks"]:
            assert set(check) == {"name", "paper_ref", "pass", "value",
                                  "tolerance"}

    def test_virial_suite(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--suite", "virial", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_pass"]

    def test_bad_suite_is_usage_error(self):
        with pytest.raises(SystemExit):
            run(["verify", "--suite", "nonsense"])

    def test_suite_choices_are_the_library_suites(self):
        # the suite names live in verify.SUITES alone
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command").choices["verify"]
        suite = next(a for a in sub._actions if a.dest == "suite")
        assert set(suite.choices) == set(verify.SUITES) | {"all"}


class TestGroundStateCommand:
    def test_reference_point(self, tmp_path, capsys):
        out = tmp_path / "gs"
        assert run(["ground-state", "--dim", "3", "--b", "1", "--p", "4",
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Pohozaev" in printed
        assert "shooting: 22 trajectories, 41 bisection steps, final bracket" in printed
        fixture = json.loads((out / "ground_state.json").read_text())
        assert set(fixture) == {"params", "shoot_value", "mass", "grad_sq",
                                "potential"}
        prof = (out / "profile.csv").read_text().splitlines()
        assert prof[0] == "r,Q"

    def test_regime_rejection_exit_2(self, tmp_path, capsys):
        code = run(["ground-state", "--dim", "3", "--b", "1", "--p", "2",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "Thm 2.1" in capsys.readouterr().err

    def test_zero_tol_exit_2(self, tmp_path, capsys):
        # no bisection reaches hi - lo <= 0; the tolerance is rejected up front
        assert run(["ground-state", "--dim", "2", "--b", "1", "--p", "4",
                    "--dr", "1e-2", "--tol", "0", "--out", str(tmp_path / "x")]) == 2
        assert "finite and positive" in capsys.readouterr().err

    def test_too_few_nodes_exit_2(self, tmp_path, capsys):
        assert run(["ground-state", "--dim", "2", "--b", "1", "--p", "4",
                    "--rmax", "0.004", "--dr", "0.01",
                    "--out", str(tmp_path / "x")]) == 2
        assert "at least 3 points" in capsys.readouterr().err

    def test_energy_critical_W_path(self, tmp_path, capsys):
        out = tmp_path / "gsW"
        assert run(["ground-state", "--dim", "4", "--b", "2", "--p", "5",
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "(5.11)" in printed and "(5.12)" in printed


class TestEvolveCommand:
    def test_gaussian_run_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1.0", "--tend", "0.05",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == 1
        assert summary["outcome"]["status"] == "CompletedGlobal"
        assert "diagnostics.csv" in summary["fixture_hashes"]
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("t,mass,energy,grad_sq,potential,local_mass")
        assert header.endswith("virial_V,virial_Vp")

    def test_nonfinite_growth_is_null(self, tmp_path):
        # the amplitude 1e160 overflows at once: the growth is NaN, which
        # strict JSON writes as null
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1e160", "--tend", "0.01",
                    "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["outcome"]["gradient_growth"] is None

    def test_missing_file_init_exit_2(self, tmp_path):
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "file:missing.csv", "--tend", "0.1",
                    "--out", str(tmp_path / "x")]) == 2

    def test_one_row_file_init(self, tmp_path):
        # np.loadtxt reads a single data row as a 1-D array unless ndmin=2
        path = tmp_path / "u0.csv"
        path.write_text("r,u\n0.0,0.5\n")
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", f"file:{path}", "--tend", "0.01", "--rmax", "2",
                    "--dr", "0.1", "--out", str(tmp_path / "x")]) == 0

    def test_one_column_file_init_exit_2(self, tmp_path, capsys):
        path = tmp_path / "u0.csv"
        path.write_text("r\n0.0\n1.0\n")
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", f"file:{path}", "--tend", "0.01", "--rmax", "2",
                    "--dr", "0.1", "--out", str(tmp_path / "x")]) == 2
        assert "needs columns" in capsys.readouterr().err

    def test_bad_init_spec_exit_2(self, tmp_path):
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "wavelet:1", "--tend", "0.1",
                    "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("dim, p, init", [
        ("5", "1.51", "cQ:0.5"), ("3", "3", "wavelet:1"),
        ("3", "3", "file:missing.csv"),
    ], ids=["no-ground-state", "bad-spec", "missing-file"])
    def test_failed_initial_state_leaves_no_out_dir(self, tmp_path, dim, p, init):
        out = tmp_path / "x"
        assert run(["evolve", "--dim", dim, "--b", "1", "--p", p,
                    "--init", init, "--tend", "0.01", "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_save_every_exit_2(self, tmp_path):
        out = tmp_path / "x"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1.0", "--tend", "0.01",
                    "--save-every", "-5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tend", ["1e-4", "0.0025"])
    def test_partial_step_tend_exit_2(self, tmp_path, capsys, tend):
        # 1e-4 used to end at t = 0 and 0.0025 silently at t = 0.002
        out = tmp_path / "x"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1", "--tend", tend, "--dt", "1e-3",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_end must be a whole number")
        assert not out.exists()

    def test_summary_cfg_block(self, tmp_path):
        # the grid comes from the flags, the thresholds are fixed floats
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1.0", "--tend", "0.002",
                    "--rmax", "8", "--dr", "1e-2", "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        start = text.index('  "cfg": {')
        assert text[start:text.index("  },", start) + 4] == (
            '  "cfg": {\n'
            '    "blowup_gradient_factor": 10.0,\n'
            '    "dr": 0.01,\n'
            '    "dt": 0.001,\n'
            '    "energy_drift_tol": 0.0001,\n'
            '    "linear_only": false,\n'
            '    "local_mass_radii": [\n'
            '      5.0,\n'
            '      10.0,\n'
            '      20.0\n'
            '    ],\n'
            '    "r_max": 8.0,\n'
            '    "save_every": 0,\n'
            '    "t_end": 0.002\n'
            '  },'
        )

    def test_summary_cfg_records_stepped_grid(self, tmp_path):
        # --dr 0.15 does not divide --rmax 1: the grid has 8 nodes and
        # dr = 1/7, and that spacing is recorded, not the flag
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:1.0", "--tend", "0.002",
                    "--rmax", "1", "--dr", "0.15", "--out", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert '    "dr": 0.14285714285714285,\n' in text
        assert '    "r_max": 1.0,\n' in text

    def test_states_archive(self, tmp_path, monkeypatch):
        calls = _metered_evolve(monkeypatch)
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                    "--init", "gaussian:0.5", "--tend", "0.02",
                    "--save-every", "10", "--out", str(out)]) == 0
        with np.load(out / "states.npz") as data:
            assert data["states"].shape[0] == len(data["t"])
        # the archive holds the in-memory run bit for bit, in the bytes that
        # np.savez gives the stacked states; the run is the command's own,
        # whose inputs are checked here, since evolve is deterministic
        grid = make_grid(40.0, 5e-3, 3)
        u0 = RadialField(grid, (0.5 * np.exp(-grid.r**2)).astype(complex))
        [((run_u0, params, cfg), _, res)] = calls
        assert run_u0.values.tobytes() == u0.values.tobytes()
        assert run_u0.grid.r.tobytes() == grid.r.tobytes()
        assert params == Params(3, 1.0, 3.0)
        assert cfg == StepperConfig(dt=1e-3, t_end=0.02, save_every=10)
        states = res.states
        t = np.array([s for s, _ in states])
        mat = np.stack([u.values for _, u in states])
        with np.load(out / "states.npz", allow_pickle=False) as data:
            assert sorted(data.files) == ["r", "states", "t"]
            assert data["states"].dtype == np.complex128
            assert data["t"].tobytes() == t.tobytes()
            assert data["r"].tobytes() == grid.r.tobytes()
            assert data["states"].tobytes() == mat.tobytes()
        buf = io.BytesIO()
        np.savez(buf, t=t, r=grid.r, states=mat)
        assert (out / "states.npz").read_bytes() == buf.getvalue()

    def test_too_few_nodes_exit_2(self, tmp_path, capsys):
        # --rmax 1 --dr 0.3 gives 4 nodes, 2 unknowns for the CN solve
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                    "--init", "gaussian:0.5", "--tend", "0.1", "--rmax", "1",
                    "--dr", "0.3", "--out", str(tmp_path / "x")]) == 2
        assert "at least 5 nodes, got 4" in capsys.readouterr().err

    def test_five_nodes_run(self, tmp_path):
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                    "--init", "gaussian:0.5", "--tend", "0.1", "--rmax", "1",
                    "--dr", "0.25", "--out", str(tmp_path / "x")]) == 0

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["evolve", "--dim", "3", "--b", "1", "--p", "3",
                 "--init", "gaussian:1.0", "--tend", "0.02",
                 "--save-every", "5", "--out", str(out)])
            outs.append((out / "diagnostics.csv").read_bytes()
                        + (out / "summary.json").read_bytes()
                        + (out / "states.npz").read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command, flag, value", [
    ("evolve", "--rmax", "inf"), ("evolve", "--tend", "inf"),
    ("evolve", "--dt", "nan"), ("evolve", "--rmax", "nan"),
    ("evolve", "--dr", "nan"), ("evolve", "--dt", "inf"),
    ("sweep", "--rmax", "inf"), ("sweep", "--tend", "inf"),
    ("sweep", "--dt", "nan"), ("sweep", "--dr", "nan"),
])
def test_non_finite_grid_and_time_flags_exit_2(tmp_path, capsys, command, flag,
                                               value):
    # rejected before any shooting or stepping, as usage errors, not tracebacks
    argv = [command, "--dim", "3", "--b", "1", "--p", "4", flag, value,
            "--out", str(tmp_path / "x")]
    if command == "evolve":
        argv += ["--init", "gaussian:0.5"]
        if flag != "--tend":
            argv += ["--tend", "0.1"]
    else:
        argv += ["--amplitudes", "0.5"]
    assert run(argv) == 2
    assert "finite and positive" in capsys.readouterr().err



_STATIC_COMMANDS_SCRIPT = """
import sys
import inls_lab, inls_lab.cli
from inls_lab.cli import main
static = [
    ["exponents", "--dim", "3", "--b", "1", "--p", "4"],
    ["verify", "--suite", "all", "--out", "verify.json"],
    ["ground-state", "--dim", "3", "--b", "1", "--p", "4", "--dr", "1e-2",
     "--out", "gs"],
    ["ground-state", "--dim", "4", "--b", "2", "--p", "5", "--out", "w"],
]
for argv in static:
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules, "a static command loaded scipy"
assert main(["evolve", "--dim", "3", "--b", "1", "--p", "3",
             "--init", "gaussian:1", "--tend", "2e-3", "--dt", "1e-3",
             "--rmax", "8", "--dr", "1e-2", "--out", "run"]) == 0
assert "scipy.linalg._flapack" in sys.modules, "the first step loaded no LAPACK"
assert "scipy.linalg" not in sys.modules, "the first step loaded scipy.linalg"
assert "scipy.linalg._fblas" not in sys.modules, "the first step loaded BLAS"
from inls_lab import evolution
import scipy.linalg.lapack
assert scipy.linalg.lapack.ztbtrs is evolution._last_plan[1].ztbtrs
"""


def test_static_commands_never_load_scipy(tmp_path):
    # scipy's LAPACK module is loaded with the first Crank-Nicolson plan,
    # without the scipy.linalg package: the commands that take no step load
    # no scipy, and a step loads no more than the module, in a fresh
    # interpreter
    src = str(Path(inls_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _STATIC_COMMANDS_SCRIPT],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["ground-state", "sweep", "evolve"])
@pytest.mark.parametrize("dim, p, message", [
    ("5", "1.51", "no undershoot/overshoot bracket"),
    ("4", "1.67", "ran away"),
], ids=["5-1-1.51", "4-1-1.67"])
def test_shooting_failure_exit_2(tmp_path, capsys, command, dim, p, message):
    # shoot's RuntimeError reaches the user as one error line, not a traceback
    argv = [command, "--dim", dim, "--b", "1", "--p", p,
            "--out", str(tmp_path / "x")]
    if command == "sweep":
        argv += ["--amplitudes", "0.5"]
    elif command == "evolve":
        argv += ["--init", "cQ:0.5", "--tend", "0.01"]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


class TestSweepCommand:
    def test_degenerate_single_amplitude(self, tmp_path):
        out = tmp_path / "sw"
        assert run(["sweep", "--dim", "3", "--b", "1", "--p", "4",
                    "--amplitudes", "0.5", "--tend", "0.2",
                    "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "amplitude,verdict,status,agreement"
        assert len(lines) == 2
        assert lines[1].endswith("true")

    def test_empty_amplitudes_exit_2(self, tmp_path):
        assert run(["sweep", "--dim", "3", "--b", "1", "--p", "4",
                    "--amplitudes", "", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("amplitudes, message", [
        ("0.5,x", "error: bad amplitude list: could not convert string to "
                  "float: 'x'"),
        (" , ", "error: empty amplitude list"),
    ])
    def test_amplitude_list_errors(self, tmp_path, capsys, amplitudes, message):
        out = tmp_path / "x"
        assert run(["sweep", "--dim", "3", "--b", "1", "--p", "4",
                    "--amplitudes", amplitudes, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        assert not out.exists()


_THREADS_SCRIPT = """
from inls_lab.cli import main
for argv in (["verify", "--suite", "all", "--out", "verify.json"],
             ["ground-state", "--dim", "3", "--b", "1", "--p", "4", "--out", "gs"],
             ["ground-state", "--dim", "4", "--b", "2", "--p", "5", "--out", "w"]):
    assert main(argv) == 0, argv
"""


class TestVerifyDeterminism:
    def test_all_suites_report_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--suite", "all", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "825546eacfbb5fab52c7dec4ec5b833a26ebc6995ea0b7a9958cc3b15fec13f0")

    def test_reports_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10,000 elements across
        # threads; grids.dot never hands it one, so verify's 100,000-node
        # sums and the 20,001-node ground-state norms write the same bytes
        # under one BLAS thread and two, each in a fresh interpreter
        src = str(Path(inls_lab.__file__).resolve().parents[1])
        payloads = []
        for threads in ("1", "2"):
            work = tmp_path / threads
            work.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                                  cwd=work, env=env, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            payloads.append([(work / name).read_bytes() for name in (
                "verify.json", "gs/ground_state.json", "w/ground_state.json")])
        assert payloads[0] == payloads[1]

    def test_byte_identical_reports(self, tmp_path):
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(["verify", "--suite", "exponents",
                        "--out", str(out)]) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


class TestBound49Summary:
    def test_global_cQ_run_reports_true(self, tmp_path):
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                    "--init", "cQ:0.5", "--tend", "0.3",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_49_all_true"] is True

    def test_gaussian_run_has_no_bound_field_value(self, tmp_path):
        out = tmp_path / "run"
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                    "--init", "gaussian:1.0", "--tend", "0.02",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_49_all_true"] is None


def _metered_evolve(monkeypatch):
    """Wrap cli.evolve; each call appends (args, kwargs, result)."""
    calls = []
    real = cli.evolve

    def metered(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(cli, "evolve", metered)
    return calls


_SWEEP = ["sweep", "--dim", "3", "--b", "1", "--p", "4",
          "--amplitudes", "0.5,1.5", "--tend", "0.15"]


@pytest.fixture(scope="module")
def metered_sweep(tmp_path_factory):
    """One run of _SWEEP with cli.evolve metered: (exit code, sweep.csv
    bytes, the (args, kwargs, result) of each evolve call)."""
    out = tmp_path_factory.mktemp("sweep")
    with pytest.MonkeyPatch.context() as mp:
        calls = _metered_evolve(mp)
        rc = run([*_SWEEP, "--out", str(out)])
    return rc, (out / "sweep.csv").read_bytes(), calls


class TestSweepDeterminism:
    def test_matches_single_runs_byte_identical(self, tmp_path, metered_sweep):
        rc, first, calls = metered_sweep
        assert rc == 0
        out = tmp_path / "s2"
        assert run([*_SWEEP, "--out", str(out)]) == 0
        outs = [first, (out / "sweep.csv").read_bytes()]
        assert outs[0] == outs[1]
        statuses = [line.split(",")[2]
                    for line in outs[0].decode().splitlines()[1:]]
        singles = []
        for c in ("0.5", "1.5"):
            out = tmp_path / f"evolve_{c}"
            assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                        "--init", f"cQ:{c}", "--tend", "0.15",
                        "--out", str(out)]) == 0
            singles.append(json.loads((out / "summary.json").read_text())["outcome"])
        assert statuses == [o["status"] for o in singles]
        # the sweep's outcome-only runs end as the recorded single runs do;
        # summary.json keeps each float's repr, so == is bit for bit
        sweep_runs = [cli._outcome_json(res.outcome) for _, _, res in calls[:2]]
        assert ([[o[k] for k in FATE] for o in sweep_runs]
                == [[o[k] for k in FATE] for o in singles])

    def test_sweep_keeps_the_evolve_call_shape(self, metered_sweep):
        # one positional evolve(u0, params, cfg) per amplitude, with one
        # diagnostics.t entry per state: the shape a wrapper around
        # cli.evolve counts steps by
        rc, _, calls = metered_sweep
        assert rc == 0
        assert len(calls) == 2
        for args, kwargs, res in calls:
            u0, params, cfg = args
            assert isinstance(u0, RadialField) and isinstance(params, Params)
            assert isinstance(cfg, StepperConfig) and kwargs == {"record": False}
            steps = len(res.diagnostics.t) - 1
            assert steps == round(res.outcome.t_final / cfg.dt) > 0
        assert [res.outcome.status.value for _, _, res in calls] == [
            "CompletedGlobal", "BlowupDetected"]


class TestShootOnce:
    def test_cQ_evolve_shoots_once(self, tmp_path, monkeypatch):
        import inls_lab.ground_state as gs

        calls = []
        real_shoot = gs.shoot

        def counting_shoot(*args, **kwargs):
            calls.append(args)
            return real_shoot(*args, **kwargs)

        monkeypatch.setattr(gs, "shoot", counting_shoot)
        assert run(["evolve", "--dim", "3", "--b", "1", "--p", "4",
                    "--init", "cQ:0.5", "--tend", "0.01",
                    "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1


class TestRationalFlagInput:
    def test_fractional_b(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["exponents", "--dim", "3", "--b", "4/3", "--p", "4",
                    "--out", str(out)]) == 0
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert rows["b"] == "4/3"
        # alpha = p - 1 - 2b/(N-1) = 3 - 4/3 = 5/3 exactly
        assert rows["alpha_N_minus_1"] == "5/3"
