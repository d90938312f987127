"""Command-line front door: ground states, verification suites, evolutions,
amplitude sweeps, and exponent tables.

Exit codes: 0 success, 1 check failure, 2 usage or precondition violation.
All outputs are deterministic for identical flags: fixed seeds, sorted JSON
keys, %.12e numeric formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .grids import (Params, RadialField, RegimeKind, classify, gradient_sq_norm,
                    make_grid, write_csv)
from . import exponents as expo
from . import functionals as fn
from . import ground_state as gs
from . import verify as ver
from .evolution import (BLOWUP_GRADIENT_FACTOR, ENERGY_DRIFT_TOL, LOCAL_MASS_RADII,
                        RunStatus, StepperConfig, evolve)

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _params_from(args) -> Params:
    try:
        return Params(args.dim, float(Fraction(args.b)), float(Fraction(args.p)))
    except ZeroDivisionError as e:
        raise ValueError(f"bad rational parameter: {e}") from e


def _json_text(payload: dict) -> str:
    """The one JSON form of every report: strict JSON, with each non-finite
    float written as null, sorted keys, two-space indent, a final newline."""
    finite = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# ground-state
# ---------------------------------------------------------------------------

def cmd_ground_state(args) -> int:
    params = _params_from(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = classify(params).kind

    if kind == RegimeKind.ENERGY_CRITICAL:
        grid = make_grid(args.rmax, args.dr, params.N)
        W = gs.explicit_W(params, grid)
        ids = gs.W_identities(params, make_grid(2000.0, 2e-2, params.N))
        _write_profile_csv(out / "profile.csv", grid.r, np.real(W.values))
        _write_json(out / "ground_state.json", {
            "params": {"N": params.N, "b": params.b, "p": params.p},
            "profile": "W",
            "shoot_value": 1.0,
            "mass": fn.mass(W),
            "grad_sq": ids["grad_sq"],
            "potential": ids["potential"],
            "sharp_sobolev_constant": ids["sharp_sobolev_constant"],
        })
        print(f"energy-critical profile W written to {out}")
        print(f"potential equals grad_sq (5.11): rel dev {ids['dev_511']:.3e}")
        print(f"E(W) = (b+2)/(2N+2b) grad_sq (5.12): rel dev {ids['dev_512']:.3e}")
        return 0 if max(ids["dev_511"], ids["dev_512"]) < 1e-5 else CHECK_FAILURE

    ground = gs.shoot(params, r_max=args.rmax, tol=args.tol, dr=args.dr)
    res1, res2 = fn.pohozaev_residuals(ground.profile, params)
    _write_profile_csv(out / "profile.csv", ground.profile.grid.r,
                       np.real(ground.profile.values))
    _write_json(out / "ground_state.json", gs.ground_state_fixture(ground))
    print(f"ground state written to {out}")
    print(f"Q(0) = {ground.shoot_value:.12e}  ode residual {ground.ode_residual:.3e}"
          f"  decay rate {ground.decay_rate:.4f}")
    print(f"Pohozaev residuals (2.7): {res1:.3e}, {res2:.3e}")
    lo, hi = ground.bracket
    print(f"shooting: {ground.trajectories} trajectories, "
          f"{ground.bisection_steps} bisection steps, "
          f"final bracket [{lo:.15e}, {hi:.15e}] (width {hi - lo:.3e})")
    if math.isfinite(params.sigma_c):
        w = fn.weinstein(ground.profile, params)
        c = fn.c_opt_closed_form(
            (math.sqrt(gradient_sq_norm(ground.profile)),
             math.sqrt(fn.mass(ground.profile))), params)
        print(f"weinstein(Q) = {w:.8e}  closed-form C_opt (4.5) = {c:.8e}  "
              f"rel dev {abs(w - c) / c:.3e}")
    ok = res1 < 1e-4 and res2 < 1e-4
    return 0 if ok else CHECK_FAILURE


def _write_profile_csv(path: Path, r, q) -> None:
    write_csv(path, ("r", "Q"), zip(r, q))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = ver.run_suites(args.suite)
    if args.out:
        _write_json(Path(args.out), report)
    else:
        print(_json_text(report), end="")
    for check in report["checks"]:
        mark = "pass" if check["pass"] else "FAIL"
        print(f"[{mark}] {check['name']} ({check['paper_ref']}): "
              f"value {check['value']:.3e} tol {check['tolerance']:.3e}",
              file=sys.stderr)
    return 0 if report["all_pass"] else CHECK_FAILURE


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _initial_state(spec: str, params: Params,
                   grid) -> tuple[RadialField, gs.GroundState | None]:
    """The initial field, and the ground state Q when the spec is cQ:<c>."""
    kind, _, arg = spec.partition(":")
    if kind == "cQ":
        c = float(arg)
        ground = gs.shoot(params)
        return RadialField(grid, (c * ground.resample(grid).values).astype(complex)), ground
    if kind == "gaussian":
        amp = float(arg)
        return RadialField(grid, (amp * np.exp(-grid.r**2)).astype(complex)), None
    if kind == "file":
        path = Path(arg)
        if not path.exists():
            raise ValueError(f"initial-state file not found: {path}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError(f"initial-state file {path} needs columns r, Re u "
                             f"[, Im u]; got {data.shape[1]}")
        vals = np.interp(grid.r, data[:, 0], data[:, 1])
        if data.shape[1] > 2:
            vals = vals + 1j * np.interp(grid.r, data[:, 0], data[:, 2])
        return RadialField(grid, vals.astype(complex)), None
    raise ValueError(f"unknown init spec {spec!r}; use cQ:<c>, gaussian:<amp>, "
                     "or file:<path>")


def _outcome_json(outcome) -> dict:
    return {**dataclasses.asdict(outcome), "status": outcome.status.value}


def _cfg_json(cfg: StepperConfig, grid) -> dict:
    """The run's settings: cfg, the stepped grid's r_max and dr, and the
    fixed thresholds."""
    return {
        "dt": cfg.dt, "r_max": grid.r_max, "dr": grid.dr, "t_end": cfg.t_end,
        "blowup_gradient_factor": BLOWUP_GRADIENT_FACTOR,
        "energy_drift_tol": ENERGY_DRIFT_TOL,
        "local_mass_radii": list(LOCAL_MASS_RADII),
        "save_every": cfg.save_every, "linear_only": cfg.linear_only,
    }


def _bound_49_all_true(diag, params: Params, ground: gs.GroundState) -> bool | None:
    """Whether the gradient product stayed below the ground state's at every
    recorded step; None when the comparison is undefined (mass-critical)."""
    sc = params.sigma_c
    if not math.isfinite(sc):
        return None
    _, thresh = fn.dichotomy_products(*fn.grad_mass_energy(ground.profile, params), sc)
    return all(fn.dichotomy_products(g, m, E, sc)[1] < thresh
               for g, m, E in zip(diag.grad_sq, diag.mass, diag.energy))


def _write_states(path: Path, states: list, r: np.ndarray) -> None:
    """Write the saved (t, field) pairs as the bytes of
    np.savez(path, t=..., r=r, states=np.stack(...)), without building the
    stacked (k, n) array: the states member is one .npy header followed by
    each saved row's bytes."""
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
              "fortran_order": False, "shape": (len(states), len(r))}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        # numpy's member layout: name.npy, always zip64
        for name, arr in (("t", np.array([t for t, _ in states])), ("r", r)):
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr)
        with zf.open("states.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for _, u in states:
                fh.write(np.ascontiguousarray(u.values, dtype=complex))


def cmd_evolve(args) -> int:
    params = _params_from(args)
    cfg = StepperConfig(dt=args.dt, t_end=args.tend, save_every=args.save_every)
    grid = make_grid(args.rmax, args.dr, params.N)
    u0, ground = _initial_state(args.init, params, grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = evolve(u0, params, cfg)
    diag_path = out / "diagnostics.csv"
    result.diagnostics.to_csv(diag_path)
    if result.states:
        _write_states(out / "states.npz", result.states, grid.r)
    bound_49 = None
    if ground is not None:
        bound_49 = _bound_49_all_true(result.diagnostics, params, ground)
    _write_json(out / "summary.json", {
        "schema": 1,
        "params": {"N": params.N, "b": params.b, "p": params.p},
        "cfg": _cfg_json(cfg, grid),
        "outcome": _outcome_json(result.outcome),
        "bound_49_all_true": bound_49,
        "fixture_hashes": {"diagnostics.csv": _sha256(diag_path)},
    })
    print(f"run written to {out}: status {result.outcome.status.value} "
          f"at t = {result.outcome.t_final:g}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AGREEMENT = {
    ("GlobalBranch", RunStatus.COMPLETED_GLOBAL.value): True,
    ("BlowupBranch", RunStatus.BLOWUP_DETECTED.value): True,
    ("NegativeEnergy", RunStatus.BLOWUP_DETECTED.value): True,
}


def cmd_sweep(args) -> int:
    params = _params_from(args)
    try:
        amplitudes = [float(a) for a in args.amplitudes.split(",") if a.strip()]
    except ValueError as e:
        raise ValueError(f"bad amplitude list: {e}") from e
    if not amplitudes:
        raise ValueError("empty amplitude list")
    cfg = StepperConfig(dt=args.dt, t_end=args.tend)
    grid = make_grid(args.rmax, args.dr, params.N)
    ground = gs.shoot(params)
    q = ground.resample(grid)

    rows = []
    for c in amplitudes:
        u0 = RadialField(grid, (c * q.values).astype(complex))
        status = evolve(u0, params, cfg, record=False).outcome.status.value
        try:
            v = fn.threshold_report(u0, params, ground).verdict.value
        except ValueError:
            # mass-critical data with E >= 0: thresholds undefined
            v = "Undefined"
        rows.append((c, v, status, _AGREEMENT.get((v, status), False)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", ("amplitude", "verdict", "status", "agreement"),
              ((c, v, status, str(agree).lower()) for c, v, status, agree in rows))
    for c, v, status, agree in rows:
        print(f"c = {c:g}: verdict {v}, run {status}, agreement {agree}")
    return 0 if all(r[3] for r in rows) else CHECK_FAILURE


# ---------------------------------------------------------------------------
# exponents table
# ---------------------------------------------------------------------------

def cmd_exponents(args) -> int:
    params = _params_from(args)
    # the exact parsed rationals, not the float Params, so that non-dyadic
    # inputs like 4/3 stay exact all the way through
    rows = expo.table(params.N, Fraction(args.b), Fraction(args.p))
    lines = ["name,value"] + [f"{k},{v}" for k, v in rows.items()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_params(sp):
    sp.add_argument("--dim", type=int, required=True, help="dimension N >= 2")
    sp.add_argument("--b", required=True, help="weight exponent b > 0 (rational ok)")
    sp.add_argument("--p", required=True, help="nonlinearity power p > 1 (rational ok)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="inls-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ground-state", help="compute Q (or W) and its identities")
    _add_params(sp)
    sp.add_argument("--rmax", type=float, default=20.0)
    sp.add_argument("--dr", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--out", default="out_ground_state")
    sp.set_defaults(func=cmd_ground_state)

    sp = sub.add_parser("verify", help="run the machine-checkable suites")
    sp.add_argument("--suite", default="all", choices=[*ver.SUITES, "all"])
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("evolve", help="time-evolve an initial state")
    _add_params(sp)
    sp.add_argument("--init", required=True,
                    help="cQ:<c> | gaussian:<amp> | file:<csv path>")
    sp.add_argument("--tend", type=float, required=True)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--rmax", type=float, default=40.0)
    sp.add_argument("--dr", type=float, default=5e-3)
    sp.add_argument("--save-every", type=int, default=0, dest="save_every")
    sp.add_argument("--out", default="out_evolve")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("sweep", help="amplitude sweep c*Q with agreement table")
    _add_params(sp)
    sp.add_argument("--amplitudes", required=True, help="comma-separated list")
    sp.add_argument("--tend", type=float, default=2.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--rmax", type=float, default=40.0)
    sp.add_argument("--dr", type=float, default=5e-3)
    sp.add_argument("--out", default="out_sweep")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("exponents", help="CSV table of derived exponents")
    _add_params(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_exponents)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
