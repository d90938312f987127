"""Every `verify` row can fail.

Each row has one fault, keyed by the row's name: a monkeypatch of the
quantity the row checks (a wrong exponent, a perturbed cutoff, a mis-scaled
bilaplacian, a wrong energy).  A case runs only the row's suite and expects
the row to report pass: false; a guard keeps the table in step with the
rows `verify` reports.
"""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from inls_lab import exponents as expo
from inls_lab import inequalities as ineq
from inls_lab import verify
from inls_lab import virial as vir
from inls_lab.cli import CHECK_FAILURE, main
from inls_lab.grids import Params


def _wrap(mp, module, name, wrong):
    """Replace module.name by a function that calls wrong(original, *args)."""
    original = getattr(module, name)
    mp.setattr(module, name, lambda *args: wrong(original, *args))


def _m_plus_one(f, alpha, N):
    q, r, k, m = f(alpha, N)
    return q, r, k, m + 1


def _double_delta(f, alpha, N):
    l, delta = f(alpha, N)
    return l, 2 * delta


def _alpha_over_N(f, pr):
    # alpha = p - 1 - 2b/N: the weight's N - 1 read as N
    return F(pr.p) - 1 - 2 * F(pr.b) / pr.N, f(pr)[1]


def _beta_over_N(f, pr):
    # beta = max(1/3, 2/(N alpha + 2)): the weight's N - 1 read as N
    alpha, _ = f(pr)
    return alpha, max(F(1, 3), F(2) / (pr.N * alpha + 2))


def _half_theta(f, alpha, N):
    rep = f(alpha, N)
    return dataclasses.replace(rep, theta=rep.theta / 2) if rep.feasible else rep


def _zeta_off(f, table, rho, orders):
    # phi_R's phi'' = zeta, 1% too large
    return tuple(1.01 * a if table is vir._PHI_TABLE and k == 2 else a
                 for a, k in zip(f(table, rho, orders), orders))


def _B_off_by_one(dims):
    """A Params whose Gagliardo-Nirenberg exponent B is one too large in the
    dimensions dims."""
    class WrongB(Params):
        @property
        def B(self):
            return super().B + (1 if self.N in dims else 0)
    return WrongB


def _flat_last_step(f, params, ks):
    # the last witness repeats the ratio before it
    pairs = f(params, ks)
    return pairs[:-1] + [(pairs[-1][0], pairs[-2][1])]


FAULTS = {
    # exponents
    "worked_triple_qrkm": ("exponents", lambda mp: _wrap(
        mp, expo, "scattering_exponents", _m_plus_one)),
    "worked_triple_l_delta": ("exponents", lambda mp: _wrap(
        mp, expo, "auxiliary_exponents", _double_delta)),
    "admissible_endpoint": ("exponents", lambda mp: _wrap(
        mp, expo, "admissible_check",
        lambda f, q, r, N: f(q, r, N) and r != 2)),
    "rational_sweep_1000": ("exponents", lambda mp: _wrap(
        mp, expo, "_require",
        lambda f, holds, identity: f(holds and identity != "l <= r", identity))),
    "morawetz_(3,1,4)": ("exponents", lambda mp: _wrap(
        mp, expo, "morawetz_beta", _alpha_over_N)),
    "morawetz_(2,1,6)": ("exponents", lambda mp: _wrap(
        mp, expo, "morawetz_beta", _beta_over_N)),
    "beta_below_one_sweep": ("exponents", lambda mp: _wrap(
        mp, expo, "morawetz_beta", lambda f, pr: (f(pr)[0], F(1)))),
    "dispersive_choice_(2,3)": ("exponents", lambda mp: _wrap(
        mp, expo, "dispersive_n_feasible", _half_theta)),
    "dispersive_boundary_excluded": ("exponents", lambda mp: _wrap(
        mp, expo, "dispersive_n_feasible",
        lambda f, a, N: expo.DispersiveReport(True))),
    # inequalities
    "interpolation_theta_(3,1,4)": ("inequalities", lambda mp: _wrap(
        mp, ineq, "interpolation_theta", lambda f, pr: f(pr) + 1e-12)),
    # a wrong B for N >= 4 only: the (3,1,4) row keeps passing, and the row
    # fails on its own samples
    "interpolation_identities_random": ("inequalities", lambda mp: mp.setattr(
        ineq, "Params", _B_off_by_one(range(4, 7)))),
    "radial_sobolev_21_gaussian": ("inequalities", lambda mp: _wrap(
        mp, ineq, "radial_sobolev_21", lambda f, u: 1.01 * f(u))),
    "radial_sobolev_210_s1_matches": ("inequalities", lambda mp: _wrap(
        mp, ineq, "radial_sobolev_23", lambda f, u: (1 + 1e-12) * f(u))),
    "radial_sobolev_210_s_half_matches": ("inequalities", lambda mp: _wrap(
        mp, ineq, "radial_sobolev_210",
        lambda f, u, s: (1 + 1e-12) * f(u, s) if s == 0.5 else f(u, s))),
    "hardy_gaussian_below_bound": ("inequalities", lambda mp: _wrap(
        mp, ineq, "hardy_ratio", lambda f, u, q: 2.0 * f(u, q))),
    "divergence_witness_slope": ("inequalities", lambda mp: _wrap(
        mp, ineq, "divergence_witness",
        lambda f, pr, ks: [(k, v * k**0.5) for k, v in f(pr, ks)])),
    "divergence_witness_monotone": ("inequalities", lambda mp: _wrap(
        mp, ineq, "divergence_witness", _flat_last_step)),
    # virial
    "cutoff_invariants_R_sweep": ("virial", lambda mp: _wrap(
        mp, vir, "_tabulate", _zeta_off)),
    "bilaplacian_green_identity": ("virial", lambda mp: _wrap(
        mp, vir, "build_zeta_theta_phi",
        lambda f, R, g: dataclasses.replace(f(R, g), bilap=1.01 * f(R, g).bilap))),
    "vartheta_junction_value": ("virial", lambda mp: _wrap(
        mp, vir, "vartheta", lambda f, rho: (1 + 1e-9) * f(rho))),
    "lemma52_R_independence": ("virial", lambda mp: _wrap(
        mp, vir, "lemma52_check", lambda f, R, pr: R**0.2 * f(R, pr))),
    "lemma53_small_eps": ("virial", lambda mp: _wrap(
        mp, vir, "_lemma53_form",
        lambda f, psi1, psi2, pr, eps: f(psi1, psi2, pr, 1e4 * eps))),
    "lemma53_large_eps_fails": ("virial", lambda mp: _wrap(
        mp, vir, "_lemma53_form",
        lambda f, psi1, psi2, pr, eps: f(psi1, psi2, pr, 1e-4 * eps))),
    "quadratic_equals_16E_mass_critical": ("virial", lambda mp: _wrap(
        mp, verify, "energy", lambda f, u, pr: (1 + 1e-6) * f(u, pr))),
}


def _rows(suite):
    return {row.name: row for row in verify.SUITES[suite]()}


def test_every_row_has_a_fault():
    assert set(FAULTS) == {c["name"] for c in verify.run_suites("all")["checks"]}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_its_row(monkeypatch, name):
    suite, inject = FAULTS[name]
    inject(monkeypatch)
    assert not _rows(suite)[name].passed


def test_green_identity_reads_a_wrong_R_power(monkeypatch):
    # lap^2 phi_R scaled as R^-1 instead of R^-2: the defect is R - 1,
    # largest at R = 8
    _wrap(monkeypatch, vir, "build_zeta_theta_phi",
          lambda f, R, g: dataclasses.replace(f(R, g), bilap=R * f(R, g).bilap))
    assert _rows("virial")["bilaplacian_green_identity"].value == pytest.approx(
        7.0, rel=1e-6)


def test_broken_identity_fails_its_rows(monkeypatch, tmp_path):
    # the exact check raises AssertionError; verify still writes its report
    _wrap(monkeypatch, expo, "_require",
          lambda f, holds, identity: f(holds and identity != "0 < beta < 1",
                                       identity))
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "exponents", "--out", str(out)]) == CHECK_FAILURE
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert {c["name"] for c in failed} == {
        "morawetz_(3,1,4)", "morawetz_(2,1,6)", "beta_below_one_sweep"}
    assert all((c["value"], c["tolerance"]) == (1.0, 0.0) for c in failed)


@pytest.mark.parametrize("suite, module, name, wrong, nan_rows, failed", [
    # a wrong B at N = 3: interpolation_theta raises on the (3,1,4) row
    ("inequalities", ineq, "Params", lambda f, *args: _B_off_by_one({3})(*args),
     {"interpolation_theta_(3,1,4)"}, {"interpolation_identities_random"}),
    # psi_2 off its closed form: every row that builds psi_R raises inside
    ("virial", vir, "psi2_closed_form", lambda f, rho, pr: 1.01 * f(rho, pr),
     {"lemma52_R_independence", "lemma53_small_eps"},
     {"cutoff_invariants_R_sweep", "lemma53_large_eps_fails"}),
])
def test_raising_identity_fails_float_rows(monkeypatch, tmp_path, suite, module,
                                           name, wrong, nan_rows, failed):
    # a float row whose identity raises reads NaN and fails; verify still
    # writes its report, strict JSON with the NaN as null, and exits 1
    _wrap(monkeypatch, module, name, wrong)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", suite, "--out", str(out)]) == CHECK_FAILURE
    rows = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert {n for n, c in rows.items() if not c["pass"]} == nan_rows | failed
    assert all(rows[n]["value"] is None for n in nan_rows)
