"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite (including the shared session fixtures it triggers)
completes in a few minutes on a laptop.
"""

import math
import random
from fractions import Fraction as F

import numpy as np

from inls_lab.grids import (
    Params,
    RadialField,
    gradient_sq_norm,
    integrate,
    make_grid,
)
from inls_lab.functionals import (
    c_opt_closed_form,
    energy,
    mass,
    pohozaev_residuals,
    threshold_report,
    weinstein,
)
from inls_lab import exponents as expo
from inls_lab import inequalities as ineq
from inls_lab import virial as vir
from inls_lab.evolution import RunStatus
from inls_lab.ground_state import W_prime, W_value, explicit_W, uniqueness_constants

from conftest import P214, P313, P314, P425, lumped_laplacian


def _report(num: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_1_pohozaev(q314, q214, q313):
    ok = True
    for gs, pr in ((q314, P314), (q214, P214), (q313, P313)):
        r1, r2 = pohozaev_residuals(gs.profile, pr)
        ok = ok and r1 < 1e-4 and r2 < 1e-4
    ratio = gradient_sq_norm(q314.profile) / mass(q314.profile)
    ok = ok and abs(ratio - 7.0 / 3.0) < 1e-4
    _report(1, "Pohozaev identities at (3,1,4), (2,1,4), (3,1,3); "
               "grad/mass ratio 7/3", ok)


def test_criterion_2_sharp_constant(q314):
    gq = math.sqrt(gradient_sq_norm(q314.profile))
    mq = math.sqrt(mass(q314.profile))
    c = c_opt_closed_form((gq, mq), P314)
    w = weinstein(q314.profile, P314)
    ok = abs(w - c) / c < 1e-4

    ratio_q = ineq.gn_check(q314.profile, P314, c)
    ok = ok and abs(ratio_q - 1.0) < 1e-4

    g = q314.profile.grid
    rng = np.random.default_rng(20240809)
    for _ in range(50):
        vals = np.zeros(len(g))
        for _ in range(int(rng.integers(1, 4))):
            vals += rng.uniform(0.1, 3.0) * np.exp(
                -((g.r - rng.uniform(0.0, 6.0)) ** 2) / rng.uniform(0.3, 2.0) ** 2
            )
        ratio = ineq.gn_check(RadialField(g, vals), P314, c)
        ok = ok and ratio <= 1.0 + 1e-6 and ratio < 1.0 - 1e-4
    _report(2, "sharp constant: weinstein(Q) = closed form; 50 random "
               "profiles below saturation", ok)


def test_criterion_3_energy_critical_closed_forms():
    g = make_grid(12.0, 1e-3, 4)
    W = explicit_W(P425, g)
    lap = lumped_laplacian(W.values.real, g)
    resid = np.abs(lap + g.r**2 * np.real(W.values) ** 5)
    window = (g.r >= 0.1) & (g.r <= 10.0)
    ok = resid[window].max() < 1e-5

    big = make_grid(2000.0, 2e-2, 4)
    w = W_value(big.r, 4, 2.0)
    dw = W_prime(big.r, 4, 2.0)
    pot = integrate(big.r**2 * w**6, big)
    grad_sq = integrate(dw**2, big)
    ok = ok and abs(pot - grad_sq) / grad_sq < 1e-5
    EW = 0.5 * grad_sq - pot / 6.0
    ok = ok and abs(EW - grad_sq / 3.0) / (grad_sq / 3.0) < 1e-5
    _report(3, "energy-critical: (1.13) residual < 1e-5; identities "
               "(5.11), (5.12) within 1e-5", ok)


def test_criterion_4_uniqueness_conditions():
    # the crossing k = sqrt(30)/14, squared: 30/196 = 15/98
    ok = uniqueness_constants(P314) == (F(4, 7), F(30, 343), F(30, 14**2))
    ok = ok and uniqueness_constants(P214) == (F(1, 7), F(-54, 343), F(0))
    _report(4, "uniqueness constants, exact: C = 4/7, D = 30/343, "
               "k^2 = 15/98 (crossing sqrt(30)/14); N = 2 branch D = -54/343, "
               "k = 0", ok)


def test_criterion_5_exponent_identities():
    ok = expo.scattering_exponents(F(2), 3) == (F(8, 3), F(4), F(8), F(8, 5))
    ok = ok and expo.auxiliary_exponents(F(2), 3) == (F(12, 5), F(1, 2))
    rng = random.Random(12345)
    for _ in range(1000):
        N = rng.randint(2, 6)
        lo, hi = expo.scattering_alpha_window(N)
        if hi is None:
            alpha = lo + F(rng.randint(1, 4000), rng.randint(1, 500))
        else:
            alpha = lo + (hi - lo) * F(rng.randint(1, 999), 1000)
        q, r, k, m = expo.scattering_exponents(alpha, N)
        l, d = expo.auxiliary_exponents(alpha, N)
        ok = ok and 1 / k + 1 / m == 2 / q and k > q / 2
        ok = ok and expo.admissible_check(q, r, N)
        ok = ok and expo.admissible_check(k, l, N)
        if not ok:
            break
    _report(5, "exponent identities: worked sextuple and 1000 exact "
               "rational samples", ok)


def test_criterion_6_divergence_witness():
    pairs = ineq.divergence_witness(Params(2, 2.0, 2.0), [8, 16, 32, 64])
    slope = ineq.witness_slope(pairs)
    ok = abs(slope - 1.5) / 1.5 < 0.05
    _report(6, f"divergence witness slope {slope:.4f} vs 3/2 within 5%", ok)


def test_criterion_7_conservation_and_order(gauss_run, gauss_finals):
    m = np.asarray(gauss_run.diagnostics.mass)
    ok = np.max(np.abs(m - m[0])) / m[0] < 1e-10
    ok = ok and gauss_run.outcome.energy_drift_max < 1e-4

    e1 = np.abs(gauss_finals[2e-3] - gauss_finals[5e-4]).max()
    e2 = np.abs(gauss_finals[1e-3] - gauss_finals[5e-4]).max()
    ok = ok and e1 / e2 >= 3.5
    _report(7, f"mass drift < 1e-10, energy drift < 1e-4, dt-halving "
               f"ratio {e1 / e2:.2f} >= 3.5", ok)


def test_criterion_8_virial_identities(half_q_saved):
    g = make_grid(8.0, 1e-3, 3)
    u = RadialField(
        g,
        np.exp(-g.r**2) * (1 + 0.3 * np.sin(3 * g.r))
        + 0.2j * np.exp(-0.5 * (g.r - 2) ** 2),
    )
    cut = vir.quadratic_cutoff(g)
    rhs = vir.virial_rhs(u, P313, cut)
    ok = abs(rhs - 16.0 * energy(u, P313)) / abs(16.0 * energy(u, P313)) < 1e-10

    cut_evo = vir.quadratic_cutoff(half_q_saved.states[0][1].grid)
    dev_coarse = vir.virial_dynamic_check(half_q_saved.states[::2], P314,
                                          cut_evo)
    dev_fine = vir.virial_dynamic_check(half_q_saved.states, P314, cut_evo)
    ok = ok and dev_coarse < 2e-2 and dev_fine < 1e-2
    _report(8, f"quadratic virial = 16E to 1e-10; dynamic deviations "
               f"{dev_coarse:.2e} < 2e-2 and {dev_fine:.2e} < 1e-2", ok)


def test_criterion_9_dichotomy(q314, q313, evo_grid, global_runs,
                               blowup_runs_mc, blowup_runs_ic):
    gq = math.sqrt(gradient_sq_norm(q314.profile))
    mq = math.sqrt(mass(q314.profile))
    thresh = gq * mq**P314.sigma_c

    ok = True
    verdicts = {}
    for c, res in global_runs.items():
        ok = ok and res.outcome.status == RunStatus.COMPLETED_GLOBAL
        d = res.diagnostics
        ok = ok and all(
            math.sqrt(gs) * m ** (P314.sigma_c / 2.0) < thresh
            for gs, m in zip(d.grad_sq, d.mass)
        )
        u0 = RadialField(evo_grid,
                         (c * q314.resample(evo_grid).values).astype(complex))
        verdicts[c] = threshold_report(u0, P314, q314).verdict.value

    for c in (1.2, 1.5):
        ok = ok and blowup_runs_mc[c].outcome.status == RunStatus.BLOWUP_DETECTED
        ok = ok and blowup_runs_mc[c].outcome.t_final < 2.0
        ok = ok and blowup_runs_ic[c].outcome.status == RunStatus.BLOWUP_DETECTED
        ok = ok and blowup_runs_ic[c].outcome.t_final < 2.0
        u0 = RadialField(evo_grid,
                         (c * q314.resample(evo_grid).values).astype(complex))
        verdicts[c] = threshold_report(u0, P314, q314).verdict.value

    agreement = {
        0.3: "GlobalBranch", 0.5: "GlobalBranch", 0.8: "GlobalBranch",
        1.2: "BlowupBranch", 1.5: "BlowupBranch",
    }
    ok = ok and verdicts == agreement

    # mass-critical pair classifies by negative energy alone
    for c in (1.2, 1.5):
        u0 = RadialField(evo_grid,
                         (c * q313.resample(evo_grid).values).astype(complex))
        rep = threshold_report(u0, P313, q313)
        ok = ok and rep.verdict.value == "NegativeEnergy"

    # localized virial envelopes, calibrated on the 1.6 amplitude
    C_mc = vir.fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
    for c in (1.2, 1.5):
        rows = vir.blowup_bound_check(blowup_runs_mc[c].states, P313, 32.0,
                                      0.1, C_mc)
        ok = ok and len(rows) > 0 and all(r.holds for r in rows)
    C_ic = vir.fit_envelope_constant(blowup_runs_ic[1.6].states, P314, 32.0, 0.1)
    for c in (1.2, 1.5):
        rows = vir.blowup_bound_check(blowup_runs_ic[c].states, P314, 32.0,
                                      0.1, C_ic)
        ok = ok and len(rows) > 0 and all(r.holds for r in rows)
    _report(9, "dichotomy: global sweep with bound (4.9), four blow-up "
               "runs before t = 2 with envelopes, verdict agreement", ok)


def test_criterion_10_cutoff_invariants():
    ok = True
    for R in (1.0, 2.0, 4.0, 8.0):
        g = make_grid(4.0 * R, 4.0 * R / 99999, 3)
        try:
            vir.build_zeta_theta_phi(R, g)
            vir.build_vartheta_psi(R, g)
            vir.psi12(R, P313, g)
        except AssertionError:
            ok = False
    sups = [vir.lemma52_check(R, P313) for R in (1.0, 2.0, 4.0, 8.0)]
    ok = ok and (max(sups) - min(sups)) / max(sups) < 0.10
    for R in (1.0, 2.0, 4.0, 8.0):
        holds, _ = vir.lemma53_check(R, P313, 1e-3)
        ok = ok and holds
    _report(10, "cutoff invariants and Lemma 5.2/5.3 grid checks for "
                "R in {1,2,4,8}", ok)
