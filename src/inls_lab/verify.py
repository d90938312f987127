"""Self-contained check suites behind the `verify` command.

Each check row carries the equation or lemma tag it exercises, a pass flag,
the measured value, and the tolerance it was held to.  Suites are
deterministic: fixed seeds, fixed iteration order, no wall-clock inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .grids import Params, RadialField, blocks, integrate, make_grid
from . import exponents as expo
from . import inequalities as ineq
from . import virial as vir
from .functionals import energy

__all__ = ["CheckRow", "suite_exponents", "suite_inequalities", "suite_virial",
           "run_suites", "SUITES"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    paper_ref: str
    passed: bool
    value: float
    tolerance: float

    def as_json(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _row(name, ref, value, tol, ok=None) -> CheckRow:
    if ok is None:
        ok = abs(value) <= tol
    return CheckRow(name=name, paper_ref=ref, passed=bool(ok),
                    value=float(value), tolerance=float(tol))


def _measured(name, ref, measure, tol, holds=None) -> CheckRow:
    """A float check of value = measure(): |value| <= tol, or holds(value)
    when given.  An AssertionError from an identity measure() evaluates
    fails the row with value NaN: nothing was measured."""
    try:
        value = measure()
    except AssertionError:
        value = math.nan
    return _row(name, ref, value, tol, ok=None if holds is None else holds(value))


def _exact(name, ref, check) -> CheckRow:
    """An exact check: value 0 when check() holds, 1 when it fails, including
    by an AssertionError from an identity it evaluates."""
    try:
        ok = bool(check())
    except AssertionError:
        ok = False
    return _row(name, ref, 0.0 if ok else 1.0, 0.0, ok=ok)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def suite_exponents() -> list[CheckRow]:
    rows = []
    rows.append(_exact("worked_triple_qrkm", "Eq. (4.23)",
                       lambda: expo.scattering_exponents(Fraction(2), 3)
                       == (Fraction(8, 3), Fraction(4), Fraction(8), Fraction(8, 5))))
    rows.append(_exact("worked_triple_l_delta", "Eq. (4.28)",
                       lambda: expo.auxiliary_exponents(Fraction(2), 3)
                       == (Fraction(12, 5), Fraction(1, 2))))
    rows.append(_exact("admissible_endpoint", "Def 3.1",
                       lambda: expo.admissible_check(None, Fraction(2), 3)))

    rng = random.Random(20240803)
    failures = 0
    for _ in range(1000):
        N = rng.randint(2, 6)
        lo, hi = expo.scattering_alpha_window(N)
        if hi is None:
            alpha = lo + Fraction(rng.randint(1, 2000), rng.randint(1, 200))
        else:
            alpha = lo + (hi - lo) * Fraction(rng.randint(1, 999), 1000)
        # auxiliary_exponents builds (q, r, k, m) and requires every identity
        # of both tuples exactly, so a sample fails only by raising
        try:
            expo.auxiliary_exponents(alpha, N)
        except (ValueError, AssertionError):
            failures += 1
    rows.append(_row("rational_sweep_1000", "Eq. (4.1); Def 3.1", failures, 0.0))

    rows.append(_exact("morawetz_(3,1,4)", "Eq. (4.18); Eq. (4.22)",
                       lambda: expo.morawetz_beta(Params(3, 1, 4))
                       == (Fraction(2), Fraction(1, 3))))
    rows.append(_exact("morawetz_(2,1,6)", "Eq. (4.18)",
                       lambda: expo.morawetz_beta(Params(2, 1, 6))
                       == (Fraction(3), Fraction(2, 5))))
    rows.append(_exact("beta_below_one_sweep", "Eq. (4.18)", lambda: all(
        0 < expo.morawetz_beta(Params(3, 1, 10 / 3 + i * 0.4))[1] < 1
        for i in range(1, 40))))
    rows.append(_exact("dispersive_choice_(2,3)", "Eq. (4.32); Eq. (4.33)",
                       lambda: expo.dispersive_n_feasible(Fraction(2), 3)
                       == expo.DispersiveReport(True, n=None, theta=Fraction(3, 5))))
    rows.append(_exact("dispersive_boundary_excluded", "Eq. (4.32)",
                       lambda: not expo.dispersive_n_feasible(Fraction(4, 3), 3).feasible))
    return rows


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def suite_inequalities() -> list[CheckRow]:
    rows = []
    rows.append(_measured("interpolation_theta_(3,1,4)", "Lemma 2.4",
                          lambda: ineq.interpolation_theta(Params(3, 1, 4)) - 0.6,
                          1e-15))

    rng = random.Random(7121)
    bad = 0
    for _ in range(100):
        N = rng.randint(3, 6)
        # dyadic rationals survive the float round trip exactly
        b = Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 4))
        # the window's ends depend on N and b alone, not on the 2 given as p
        ends = Params(N, b, Fraction(2))
        lowp, highp = ends.lwp_lower_p, ends.energy_critical_p
        t = Fraction(rng.randint(1, 255), 256)
        p = lowp + (highp - lowp) * t
        try:
            ineq.interpolation_theta(Params(N, float(b), float(p)))
        except (ValueError, AssertionError):
            bad += 1
    rows.append(_row("interpolation_identities_random", "Lemma 2.4", bad, 0.0))

    g = make_grid(8.0, 1e-3, 3)
    f = RadialField(g, np.exp(-g.r**2))
    val = ineq.radial_sobolev_21(f)
    ref = (1 / math.sqrt(2)) * math.exp(-0.5) / (
        (1.5 * math.pi * math.sqrt(math.pi / 2)) ** 0.25
        * ((math.pi / 2) ** 1.5) ** 0.25
    )
    rows.append(_row("radial_sobolev_21_gaussian", "Eq. (2.1)", val - ref, 1e-4))
    rows.append(_row("radial_sobolev_210_s1_matches", "Eq. (2.10)",
                     ineq.radial_sobolev_210(f, 1.0) - ineq.radial_sobolev_23(f),
                     1e-15))
    rows.append(_row("radial_sobolev_210_s_half_matches", "Eq. (2.10)",
                     ineq.radial_sobolev_210(f, 0.5) - ineq.radial_sobolev_21(f),
                     1e-15))

    hr = ineq.hardy_ratio(f, 2.0)
    rows.append(_row("hardy_gaussian_below_bound", "Eq. (3.4)", hr, 2.0 + 1e-6,
                     ok=hr <= 2.0 + 1e-6))

    pairs = ineq.divergence_witness(Params(2, 2, 2), [8, 16, 32, 64])
    slope = ineq.witness_slope(pairs)
    rows.append(_row("divergence_witness_slope", "Lemma 2.5",
                     (slope - 1.5) / 1.5, 0.05))
    rows.append(_exact("divergence_witness_monotone", "Lemma 2.5",
                       lambda: all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))))
    return rows


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def _cutoff_grid(R: float):
    """The R-sweep's grid: 100000 points on [0, 4R]."""
    return make_grid(4.0 * R, 4.0 * R / 99999, 3)


def _green_defect(R: float, g) -> float:
    """Relative defect of Green's identity int lap^2 phi_R f = int lap phi_R lap f
    for f = exp(-a r^2), a = 2/R^2, whose lap f = (4a^2 r^2 - 2aN) f is
    closed-form.  f is e^{-32} at the grid's end r = 4R, so no boundary
    term enters, and a wrong factor anywhere in the tabulated lap^2 phi_R
    shows up as a defect.  phi_R is built one block of g at a time."""
    a = 2.0 / R**2
    lhs = rhs = 0.0
    for blk in blocks(len(g)):
        phi = vir.build_zeta_theta_phi(R, g, blk)
        r = g.r[blk]
        f = np.exp(-a * r**2)
        lhs += integrate(phi.bilap * f, g, blk)
        rhs += integrate(phi.lap * (4.0 * a * a * r**2 - 2.0 * a * g.N) * f, g, blk)
    return abs(lhs - rhs) / abs(rhs)


def suite_virial() -> list[CheckRow]:
    rows = []
    pr = Params(3, 1, 3)
    bad, green = 0, 0.0
    for R in (1.0, 2.0, 4.0, 8.0):
        g = _cutoff_grid(R)
        defect = 1.0  # stands when phi_R fails its invariants
        try:
            defect = _green_defect(R, g)
            for blk in blocks(len(g)):
                vir.psi12(R, pr, g, blk)  # builds psi_R and checks its invariants
        except AssertionError:
            bad += 1
        green = max(green, defect)
    del g  # so that the Lemma 5.2 scan's grid is the only one alive
    rows.append(_row("cutoff_invariants_R_sweep", "Eq. (4.8); Eq. (5.1); Eq. (5.5)",
                     bad, 0.0))
    rows.append(_row("bilaplacian_green_identity", "Lemma 4.4", green, 1e-6))

    v_r1 = float(vir.vartheta(np.array([vir._R1]))[0])
    ref = 2.0 * (1 + 5 ** -0.25 - 5 ** -1.25)
    rows.append(_row("vartheta_junction_value", "Eq. (5.1)", v_r1 - ref, 1e-12))

    def spread52():
        sups = [vir.lemma52_check(R, pr) for R in (1.0, 2.0, 4.0, 8.0)]
        return (max(sups) - min(sups)) / max(sups)

    rows.append(_measured("lemma52_R_independence", "Lemma 5.2 / Eq. (5.4)",
                          spread52, 0.10))

    rows.append(_measured("lemma53_small_eps", "Lemma 5.3 / Eq. (5.6)",
                          lambda: vir.lemma53_check(1.0, pr, 1e-3)[1], 0.0,
                          holds=lambda margin: margin >= 0.0))
    rows.append(_exact("lemma53_large_eps_fails", "Lemma 5.3",
                       lambda: not vir.lemma53_check(1.0, pr, 10.0)[0]))

    g = make_grid(8.0, 1e-3, 3)
    u = RadialField(
        g,
        np.exp(-g.r**2) * (1 + 0.3 * np.sin(3 * g.r))
        + 0.2j * np.exp(-0.5 * (g.r - 2) ** 2),
    )
    cut = vir.quadratic_cutoff(g)
    rhs = vir.virial_rhs(u, pr, cut)
    e16 = 16.0 * energy(u, pr)
    rows.append(_row("quadratic_equals_16E_mass_critical", "Eq. (1.9)",
                     (rhs - e16) / abs(e16), 1e-10))
    return rows


SUITES = {
    "exponents": suite_exponents,
    "inequalities": suite_inequalities,
    "virial": suite_virial,
}


def run_suites(which: str = "all") -> dict:
    """Run the named suite (or all of them) and assemble the JSON report."""
    names = list(SUITES) if which == "all" else [which]
    checks = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
        checks.extend(SUITES[name]())
    return {
        "suite": which,
        "checks": [c.as_json() for c in checks],
        "all_pass": all(c.passed for c in checks),
    }
