"""Conserved quantities, the Weinstein quotient, and dichotomy thresholds.

The weighted Gagliardo-Nirenberg inequality

    int r^b |f|^{p+1}  <=  C (||grad f||^2)^{A/2} (||f||^2)^{B/2}

with A = (N(p-1)-2b)/2 and B = (4+2b-(N-2)(p-1))/2 (``Params.A``, ``Params.B``)
controls everything here: its sharp constant is the supremum of the Weinstein
quotient, attained at the ground state Q, and the global-existence/blow-up
dichotomy compares the scale-invariant products E M^{sigma_c} and
||grad u|| M^{sigma_c/2} of a datum against those of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import (
    Params,
    RadialField,
    RegimeKind,
    classify,
    dot,
    gradient_sq_norm,
    require_finite,
    require_same_N,
    sphere_area,
)

__all__ = [
    "Verdict",
    "ThresholdReport",
    "mass",
    "potential",
    "energy",
    "weinstein",
    "pohozaev_residuals",
    "c_opt_closed_form",
    "threshold_report",
    "energy_drift",
    "grad_mass_energy",
    "dichotomy_products",
]


# ---------------------------------------------------------------------------
# the diagnostics kernel: each formula once, on raw arrays (quadrature
# weights w, samples v, |v| and |v|^2), shared by the public functions
# and by the stepper's per-step record, which neither scans nor wraps its
# state
# ---------------------------------------------------------------------------

def potential_of(w: np.ndarray, rb: np.ndarray, av: np.ndarray, p: float) -> float:
    """int r^b |u|^{p+1} from rb = r^b and av = |u|."""
    return float(dot(w, rb * av ** (p + 1.0)))


def energy_of(grad_sq: float, pot: float, p: float) -> float:
    """E = 1/2 ||grad u||^2 - potential/(p+1)."""
    return 0.5 * grad_sq - pot / (p + 1.0)


def energy_drift(E, E0):
    """The relative energy drift |E - E0|/(|E0| + 1), for a float or an array E."""
    return abs(E - E0) / (abs(E0) + 1.0)


def virial_Vprime_of(N: int, kdphi: np.ndarray, v: np.ndarray) -> float:
    """V'_phi = 2 Im int phi' (d_r u) conj(u) as the scheme's own dV_phi/dt,
    2 sum omega_{N-1} kappa_i (phi_{i+1} - phi_i) Im(conj(u_i) u_{i+1}), from
    the edge weights kdphi = kappa * diff(phi[1:])."""
    flux = np.imag(np.conj(v[1:-1]) * v[2:])
    return 2.0 * sphere_area(N) * float(dot(kdphi, flux))


def mass(u: RadialField) -> float:
    """M(u) = ||u||_{L^2}^2."""
    return require_finite(float(dot(u.grid.weights, np.abs(u.values) ** 2)))


def potential(u: RadialField, params: Params) -> float:
    """The potential term int r^b |u|^{p+1}.  Every public function here
    that takes (u, params) reads the potential, so this is where u's grid
    is checked against params's N."""
    g = u.grid
    require_same_N(g, params)
    return require_finite(
        potential_of(g.weights, g.r**params.b, np.abs(u.values), params.p))


def energy(u: RadialField, params: Params) -> float:
    """E(u) = 1/2 ||grad u||^2 - potential(u)/(p+1); conserved by the flow."""
    return energy_of(gradient_sq_norm(u), potential(u, params), params.p)


def grad_mass_energy(u: RadialField, params: Params) -> tuple[float, float, float]:
    """||grad u||^2, M(u) and E(u), each integral taken once."""
    g = gradient_sq_norm(u)
    return g, mass(u), energy_of(g, potential(u, params), params.p)


def dichotomy_products(grad_sq: float, m: float, E: float,
                       sigma_c: float) -> tuple[float, float]:
    """The scale-invariant products E M^{sigma_c} and ||grad u|| M^{sigma_c/2}
    of a field with ||grad u||^2 = grad_sq, mass m and energy E.  At the
    energy-critical point sigma_c = 0 and they are E and ||grad u||."""
    return E * m**sigma_c, math.sqrt(grad_sq) * m ** (sigma_c / 2.0)


def weinstein(u: RadialField, params: Params) -> float:
    """Scale-invariant quotient potential / [(||grad u||^2)^{A/2} mass^{B/2}]."""
    if u.is_zero:
        raise ValueError("Weinstein quotient is undefined for the zero field")
    g = gradient_sq_norm(u)
    m = mass(u)
    return potential(u, params) / (g ** (params.A / 2.0) * m ** (params.B / 2.0))


def pohozaev_residuals(Q: RadialField, params: Params) -> tuple[float, float]:
    """Relative residuals of the two identities tying ||grad Q||^2 to ||Q||^2
    and to the potential term for solutions of the ground-state equation."""
    if Q.is_zero:
        raise ValueError("Pohozaev residuals are undefined for the zero field")
    if params.sigma_c == 0.0:
        raise ValueError("Pohozaev residuals are undefined in the energy-critical "
                         "regime (B = 0): the mass identity has no ratio A/B")
    g = gradient_sq_norm(Q)
    m = mass(Q)
    pot = potential(Q, params)
    A = params.A
    res1 = abs(g - A / params.B * m) / g
    res2 = abs(g - A / (params.p + 1.0) * pot) / g
    return res1, res2


def c_opt_closed_form(q_stats: tuple[float, float], params: Params) -> float:
    """Sharp GN constant from the ground-state norms:

        C_opt = (p+1)/A * (||grad Q|| ||Q||^{sigma_c})^{2-A}

    Only defined off the mass-critical point (sigma_c finite).
    """
    if not math.isfinite(params.sigma_c):
        raise ValueError(
            "sigma_c is infinite at mass-critical parameters; "
            "use weinstein(Q) for the sharp constant there"
        )
    grad_norm, mass_norm = q_stats
    A = params.A
    return (params.p + 1.0) / A * (grad_norm * mass_norm**params.sigma_c) ** (2.0 - A)


def ground_profile(ground) -> RadialField:
    """The profile of a GroundState, or the field itself."""
    return ground.profile if hasattr(ground, "profile") else ground


class Verdict(Enum):
    GLOBAL_BRANCH = "GlobalBranch"
    BLOWUP_BRANCH = "BlowupBranch"
    ABOVE_THRESHOLD = "AboveThreshold"
    NEGATIVE_ENERGY = "NegativeEnergy"


@dataclass(frozen=True)
class ThresholdReport:
    me_product: float
    grad_product: float
    me_Q: float
    grad_Q: float
    verdict: Verdict


def threshold_report(u0: RadialField, params: Params, ground) -> ThresholdReport:
    """Classify a datum against the ground-state dichotomy thresholds.

    Compares the products E M^{sigma_c} and ||grad u|| ||u||^{sigma_c} against
    the ground state's: Q when intercritical, the algebraic profile W when
    energy-critical (where sigma_c = 0 leaves E and ||grad u||).
    Mass-critical parameters admit only the negative-energy criterion;
    anything else raises.
    """
    Q = ground_profile(ground)
    kind = classify(params).kind
    g0, m0, E0 = grad_mass_energy(u0, params)
    if kind == RegimeKind.MASS_CRITICAL and not E0 < 0:
        raise ValueError(
            "dichotomy thresholds are undefined at mass-critical parameters "
            "(sigma_c = inf); only E(u0) < 0 classifies there"
        )
    if kind not in (RegimeKind.MASS_CRITICAL, RegimeKind.INTERCRITICAL,
                    RegimeKind.ENERGY_CRITICAL):
        raise ValueError(f"threshold comparison needs intercritical or "
                         f"energy-critical parameters, got {kind.value}")

    # sigma_c is infinite at the mass-critical point; its report carries the
    # unscaled E and ||grad u||
    sc = 0.0 if kind == RegimeKind.MASS_CRITICAL else params.sigma_c
    me, gp = dichotomy_products(g0, m0, E0, sc)
    meQ, gQ = dichotomy_products(*grad_mass_energy(Q, params), sc)

    # E0 < 0 forces the gradient product above the ground state's (the
    # coercivity function is positive up to a root beyond it), so negative
    # energy data land in the blow-up branch through the same comparisons;
    # at mass-critical parameters E < 0 is the whole blow-up criterion
    if kind == RegimeKind.MASS_CRITICAL:
        verdict = Verdict.NEGATIVE_ENERGY
    elif me >= meQ and E0 >= 0:
        verdict = Verdict.ABOVE_THRESHOLD
    elif gp < gQ:
        verdict = Verdict.GLOBAL_BRANCH
    else:
        verdict = Verdict.BLOWUP_BRANCH
    return ThresholdReport(
        me_product=me, grad_product=gp, me_Q=meQ, grad_Q=gQ, verdict=verdict
    )
