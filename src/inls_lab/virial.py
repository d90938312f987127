"""Localized virial cutoffs, the virial identity, and blow-up envelopes.

Two cutoff families flatten |x|^2 outside radius R:

* the double-integral family phi_R = R^2 theta(r/R) built from a smooth
  step-down zeta (here a degree-5 smoothstep, fixed for reproducibility),
  with 0 <= phi'' <= 2, phi'/r <= 2, lap phi <= 2N;
* the quintic family psi_R built from the piecewise profile
  vartheta = 2r, then 2[r - (r-1)^5], then a monotone bridge to 0, with
  psi'' <= 2, psi'/r <= 2, lap psi <= 2N.

All derivatives are tabulated from closed forms, so the grid checks probe
the inequalities themselves, not differentiation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    Params,
    RadialField,
    RadialGrid,
    RegimeKind,
    classify,
    grad_sq_edges,
    gradient_sq_norm,
    integrate,
    make_grid,
    radial_derivative,
    require_finite,
    write_csv,
)
from . import functionals
from .functionals import potential

__all__ = [
    "CutoffProfile",
    "build_zeta_theta_phi",
    "build_vartheta_psi",
    "quadratic_cutoff",
    "psi12",
    "psi2_closed_form",
    "lemma52_check",
    "lemma53_check",
    "virial_rhs",
    "virial_V",
    "virial_dynamic_check",
    "fit_envelope_constant",
    "blowup_bound_check",
    "bound_rows_to_csv",
    "BoundRow",
]

_R1 = 1.0 + 5.0 ** (-0.25)  # end of the quintic piece of vartheta
# slack of the grid checks of the cutoff inequalities
_INVARIANT_TOL = 1e-9
# relative energy drift past which a saved state counts as under-resolved
_DRIFT_TOL = 1e-5


@dataclass(frozen=True)
class CutoffProfile:
    R: float
    grid: RadialGrid
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)      # phi'
    d2phi: np.ndarray = field(repr=False)     # phi''
    lap: np.ndarray = field(repr=False)       # lap phi
    bilap: np.ndarray = field(repr=False)     # lap^2 phi

    def phi_over_r(self) -> np.ndarray:
        """phi'(r)/r with its r -> 0 limit phi''(0)."""
        return _over_r(self.dphi, self.d2phi, self.grid.r, np.empty_like(self.dphi))


def _over_r(dphi, d2phi, r, out):
    """phi'/r with its r -> 0 limit phi''(0), written into out (which may be
    dphi itself)."""
    np.divide(dphi[1:], r[1:], out=out[1:])
    out[0] = d2phi[0]
    return out


def _laplacian(f, f1, rho, N):
    """lap phi = phi'' + (N-1) phi'/r of a cutoff with phi'' = f(rho) and
    phi' = R f1(rho), where f1/rho -> f at the origin."""
    lap = np.empty_like(f)
    lap[0] = f[0]
    np.divide(f1[1:], rho[1:], out=lap[1:])
    lap *= N - 1
    lap += f
    return lap


# ---------------------------------------------------------------------------
# smoothstep machinery for the phi_R family
# ---------------------------------------------------------------------------

def _smoothstep(x):
    return 6 * x**5 - 15 * x**4 + 10 * x**3


def _smoothstep_d(x):
    return 30 * x**4 - 60 * x**3 + 30 * x**2


def _smoothstep_dd(x):
    return 120 * x**3 - 180 * x**2 + 60 * x


def _smoothstep_i1(x):
    # integral of smoothstep from 0
    return x**6 - 3 * x**5 + 2.5 * x**4


def _smoothstep_i2(x):
    # double integral of smoothstep from 0
    return x**7 / 7.0 - 0.5 * x**6 + 0.5 * x**5


def _zeta_family(rho):
    """zeta, zeta', zeta'', zeta1 = int zeta, theta = int int zeta at rho."""
    rho = np.asarray(rho, dtype=float)
    mid = (rho > 1.0) & (rho < 2.0)
    hi = rho >= 2.0
    x = np.where(mid, rho - 1.0, 0.0)

    zeta = np.full_like(rho, 2.0)
    zeta[mid] = 2.0 * (1.0 - _smoothstep(x[mid]))
    zeta[hi] = 0.0

    dzeta = np.zeros_like(rho)
    dzeta[mid] = -2.0 * _smoothstep_d(x[mid])

    ddzeta = np.zeros_like(rho)
    ddzeta[mid] = -2.0 * _smoothstep_dd(x[mid])

    zeta1 = 2.0 * rho
    zeta1[mid] = 2.0 + 2.0 * (x[mid] - _smoothstep_i1(x[mid]))
    zeta1[hi] = 3.0

    theta = rho**2
    theta[mid] = 1.0 + 2.0 * x[mid] + x[mid] ** 2 - 2.0 * _smoothstep_i2(x[mid])
    theta[hi] = 26.0 / 7.0 + 3.0 * (rho[hi] - 2.0)
    return zeta, dzeta, ddzeta, zeta1, theta


def _assemble(R, grid, f, df, ddf, f1, theta):
    """Build a CutoffProfile from the generator profile f = phi''(rho)."""
    N = grid.N
    rho = grid.r / R
    n = len(rho)
    phi = R**2 * theta
    dphi = R * f1
    d2phi = f
    lap = _laplacian(f, f1, rho, N)
    # lap^2 phi = (1/R^2) [g'' + (N-1) g'/rho] with g = lap theta; the
    # origin value is 0 exactly (phi = r^2 there)
    rr = rho[1:]
    gp = df[1:] + (N - 1) * (f[1:] * rr - f1[1:]) / rr**2
    gpp = ddf[1:] + (N - 1) * (df[1:] * rr**2 - 2 * f[1:] * rr + 2 * f1[1:]) / rr**3
    bilap = np.zeros(n)
    bilap[1:] = (gpp + (N - 1) * gp / rr) / R**2
    return CutoffProfile(R=R, grid=grid, phi=phi, dphi=dphi, d2phi=d2phi,
                         lap=lap, bilap=bilap)


def build_zeta_theta_phi(R: float, grid: RadialGrid) -> CutoffProfile:
    """The smoothstep cutoff phi_R: equal to r^2 for r <= R, slope-linear
    beyond 2R, with 0 <= phi'' <= 2 throughout."""
    if R <= 0:
        raise ValueError("R must be positive")
    prof = _assemble(R, grid, *_zeta_family(grid.r / R))
    tol = _INVARIANT_TOL
    if (np.any(prof.d2phi > 2.0 + tol) or np.any(prof.d2phi < -tol)
            or np.any(2.0 - prof.phi_over_r() < -tol)
            or np.any(2.0 * grid.N - prof.lap < -tol)):
        raise AssertionError("cutoff invariants violated for PhiR")
    return prof


# ---------------------------------------------------------------------------
# quintic family psi_R
# ---------------------------------------------------------------------------

def vartheta(rho):
    """The piecewise slope profile: 2 rho, then 2[rho - (rho-1)^5], then a
    cubic Hermite bridge down to 0 at rho = 2."""
    return _vartheta_family(rho)[0]


def _bridge(rho):
    """The cubic Hermite bridge h of vartheta from rho = _R1 down to 0 at
    rho = 2: h, h', h'', h''' and the integral of h from _R1, at rho."""
    L = 2.0 - _R1
    h0 = 2.0 * (_R1 - (_R1 - 1.0) ** 5)  # vartheta at the start of the bridge
    s = (rho - _R1) / L
    return (h0 * (2.0 * s**3 - 3.0 * s**2 + 1.0),
            h0 * (6.0 * s**2 - 6.0 * s) / L,
            h0 * (12.0 * s - 6.0) / L**2,
            h0 * 12.0 / L**3,
            h0 * L * (0.5 * s**4 - s**3 + s))


def _pieces(rho):
    """The quintic and bridge masks of the array rho, rho - 1 on the quintic
    and the bridge's h, h', h'', h''' and int h (see _bridge)."""
    quint = (rho > 1.0) & (rho <= _R1)
    bridge = (rho > _R1) & (rho < 2.0)
    return quint, bridge, rho[quint] - 1.0, _bridge(rho[bridge])


def _vartheta_family(rho):
    """vartheta and vartheta', all that psi_1 and psi_2 read; scalars for a
    scalar rho.  _vartheta_higher tabulates the rest of the family."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0:
        return tuple(a[0] for a in _vartheta_family(rho[None]))
    quint, bridge, x, (h, dh, *_) = _pieces(rho)
    hi = rho >= 2.0

    v = 2.0 * rho
    v[quint] = 2.0 * (rho[quint] - x ** 5)
    v[bridge] = h
    v[hi] = 0.0

    dv = np.full_like(rho, 2.0)
    dv[quint] = 2.0 * (1.0 - 5.0 * x ** 4)
    dv[bridge] = dh
    dv[hi] = 0.0
    return v, dv


def _vartheta_higher(rho):
    """vartheta'', vartheta''' and theta = int vartheta at the array rho,
    which only the full profile psi_R reads."""
    quint, bridge, x, (_, _, ddh, dddh, ih) = _pieces(rho)

    ddv = np.zeros_like(rho)
    ddv[quint] = -40.0 * x ** 3
    ddv[bridge] = ddh

    dddv = np.zeros_like(rho)
    dddv[quint] = -120.0 * x ** 2
    dddv[bridge] = dddh

    th = rho**2
    th[quint] = rho[quint] ** 2 - x ** 6 / 3.0
    th_r1 = _R1**2 - (_R1 - 1.0) ** 6 / 3.0
    th[bridge] = th_r1 + ih
    th[rho >= 2.0] = th_r1 + _bridge(2.0)[4]
    return ddv, dddv, th


def _psi_rho(R: float, grid: RadialGrid) -> np.ndarray:
    """rho = r/R on grid, once R and the bridge of vartheta pass their
    checks."""
    if R <= 0:
        raise ValueError("R must be positive")
    # bridge monotonicity is structural for the cubic Hermite; verify anyway
    br = np.linspace(_R1 + 1e-9, 2.0 - 1e-9, 1001)
    if np.any(_bridge(br)[1] >= 0.0):
        raise AssertionError("bridge of vartheta failed to be decreasing")
    return grid.r / R


def _check_psi(d2psi, psi_over_r, lap, N):
    """Raise unless psi'' <= 2, psi'/r <= 2 and lap psi <= 2N on the grid."""
    tol = _INVARIANT_TOL
    if (np.any(d2psi > 2.0 + tol) or np.any(psi_over_r > 2.0 + tol)
            or np.any(lap > 2.0 * N + tol)):
        raise AssertionError("cutoff invariants violated for PsiR")


def build_vartheta_psi(R: float, grid: RadialGrid) -> CutoffProfile:
    """The quintic cutoff psi_R with psi'' <= 2, psi'/r <= 2, lap psi <= 2N."""
    rho = _psi_rho(R, grid)
    v, dv = _vartheta_family(rho)
    ddv, dddv, th = _vartheta_higher(rho)
    # psi'' = vartheta'(rho): generator profile is dv, its derivative ddv
    prof = _assemble(R, grid, dv, ddv, dddv, v, th)
    _check_psi(prof.d2phi, prof.phi_over_r(), prof.lap, grid.N)
    return prof


def quadratic_cutoff(grid: RadialGrid) -> CutoffProfile:
    """The unlocalized weight |x|^2 (virial identity without remainder)."""
    r = grid.r
    return CutoffProfile(
        R=math.inf,
        grid=grid,
        phi=r**2,
        dphi=2.0 * r,
        d2phi=np.full_like(r, 2.0),
        lap=np.full_like(r, 2.0 * grid.N),
        bilap=np.zeros_like(r),
    )


# ---------------------------------------------------------------------------
# the mass-critical auxiliary profiles psi_1, psi_2
# ---------------------------------------------------------------------------

def _mass_critical_p(params: Params) -> float:
    kind = classify(params).kind
    if kind != RegimeKind.MASS_CRITICAL:
        raise ValueError(
            f"psi_1/psi_2 are defined at mass-critical parameters only, got "
            f"{kind.value}"
        )
    return params.p


def psi2_closed_form(rho, params: Params):
    """On the quintic annulus (1, 1+5^{-1/4}]:

        psi_2 = (rho-1)^4 [10(p-1) + 2((N-1)(p-1) - 2b)(1 - 1/rho)].
    """
    p = params.p
    N, b = params.N, params.b
    rho = np.asarray(rho, dtype=float)
    return (rho - 1.0) ** 4 * (
        10.0 * (p - 1.0)
        + 2.0 * ((N - 1) * (p - 1.0) - 2.0 * b) * (1.0 - 1.0 / rho)
    )


def psi12(R: float, params: Params, grid: RadialGrid):
    """psi_1 = 2 - psi_R'' and psi_2 = (4+2b)/N (2N - lap psi) - 2b(2 - psi'/r),
    cross-checked against the closed form on the quintic annulus.

    Builds vartheta and vartheta' alone (psi'' = vartheta'(r/R) and
    psi' = R vartheta(r/R)): besides the grid's r and weights, four
    full-length arrays, rho = r/R, vartheta, vartheta' and lap psi.  rho is
    dropped once lap psi is formed; then vartheta becomes psi'/r, psi_2
    overwrites lap psi and psi_1 overwrites vartheta', each in place.
    build_vartheta_psi's checks run on the same values, and the result is
    the one its profile gives, bit for bit: each in-place step only swaps
    the operands of a product or a sum."""
    _mass_critical_p(params)
    N, b = params.N, params.b
    rho = _psi_rho(R, grid)
    v, dv = _vartheta_family(rho)
    lap = _laplacian(dv, v, rho, grid.N)
    annulus = (rho > 1.0 + 1e-12) & (rho <= _R1)
    rho_annulus = rho[annulus]
    del rho
    v *= R
    por = _over_r(v, dv, grid.r, v)
    _check_psi(dv, por, lap, grid.N)
    psi2 = np.subtract(2.0 * N, lap, out=lap)
    psi2 *= (4.0 + 2.0 * b) / N
    np.subtract(2.0, por, out=por)
    por *= 2.0 * b
    psi2 -= por
    psi1 = np.subtract(2.0, dv, out=dv)
    if rho_annulus.size:
        ref = psi2_closed_form(rho_annulus, params)
        err = np.max(np.abs(psi2[annulus] - ref))
        if err > 1e-8:
            raise AssertionError(
                f"assembled psi_2 deviates from its closed form by {err:.2e}"
            )
    return psi1, psi2


def _lemma_grid(R: float, N: int) -> RadialGrid:
    """Probe grid on [0, 4R] with the R-independent spacing 16/99999 (100000
    points at R = 4 and 199999 at R = 8, the largest grid `verify` builds),
    so an R-sweep samples genuinely different points of the scaled
    profiles."""
    return make_grid(4.0 * R, 16.0 / 99999, N)


def lemma52_check(R: float, params: Params) -> float:
    """sup over r > R of |d_r(psi_2^{1/(p-1)})| R; bounded independently of R."""
    p_star = _mass_critical_p(params)
    if not 0 < params.b < 2 * (params.N - 1):
        raise ValueError("requires 0 < b < 2(N-1)")
    grid = _lemma_grid(R, params.N)
    y = psi12(R, params, grid)[1] ** (1.0 / (p_star - 1.0))
    dy = radial_derivative(y, grid)
    mask = grid.r > R * (1.0 + 1e-9)
    return float(np.max(np.abs(dy[mask])) * R)


def lemma53_check(R: float, params: Params, eps: float) -> tuple[bool, float]:
    """Grid minimum over r > R of 2 psi_1 - [N eps/(2N+4+2b)] psi_2^{N/(2+b)}."""
    _mass_critical_p(params)
    grid = _lemma_grid(R, params.N)
    expr = _lemma53_form(*psi12(R, params, grid), params, eps)
    mask = grid.r > R * (1.0 + 1e-9)
    margin = float(np.min(expr[mask]))
    return margin >= 0.0, margin


def _lemma53_form(psi1: np.ndarray, psi2: np.ndarray, params: Params,
                  eps: float) -> np.ndarray:
    """2 psi_1 - [N eps/(2N+4+2b)] psi_2^{N/(2+b)}."""
    N, b = params.N, params.b
    return 2.0 * psi1 - N * eps / (2.0 * N + 4.0 + 2.0 * b) * psi2 ** (N / (2.0 + b))


# ---------------------------------------------------------------------------
# virial identity evaluation
# ---------------------------------------------------------------------------

def virial_V(u: RadialField, cutoff: CutoffProfile) -> float:
    """V_phi = int phi |u|^2."""
    _check_grid(u, cutoff)
    return require_finite(
        functionals.virial_V_of(u.grid.weights, cutoff.phi, np.abs(u.values) ** 2)
    )


def _check_grid(u: RadialField, cutoff: CutoffProfile):
    if len(u.grid) != len(cutoff.grid) or u.grid.dr != cutoff.grid.dr:
        raise ValueError("cutoff is tabulated on a different grid than the field")


def _edge_weighted_grad_sq(u: RadialField, f: np.ndarray) -> float:
    """int f |d_r u|^2 as the edge sum of grad_sq_edges, each edge weighted
    by the average (f_i + f_{i+1})/2 of its node weights."""
    return require_finite(float(np.dot(0.5 * (f[1:-1] + f[2:]),
                                       grad_sq_edges(u.values, u.grid))))


def virial_rhs(u: RadialField, params: Params, cutoff: CutoffProfile,
               linear_only: bool = False) -> float:
    """The virial identity's right-hand side for radial fields:

        V'' = -int lap^2 phi |u|^2 + 4 int phi'' |d_r u|^2
              - 2(p-1)/(p+1) int lap phi r^b |u|^{p+1}
              + 4/(p+1) int b r^{b-1} phi' |u|^{p+1}.

    With the quadratic weight this collapses to
    8 ||grad u||^2 - 8A/(p+1) potential(u), which equals 16 E(u)
    exactly at mass-critical parameters.  linear_only drops the |u|^{p+1}
    terms (free flow).
    """
    _check_grid(u, cutoff)
    g = u.grid
    b, p = params.b, params.p
    av2 = np.abs(u.values) ** 2
    out = (-integrate(cutoff.bilap * av2, g)
           + 4.0 * _edge_weighted_grad_sq(u, cutoff.d2phi))
    if not linear_only:
        avp1 = np.abs(u.values) ** (p + 1.0)
        rb = g.r**b
        out -= 2.0 * (p - 1.0) / (p + 1.0) * integrate(cutoff.lap * rb * avp1, g)
        # grad phi . grad(r^b) = b r^{b-1} phi'
        rb1 = np.zeros_like(g.r)
        rb1[1:] = g.r[1:] ** (b - 1.0)
        out += 4.0 / (p + 1.0) * integrate(b * rb1 * cutoff.dphi * avp1, g)
    return out


def virial_dynamic_check(states, params: Params, cutoff: CutoffProfile,
                         linear_only: bool = False) -> float:
    """Max relative deviation between the second central difference of
    V(t) = int phi |u|^2 over saved states and the virial right-hand side.

    states: sequence of (t, RadialField) at uniform spacing.  Deviations are
    normalized by the largest |rhs| over the run.
    """
    _require_second_difference(states)
    ts, _, _, d2V, _ = _measured_series(states, cutoff)
    dts = np.diff(ts)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("saved states must be uniformly spaced in time")
    rhs = np.array(
        [virial_rhs(u, params, cutoff, linear_only) for _, u in states[1:-1]]
    )
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        return float(np.max(np.abs(d2V))) if np.any(d2V) else 0.0
    return float(np.max(np.abs(d2V - rhs)) / scale)


# ---------------------------------------------------------------------------
# blow-up envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRow:
    t: float
    V: float
    Vp: float
    Vpp_measured: float
    rhs_bound: float
    slack: float
    num_tol: float  # allowance for the O(dt^2) error of the measured V''

    @property
    def holds(self) -> bool:
        return self.slack >= -self.num_tol


def bound_rows_to_csv(rows, path) -> None:
    """Write envelope rows as CSV: t, V, V', V'' measured, RHS bound, slack."""
    write_csv(path, ("t", "V", "Vp", "Vpp_measured", "rhs_bound", "slack"),
              ((r.t, r.V, r.Vp, r.Vpp_measured, r.rhs_bound, r.slack)
               for r in rows))


def _require_second_difference(states):
    if len(states) < 3:
        raise ValueError("need at least 3 saved states for a second difference")


def _measured_series(states, cutoff):
    ts = np.array([t for t, _ in states])
    dt = float(ts[1] - ts[0])
    V = np.array([virial_V(u, cutoff) for _, u in states])
    Vp = (V[2:] - V[:-2]) / (2.0 * dt)
    Vpp = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / dt**2
    # leading discretization error of the central second difference is
    # dt^2 V'''' / 12; estimate V'''' by fourth differences (edges replicated)
    tol = np.full(len(Vpp), np.nan)
    if len(V) >= 5:
        v4 = (V[:-4] - 4 * V[1:-3] + 6 * V[2:-2] - 4 * V[3:-1] + V[4:]) / dt**4
        tol[1:-1] = np.abs(v4)
        tol[0] = tol[1]
        tol[-1] = tol[-2]
    else:
        tol[:] = 0.0
    tol = 1.5 * dt**2 * tol / 12.0 + 1e-9 * (1.0 + np.abs(Vpp))
    return ts, V, Vp, Vpp, tol


def _resolved_mask(E: np.ndarray) -> np.ndarray:
    """Samples whose energy E drifts within _DRIFT_TOL of E[0].

    A fixed grid cannot follow the focusing core; once the recorded energy
    drifts, the state (and any V'' stencil touching it) no longer represents
    the PDE solution and is excluded from envelope checks.
    """
    return functionals.energy_drift(E, E[0]) <= _DRIFT_TOL


def _remainder_scale(kind: RegimeKind, params: Params, R: float, eps: float,
                     grad_sq: float | np.ndarray) -> float | np.ndarray:
    """The R-decay profile multiplying the fitted absolute constant in the
    envelope regime kind, at gradient norm(s) grad_sq."""
    N, b, p = params.N, params.b, params.p
    if kind == RegimeKind.MASS_CRITICAL:
        kappa = (2.0 + b) / (2.0 * (N - 1) - b)
        return (1.0 + eps + eps ** (-kappa)) * R**-2
    if kind == RegimeKind.INTERCRITICAL:
        gamma = (N - 1) * (p - 1.0) / 2.0 - b
    else:
        gamma = (2.0 + b) * (N - 1) / (N - 2.0) - b
    if p == 5.0:
        return R**-2 + R ** (-(2.0 * (N - 1) - b)) * grad_sq
    return R**-2 + R**-gamma * (grad_sq + 1.0)


def _leading_terms(kind: RegimeKind, fields, params: Params, E0: float,
                   grad_sq: np.ndarray, pot: np.ndarray, cutoff: CutoffProfile,
                   eps: float) -> np.ndarray:
    """The leading terms of the bound at each of fields, whose gradient norms
    and potentials are grad_sq and pot, in the envelope regime kind."""
    if kind == RegimeKind.MASS_CRITICAL:
        # 16 E0 plus the computable gradient tail of the mass-critical estimate,
        # -2 int_{r>R} (2 psi_1 - N eps/(2N+4+2b) psi_2^{N/(2+b)}) |grad u|^2
        form = _lemma53_form(*psi12(cutoff.R, params, cutoff.grid), params, eps)
        tail = np.where(cutoff.grid.r > cutoff.R, form, 0.0)
        return np.array([16.0 * E0 - 2.0 * _edge_weighted_grad_sq(u, tail)
                         for u in fields])
    if kind == RegimeKind.INTERCRITICAL:
        return 8.0 * grad_sq - 8.0 * params.A / (params.p + 1.0) * pot
    return 8.0 * grad_sq - 8.0 * pot


def _resolved_stencils(states, params: Params, R: float, eps: float):
    """The measured series of V = int psi_R |u|^2 and, for each V'' stencil
    lying entirely inside the resolved window, (i, t, leading terms,
    remainder scale) at its centre state i + 1."""
    _require_second_difference(states)
    grid = states[0][1].grid
    kind = classify(params).kind
    if kind not in (RegimeKind.MASS_CRITICAL, RegimeKind.INTERCRITICAL,
                    RegimeKind.ENERGY_CRITICAL):
        raise ValueError(f"no blow-up envelope in regime {kind.value}")
    cutoff = build_vartheta_psi(R, grid)
    series = _measured_series(states, cutoff)
    # each state's gradient norm and potential, once: its energy, E0 and
    # the remainder scale all derive from them
    grad_sq = np.array([gradient_sq_norm(u) for _, u in states])
    pot = np.array([potential(u, params) for _, u in states])
    E = functionals.energy_of(grad_sq, pot, params.p)
    resolved = _resolved_mask(E)
    # stencil i spans states i, i+1, i+2
    centre = np.flatnonzero(resolved[:-2] & resolved[1:-1] & resolved[2:]) + 1
    lead = _leading_terms(kind, [states[j][1] for j in centre], params, E[0],
                          grad_sq[centre], pot[centre], cutoff, eps)
    scale = np.broadcast_to(
        _remainder_scale(kind, params, R, eps, grad_sq[centre]), centre.shape)
    return series, list(zip((centre - 1).tolist(), series[0][centre],
                            lead.tolist(), scale.tolist()))


def fit_envelope_constant(states, params: Params, R: float, eps: float) -> float:
    """Calibrate the absolute remainder constant of the localized virial
    bound on a reference run: the smallest C making the bound hold with 5%
    headroom at every resolved sample.  Raises ValueError for fewer than 3
    states or when no V'' stencil is resolved: no sample, no constant."""
    (_, _, _, Vpp, _), stencils = _resolved_stencils(states, params, R, eps)
    if not stencils:
        raise ValueError("no V'' stencil lies inside the resolved window: "
                         "nothing to calibrate on")
    c_needed = 0.0
    for i, _, lead, scale in stencils:
        c_needed = max(c_needed, (Vpp[i] - lead) / scale)
    return 1.05 * max(c_needed, 1e-6)


def blowup_bound_check(states, params: Params, R: float, eps: float,
                       C_envelope: float) -> list[BoundRow]:
    """Evaluate the localized virial bound along a run.

    Checks V''(t), measured by second central differences of the weighted
    mass, against the regime's bound: the mass-critical form keeps the
    computable gradient-tail term and the fitted remainder C (1+eps+eps^-k)/R^2;
    the intercritical and energy-critical forms bound by the full-space
    leading terms plus fitted R-decay remainders.  Rows are emitted only for
    V'' stencils lying entirely inside the resolved window (energy drift
    within _DRIFT_TOL): past that point the state no longer approximates the
    PDE solution, so a run without one gives no rows.  Raises ValueError for
    fewer than 3 states.
    """
    (_, V, Vp, Vpp, tol), stencils = _resolved_stencils(states, params, R, eps)
    rows = []
    interior = range(1, len(states) - 3)  # rows with a genuine V'''' estimate
    for i, t, lead, scale in stencils:
        if i not in interior:
            continue
        rhs = lead + C_envelope * scale
        rows.append(
            BoundRow(
                t=float(t),
                V=float(V[i + 1]),
                Vp=float(Vp[i]),
                Vpp_measured=float(Vpp[i]),
                rhs_bound=float(rhs),
                slack=float(rhs - Vpp[i]),
                num_tol=float(tol[i]),
            )
        )
    return rows
