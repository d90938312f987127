"""Localized virial cutoffs, the virial identity, and blow-up envelopes.

Two cutoff families flatten |x|^2 outside radius R:

* the double-integral family phi_R = R^2 theta(r/R) built from a smooth
  step-down zeta (here a degree-5 smoothstep, fixed for reproducibility),
  with 0 <= phi'' <= 2, phi'/r <= 2, lap phi <= 2N;
* the quintic family psi_R built from the piecewise profile
  vartheta = 2r, then 2[r - (r-1)^5], then a monotone bridge to 0, with
  psi'' <= 2, psi'/r <= 2, lap psi <= 2N.

Both are R^2 theta(r/R) with theta = rho^2 on rho <= 1, so a family is a
table of the pieces beyond that: (mask, values) pairs whose values give
theta and its first four derivatives in closed form on the mask's slice of
rho.  One tabulator (``_tabulate``) lays the pieces over the inner piece,
for just the derivative orders a caller reads; one builder (``_cutoff``)
serves both families, on the whole grid or one block of it, and ends in
the one check (``_check_cutoff``) of either family's inequalities.  As no
derivative is taken numerically, the grid checks probe the inequalities
themselves, not differentiation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .grids import (
    Params,
    RadialField,
    RadialGrid,
    RegimeKind,
    blocks,
    classify,
    dot,
    grad_sq_edges,
    gradient_sq_norm,
    integrate,
    make_grid,
    radial_derivative,
    require_finite,
    require_same_N,
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
    """A cutoff and its derivatives at grid.r[block], the whole grid unless
    a block of it is given."""
    R: float
    grid: RadialGrid
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)      # phi'
    d2phi: np.ndarray = field(repr=False)     # phi''
    lap: np.ndarray = field(repr=False)       # lap phi
    bilap: np.ndarray = field(repr=False)     # lap^2 phi
    block: slice = field(default_factory=lambda: slice(None))

    def phi_over_r(self) -> np.ndarray:
        """phi'(r)/r with its r -> 0 limit phi''(0)."""
        return _over_r(self.dphi, self.d2phi, self.grid.r[self.block])


def _off_origin(r):
    """r[1:] if r, a slice of a grid's r, starts at the origin, else r[:]."""
    return slice(int(r[0] == 0.0), None)


def _over_r(dphi, d2phi, r):
    """phi'/r with its r -> 0 limit phi''(0), in a new array."""
    s = _off_origin(r)
    out = np.empty_like(dphi)
    np.divide(dphi[s], r[s], out=out[s])
    out[:s.start] = d2phi[:s.start]
    return out


def _laplacian(f, f1, rho, N):
    """lap phi = phi'' + (N-1) phi'/r of a cutoff with phi'' = f(rho) and
    phi' = R f1(rho), where f1/rho -> f at the origin."""
    return (N - 1) * _over_r(f1, f, rho) + f


# ---------------------------------------------------------------------------
# the piece tables of the two families
# ---------------------------------------------------------------------------

def _phi_step(rho):
    """theta on 1 < rho < 2 of phi_R, whose phi'' = zeta = 2[1 - S(x)] steps
    from 2 down to 0 by the degree-5 smoothstep S = 6x^5 - 15x^4 + 10x^3,
    x = rho - 1: theta' = 2 + 2[x - int S] and theta = (1 + x)^2 - 2 int int S,
    the integrals taken from x = 0."""
    x = rho - 1.0
    return (1.0 + 2.0 * x + x ** 2 - 2.0 * (x**7 / 7.0 - 0.5 * x**6 + 0.5 * x**5),
            2.0 + 2.0 * (x - (x**6 - 3 * x**5 + 2.5 * x**4)),
            2.0 * (1.0 - (6 * x**5 - 15 * x**4 + 10 * x**3)),
            -2.0 * (30 * x**4 - 60 * x**3 + 30 * x**2),
            -2.0 * (120 * x**3 - 180 * x**2 + 60 * x))


def _psi_quintic(rho):
    """theta on 1 < rho <= _R1 of psi_R: vartheta = theta' = 2[rho - (rho-1)^5]."""
    x = rho - 1.0
    return (rho ** 2 - x ** 6 / 3.0, 2.0 * (rho - x ** 5),
            2.0 * (1.0 - 5.0 * x ** 4), -40.0 * x ** 3, -120.0 * x ** 2)


_L = 2.0 - _R1  # length of the bridge
_H0 = 2.0 * (_R1 - (_R1 - 1.0) ** 5)  # vartheta at the start of the bridge
_TH_R1 = _R1**2 - (_R1 - 1.0) ** 6 / 3.0  # theta at the start of the bridge


def _psi_bridge(rho):
    """theta on _R1 < rho < 2 of psi_R: vartheta is the cubic Hermite bridge
    from _H0 down to 0 at rho = 2, flat at both ends."""
    s = (rho - _R1) / _L
    return (_TH_R1 + _H0 * _L * (0.5 * s**4 - s**3 + s),
            _H0 * (2.0 * s**3 - 3.0 * s**2 + 1.0),
            _H0 * (6.0 * s**2 - 6.0 * s) / _L,
            _H0 * (12.0 * s - 6.0) / _L**2,
            _H0 * 12.0 / _L**3)


# bridge monotonicity is structural for the cubic Hermite; verify it once
if np.any(_psi_bridge(np.linspace(_R1 + 1e-9, 2.0 - 1e-9, 1001))[2] >= 0.0):
    raise AssertionError("bridge of vartheta failed to be decreasing")

# A family writes its cutoff as R^2 theta(r/R): the common inner piece
# theta = rho^2 on rho <= 1, then a table of (mask, values) pieces, where
# values(rho[mask]) gives theta and its first four derivatives.
_PHI_TABLE = (
    (lambda rho: (rho > 1.0) & (rho < 2.0), _phi_step),
    (lambda rho: rho >= 2.0,
     lambda rho: (26.0 / 7.0 + 3.0 * (rho - 2.0), 3.0, 0.0, 0.0, 0.0)),
)
_PSI_TABLE = (
    (lambda rho: (rho > 1.0) & (rho <= _R1), _psi_quintic),
    (lambda rho: (rho > _R1) & (rho < 2.0), _psi_bridge),
    (lambda rho: rho >= 2.0,
     lambda rho: (_psi_bridge(2.0)[0], 0.0, 0.0, 0.0, 0.0)),
)
# the inner piece's theta, theta', ..., theta'''' as full-length arrays
_INNER = (lambda rho: rho**2, lambda rho: 2.0 * rho,
          lambda rho: np.full_like(rho, 2.0), np.zeros_like, np.zeros_like)


def _tabulate(table, rho, orders):
    """theta^(k) of the family table at rho for each k in orders: one
    full-length array per order, the inner piece overwritten on each piece's
    mask.  Scalars for a scalar rho."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0:
        return tuple(a[0] for a in _tabulate(table, rho[None], orders))
    out = [_INNER[k](rho) for k in orders]
    for mask, values in table:
        m = mask(rho)
        piece = values(rho[m])
        for a, k in zip(out, orders):
            a[m] = piece[k]
    return tuple(out)


def vartheta(rho):
    """The piecewise slope profile: 2 rho, then 2[rho - (rho-1)^5], then a
    cubic Hermite bridge down to 0 at rho = 2."""
    return _tabulate(_PSI_TABLE, rho, (1,))[0]


def _check_cutoff(name, d2phi, phi_over_r, lap, N, convex=False):
    """Raise unless phi'' <= 2, phi'/r <= 2 and lap phi <= 2N on the grid,
    and phi'' >= 0 too if convex."""
    tol = _INVARIANT_TOL
    if (np.any(d2phi > 2.0 + tol) or (convex and np.any(d2phi < -tol))
            or np.any(phi_over_r > 2.0 + tol) or np.any(lap > 2.0 * N + tol)):
        raise AssertionError(f"cutoff invariants violated for {name}")


def _require_positive(R):
    if R <= 0:
        raise ValueError("R must be positive")


def _cutoff(name, table, R, grid, block, convex=False):
    """The CutoffProfile R^2 theta(r/R) of the family table at grid.r[block],
    once its inequalities are checked."""
    _require_positive(R)
    N, rho = grid.N, grid.r[block] / R
    theta, f1, f, df, ddf = _tabulate(table, rho, range(5))
    lap = _laplacian(f, f1, rho, N)
    # lap^2 phi = (1/R^2) [g'' + (N-1) g'/rho] with g = lap theta; the
    # origin value is 0 exactly (phi = r^2 there)
    s = _off_origin(rho)
    rr = rho[s]
    gp = df[s] + (N - 1) * (f[s] * rr - f1[s]) / rr**2
    gpp = ddf[s] + (N - 1) * (df[s] * rr**2 - 2 * f[s] * rr + 2 * f1[s]) / rr**3
    bilap = np.zeros(len(rho))
    bilap[s] = (gpp + (N - 1) * gp / rr) / R**2
    prof = CutoffProfile(R=R, grid=grid, phi=R**2 * theta, dphi=R * f1,
                         d2phi=f, lap=lap, bilap=bilap, block=block)
    _check_cutoff(name, f, prof.phi_over_r(), lap, N, convex)
    return prof


def build_zeta_theta_phi(R: float, grid: RadialGrid,
                         block: slice = slice(None)) -> CutoffProfile:
    """The smoothstep cutoff phi_R at grid.r[block]: equal to r^2 for
    r <= R, slope-linear beyond 2R, with 0 <= phi'' <= 2 throughout."""
    return _cutoff("PhiR", _PHI_TABLE, R, grid, block, convex=True)


def build_vartheta_psi(R: float, grid: RadialGrid,
                       block: slice = slice(None)) -> CutoffProfile:
    """The quintic cutoff psi_R at grid.r[block], with psi'' <= 2,
    psi'/r <= 2 and lap psi <= 2N."""
    return _cutoff("PsiR", _PSI_TABLE, R, grid, block)


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


def psi12(R: float, params: Params, grid: RadialGrid,
          block: slice = slice(None)):
    """psi_1 = 2 - psi_R'' and psi_2 = (4+2b)/N (2N - lap psi) - 2b(2 - psi'/r)
    at grid.r[block], cross-checked against the closed form on the quintic
    annulus.

    Tabulates vartheta and vartheta' alone: psi'' = vartheta'(r/R) and
    psi' = R vartheta(r/R) are all it reads.  build_vartheta_psi's checks
    run on the same values, and the result is the one its profile gives,
    bit for bit, with psi_2 clamped at 0 after the cross-check.  It keeps
    this two-order tabulation rather than reading build_vartheta_psi's
    five orders and bilaplacian: built from the profile, one psi12 on the
    8,001-node evolve grid at R = 32 took 0.55-0.70 ms against 0.38-0.49 ms,
    and verify's virial suite 110-131 ms against 90-108 ms (medians of 7 in
    two runs, one BLAS thread, a shared 2-vCPU x86-64 machine)."""
    require_same_N(grid, params)
    _mass_critical_p(params)
    _require_positive(R)
    N, b = params.N, params.b
    r = grid.r[block]
    rho = r / R
    v, dv = _tabulate(_PSI_TABLE, rho, (1, 2))
    lap = _laplacian(dv, v, rho, N)
    por = _over_r(R * v, dv, r)
    _check_cutoff("PsiR", dv, por, lap, N)
    psi1 = 2.0 - dv
    psi2 = (4.0 + 2.0 * b) / N * (2.0 * N - lap) - 2.0 * b * (2.0 - por)
    annulus = (rho > 1.0 + 1e-12) & (rho <= _R1)
    if np.any(annulus):
        ref = psi2_closed_form(rho[annulus], params)
        err = np.max(np.abs(psi2[annulus] - ref))
        if err > 1e-8:
            raise AssertionError(
                f"assembled psi_2 deviates from its closed form by {err:.2e}"
            )
    # psi_2 is 0 for r <= R but rounds to -4e-16 next to R: clamped here,
    # its powers are 0 rather than NaN for every reader
    return psi1, np.maximum(psi2, 0.0, out=psi2)


def _lemma_grid(R: float, N: int) -> RadialGrid:
    """Probe grid on [0, 4R] with the R-independent spacing 16/99999 (100000
    points at R = 4 and 199999 at R = 8, the largest grid `verify` builds),
    so an R-sweep samples genuinely different points of the scaled
    profiles."""
    return make_grid(4.0 * R, 16.0 / 99999, N)


def lemma52_check(R: float, params: Params) -> float:
    """sup over r > R of |d_r(psi_2^{1/(p-1)})| R; bounded independently of R.
    Scanned block by block, each block widened by the grid's nodes next to
    it, so that its derivative is radial_derivative's of the whole."""
    p_star = _mass_critical_p(params)
    if not 0 < params.b < 2 * (params.N - 1):
        raise ValueError("requires 0 < b < 2(N-1)")
    grid = _lemma_grid(R, params.N)
    sup = 0.0
    for blk in blocks(len(grid)):
        lo, hi = max(blk.start - 1, 0), min(blk.stop + 1, len(grid))
        y = psi12(R, params, grid, slice(lo, hi))[1] ** (1.0 / (p_star - 1.0))
        dy = radial_derivative(y, grid)[blk.start - lo:blk.stop - lo]
        sup = np.max(np.abs(dy[grid.r[blk] > R * (1.0 + 1e-9)]), initial=sup)
    return float(sup * R)


def lemma53_check(R: float, params: Params, eps: float) -> tuple[bool, float]:
    """Grid minimum over r > R of 2 psi_1 - [N eps/(2N+4+2b)] psi_2^{N/(2+b)},
    scanned over the grid's blocks."""
    _mass_critical_p(params)
    grid = _lemma_grid(R, params.N)
    margin = math.inf
    for blk in blocks(len(grid)):
        expr = _lemma53_form(*psi12(R, params, grid, blk), params, eps)
        margin = float(np.min(expr[grid.r[blk] > R * (1.0 + 1e-9)], initial=margin))
    return margin >= 0.0, margin


def _lemma53_form(psi1: np.ndarray, psi2: np.ndarray, params: Params,
                  eps: float) -> np.ndarray:
    """2 psi_1 - [N eps/(2N+4+2b)] psi_2^{N/(2+b)}, on psi12's psi_2,
    which is clamped at 0."""
    N, b = params.N, params.b
    return 2.0 * psi1 - N * eps / (2.0 * N + 4.0 + 2.0 * b) * psi2 ** (N / (2.0 + b))


# ---------------------------------------------------------------------------
# virial identity evaluation
# ---------------------------------------------------------------------------

def virial_V(u: RadialField, cutoff: CutoffProfile) -> float:
    """V_phi = int phi |u|^2."""
    _check_grid(u, cutoff)
    return require_finite(
        float(dot(u.grid.weights, cutoff.phi * np.abs(u.values) ** 2)))


def _check_grid(u: RadialField, cutoff: CutoffProfile):
    require_same_N(u.grid, cutoff.grid)
    if len(u.grid) != len(cutoff.phi) or u.grid.dr != cutoff.grid.dr:
        raise ValueError("cutoff is tabulated on a different grid than the field")


def _edge_weighted_grad_sq(u: RadialField, f: np.ndarray) -> float:
    """int f |d_r u|^2 as the edge sum of grad_sq_edges, each edge weighted
    by the average (f_i + f_{i+1})/2 of its node weights."""
    return require_finite(float(dot(0.5 * (f[1:-1] + f[2:]),
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
    require_same_N(g, params)
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


def _uniform_step(states) -> float:
    """The time step of states, which must number at least 3, for a second
    difference, and be uniformly spaced in time."""
    if len(states) < 3:
        raise ValueError("need at least 3 saved states for a second difference")
    dts = np.diff([t for t, _ in states])
    if not np.allclose(dts, dts[0], rtol=1e-8, atol=0.0):
        raise ValueError("saved states must be uniformly spaced in time")
    return float(dts[0])


def _differences(V: np.ndarray, dt: float):
    """V' and V'' at the interior samples of V, by central differences."""
    return (V[2:] - V[:-2]) / (2.0 * dt), (V[2:] - 2.0 * V[1:-1] + V[:-2]) / dt**2


def virial_dynamic_check(states, params: Params, cutoff: CutoffProfile,
                         linear_only: bool = False) -> float:
    """Max relative deviation between the second central difference of
    V(t) = int phi |u|^2 over saved states and the virial right-hand side.

    states: sequence of (t, RadialField) at uniform spacing.  Deviations are
    normalized by the largest |rhs| over the run.
    """
    dt = _uniform_step(states)
    _, d2V = _differences(np.array([virial_V(u, cutoff) for _, u in states]), dt)
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
    """Write envelope rows as CSV: each BoundRow field but num_tol, in order."""
    names = [f.name for f in fields(BoundRow) if f.name != "num_tol"]
    write_csv(path, names, ([getattr(r, n) for n in names] for r in rows))


def _envelope_terms(kind: RegimeKind, params: Params, cutoff: CutoffProfile,
                    eps: float, E0: float, fields, grad_sq: np.ndarray,
                    pot: np.ndarray):
    """The bound's leading terms at each of fields, whose gradient norms and
    potentials are grad_sq and pot, and the R-decay profile that multiplies
    the fitted absolute constant (one value for all of them at mass-critical
    parameters), in the envelope regime kind."""
    N, b, p, R = params.N, params.b, params.p, cutoff.R
    if kind == RegimeKind.MASS_CRITICAL:
        # 16 E0 plus the computable gradient tail of the mass-critical estimate,
        # -2 int_{r>R} (2 psi_1 - N eps/(2N+4+2b) psi_2^{N/(2+b)}) |grad u|^2
        form = _lemma53_form(*psi12(R, params, cutoff.grid), params, eps)
        tail = np.where(cutoff.grid.r > R, form, 0.0)
        lead = np.array([16.0 * E0 - 2.0 * _edge_weighted_grad_sq(u, tail)
                         for u in fields])
        kappa = (2.0 + b) / (2.0 * (N - 1) - b)
        return lead, (1.0 + eps + eps ** (-kappa)) * R**-2
    if kind == RegimeKind.INTERCRITICAL:
        lead = 8.0 * grad_sq - 8.0 * params.A / (p + 1.0) * pot
        gamma = (N - 1) * (p - 1.0) / 2.0 - b
    else:
        lead = 8.0 * grad_sq - 8.0 * pot
        gamma = (2.0 + b) * (N - 1) / (N - 2.0) - b
    if p == 5.0:
        return lead, R**-2 + R ** (-(2.0 * (N - 1) - b)) * grad_sq
    return lead, R**-2 + R**-gamma * (grad_sq + 1.0)


def _resolved_stencils(states, params: Params, R: float, eps: float):
    """V = int psi_R |u|^2 over states, their time step dt, and, as arrays
    over the V'' stencils lying entirely inside the resolved window, each
    stencil's index i and the leading terms and remainder scale at its
    centre state i + 1."""
    dt = _uniform_step(states)
    grid = states[0][1].grid
    require_same_N(grid, params)
    kind = classify(params).kind
    if kind not in (RegimeKind.MASS_CRITICAL, RegimeKind.INTERCRITICAL,
                    RegimeKind.ENERGY_CRITICAL):
        raise ValueError(f"no blow-up envelope in regime {kind.value}")
    cutoff = build_vartheta_psi(R, grid)
    V = np.array([virial_V(u, cutoff) for _, u in states])
    # each state's gradient norm and potential, once: its energy, E0 and
    # the remainder scale all derive from them
    grad_sq = np.array([gradient_sq_norm(u) for _, u in states])
    pot = np.array([potential(u, params) for _, u in states])
    E = functionals.energy_of(grad_sq, pot, params.p)
    # a fixed grid cannot follow the focusing core: once the energy drifts
    # past _DRIFT_TOL from E[0], the state (and any V'' stencil touching it)
    # no longer represents the PDE solution and is excluded
    resolved = functionals.energy_drift(E, E[0]) <= _DRIFT_TOL
    # stencil i spans states i, i+1, i+2
    i = np.flatnonzero(resolved[:-2] & resolved[1:-1] & resolved[2:])
    lead, scale = _envelope_terms(kind, params, cutoff, eps, E[0],
                                  [states[j][1] for j in i + 1],
                                  grad_sq[i + 1], pot[i + 1])
    return V, dt, i, lead, np.broadcast_to(scale, i.shape)


def fit_envelope_constant(states, params: Params, R: float, eps: float) -> float:
    """Calibrate the absolute remainder constant of the localized virial
    bound on a reference run: the smallest C making the bound hold with 5%
    headroom at every resolved sample.  Raises ValueError for fewer than 3
    states, for states not uniformly spaced in time, or when no V'' stencil
    is resolved: no sample, no constant."""
    V, dt, i, lead, scale = _resolved_stencils(states, params, R, eps)
    if not len(i):
        raise ValueError("no V'' stencil lies inside the resolved window: "
                         "nothing to calibrate on")
    Vpp = _differences(V, dt)[1]
    return 1.05 * max(np.max((Vpp[i] - lead) / scale, initial=0.0), 1e-6)


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
    fewer than 3 states or for states not uniformly spaced in time.
    """
    V, dt, stencils, lead, scale = _resolved_stencils(states, params, R, eps)
    Vp, Vpp = _differences(V, dt)
    # dt^2 V''''/12 leads the error of V''; the fourth difference v4[i - 1]
    # about state i + 1 estimates V'''' at row i, so rows 1 .. len(v4) are kept
    v4 = (V[:-4] - 4 * V[1:-3] + 6 * V[2:-2] - 4 * V[3:-1] + V[4:]) / dt**4
    rows = []
    for i, rhs in zip(stencils.tolist(), (lead + C_envelope * scale).tolist()):
        if 1 <= i <= len(v4):
            rows.append(BoundRow(
                t=float(states[i + 1][0]), V=float(V[i + 1]), Vp=float(Vp[i]),
                Vpp_measured=float(Vpp[i]), rhs_bound=rhs,
                slack=float(rhs - Vpp[i]),
                num_tol=float(1.5 * dt**2 * abs(v4[i - 1]) / 12.0
                              + 1e-9 * (1.0 + abs(Vpp[i])))))
    return rows
