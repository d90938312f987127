"""Time integration of i u_t + lap u = -r^b |u|^{p-1} u on radial grids.

Strang splitting: the nonlinearity is a pointwise phase (the nonlinear flow
preserves |u|), applied exactly for half a step on each side of a
Crank-Nicolson solve of the free flow.  The CN generator is the lumped
finite-element form of the radial Laplacian: a symmetric stiffness matrix
K (edge coefficients (r_{i+1/2})^{N-1}/dr) against the diagonal trapezoid
mass matrix M, with a natural (zero-flux) origin closure and a Dirichlet
wall at r_max.  Because K is exactly self-adjoint in the M inner product,
the Cayley step conserves the recorded mass to solver roundoff, for every
dimension N.  The recorded |grad u|^2 is K itself (``grids.grad_sq_edges``),
so the recorded energy is the one the scheme conserves: its drift measures
the splitting and the resolution, not a mismatch between two stencils.
The free flow is taken in Cayley form, x = 2 A^{-1}(M u) - u with
A = M + i dt/2 K, so the right-hand side is one multiply by the lumped mass.
A is complex symmetric and its Hermitian part M is positive definite, so
A = L D L^T exists without pivoting: L and D are built once per
(grid, b, dt), and a solve is two unit-diagonal bidiagonal sweeps with a
multiply by 2/D between them, dividing nowhere; ``step`` and ``evolve``
share the factors and the phase coefficient of the last (grid, b, dt)
stepped.  The sweeps are LAPACK's ztbtrs from scipy's f2py module
scipy.linalg._flapack, loaded by the first plan without the scipy.linalg
package: the package adds no routine (scipy.linalg.lapack re-exports these
objects) but about 0.29 s and 22 MB, mostly numpy.testing, numpy.f2py,
numpy.ma and numpy.random loaded by scipy's array-API layer; the module
alone takes 5 ms and 2.4 MB (2-core host, scipy 1.17).  BLAS's ztbsv
solves the same sweeps bit for bit, but scipy.linalg._fblas would add
1.3 MB to every stepping process.  The commands that never take a step
load no scipy at all.
The half-phase multiplies by exp(x), x = h |u|^{p-1} with h purely
imaginary, and takes np.exp only on the prefix of nodes that ends at the
last one with |theta| = |Im x| not below 2^-27 (a NaN or inf fails that
test, so it stays on the prefix).  Below 2^-27, theta^2/2 is under half an
ulp of 1 and theta^3/6 under half an ulp of theta, so the correctly rounded
cos(theta) is exactly 1.0 and sin(theta) exactly theta: the tail factor is
written as 1 + i theta, bit for bit what np.exp gives.  The test is on
|theta| because a negative dt makes theta <= 0, and the tail keeps Im x
itself rather than adding 1.0 to x, which would turn a theta of -0.0 into
+0.0.  Decaying states keep most nodes in that tail.  |u|^{p-1} is a
product of |u|'s when p - 1 is a whole number and a pow otherwise
(``_abs_power``): at p = 4 and 8001 nodes, about 7 us against 23 us
(2-core host, numpy 2.4).  p = 3 steps bit for bit as with pow; p = 4,
5, ... move at roundoff.
The phase leaves |u| unchanged, so adjacent half-phases of consecutive
steps multiply by the same factor exp(h |u|^{p-1}) (Strang splitting's
merged half-steps): the plan's factor buffer still holds the trailing
factor of the step before when a step is given the very values array that
step returned.  Returned arrays are read-only, so that array still holds
the state the factor was taken from; for any other field, a copy included,
the step writes its own factor there first.  Either way the leading
half-phase is one multiply by the buffer.  The carried factor is taken from
the CN output before the trailing multiply, so a chain of steps moves at
roundoff against steps taking both factors.
Blow-up on a fixed grid can only be certified as
"self-focusing beyond resolution": detection requires gradient growth AND
energy drift together.  energy_drift_max and boundary_flagged are taken over
the stepped states (the initial state's wall mass is not checked), and a run
with record=False leaves both None.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import functionals as fn
from .exponents import morawetz_beta
from .grids import (NonFiniteError, Params, RadialField, RadialGrid, RegimeKind,
                    classify, dot, grad_sq_edges, require_same_N, write_csv)

__all__ = [
    "StepperConfig",
    "DiagnosticsSeries",
    "RunStatus",
    "RunOutcome",
    "EvolveResult",
    "step",
    "evolve",
    "scattering_diagnostics",
    "ScatteringReport",
]


# The fixed detector thresholds and diagnostics radii of every run; the CLI
# records them in summary.json next to the run's own settings.
BLOWUP_GRADIENT_FACTOR = 10.0  # growth of ||grad u|| that, with drift, ends a run
ENERGY_DRIFT_TOL = 1e-4        # relative energy drift |E - E0|/(|E0| + 1)
BOUNDARY_MASS_TOL = 1e-6       # mass past 0.9 r_max over the initial mass
LOCAL_MASS_RADII = (5.0, 10.0, 20.0)


@dataclass(frozen=True)
class StepperConfig:
    """The settings of one run; the grid is the initial field's."""

    dt: float = 1e-3
    t_end: float = 1.0
    save_every: int = 0            # save a state every k steps (0 = never)
    linear_only: bool = False      # drop the nonlinear phase (free flow)

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be finite and positive, got "
                             f"dt = {self.dt}, t_end = {self.t_end}")
        # a run takes whole steps: t_end / dt within 1e-9 of an integer >= 1
        steps = self.t_end / self.dt
        if not (steps < math.inf and self.n_steps >= 1
                and abs(steps - self.n_steps) <= 1e-9 * self.n_steps):
            raise ValueError(f"t_end must be a whole number (at least 1) of "
                             f"steps dt, got t_end / dt = {steps:.12g}")
        if self.save_every < 0:
            raise ValueError("save_every must be >= 0 (0 saves no states)")

    @property
    def n_steps(self) -> int:
        """The number of steps dt that make t_end."""
        return round(self.t_end / self.dt)


class RunStatus(Enum):
    COMPLETED_GLOBAL = "CompletedGlobal"
    BLOWUP_DETECTED = "BlowupDetected"
    UNDER_RESOLVED = "UnderResolved"


@dataclass(frozen=True)
class RunOutcome:
    status: RunStatus
    t_final: float
    blowup_time_estimate: float | None
    gradient_growth: float        # grad_sq(t_final)/grad_sq(0)
    energy_drift_max: float | None  # None: not measured (record=False)
    boundary_flagged: bool | None   # mass near the wall exceeded tolerance


@dataclass
class DiagnosticsSeries:
    """Per-step conserved-quantity record, one row per accepted step.

    An outcome-only series (``evolve(..., record=False)``) fills t and
    grad_sq alone; it has no rows to write."""

    radii: tuple[float, ...]
    t: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    grad_sq: list = field(default_factory=list)
    potential: list = field(default_factory=list)
    local_mass: dict = field(default_factory=dict)
    virial_V: list = field(default_factory=list)
    virial_Vp: list = field(default_factory=list)

    def __post_init__(self):
        for R in self.radii:
            self.local_mass.setdefault(R, [])

    def append(self, t, mass, energy, grad_sq, potential, local, V, Vp):
        self.t.append(t)
        self.mass.append(mass)
        self.energy.append(energy)
        self.grad_sq.append(grad_sq)
        self.potential.append(potential)
        for R, v in zip(self.radii, local):
            self.local_mass[R].append(v)
        self.virial_V.append(V)
        self.virial_Vp.append(Vp)

    def column_names(self) -> list[str]:
        locals_ = [f"local_mass_{R:g}" for R in self.radii]
        return ["t", "mass", "energy", "grad_sq", "potential", *locals_,
                "virial_V", "virial_Vp"]

    def rows(self):
        for i in range(len(self.t)):
            yield (
                self.t[i], self.mass[i], self.energy[i], self.grad_sq[i],
                self.potential[i],
                *(self.local_mass[R][i] for R in self.radii),
                self.virial_V[i], self.virial_Vp[i],
            )

    @property
    def outcome_only(self) -> bool:
        """Whether the series holds t and grad_sq alone."""
        return len(self.mass) != len(self.t)

    def to_csv(self, path) -> None:
        if self.outcome_only:
            raise ValueError("an outcome-only series (evolve with record=False) "
                             "holds t and grad_sq alone; it has no rows to write")
        write_csv(path, self.column_names(), self.rows())


# ---------------------------------------------------------------------------
# Crank-Nicolson machinery
# ---------------------------------------------------------------------------

def _flapack():
    """scipy's f2py LAPACK module, scipy.linalg._flapack, without importing
    the scipy or scipy.linalg packages.  The extension is loaded from scipy's
    linalg directory under its full name and registered in sys.modules, so a
    later ``import scipy.linalg`` reuses it: scipy.linalg.lapack's routines
    are then the very objects a plan holds."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        linalg = [d + "/linalg" for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, linalg)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _ldl(a: np.ndarray, e: np.ndarray):
    """(L_i, D_{i+1}) for i = 0 .. m-2 of the no-pivot A = L D L^T of the
    complex symmetric tridiagonal A with diagonal a and off-diagonal e:
    D_0 = a_0, L_i = e_i / D_i, D_{i+1} = a_{i+1} - L_i e_i, in Python
    complex arithmetic, one node at a time (a list of the 2m values would
    add about 1 MB to a stepping process's peak).  A zero D_i gives NaNs."""
    d = complex(a[0])
    for ai, ei in zip(map(complex, a[1:]), map(complex, e)):
        li = ei / d if d else math.nan
        d = ai - li * ei
        yield li, d


class _CrankNicolson:
    """The step plan for one (grid, b, dt): the Cayley free flow
    x = 2 A^{-1}(M u) - u of nodes 1 .. n-2, A = M + i dt/2 K, and the
    half-step phase coefficient h = 0.5j dt r^b.  A = L D L^T is built once
    by D_0 = a_0, L_i = e_i / D_i, D_{i+1} = a_{i+1} - L_i e_i on A's
    diagonal a and off-diagonal e (no pivot is needed: Re(y^H A y) =
    y^H M y > 0 for y != 0), and a solve is ztbtrs on L, a multiply by 2/D
    and ztbtrs on L^T.  ``factor`` buffers every phase factor (after a
    nonlinear step, its trailing one), and ``carry`` is (a weak reference
    to the array that step returned, p) or None: a strong reference to the
    last state, on top of the heap, kept a finished run's freed saved
    states resident (64 MB after the 1.6 Q collapse at dt 2.5e-4)."""

    def __init__(self, grid: RadialGrid, b: float, dt: float):
        N, r, dr, kappa = grid.N, grid.r, grid.dr, grid.kappa
        n = len(r)
        if n < 5:
            # at least three unknowns (nodes 1 .. n-2)
            raise ValueError(f"the Crank-Nicolson step needs a grid of at least "
                             f"5 nodes, got {n}")
        m = n - 2  # degrees of freedom: nodes 1 .. n-2
        diag = np.zeros(m)
        diag[:-1] += kappa[:-1]      # edge to the right, interior
        diag[1:] += kappa[:-1]       # edge to the left
        diag[-1] += kappa[-1]        # edge into the Dirichlet wall
        self.Mw = r[1:-1] ** (N - 1) * dr
        z = 0.5j * dt
        a = self.Mw + z * diag
        LD = np.fromiter(_ldl(a, -z * kappa[:-1]), dtype=(complex, 2), count=m - 1)
        D = np.concatenate([a[:1], LD[:, 1]])
        if not (np.isfinite(D).all() and D.all()):
            raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")
        # band storage of L and L^T; ztbtrs reads no diagonal with diag 'U'
        self.lower = np.zeros((2, m), dtype=complex, order="F")
        self.upper = np.zeros((2, m), dtype=complex, order="F")
        self.lower[1, :-1] = self.upper[0, 1:] = LD[:, 0]
        self.two_over_d = 2.0 / D
        self.n, self.dt, self.ztbtrs = n, dt, _flapack().ztbtrs
        self.h = 0.5j * dt * r**b
        self.factor = np.empty(n, dtype=complex)
        self.carry = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        u = values[1:-1]
        out = np.zeros(self.n, dtype=complex)
        rhs = out[1:-1]  # solved in place: the origin and wall nodes stay 0
        col = rhs.reshape(-1, 1)
        np.multiply(self.Mw, u, out=rhs)
        self.ztbtrs(self.lower, col, uplo="L", diag="U", overwrite_b=1)
        rhs *= self.two_over_d
        self.ztbtrs(self.upper, col, uplo="U", diag="U", overwrite_b=1)
        rhs -= u
        return out


_last_plan: tuple | None = None  # (key, plan) of the last (grid, b, dt) stepped


def _plan(grid: RadialGrid, b: float, dt: float) -> _CrankNicolson:
    """The step plan for (grid, b, dt).  Only the last plan is kept, and it is
    rebuilt when any of them changes: a run steps one grid, b and dt."""
    global _last_plan
    key = (grid.N, len(grid), grid.dr, grid.r_max, b, dt)
    if _last_plan is None or _last_plan[0] != key:
        _last_plan = (key, _CrankNicolson(grid, b, dt))
    return _last_plan[1]


# below this |theta|, cos(theta) rounds to 1.0 and sin(theta) to theta
_EXACT_PHASE = 2.0**-27


def _abs_power(v: np.ndarray, k: float) -> np.ndarray:
    """|v|^k: for a whole k, square-and-multiply on a = |v| (y = a; for each
    binary digit of k after the leading one, y = y * y, then y = y * a if
    the digit is 1), so k = 1 is a, 2 is a * a (numpy's a ** 2.0, bit for
    bit), 3 is (a * a) * a, 4 is (a * a) * (a * a) and 5 is
    ((a * a) * (a * a)) * a; any other k is a ** k.  A multiply costs under
    1 ns per node and pow about 3 ns, so k = 3 saves about 16 us at 8001
    nodes; a whole k >= 3 rounds differently from pow in the last bit of
    some nodes.  Only the result outlives the call, as with np.abs(v) ** k."""
    a = np.abs(v)
    if not k.is_integer():
        return a ** k
    y = a
    for digit in bin(int(k))[3:]:
        y = y * y
        if digit == "1":
            y *= a
    return y


def _phase_factor(v: np.ndarray, h: np.ndarray, p: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """exp(x) for x = h |v|^{p-1}, bit for bit, with the transcendental
    taken only on the prefix of nodes up to the last one whose |Im x| is not
    below _EXACT_PHASE; past it the factor is written as 1 + i Im x.
    |v|^{p-1} is a product of |v|'s when p - 1 is a whole number (p > 1, so
    at least 1), and a pow otherwise (``_abs_power``).  Written into out
    when it is given."""
    x = np.multiply(h, _abs_power(v, p - 1.0), out=out)
    # NaN and inf fail the comparison, so they stay on the np.exp prefix
    active = np.flatnonzero(~(np.abs(x.imag) < _EXACT_PHASE))
    k = active[-1] + 1 if active.size else 0
    np.exp(x[:k], out=x[:k])
    x.real[k:] = 1.0  # Im x[k:] already holds theta, its signed zeros too
    return x


def step(u: RadialField, params: Params, dt: float,
         linear_only: bool = False) -> RadialField:
    """One Strang step: half nonlinear phase, CN free flow, half phase.

    The origin node carries zero quadrature weight and zero nonlinear
    coefficient (r^b = 0), so it is not a degree of freedom; it is
    reconstructed at the end of the step by the u'(0) = 0 parabola through
    the first two interior nodes.  The returned field is the step's one
    finiteness check: a non-finite state raises NonFiniteError.

    The leading half-phase is one multiply by plan.factor, which still
    holds the trailing factor of the step before when u.values is the
    (read-only) array that step returned, from the same plan and p; for any
    other field u's own factor is written there first.  The carry is taken
    off the plan at entry and stored only once the new state is accepted.
    """
    g = u.grid
    require_same_N(g, params)
    plan = _plan(g, params.b, dt)
    carry, plan.carry = plan.carry, None
    v = u.values
    if not linear_only:
        if carry is None or carry[0]() is not v or carry[1] != params.p:
            _phase_factor(v, plan.h, params.p, out=plan.factor)
        v = np.multiply(v, plan.factor, out=plan.factor)
    v = plan.apply(v)
    if not linear_only:
        v *= _phase_factor(v, plan.h, params.p, out=plan.factor)
    v[0] = (4.0 * v[1] - v[2]) / 3.0
    out = RadialField(g, v)
    v.flags.writeable = False
    if not linear_only:
        plan.carry = (weakref.ref(v), params.p)
    return out


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolveResult:
    outcome: RunOutcome
    diagnostics: DiagnosticsSeries
    states: list  # [(t, RadialField)] when cfg.save_every > 0, else []


def _blowup_time_from_slopes(ts, grads) -> float:
    """Earliest time where the log-slope of grad_sq doubles its early value."""
    g = np.asarray(grads)
    t = np.asarray(ts)
    if len(g) < 8:
        return float(t[-1])
    s = np.diff(np.log(g)) / np.diff(t)
    early = s[: max(4, len(s) // 5)]
    pos = early[early > 0]
    base = float(np.median(pos)) if len(pos) else max(float(np.max(early)), 1e-12)
    idx = np.nonzero(s >= 2.0 * base)[0]
    return float(t[idx[0] + 1] if len(idx) else t[-1])


def evolve(u0: RadialField, params: Params, cfg: StepperConfig, *,
           record: bool = True) -> EvolveResult:
    """March the splitting scheme to t_end with per-step diagnostics.

    Steps the grid of u0.  Declares BlowupDetected when the gradient norm
    squared grows by BLOWUP_GRADIENT_FACTOR squared AND the energy drift
    exceeds ENERGY_DRIFT_TOL (growth alone is a resolved focusing event,
    drift alone a resolution warning); a NaN state ends the run as
    UnderResolved rather than raising.

    With record=False the run keeps only what decides its outcome.  The
    series holds t and grad_sq, one entry per state as before, and the
    energy is computed only on a step whose gradient has already grown past
    the threshold.  status, t_final, blowup_time_estimate and
    gradient_growth are those of the full run, bit for bit;
    energy_drift_max and boundary_flagged are None (not measured).
    """
    g = u0.grid
    require_same_N(g, params)
    if classify(params).lwp_side < 0:
        raise ValueError(
            f"local well-posedness needs p >= 1 + 2b/(N-1) = "
            f"{params.lwp_lower_p:.6g}"
        )
    diag = DiagnosticsSeries(radii=LOCAL_MASS_RADII)
    states = []
    walls = []  # the wall mass of each state (full record)
    # g.r is increasing: local masses sum a prefix, the wall mass a suffix
    ends = [int(np.count_nonzero(g.r <= R)) for R in LOCAL_MASS_RADII]
    wall = len(g) - int(np.count_nonzero(g.r >= 0.9 * g.r_max))
    w = g.weights
    rb = g.r**params.b
    phi = g.r**2  # the unlocalized virial weight |x|^2
    kdphi = g.kappa * np.diff(phi[1:])

    def energy(v, grad_sq):
        """|v|, the potential and the energy of the state v."""
        av = np.abs(v)
        pot = fn.potential_of(w, rb, av, params.p)
        return av, pot, fn.energy_of(grad_sq, pot, params.p)

    def full_row(t, v):
        """Append every column and the wall mass; return grad_sq, energy thunk."""
        grad_sq = float(np.sum(grad_sq_edges(v, g)))
        av, pot, E = energy(v, grad_sq)
        av2 = av**2
        local = [float(dot(w[:k], av2[:k])) for k in ends]
        diag.append(t, float(dot(w, av2)), E, grad_sq, pot, local,
                    float(dot(w, phi * av2)), fn.virial_Vprime_of(g.N, kdphi, v))
        walls.append(float(dot(w[wall:], av2[wall:])))
        return grad_sq, lambda: E

    def outcome_row(t, v):
        """Append t and grad_sq; the thunk computes the energy when called."""
        grad_sq = float(np.sum(grad_sq_edges(v, g)))
        diag.t.append(t)
        diag.grad_sq.append(grad_sq)
        return grad_sq, lambda: energy(v, grad_sq)[2]

    observe = full_row if record else outcome_row

    def save(k, t, u):  # the state after k steps, every save_every steps
        if cfg.save_every and k % cfg.save_every == 0:
            states.append((t, u))

    u = RadialField(g, u0.values.astype(complex))
    t = 0.0
    status = RunStatus.COMPLETED_GLOBAL
    blowup_estimate = drift_max = boundary_flagged = None

    # overflow during violent focusing is data, not an error: the inf/nan
    # values feed the under-resolution and blow-up detectors
    with np.errstate(over="ignore", invalid="ignore"):
        grad0, E = observe(t, u.values)
        save(0, t, u)
        E0 = E()
        for k in range(1, cfg.n_steps + 1):
            try:
                u = step(u, params, cfg.dt, cfg.linear_only)
            except NonFiniteError:
                # the state left resolution; t stays at the last finite state
                status = RunStatus.UNDER_RESOLVED
                break
            t = k * cfg.dt
            grad_sq, E = observe(t, u.values)
            save(k, t, u)
            if (grad_sq >= BLOWUP_GRADIENT_FACTOR**2 * grad0
                    and fn.energy_drift(E(), E0) > ENERGY_DRIFT_TOL):
                status = RunStatus.BLOWUP_DETECTED
                blowup_estimate = _blowup_time_from_slopes(diag.t, diag.grad_sq)
                break
        if record:
            # max skips a NaN drift: it replaces its value only by a larger one
            drift_max = max([0.0, *(fn.energy_drift(E, E0)
                                    for E in diag.energy[1:])])
            m0 = diag.mass[0]
            wall_tol = BOUNDARY_MASS_TOL * m0 if m0 > 0 else math.inf
            boundary_flagged = any(m > wall_tol for m in walls[1:])

    outcome = RunOutcome(
        status=status,
        t_final=t,
        blowup_time_estimate=blowup_estimate,
        gradient_growth=(diag.grad_sq[-1] / grad0) if grad0 > 0 else 1.0,
        energy_drift_max=drift_max,
        boundary_flagged=boundary_flagged,
    )
    return EvolveResult(outcome=outcome, diagnostics=diag, states=states)


# ---------------------------------------------------------------------------
# post-hoc scattering diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringReport:
    morawetz_windows: tuple  # ((l1, S(l1)), (l2, S(l2)))
    beta: float
    sublinear_ok: bool


def scattering_diagnostics(diag: DiagnosticsSeries, params: Params,
                           outcome: RunOutcome | None = None) -> ScatteringReport:
    """Sublinear growth of the Morawetz sum of a completed global run.

    S(l), the trapezoid-rule integral of the potential over [0, l], is taken
    over the nested windows l1 = the last sample time <= T/2 and l2 = T.
    The run passes when S(l2) <= (l2/l1)^((1+beta)/2) S(l1): halfway
    between the paper's decay exponent beta < 1 and the exponent 1 of a
    standing wave, whose constant potential fails the test at any length.
    """
    if outcome is not None and outcome.status != RunStatus.COMPLETED_GLOBAL:
        raise ValueError("scattering diagnostics need a completed global run")
    if diag.outcome_only:
        raise ValueError("scattering diagnostics need the potential, which an "
                         "outcome-only series (evolve with record=False) lacks")
    if classify(params).kind != RegimeKind.INTERCRITICAL:
        raise ValueError("scattering diagnostics need inter-critical parameters")
    ts = np.asarray(diag.t)
    half = int(np.searchsorted(ts, 0.5 * ts[-1], side="right")) if len(ts) else 0
    if not (half and ts[half - 1] > 0.0):
        raise ValueError("diagnostics series has no sample time in (0, T/2]")
    pot = np.asarray(diag.potential)
    windows = tuple((float(ts[i - 1]), float(np.trapezoid(pot[:i], ts[:i])))
                    for i in (half, len(ts)))
    beta = float(morawetz_beta(params)[1])
    (l1, s1), (l2, s2) = windows
    return ScatteringReport(
        morawetz_windows=windows,
        beta=beta,
        sublinear_ok=bool(s2 <= (l2 / l1) ** ((1.0 + beta) / 2.0) * s1),
    )
