"""Radial grids, quadrature, and the one discrete gradient.

Everything downstream works with radial profiles u(r) sampled on a uniform
grid over [0, r_max].  The quadrature weights carry the full N-dimensional
surface measure, so ``integrate`` realizes integrals over R^N of radial
integrands: sum(w_i * f(r_i)) with w_i = omega_{N-1} r_i^{N-1} dr times the
trapezoid end coefficients.  Every weighted sum over the grid is ``dot``,
which alone fixes the order of summation: over the fixed node ``blocks``,
which a long scan can run over too.  Every |grad u|^2 is the Crank-Nicolson edge form: ``grad_sq_edges`` gives its per-edge terms
omega_{N-1} kappa_i |u_{i+1} - u_i|^2 with the grid's edge conductances
kappa_i = (r_i + dr/2)^{N-1}/dr.  ``require_same_N`` is the one check
where a grid meets a Params or another grid.  ``write_csv`` holds the one
number format (%.12e) of every CSV file the package writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Params",
    "RegimeKind",
    "RegimeClass",
    "RadialGrid",
    "RadialField",
    "NonFiniteError",
    "classify",
    "make_grid",
    "blocks",
    "dot",
    "integrate",
    "gradient_sq_norm",
    "grad_sq_edges",
    "require_finite",
    "require_same_N",
    "sphere_area",
    "write_csv",
]

# relative tolerance within which p is at a critical power
_CRIT_RTOL = 1e-12
# elements per np.dot in ``dot``: fewer than the 10,000 past which
# OpenBLAS splits a dot product across threads
_DOT_BLOCK = 8192


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class Params:
    """The triple (N, b, p): dimension, weight exponent, nonlinearity power;
    its exponents are exact for Fraction b and p, floats for float ones."""

    N: int
    b: float
    p: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"dimension N must be >= 2, got {self.N}")
        if not self.b > 0:
            raise ValueError(f"weight exponent b must be > 0, got {self.b}")
        if not self.p > 1:
            raise ValueError(f"nonlinearity power p must be > 1, got {self.p}")

    @property
    def gamma_c(self) -> float:
        """Critical Sobolev index N/2 - (2+b)/(p-1) of the scaling symmetry."""
        return (self.N - 2 * (2 + self.b) / (self.p - 1)) / 2

    @property
    def sigma_c(self) -> float:
        """(1 - gamma_c)/gamma_c = B/(A - 2); +inf at the mass-critical point
        and 0 at the energy-critical point, as classify decides them."""
        kind = classify(self).kind
        if kind == RegimeKind.MASS_CRITICAL:
            return math.inf
        if kind == RegimeKind.ENERGY_CRITICAL:
            return 0 * self.gamma_c  # 0 in the exponents' type; gamma_c ~ 1 > 0
        return self.B / (self.A - 2)

    @property
    def A(self) -> float:
        """Gradient exponent (N(p-1) - 2b)/2 of the Gagliardo-Nirenberg pair."""
        return (self.N * (self.p - 1) - 2 * self.b) / 2

    @property
    def B(self) -> float:
        """Mass exponent (4 + 2b - (N-2)(p-1))/2; A + B = p + 1."""
        return (4 + 2 * self.b - (self.N - 2) * (self.p - 1)) / 2

    @property
    def mass_critical_p(self) -> float:
        return (self.N + 4 + 2 * self.b) / self.N

    @property
    def energy_critical_p(self) -> float:
        """(N+2+2b)/(N-2); +inf for N = 2, where no power is energy-critical."""
        return math.inf if self.N == 2 else (self.N + 2 + 2 * self.b) / (self.N - 2)

    @property
    def lwp_lower_p(self) -> float:
        """Lower admissibility bound 1 + 2b/(N-1) for radial well-posedness."""
        return 1 + 2 * self.b / (self.N - 1)


class RegimeKind(Enum):
    MASS_SUBCRITICAL = "MassSubcritical"
    MASS_CRITICAL = "MassCritical"
    INTERCRITICAL = "Intercritical"
    ENERGY_CRITICAL = "EnergyCritical"
    ENERGY_SUPERCRITICAL = "EnergySupercritical"


@dataclass(frozen=True)
class RegimeClass:
    kind: RegimeKind
    lwp_side: int  # -1, 0 or 1: p below, at or above 1 + 2b/(N-1)


def _side(p: float, bound: float) -> int:
    """-1, 0 or 1 as p lies below, at (within _CRIT_RTOL relative) or above
    bound; an infinite bound lies above every p."""
    if math.isfinite(bound) and abs(p - bound) <= _CRIT_RTOL * max(1.0, p, bound):
        return 0
    return -1 if p < bound else 1


def classify(params: Params) -> RegimeClass:
    """Classify (N, b, p) by the sign of gamma_c and place p against
    1 + 2b/(N-1): the one comparison of p with a critical power, exact and
    float Params alike; total on valid Params."""
    p = params.p
    mass = _side(p, params.mass_critical_p)
    energy = _side(p, params.energy_critical_p)
    if mass == 0:
        kind = RegimeKind.MASS_CRITICAL
    elif energy == 0:
        kind = RegimeKind.ENERGY_CRITICAL
    elif mass < 0:
        kind = RegimeKind.MASS_SUBCRITICAL
    elif energy < 0:
        kind = RegimeKind.INTERCRITICAL
    else:
        kind = RegimeKind.ENERGY_SUPERCRITICAL
    return RegimeClass(kind=kind, lwp_side=_side(p, params.lwp_lower_p))


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with N-dimensional quadrature weights
    and the edge conductances of the Dirichlet form."""

    N: int
    r: np.ndarray = field(repr=False)
    dr: float
    r_max: float
    weights: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.r)

    @cached_property
    def kappa(self) -> np.ndarray:
        """(r_i + dr/2)^{N-1}/dr for the edges i -- i+1, i = 1..n-2; the
        origin edge 0 -- 1 carries no flux (the regularity closure).  Built
        on first use, read-only: quadrature-only grids never need it."""
        kappa = (self.r[1:-1] + 0.5 * self.dr) ** (self.N - 1) / self.dr
        kappa.setflags(write=False)
        return kappa

    @cached_property
    def area_kappa(self) -> np.ndarray:
        """omega_{N-1} kappa: the edge weights of the Dirichlet form."""
        w = sphere_area(self.N) * self.kappa
        w.setflags(write=False)
        return w


def make_grid(r_max: float, dr: float, N: int) -> RadialGrid:
    """Build the uniform grid; weights = omega_{N-1} r^{N-1} x trapezoid coeffs.

    weights[0] is zero for N >= 2 (the r^{N-1} measure vanishes at the origin).
    """
    if not (0 < r_max < math.inf and 0 < dr < math.inf):
        raise ValueError(f"r_max and dr must be finite and positive, got "
                         f"r_max = {r_max}, dr = {dr}")
    if N < 2:
        raise ValueError("N must be >= 2")
    n = int(round(r_max / dr)) + 1
    if n < 3:
        raise ValueError("grid needs at least 3 points")
    r = np.linspace(0.0, r_max, n)
    dr_actual = r_max / (n - 1)
    # formed in place, so that r and weights are the only grid-length arrays
    weights = r ** (N - 1)
    weights *= sphere_area(N)
    weights[[0, -1]] *= 0.5
    weights *= dr_actual
    for a in (r, weights):
        a.setflags(write=False)
    return RadialGrid(N=N, r=r, dr=dr_actual, r_max=r_max, weights=weights)


class NonFiniteError(ValueError):
    """A field or an integral over it holds a non-finite value."""


@dataclass(frozen=True)
class RadialField:
    """Complex-valued radial profile sampled on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or len(v) != len(self.grid):
            raise ValueError(
                f"field has {v.shape} samples, grid has {len(self.grid)} nodes"
            )
        if not np.isfinite(v).all():
            raise NonFiniteError("field contains non-finite samples")
        object.__setattr__(self, "values", v)

    def __mul__(self, c) -> "RadialField":
        return RadialField(self.grid, c * self.values)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))


def require_same_N(grid: RadialGrid, other) -> None:
    """Raise ValueError, naming both dimensions, unless the grid's N is that
    of other: the Params or the grid it is used with."""
    if grid.N != other.N:
        raise ValueError(f"dimension mismatch: the grid has N = {grid.N}, "
                         f"the {type(other).__name__} N = {other.N}")


def blocks(n: int) -> list[slice]:
    """The consecutive _DOT_BLOCK-node slices of range(n) (the last may be
    shorter) that dot sums in order, so block sums added in order are dot's."""
    return [slice(k, min(k + _DOT_BLOCK, n)) for k in range(0, n, _DOT_BLOCK)]


def dot(a: np.ndarray, b: np.ndarray):
    """sum a_i b_i, the one weighted sum over grid samples: np.dot for up to
    _DOT_BLOCK elements, and np.dot of each of the blocks added in order
    beyond.  A BLAS may split a long dot product across threads, which makes
    its last bits depend on the thread count; no block is long enough to be
    split, so the sum is the same whatever the count."""
    if len(a) <= _DOT_BLOCK:
        return np.dot(a, b)
    total = np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK])
    for s in blocks(len(a))[1:]:
        total += np.dot(a[s], b[s])
    return total


def integrate(v, grid: RadialGrid, block: slice = slice(None)) -> float:
    """Integral over R^N of a radial integrand sampled on the grid, or its
    part over grid.r[block] for v sampled there.

    Exact for piecewise-linear radial integrands up to trapezoid error in the
    weight; second-order in dr for smooth integrands.
    """
    v = np.asarray(v)
    w = grid.weights[block]
    if len(v) != len(w):
        raise ValueError("sample count does not match grid")
    if not np.isfinite(v).all():
        raise NonFiniteError("non-finite sample in integrand")
    return float(np.real(dot(w, v)))


def radial_derivative(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """d/dr of the samples v by centered differences, second-order one-sided
    at the endpoints; for derivatives that are not |grad u|^2 integrals,
    which grad_sq_edges owns."""
    return np.gradient(v, grid.dr)


def require_finite(x: float) -> float:
    """x, unless a non-finite sample of the integrand behind it made it
    non-finite (a non-finite sample never sums to a finite value)."""
    if not math.isfinite(x):
        raise NonFiniteError("non-finite sample in integrand")
    return x


def grad_sq_edges(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """The per-edge terms omega_{N-1} kappa_i |v_{i+1} - v_i|^2, i = 1..n-2,
    of the Dirichlet form the Crank-Nicolson step conserves; their sum is
    int |d_r v|^2 over R^N, their node-weighted sums int f |d_r v|^2."""
    d = v[2:] - v[1:-1]
    return grid.area_kappa * np.abs(d) ** 2


def gradient_sq_norm(u: RadialField) -> float:
    """The squared L^2 norm of the gradient, int |d_r u|^2 over R^N, as the
    edge sum of grad_sq_edges."""
    return require_finite(float(np.sum(grad_sq_edges(u.values, u.grid))))


def write_csv(path, columns, rows) -> None:
    """Write a header of column names, then one line per row: numbers in the
    fixed %.12e format, text cells as given.  Each row has the cell types of
    the first, so one line template, built once, formats them all."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        line = None
        for row in rows:
            if line is None:
                line = ",".join("%s" if isinstance(c, str) else "%.12e"
                                for c in row) + "\n"
            fh.write(line % tuple(row))
