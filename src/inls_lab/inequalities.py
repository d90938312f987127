"""Numerical evaluation of the radial functional inequalities.

Each operation returns the ratio of the inequality's two sides for a given
profile, so a return value <= C certifies the inequality on that sample;
homogeneity makes every ratio invariant under f -> c f.  Sup-norms are taken
as discrete maxima over the grid, which is accurate to O(dr^2) once the
profile's features are resolved.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .grids import (
    Params,
    RadialField,
    RegimeKind,
    classify,
    gradient_sq_norm,
    integrate,
    make_grid,
    radial_derivative,
    sphere_area,
)
from .functionals import mass, potential, weinstein

__all__ = [
    "radial_sobolev_21",
    "radial_sobolev_23",
    "radial_sobolev_210",
    "gn_check",
    "interpolation_theta",
    "divergence_witness",
    "hardy_ratio",
    "smooth_bump",
]


def _check_nonzero(f: RadialField):
    if f.is_zero:
        raise ValueError("ratio undefined for the zero field")


def radial_sobolev_21(f: RadialField) -> float:
    """sup_r r^{(N-1)/2} |f| divided by ||grad f||^{1/2} ||f||^{1/2}."""
    _check_nonzero(f)
    g = f.grid
    if g.N < 2:
        raise ValueError("requires N >= 2")
    num = float(np.max(g.r ** ((g.N - 1) / 2.0) * np.abs(f.values)))
    den = gradient_sq_norm(f) ** 0.25 * mass(f) ** 0.25
    return num / den


def radial_sobolev_23(f: RadialField) -> float:
    """sup_r r^{(N-2)/2} |f| divided by ||grad f||; needs N >= 3."""
    _check_nonzero(f)
    g = f.grid
    if g.N < 3:
        raise ValueError("requires N >= 3")
    num = float(np.max(g.r ** ((g.N - 2) / 2.0) * np.abs(f.values)))
    return num / gradient_sq_norm(f) ** 0.5


def radial_sobolev_210(f: RadialField, s: float) -> float:
    """sup_r r^{(N-2s)/2} |f| divided by ||grad f||^s ||f||^{1-s}.

    Interpolates the family of radial embeddings; s = 1 reproduces the
    gradient-only ratio and s = 1/2 (at N = 3) the half-half one.
    """
    _check_nonzero(f)
    g = f.grid
    if g.N < 3:
        raise ValueError("requires N >= 3")
    if not 0.5 <= s <= 1.0:
        raise ValueError("s must lie in [1/2, 1]")
    num = float(np.max(g.r ** ((g.N - 2.0 * s) / 2.0) * np.abs(f.values)))
    den = gradient_sq_norm(f) ** (s / 2.0) * mass(f) ** ((1.0 - s) / 2.0)
    return num / den


def gn_check(f: RadialField, params: Params, c_opt: float) -> float:
    """Saturation ratio of the weighted Gagliardo-Nirenberg inequality:

        potential(f) / [c_opt (||grad f||^2)^{A/2} mass(f)^{B/2}]  <=  1,

    with equality (to quadrature accuracy) exactly at the ground state.
    """
    regime = classify(params)
    if regime.lwp_side <= 0:
        raise ValueError(f"inequality requires p > 1 + 2b/(N-1) = "
                         f"{params.lwp_lower_p:.6g}")
    if regime.kind == RegimeKind.ENERGY_SUPERCRITICAL:
        raise ValueError(f"inequality requires p <= (N+2+2b)/(N-2) = "
                         f"{params.energy_critical_p:.6g}")
    return weinstein(f, params) / c_opt


def interpolation_theta(params: Params) -> float:
    """Interpolation weight theta with p+1 between the two endpoint powers
    2 + 2b/(N-1) and (2N+2b)/(N-2).

    Solves p+1 = (2 + 2b/(N-1)) theta + (2N+2b)/(N-2) (1-theta) and verifies
    the two exponent identities for the Gagliardo-Nirenberg pair A, B

        (b/(N-1)) theta + ((2N+2b)/(N-2)) (1-theta) = A,
        (2 + b/(N-1)) theta = B,

    exactly in rational arithmetic.
    """
    N = params.N
    if N < 3:
        raise ValueError("interpolation requires N >= 3")
    exact = Params(N, Fraction(params.b), Fraction(params.p))
    b, p = exact.b, exact.p
    low, high = exact.lwp_lower_p + 1, exact.energy_critical_p + 1
    if not low <= p + 1 <= high:
        raise ValueError(
            f"p+1 = {float(p + 1):.6g} outside the interpolation window "
            f"[{float(low):.6g}, {float(high):.6g}]"
        )
    theta = (high - (p + 1)) / (high - low)
    lhs1 = (b / (N - 1)) * theta + high * (1 - theta)
    lhs2 = (2 + b / (N - 1)) * theta
    if (lhs1, lhs2) != (exact.A, exact.B):
        raise AssertionError("exponent identities of the interpolation failed")
    return float(theta)


def smooth_bump(t: np.ndarray) -> np.ndarray:
    """The standard compactly supported bump exp(-1/(t(1-t))) on (0, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (ti * (1.0 - ti)))
    return out


def divergence_witness(params: Params, k_values) -> list[tuple[float, float]]:
    """Witness family f_k(x) = psi(|x| - k) showing the weighted GN quotient
    diverges below the admissible exponent range.

    Returns (k, ratio_k) with ratio_k = potential(f_k) / ||f_k||_{H^1}^{p+1};
    the ratios grow like k^{(N-1)/2 (1 + 2b/(N-1) - p)}.
    """
    N, p = params.N, params.p
    if classify(params).lwp_side >= 0:
        raise ValueError(
            f"the divergence witness exists only for 1 < p < 1 + 2b/(N-1) "
            f"= {params.lwp_lower_p:.6g}; got p = {p:.6g}"
        )
    out = []
    for k in k_values:
        k = float(k)
        grid = make_grid(k + 2.0, 1e-3, N)
        f = RadialField(grid, smooth_bump(grid.r - k))
        h1 = mass(f) + gradient_sq_norm(f)
        ratio = potential(f, params) / h1 ** ((p + 1.0) / 2.0)
        out.append((k, ratio))
    return out


def witness_slope(pairs) -> float:
    """Least-squares log-log slope of (k, ratio) pairs."""
    ks = np.log([k for k, _ in pairs])
    rs = np.log([r for _, r in pairs])
    return float(np.polyfit(ks, rs, 1)[0])


def hardy_ratio(f: RadialField, r_exp: float) -> float:
    """|| |x|^{-1} f ||_{L^r} / || d_r f ||_{L^r}, bounded by r/(N-r).

    Needs 1 < r_exp < N and f either vanishing at the origin or bounded with
    the weight integrable there; the r = 0 node contributes its integrand
    limit (zero unless r_exp = N-1).
    """
    _check_nonzero(f)
    g = f.grid
    N = g.N
    if not 1.0 < r_exp < N:
        raise ValueError(f"Hardy exponent must lie in (1, N), got {r_exp}")
    av = np.abs(f.values)
    # integrand |f/r|^q r^{N-1} = |f|^q r^{N-1-q}; the r = 0 node carries
    # weight r^{N-1}, so its contribution is the limit |f(0)|^q r^{N-1-q},
    # zero for q < N-1 and a half-cell of |f(0)|^q at q = N-1
    num_int = np.zeros_like(av)
    num_int[1:] = (av[1:] / g.r[1:]) ** r_exp
    num = integrate(num_int, g)
    if (N - 1.0) - r_exp == 0.0:
        num += 0.5 * g.dr * sphere_area(N) * av[0] ** r_exp
    den_int = np.abs(radial_derivative(f.values, g)) ** r_exp
    den = integrate(den_int, g)
    return (num / den) ** (1.0 / r_exp)
