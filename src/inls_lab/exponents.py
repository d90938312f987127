"""Exact rational arithmetic for Strichartz-type exponent relations.

Results are fractions.Fraction values.  The scattering exponents
(q, r, k, m) and (l, delta) are each built once from integer polynomials in
alpha's numerator and denominator, and their identities and admissibility
are tested by integer cross-multiplication of the results' numerators and
denominators; the rest is Fraction arithmetic, so no comparison anywhere is
floating.  A pair (q, r) is Schrodinger admissible when 2/q + N/r = N/2 with
r in the dimension-dependent range; q = infinity is encoded as the reciprocal 1/q = 0
(``q=None`` in signatures), which keeps the arithmetic total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .grids import Params, classify

__all__ = [
    "admissible_check",
    "scattering_exponents",
    "auxiliary_exponents",
    "morawetz_beta",
    "dispersive_n_feasible",
    "DispersiveReport",
    "scattering_alpha_window",
    "table",
]


def _inv(q: Fraction | None) -> tuple[int, int]:
    """Numerator and denominator of 1/q, with the q = infinity encoding
    1/q = 0/1."""
    if q is None:
        return 0, 1
    if q.numerator <= 0:
        raise ValueError("exponents must be positive (or None for infinity)")
    return q.denominator, q.numerator


def _require(holds: bool, identity: str) -> None:
    """Raise AssertionError when an exact identity fails; unlike a bare
    assert, the check survives python -O."""
    if not holds:
        raise AssertionError(f"exact identity failed: {identity}")


def admissible_check(q: Fraction | None, r: Fraction | None, N: int) -> bool:
    """Exact check of 2/q + N/r = N/2 plus the r-range case split.

    r in [2, 2N/(N-2)] for N >= 3, [2, inf) for N = 2, [2, inf] for N = 1.
    With 1/q = a/b and 1/r = c/e the relation reads 2(2ae + Ncb) = Nbe.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    (a, b), (c, e) = _inv(q), _inv(r)
    if 2 * (2 * a * e + N * c * b) != N * b * e:
        return False
    if N >= 3:
        return (N - 2) * e <= 2 * N * c and 2 * c <= e
    if N == 2:
        return 0 < c and 2 * c <= e
    return 0 <= c and 2 * c <= e


def scattering_alpha_window(N: int) -> tuple[Fraction, Fraction | None]:
    """The admissible window 4/N < alpha (< 4/(N-2) when N >= 3)."""
    lo = Fraction(4, N)
    hi = Fraction(4, N - 2) if N >= 3 else None
    return lo, hi


def _require_window(alpha: Fraction, N: int) -> None:
    # alpha - 4/N = (nN - 4d)/(dN) and 4/(N-2) - alpha = (4d - n(N-2))/(d(N-2))
    n, d = alpha.numerator, alpha.denominator
    if not (n * N - 4 * d) * N > 0:
        raise ValueError(f"alpha = {alpha} must exceed 4/N = {Fraction(4, N)}")
    if N >= 3 and not 4 * d - n * (N - 2) > 0:
        raise ValueError(f"alpha = {alpha} must be below 4/(N-2) = {Fraction(4, N - 2)}")


def scattering_exponents(alpha: Fraction, N: int) -> tuple[Fraction, ...]:
    """The exponent quadruple (q, r, k, m) of the scattering argument:

        q = 4(a+2)/(Na),  r = a+2,  k = 2a(a+2)/(4-(N-2)a),
        m = 2a(a+2)/(Na^2+(N-2)a-4),

    verified to satisfy 1/k + 1/m = 2/q exactly, k > q/2, and (q, r)
    admissible.  With a = n/d and s = n + 2d each is one quotient of
    integers, e.g. k = 2ns/(d(4d - (N-2)n)).
    """
    alpha = Fraction(alpha)
    _require_window(alpha, N)
    n, d = alpha.numerator, alpha.denominator
    s = n + 2 * d
    q, r = Fraction(4 * s, N * n), Fraction(s, d)
    k_den = 4 * d - (N - 2) * n
    if k_den <= 0:
        raise ValueError("k degenerates: 4 - (N-2) alpha must be positive")
    k = Fraction(2 * n * s, d * k_den)
    m_den = N * n * n + (N - 2) * n * d - 4 * d * d
    if m_den <= 0:
        raise ValueError("m degenerates: N alpha^2 + (N-2) alpha - 4 must be positive")
    m = Fraction(2 * n * s, m_den)
    qn, qd, kn, kd, mn, md = (q.numerator, q.denominator, k.numerator,
                              k.denominator, m.numerator, m.denominator)
    # each identity times the product of its denominators, all positive
    _require((kd * mn + md * kn) * qn == 2 * qd * kn * mn, "1/k + 1/m = 2/q")
    _require(2 * kn * qd > qn * kd, "k > q/2")
    _require(admissible_check(q, r, N), "(q, r) admissible")
    return q, r, k, m


def auxiliary_exponents(alpha: Fraction, N: int) -> tuple[Fraction, Fraction]:
    """The auxiliary pair (l, delta):

        l = 2 N a (a+2) / (N a^2 + 4(N-1) a - 8),  delta = (N a - 4)/(2 a),

    verified to satisfy the Sobolev relation 1/r = 1/l - delta/N (hence
    l <= r), delta in (0, 1), and (k, l) admissible.
    """
    alpha = Fraction(alpha)
    _, r, k, _ = scattering_exponents(alpha, N)
    n, d = alpha.numerator, alpha.denominator
    l_den = N * n * n + 4 * (N - 1) * n * d - 8 * d * d
    if l_den <= 0:
        raise ValueError("l degenerates in the given window")
    l = Fraction(2 * N * n * (n + 2 * d), l_den)
    delta = Fraction(N * n - 4 * d, 2 * n)
    rn, rd, ln, ld, dn, dd = (r.numerator, r.denominator, l.numerator,
                              l.denominator, delta.numerator, delta.denominator)
    # the fractional Sobolev embedding behind the linear-part estimate, times
    # N dd rn ln
    _require(N * dd * rd * ln == (N * dd * ld - dn * ln) * rn, "1/r = 1/l - delta/N")
    _require(ln * rd <= rn * ld, "l <= r")
    _require(0 < dn < dd, "0 < delta < 1")
    _require(admissible_check(k, l, N), "(k, l) admissible")
    return l, delta


def morawetz_beta(params: Params) -> tuple[Fraction, Fraction]:
    """Morawetz decay data (alpha, beta): alpha = p - 1 - 2b/(N-1) and
    beta = max(1/3, 2/((N-1) alpha + 2)) < 1 always, exact in the binary
    fractions that float b and p hold.  alpha is positive as ``classify``
    places p: above 1 + 2b/(N-1), not within its tolerance of it."""
    exact = Params(params.N, Fraction(params.b), Fraction(params.p))
    alpha = exact.p - exact.lwp_lower_p
    if classify(exact).lwp_side <= 0:
        raise ValueError(f"alpha = p - 1 - 2b/(N-1) = {alpha} must be positive")
    beta = max(Fraction(1, 3), Fraction(2) / ((exact.N - 1) * alpha + 2))
    _require(Fraction(0) < beta < Fraction(1), "0 < beta < 1")
    return alpha, beta


@dataclass(frozen=True)
class DispersiveReport:
    """Outcome of the dispersive-exponent feasibility check."""

    feasible: bool
    n: Fraction | None = None        # None encodes n = infinity (1/n = 0)
    theta: Fraction | None = None
    violations: tuple[str, ...] = field(default=())


def dispersive_n_feasible(alpha: Fraction, N: int) -> DispersiveReport:
    """Feasibility of the dispersive interpolation exponent n.

    The choice is 1/n = 0 for alpha > 1 and 1/n = (1-alpha)/2 for alpha <= 1
    (the latter checked through the cubic factorization
    (a+1)(N a^2 + (N-2) a - 4) > 0); theta solves 1/r = theta/l + (1-theta)/n.
    Returns an infeasibility report listing violated constraints instead of
    raising when the constraints fail.
    """
    alpha = Fraction(alpha)
    if N < 3:
        return DispersiveReport(False, violations=("requires N >= 3",))
    try:
        _require_window(alpha, N)
    except ValueError as e:
        return DispersiveReport(False, violations=(str(e),))

    n_inv = Fraction(0) if alpha > 1 else (1 - alpha) / 2
    violations = []
    # constraint set on 1/n: [0, 1/(alpha+2)) window
    if not (0 <= n_inv < 1 / (alpha + 2)):
        violations.append(f"1/n = {n_inv} outside [0, 1/(alpha+2))")
    lo_n = (1 - alpha) / 2
    hi_n = Fraction(N + 2 - (N - 2) * alpha, 2 * N)
    if not (lo_n <= n_inv <= hi_n):
        violations.append(f"1/n = {n_inv} outside [(1-alpha)/2, (N+2-(N-2)a)/(2N)]")
    cubic = (alpha + 1) * (N * alpha**2 + (N - 2) * alpha - 4)
    _require(cubic == N * alpha**3 + 2 * (N - 1) * alpha**2 + (N - 6) * alpha - 4,
             "cubic factorization")
    bound = Fraction((N - 2) * (alpha**2 + 3 * alpha) - 4, 2 * N * alpha * (alpha + 2))
    if not n_inv < bound:
        violations.append(
            f"1/n = {n_inv} not below ((N-2)(a^2+3a)-4)/(2Na(a+2)) = {bound}"
        )
    if alpha <= 1 and not cubic > 0:
        violations.append(f"cubic factorization (a+1)(Na^2+(N-2)a-4) = {cubic} <= 0")
    if violations:
        return DispersiveReport(False, violations=tuple(violations))

    _, r, _, _ = scattering_exponents(alpha, N)
    l, _ = auxiliary_exponents(alpha, N)
    theta = (1 / r - n_inv) / (1 / l - n_inv)
    _require(Fraction(0) < theta <= 1, "0 < theta <= 1")
    n = None if n_inv == 0 else 1 / n_inv
    return DispersiveReport(True, n=n, theta=theta)


def table(N: int, b: Fraction, p: Fraction) -> dict[str, Fraction | int | str]:
    """Every derived exponent of (N, b, p), exact, in table order.

    gamma_c, sigma_c, the Gagliardo-Nirenberg pair A, B and the regime, all
    read from the exact Params; the Morawetz pair (alpha, beta) for the N-1
    radial weight and, while alpha lies in the scattering window,
    (q, r, k, m), (l, delta), n and theta.  The non-numeric entries are the
    strings "inf", "n/a" and "infeasible".
    """
    params = Params(N, Fraction(b), Fraction(p))
    sigma_c = params.sigma_c
    rows: dict[str, Fraction | int | str] = {
        "N": N, "b": params.b, "p": params.p, "gamma_c": params.gamma_c,
        "sigma_c": "inf" if sigma_c == math.inf else sigma_c,
        "A": params.A, "B": params.B,
        "regime": classify(params).kind.value,
    }
    try:
        alpha, beta = morawetz_beta(params)
    except ValueError:
        rows.update(alpha_N_minus_1="n/a", beta="n/a")
        return rows
    rows.update(alpha_N_minus_1=alpha, beta=beta)
    try:
        q, r, k, m = scattering_exponents(alpha, N)
        l, delta = auxiliary_exponents(alpha, N)
    except ValueError:
        rows.update(dict.fromkeys(("q", "r", "k", "m", "l", "delta", "n", "theta"),
                                  "n/a"))
        return rows
    rows.update(q=q, r=r, k=k, m=m, l=l, delta=delta)
    rep = dispersive_n_feasible(alpha, N)
    if rep.feasible:
        rows.update(n="inf" if rep.n is None else rep.n, theta=rep.theta)
    else:
        rows.update(n="infeasible", theta="infeasible")
    return rows
