"""Ground states of -Q'' - (N-1)/r Q' + Q = r^b Q^p by shooting, the explicit
energy-critical profile W, and the exact constants of the Shioji-Watanabe
uniqueness criterion.

Shooting integrates the radial ODE outward from r = 0 with a series start
(the (N-1)/r term is singular there) and bisects the initial amplitude
a = Q(0) between trajectories that cross zero (overshoot) and trajectories
that turn back upward while still positive (undershoot).  Because the
nonlinear coefficient r^b vanishes at the origin, the profile initially
*rises* from Q(0) -- its maximum sits at some r* > 0 -- before decaying
exponentially.  A trajectory that passes 50 Q(0) before its first turn is a
third fate, a runaway: a bisection against it would converge on its edge,
not on the ground state, so shoot raises wherever it meets one.

Every trajectory of a shoot visits the same radii, so the radius terms r^b
and (N-1)/r are tabulated once per (N, b, dr, r_max) (``_radii``, which
keeps only the last table) and the RK4 loop is written out flat over that
table.

The bracket comes from a geometric sweep that scans Q(0) = 2^10, 2^9, ...
down to the first undershoot directly below an overshoot.  An overshoot at
large Q(0) crosses zero within a few hundred nodes, while an undershoot
runs to r of about 6 whatever its Q(0), so scanning from the top
integrates few undershoots.

The bisection's result depends only on which side of the threshold a*
each dyadic midpoint falls, so it is found by search, then replay.  The
search (``_search``) tightens the sweep's bracket to a clean (U, O) with
few trajectories: an overshoot at d = a - a* crosses zero at a radius r_d
with log d + 2 r_d - (4 nu^2 - 1)/(4 r_d), nu = (N-2)/2, nearly constant,
so two overshoots place a*.  It shoots only midpoints of the bisection's
own path, walked with the estimate standing in for the fates it has not
integrated.  The replay runs the bisection loop unchanged (``_bisect``
serves both), except that a midpoint <= U is an undershoot and one >= O
an overshoot without being read.  Every trajectory, the sweep's too, goes
into one table keyed by Q(0) that each phase reads before it integrates,
so no Q(0) is integrated twice and the table's size is the trajectory
count.  It keeps an overshoot's fate alone (the sweep's above lo as well)
and any other trajectory whole, and goes when shoot returns.
The converged profile is the trajectory of the final undershoot end.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .grids import (
    Params,
    RadialField,
    RadialGrid,
    RegimeKind,
    classify,
    gradient_sq_norm,
    integrate,
    make_grid,
    require_same_N,
)
from . import functionals

__all__ = [
    "GroundState",
    "shoot",
    "explicit_W",
    "W_value",
    "W_prime",
    "uniqueness_constants",
    "W_identities",
    "sharp_sobolev_constant",
    "ground_state_fixture",
]

_OVERSHOOT = 1
_UNDERSHOOT = -1
_RUNAWAY = 2


@dataclass(frozen=True)
class GroundState:
    """A converged positive radial solution with shooting metadata."""

    profile: RadialField
    shoot_value: float     # Q(0)
    ode_residual: float    # sup-norm of the stationary equation on the interior
    decay_rate: float      # fitted C in Q ~ e^{-C r}
    params: Params
    r_match: float         # radius where the asymptotic tail was grafted
    trajectories: int      # RK4 trajectories integrated: sweep, search and bisection
    bisection_steps: int
    bracket: tuple[float, float]  # final (undershoot, overshoot) Q(0) bracket

    def resample(self, grid: RadialGrid) -> RadialField:
        """Profile on another grid: interpolated inside, analytic tail beyond."""
        require_same_N(grid, self.params)
        src = self.profile.grid
        vals = np.interp(grid.r, src.r, np.real(self.profile.values))
        beyond = grid.r > src.r_max
        if np.any(beyond):
            i = np.searchsorted(src.r, self.r_match)
            q = float(np.real(self.profile.values[i]))
            c = q / _tail(src.r[i], 1.0, self.params.N)
            vals[beyond] = _tail(grid.r[beyond], c, self.params.N)
        return RadialField(grid, vals)


def _tail(r, c, N):
    return c * r ** (-(N - 1) / 2.0) * np.exp(-r)


# the (N-1)/r term makes the first nodes stiff: the first _REFINED_NODES
# steps past the series start take _SUBSTEPS RK4 substeps each
_REFINED_NODES = 16
_SUBSTEPS = 16

@functools.lru_cache(maxsize=1)
def _radii(N: int, b: float, dr: float, r_max: float) -> tuple:
    """The radius terms r^b and (N-1)/r of every RK4 step on (N, b, dr, r_max).

    They do not depend on the trajectory, so one table serves every
    trajectory of a shoot.  The radii are accumulated exactly as the steps
    advance, r -> r + h with h = dr/16 on the refined nodes and h = dr after
    them, and the terms are taken with Python's ** (numpy's power does not
    round like libm's pow).  The table is (dr^b, (N-1)/dr, segments): per
    segment, h, the steps per sampled node, and r^b and (N-1)/r at each
    step's midpoint r + h/2 and end r + h; a step's end is the next step's
    start.  Only the last table is kept, and shoot releases it once its
    bisection ends or it raises before that.
    """
    n = int(round(r_max / dr)) + 1
    refined = min(_REFINED_NODES, n - 2)  # nodes after the series start
    nm1 = N - 1.0
    r = dr
    segments = []
    for h, per_node, steps in ((dr / _SUBSTEPS, _SUBSTEPS, _SUBSTEPS * refined),
                               (dr, 1, n - 2 - refined)):
        hh = 0.5 * h
        mid_b, mid_c, end_b, end_c = (array("d") for _ in range(4))
        for _ in range(steps):
            rh = r + hh
            r = r + h
            mid_b.append(rh**b)
            mid_c.append(nm1 / rh)
            end_b.append(r**b)
            end_c.append(nm1 / r)
        segments.append((h, per_node, mid_b, mid_c, end_b, end_c))
    return dr**b, nm1 / dr, segments


def _shoot_trajectory(a: float, N: int, b: float, p: float, dr: float, r_max: float):
    """Fixed-step RK4 integration of Q'' = Q - r^b |Q|^{p-1} Q - (N-1)/r Q'.

    Returns (fate, samples, dsamples) where fate is OVERSHOOT (Q crossed
    zero), UNDERSHOOT (Q' turned positive past the maximum while Q > 0),
    RUNAWAY (Q passed 50 Q(0) before its first turn), or 0 when the
    trajectory reached r_max without any of these.  samples and
    dsamples hold Q and Q' at the grid nodes 0, dr, 2 dr, ... up to the
    stopping point.  The stages are written out in one flat loop over the
    radius table of _radii, with k1q = v, k2q = v2, k3q = v3 and k4q = v4.
    """
    rb, nr, segments = _radii(N, b, dr, r_max)
    # series start: Q = a + a r^2/(2N) - a^p r^{2+b}/((2+b)(N+b)) + O(r^4)
    r = dr
    q = a + a * r * r / (2.0 * N) - a**p * r ** (2.0 + b) / ((2.0 + b) * (N + b))
    v = a * r / N - a**p * r ** (1.0 + b) / (N + b)
    qs = array("d", (a, q))
    vs = array("d", (0.0, v))
    if q <= 0.0:
        # the series start has already crossed zero
        return _OVERSHOOT, np.frombuffer(qs), np.frombuffer(vs)
    pm1 = p - 1.0
    runaway = 50.0 * a
    turned = False
    fate = 0
    for h, per_node, mid_b, mid_c, end_b, end_c in segments:
        hh = 0.5 * h
        left = per_node
        for rbh, nrh, rb1, nr1 in zip(mid_b, mid_c, end_b, end_c):
            k1v = q - rb * (q if q > 0.0 else -q) ** pm1 * q - nr * v
            q2 = q + hh * v
            v2 = v + hh * k1v
            k2v = q2 - rbh * (q2 if q2 > 0.0 else -q2) ** pm1 * q2 - nrh * v2
            q3 = q + hh * v2
            v3 = v + hh * k2v
            k3v = q3 - rbh * (q3 if q3 > 0.0 else -q3) ** pm1 * q3 - nrh * v3
            q4 = q + h * v3
            v4 = v + h * k3v
            k4v = q4 - rb1 * (q4 if q4 > 0.0 else -q4) ** pm1 * q4 - nr1 * v4
            q = q + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
            v = v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
            rb = rb1
            nr = nr1
            left -= 1
            if left:
                continue
            left = per_node
            qs.append(q)
            vs.append(v)
            if q <= 0.0:
                fate = _OVERSHOOT
                break
            if v > 0.0:
                if turned:  # rising again past the maximum
                    fate = _UNDERSHOOT
                    break
                if q > runaway:
                    fate = _RUNAWAY
                    break
            else:  # at or past the maximum
                turned = True
        if fate:
            break
    return fate, np.frombuffer(qs), np.frombuffer(vs)


def _d4(y: np.ndarray, dr: float) -> np.ndarray:
    """Fourth-order first derivative at nodes 2..n-3."""
    return (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12.0 * dr)


def _ode_residual(q: np.ndarray, v: np.ndarray, r: np.ndarray, dr: float,
                  params: Params, r_match: float) -> float:
    """Sup-norm defect of the stationary equation on the interior.

    Measured on the first-order system (Q, Q') with fourth-order stencils:
    probing Q'' directly would amplify integrator roundoff by 1/dr^2 and
    report the probe's noise instead of the profile's defect.  The window
    excludes the first few nodes (1/r amplification) and the grafted tail.
    """
    N, b, p = params.N, params.b, params.p
    rc = r[2:-2]
    qc, vc = q[2:-2], v[2:-2]
    res_q = np.abs(_d4(q, dr) - vc)
    res_v = np.abs(_d4(v, dr) - (qc - rc**b * np.abs(qc) ** (p - 1.0) * qc
                                 - (N - 1) / rc * vc))
    resid = np.maximum(res_q, res_v)
    window = (rc >= 10 * dr) & (rc <= 0.8 * r_match)
    return float(resid[window].max())


# Fates turn to noise within about 1e-14 Q(0) of the threshold.  The search
# stops once its bracket is within 4 max(tol, _CLEAN Q(0)) and shoots no
# closer than _CLEAN Q(0) to its estimate of the threshold, so that U and O,
# whose sides the replay extends to every midpoint beyond them, stay about a
# hundred times farther out than that.
_CLEAN = 1e-12
# the search aims at _AIM (O - estimate) either side of its estimate
_AIM = 3e-4

_OVERSHOT = (_OVERSHOOT, None, None)  # an overshoot's entry in a shoot's table


def _trajectory(a: float, table: dict, N: int, b: float, p: float, dr: float,
                r_max: float):
    """The trajectory of Q(0) = a from the shoot's table, integrated and
    entered on a miss; a runaway raises RuntimeError.  Every phase of shoot
    reads through it.  The table keeps an overshoot (the sweep's above lo
    too) as its fate alone and any other trajectory whole."""
    run = table.get(a)
    if run is None:
        run = _shoot_trajectory(a, N, b, p, dr, r_max)
        if run[0] == _RUNAWAY:
            raise RuntimeError(
                f"shooting trajectory Q(0) = {a!r} ran away: it passed 50 Q(0) "
                f"at r = {(len(run[1]) - 1) * dr:.6g} before it first turned "
                f"over, at (N, b, p) = ({N}, {b}, {p})"
            )
        table[a] = _OVERSHOT if run[0] == _OVERSHOOT else run
    return run


def _crossing(qs: np.ndarray, dr: float) -> float:
    """The radius where an overshoot crosses zero, linear between its last
    two samples."""
    return (len(qs) - 1 + qs[-1] / (qs[-2] - qs[-1])) * dr


def _law(r: float, N: int) -> float:
    """w(r) = 2 r - (4 nu^2 - 1)/(4 r), nu = (N - 2)/2: an overshoot at
    distance d above a* crosses zero at the r_d where log d + w(r_d) is
    nearly constant, the ratio of the Bessel tails K_nu/I_nu of Q and of the
    growing mode."""
    return 2.0 * r - ((N - 2.0) ** 2 - 1.0) / (4.0 * r)


def _bisect(lo: float, hi: float, tol: float, low) -> tuple[float, float, int]:
    """The bisection of (lo, hi) down to width tol, or as tight as floats
    allow, in which low(mid) says whether a midpoint replaces lo or hi.
    Returns (lo, hi, steps)."""
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        steps += 1
        if low(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, steps


def _search(lo, hi, hi_run, table: dict, N: int, b: float, p: float,
            dr: float, r_max: float, tol: float):
    """Tighten the sweep's bracket (lo, hi) to a clean (U, O) around the
    bisection's threshold, shooting only midpoints of the bisection's path.

    Two overshoots O1 > O, crossing zero at r1 < r (_crossing), place
    a* = (O1 - rho O)/(1 - rho) with rho = e^{w(r) - w(r1)} (_law).  Once a
    shot has reached r_max without a fate, the threshold is the smallest
    Q(0) that overshoots before r_max, T = a* + (O - a*) e^{w(r) - w(r_max)},
    and the estimate moves there.  Each pass walks the bisection from
    (lo, hi) (_bisect), sending every midpoint strictly inside (U, O) to
    its side of the estimate, and shoots the walk's midpoints nearest the
    estimate -+ s, s = max(_AIM (O - estimate), clean), among those at
    least clean = max(tol, _CLEAN O) below and above it.  Without an
    estimate inside (U, O) it shoots the walk's first midpoint inside.
    While the estimate puts the walk's midpoints on their true sides, the
    shots are midpoints the replay visits, read back from table, and U and
    O lie on the bisection's path, past which the replay's extension of
    their sides is exact.
    Only points strictly inside (U, O) are shot, so U stays an undershoot
    (or a run that reached r_max) and O an overshoot.  The search stops
    while both are clean: when O - U <= 4 clean, when an overshoot crosses
    no later than O, which outside the noise it would not, or when no
    midpoint is left to shoot.  Every trajectory goes into table.

    Returns (U, O).
    """
    U, O = lo, hi
    r_O = _crossing(hi_run[1], dr)
    est = None    # a* by the law, from O and the overshoot before it
    w_top = None  # the law at r_max, once a shot has reached it
    while True:
        clean = max(tol, _CLEAN * O)
        if O - U <= 4.0 * clean:
            return U, O
        star = est
        if star is not None and w_top is not None:
            star += (O - star) * math.exp(_law(r_O, N) - w_top)
        if star is not None and not U < star < O:
            star = None
        # the bisection's path if fates fall as U, O and the estimate say
        inside = []

        def low(mid):
            if not U < mid < O:
                return mid <= U
            inside.append(mid)
            return star is not None and mid < star

        _bisect(lo, hi, tol, low)
        targets = inside[:1]
        if star is not None:
            s = max(_AIM * (O - star), clean)
            targets = []
            for side in (-1.0, 1.0):
                near = [m for m in inside if side * (m - star) >= clean]
                if near:
                    targets.append(min(near, key=lambda m: abs(m - star - side * s)))
        if not targets:
            return U, O
        for a in targets:
            if not U < a < O:
                continue
            run = _trajectory(a, table, N, b, p, dr, r_max)
            if run[0] == _OVERSHOOT:
                r_a = _crossing(run[1], dr)
                if r_a <= r_O:
                    return U, O
                rho = math.exp(_law(r_a, N) - _law(r_O, N))
                est = (O - rho * a) / (1.0 - rho) if rho > 1.0 else None
                O, r_O = a, r_a
            else:
                U = a
                if not run[0]:
                    w_top = _law((len(run[1]) - 1) * dr, N)


def shoot(params: Params, r_max: float = 20.0, tol: float = 1e-12,
          dr: float = 1e-3) -> GroundState:
    """Compute the positive radial ground state by bisection on Q(0).

    The bracket is found by a geometric sweep a = 2^k, k = 10, 9, ..., -10,
    that stops at the first undershoot lo = 2^k directly below an overshoot
    hi = 2^(k+1); raising Q(0) moves trajectories from undershoot toward
    overshoot, and the bisection keeps that ordering as an invariant.  An
    overshoot directly below an undershoot on the sweep breaks it and
    raises, and so does a runaway wherever shoot meets one.  The sweep
    applies these checks to the points from 2^10 down to lo and never
    integrates a point below lo, so fates there go unchecked.

    The bisection is searched, then replayed (see the module docstring); its
    lo, hi and step count are those of integrating every midpoint, as long
    as fates are monotone in Q(0) outside the search's bracket.  The sweep,
    the search, the replay and the final lo share one table of trajectories,
    so no Q(0) is integrated twice and its size is the trajectory count.
    Beyond the radius where the profile has decayed below 1e-8 Q(0), the
    linearized tail c r^{-(N-1)/2} e^{-r} is grafted in place of the
    bisection-noise tail.
    """
    N, b, p = params.N, params.b, params.p
    if not 0 < tol < math.inf:
        raise ValueError(f"bisection tolerance must be finite and positive, got {tol}")
    regime = classify(params)
    if regime.kind in (RegimeKind.ENERGY_SUPERCRITICAL, RegimeKind.ENERGY_CRITICAL):
        raise ValueError(
            f"shooting requires energy-subcritical parameters "
            f"(p < (N+2+2b)/(N-2) when N >= 3); got {regime.kind.value}"
        )
    if regime.lwp_side <= 0:
        raise ValueError(
            "existence of the Gagliardo-Nirenberg optimizer requires the strict "
            f"bound p > 1 + 2b/(N-1) = {params.lwp_lower_p:.6g} (Thm 2.1); "
            f"got p = {p:.6g}"
        )

    grid = make_grid(r_max, dr, N)  # rejects a grid of fewer than 3 nodes

    # the radius table (32 B per node) is read only by the sweep, the
    # search and the bisection: release it when they end, raised or not
    try:
        # geometric sweep from the top for an (undershoot, overshoot) bracket
        table = {}
        above = None
        for k in range(10, -11, -1):
            run = _trajectory(2.0**k, table, N, b, p, dr, r_max)
            if above is not None:
                if run[0] == _UNDERSHOOT and above[0] == _OVERSHOOT:
                    break
                if run[0] == _OVERSHOOT and above[0] == _UNDERSHOOT:
                    raise RuntimeError(
                        "shooting fates are not monotone in Q(0) on the sweep"
                    )
            above = run
        else:
            raise RuntimeError(
                f"no undershoot/overshoot bracket found for Q(0) in "
                f"[2^-10, 2^10] at (N, b, p) = ({N}, {b}, {p})"
            )
        lo, hi = 2.0**k, 2.0 ** (k + 1)  # lo undershoots, hi overshoots
        U, O = _search(lo, hi, above, table, N, b, p, dr, r_max, tol)

        def low(mid):
            # replay: a midpoint <= U goes low and one >= O high unread;
            # inside, an undershoot or a run that reached r_max cleanly
            # (taken as decayed from above) goes low
            if not U < mid < O:
                return mid <= U
            return _trajectory(mid, table, N, b, p, dr, r_max)[0] != _OVERSHOOT

        lo, hi, bisections = _bisect(lo, hi, tol, low)
        fate, qs, vs = _trajectory(lo, table, N, b, p, dr, r_max)
        if fate == _OVERSHOOT:
            raise RuntimeError(
                f"shooting fates are not monotone in Q(0): {lo!r} overshoots "
                f"below the undershoot {U!r}"
            )
    finally:
        _radii.cache_clear()

    n = len(grid)
    q_full = np.zeros(n)
    q_full[: len(qs)] = qs

    # lo is no overshoot, so every sample is positive: an overshoot ends at
    # its first sample <= 0, the series start included
    i_peak = int(np.argmax(qs))
    if i_peak == len(qs) - 1:
        raise RuntimeError(
            f"converged profile never decayed: it peaks at its last sample "
            f"at (N, b, p) = ({N}, {b}, {p})"
        )

    # matching radius: first node past the peak where Q < 1e-8 Q(0); if the
    # trajectory misbehaves first, back off one length unit from the stop
    thresh = 1e-8 * lo
    below = np.nonzero(qs[i_peak:] < thresh)[0]
    if len(below):
        i_match = i_peak + int(below[0])
    else:
        i_match = max(i_peak + 1, len(qs) - 1 - int(round(1.0 / dr)))
    r_match = grid.r[i_match]

    c_tail = qs[i_match] / _tail(r_match, 1.0, N)
    q_full[i_match:] = _tail(grid.r[i_match:], c_tail, N)

    # decay rate: least-squares slope of log Q on [r_match/2, r_match]
    fit_mask = (grid.r >= r_match / 2.0) & (grid.r <= r_match)
    rr = grid.r[fit_mask]
    qq = q_full[fit_mask]
    slope = np.polyfit(rr, np.log(qq), 1)[0]
    decay_rate = -float(slope)

    profile = RadialField(grid, q_full)
    ode_residual = _ode_residual(qs, vs, grid.r[: len(qs)], dr, params, r_match)

    return GroundState(
        profile=profile,
        shoot_value=lo,
        ode_residual=ode_residual,
        decay_rate=decay_rate,
        params=params,
        r_match=float(r_match),
        trajectories=len(table),
        bisection_steps=bisections,
        bracket=(lo, hi),
    )


# ---------------------------------------------------------------------------
# explicit energy-critical profile
# ---------------------------------------------------------------------------

def W_value(r, N: int, b: float):
    """W(r) = (1 + r^{2+b}/((N+b)(N-2)))^{-(N-2)/(2+b)}."""
    return (1.0 + np.asarray(r) ** (2.0 + b) / ((N + b) * (N - 2))) ** (
        -(N - 2.0) / (2.0 + b)
    )


def W_prime(r, N: int, b: float):
    """Radial derivative of W, in closed form."""
    r = np.asarray(r)
    base = 1.0 + r ** (2.0 + b) / ((N + b) * (N - 2))
    return (
        -(N - 2.0) / (2.0 + b)
        * base ** (-(N - 2.0) / (2.0 + b) - 1.0)
        * (2.0 + b) * r ** (1.0 + b) / ((N + b) * (N - 2))
    )


def explicit_W(params: Params, grid: RadialGrid) -> RadialField:
    """The explicit algebraic-decay solution of the energy-critical equation."""
    require_same_N(grid, params)
    if params.N < 3:
        raise ValueError("the explicit profile W requires N >= 3")
    if classify(params).kind != RegimeKind.ENERGY_CRITICAL:
        raise ValueError(
            "explicit W is defined only at energy-critical parameters "
            "p = (N+2+2b)/(N-2)"
        )
    return RadialField(grid, W_value(grid.r, params.N, params.b))


def W_identities(params: Params, grid: RadialGrid) -> dict[str, float]:
    """The quadratures potential = int r^b W^{(2N+2b)/(N-2)} and
    grad_sq = ||grad W||^2, taken once with the analytic derivative of W,
    the sharp_sobolev_constant they give, and the relative deviations dev_511
    of (5.11) potential = grad_sq and dev_512 of (5.12)
    E(W) = (b+2)/(2N+2b) grad_sq."""
    require_same_N(grid, params)
    if classify(params).kind != RegimeKind.ENERGY_CRITICAL:
        raise ValueError("the W identities and the sharp Sobolev constant "
                         "require energy-critical parameters")
    N, b, r = params.N, params.b, grid.r
    pot = integrate(r**b * W_value(r, N, b) ** ((2.0 * N + 2.0 * b) / (N - 2.0)), grid)
    grad_sq = integrate(W_prime(r, N, b) ** 2, grid)
    ref_512 = (b + 2) / (2 * N + 2 * b) * grad_sq
    return {
        "potential": pot,
        "grad_sq": grad_sq,
        "sharp_sobolev_constant": pot / grad_sq ** ((N + b) / (N - 2.0)),
        "dev_511": abs(pot - grad_sq) / grad_sq,
        "dev_512": abs(functionals.energy_of(grad_sq, pot, params.p) - ref_512)
        / abs(ref_512),
    }


def sharp_sobolev_constant(params: Params, grid: RadialGrid) -> float:
    """Optimal constant of the weighted critical Sobolev inequality,

        C_sha = int r^b W^{(2N+2b)/(N-2)}  /  (||grad W||^2)^{(N+b)/(N-2)},

    evaluated by quadrature with the analytic derivative of W.  No code in
    the package calls it, but it is not dead: benchmarks/child.py installs
    its tracer on this name and fails if it is gone.
    """
    return W_identities(params, grid)["sharp_sobolev_constant"]


# ---------------------------------------------------------------------------
# uniqueness constants
# ---------------------------------------------------------------------------

def uniqueness_constants(params: Params) -> tuple[Fraction, Fraction, Fraction]:
    """The constants (C, D, k^2) of the Shioji-Watanabe uniqueness criterion
    behind Thm 2.1, exact in rational arithmetic (b and p are read as the
    binary fractions their floats hold).

    With f = r^{N-1}, g = -1, h = r^b the auxiliary functions are pure
    powers of r, and the criterion's G is

        G(r) = (-C r^2 + D) r^{e-3},   e = (2(N-1)(p+1) - 2b)/(p+3),
        C = ((N-1)(p-1) - 2b)/(p+3),
        D = (2(N-1)+b)(2N+2b-(N-2)(p+1))((N-2)(p+1)-2-b)/(p+3)^3.

    G changes sign once, at k = sqrt(D/C), when D > 0; otherwise G < 0 and
    k^2 = 0.  On the range accepted here (Params gives N >= 2 and b > 0;
    classify puts p above 1 + 2b/(N-1) and, for N >= 3, below (N+2+2b)/(N-2))
    the seven conditions hold by algebra, so none is computed:
    (1) f = r^{N-1} is bounded at 0 because N >= 2;
    (2) (1/f) int_0^r f (|g|+h) = r/N + r^{b+1}/(N+b) -> 0;
    (3) f (g+h) = r^{N-1}(r^b - 1) is integrable at 0, and 1/f = r^{1-N}
        is not;
    (4) e > 0 and (2N-3)(p+1) - 2 - 2b > 0 once p > 1 + 2b/(N-1);
    (5) gamma's coefficient (2(N-1)+b)(2N+2b-(N-2)(p+1)) is positive once
        p < (N+2+2b)/(N-2);
    (6) -C r^2 + D changes sign at most once because C > 0;
    (7) C > 0 once p > 1 + 2b/(N-1), so G < 0 beyond k.
    """
    N = params.N
    regime = classify(params)
    if regime.lwp_side <= 0:
        raise ValueError(f"uniqueness criteria require p > 1 + 2b/(N-1) = "
                         f"{params.lwp_lower_p:.6g}")
    if regime.kind in (RegimeKind.ENERGY_CRITICAL, RegimeKind.ENERGY_SUPERCRITICAL):
        raise ValueError(
            f"uniqueness criteria require p < (N+2+2b)/(N-2) = "
            f"{params.energy_critical_p:.6g}"
        )
    b, p = Fraction(params.b), Fraction(params.p)
    C = ((N - 1) * (p - 1) - 2 * b) / (p + 3)
    D = ((2 * (N - 1) + b) * (2 * N + 2 * b - (N - 2) * (p + 1))
         * ((N - 2) * (p + 1) - 2 - b) / (p + 3) ** 3)
    return C, D, D / C if D > 0 else Fraction(0)


# ---------------------------------------------------------------------------
# regression fixture format (flat JSON)
# ---------------------------------------------------------------------------

def ground_state_fixture(gs: GroundState) -> dict:
    """Flat JSON-ready record of the reference quantities of a ground state."""
    return {
        "params": asdict(gs.params),
        "shoot_value": gs.shoot_value,
        "mass": functionals.mass(gs.profile),
        "grad_sq": gradient_sq_norm(gs.profile),
        "potential": functionals.potential(gs.profile, gs.params),
    }
