import math
from fractions import Fraction as F

import numpy as np
import pytest

from inls_lab.grids import (
    Params,
    gradient_sq_norm,
    integrate,
    make_grid,
)
from inls_lab.functionals import energy, mass, pohozaev_residuals, potential
from inls_lab import ground_state
from inls_lab.ground_state import (
    W_identities,
    W_prime,
    W_value,
    _shoot_trajectory,
    explicit_W,
    ground_state_fixture,
    sharp_sobolev_constant,
    shoot,
    uniqueness_constants,
)

from conftest import P214, P313, P314, P425, lumped_laplacian


class TestShoot:
    def test_reference_314(self, q314):
        r1, r2 = pohozaev_residuals(q314.profile, P314)
        assert r1 < 1e-4 and r2 < 1e-4
        assert q314.decay_rate == pytest.approx(1.0, abs=0.1)
        assert q314.ode_residual < 1e-6

    def test_reference_214(self, q214):
        r1, r2 = pohozaev_residuals(q214.profile, P214)
        assert r1 < 1e-4 and r2 < 1e-4
        assert q214.ode_residual < 1e-6
        assert 0.8 <= q214.decay_rate <= 1.2

    def test_reference_313(self, q313):
        r1, r2 = pohozaev_residuals(q313.profile, P313)
        assert r1 < 1e-4 and r2 < 1e-4
        assert q313.ode_residual < 1e-6

    def test_regression_fixtures(self, frozen_ground_states, q314, q313, q214):
        for key, gs in [("3_1_4", q314), ("3_1_3", q313), ("2_1_4", q214)]:
            ref = frozen_ground_states[key]
            got = ground_state_fixture(gs)
            for field in ("shoot_value", "mass", "grad_sq", "potential"):
                assert got[field] == pytest.approx(ref[field], rel=1e-6), (
                    key, field)

    def test_boundary_p_rejected(self):
        # p = 2 sits exactly on 1 + 2b/(N-1); the strict bound is required
        with pytest.raises(ValueError, match="Thm 2.1"):
            shoot(Params(3, 1.0, 2.0))

    def test_energy_critical_rejected(self):
        with pytest.raises(ValueError):
            shoot(P425)

    def test_runaway_undershoots_near_lower_bound(self):
        # just above p = 5/3 the sweep's lo, 2^-10, passes 50 Q(0) before it
        # turns over: shoot raises there instead of bisecting toward the
        # runaway/overshoot boundary
        with pytest.raises(RuntimeError, match=r"ran away.*\(4, 1.0, 1.67\)"):
            shoot(Params(4, 1.0, 1.67), dr=1e-2)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            shoot(P214, tol=tol)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="at least 3 points"):
            shoot(P214, r_max=0.01, dr=1e-2)

    def test_tol_below_float_spacing_returns(self):
        # the bisection ends when its midpoint rounds onto the bracket
        tiny = shoot(P214, tol=1e-300, dr=1e-2)
        ref = shoot(P214, dr=1e-2)
        assert tiny.shoot_value == pytest.approx(ref.shoot_value, rel=1e-11)

    def test_positivity_and_single_peak(self, q314):
        q = np.real(q314.profile.values)
        g = q314.profile.grid
        core = g.r <= q314.r_match
        assert np.all(q[core] > 0)
        # single interior maximum, decreasing beyond it
        i_peak = int(np.argmax(q))
        assert 0 < g.r[i_peak] < 1.0
        tail = q[i_peak:][g.r[i_peak:] <= q314.r_match]
        assert np.all(np.diff(tail) < 0)

    def test_residual_refines_second_order(self):
        res = {}
        for dr in (1.6e-2, 8e-3):
            res[dr] = shoot(P314, dr=dr).ode_residual
        assert res[1.6e-2] / res[8e-3] >= 3.5

    def test_mass_critical_energy_is_zero(self, q313):
        # at mass-critical parameters the ground state has E(Q) = 0
        E = energy(q313.profile, P313)
        scale = gradient_sq_norm(q313.profile)
        assert abs(E) / scale < 1e-4

    def test_energy_matches_pohozaev_form(self, q314):
        # E(Q) = (N(p-1)-4-2b)/(2(N(p-1)-2b)) ||grad Q||^2
        E = energy(q314.profile, P314)
        pred = 3.0 / 14.0 * gradient_sq_norm(q314.profile)
        assert E == pytest.approx(pred, rel=1e-4)

    def test_resample_preserves_quadratures(self, q314, evo_grid):
        u = q314.resample(evo_grid)
        assert mass(u) == pytest.approx(mass(q314.profile), rel=1e-4)
        assert gradient_sq_norm(u) == pytest.approx(
            gradient_sq_norm(q314.profile), rel=1e-3
        )

    def test_resample_checks_dimension(self, q314):
        # Q of N = 3 laid on an N = 2 grid would be a wrong profile
        with pytest.raises(ValueError, match="the grid has N = 2, the Params N = 3"):
            q314.resample(make_grid(8.0, 1e-2, 2))


def _reference_trajectory(a, N, b, p, dr, r_max):
    """The shooting trajectory as a closure-per-step RK4 loop that takes its
    radius terms at each step and stores its samples into numpy arrays."""
    n = int(round(r_max / dr)) + 1
    qs = np.empty(n)
    vs = np.empty(n)
    qs[0] = a
    vs[0] = 0.0
    r = dr
    q = a + a * r * r / (2.0 * N) - a**p * r ** (2.0 + b) / ((2.0 + b) * (N + b))
    v = a * r / N - a**p * r ** (1.0 + b) / (N + b)
    qs[1] = q
    vs[1] = v
    nm1 = N - 1.0
    pm1 = p - 1.0

    def rk4(q, v, r, h):
        k1q = v
        k1v = q - r**b * abs(q) ** pm1 * q - nm1 / r * v
        rh = r + 0.5 * h
        q2 = q + 0.5 * h * k1q
        v2 = v + 0.5 * h * k1v
        k2q = v2
        k2v = q2 - rh**b * abs(q2) ** pm1 * q2 - nm1 / rh * v2
        q3 = q + 0.5 * h * k2q
        v3 = v + 0.5 * h * k2v
        k3q = v3
        k3v = q3 - rh**b * abs(q3) ** pm1 * q3 - nm1 / rh * v3
        rf = r + h
        q4 = q + h * k3q
        v4 = v + h * k3v
        k4q = v4
        k4v = q4 - rf**b * abs(q4) ** pm1 * q4 - nm1 / rf * v4
        return (
            q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            rf,
        )

    turned = False
    fate = 0
    i_stop = n - 1
    for i in range(2, n):
        if i <= 17:
            for _ in range(16):
                q, v, r = rk4(q, v, r, dr / 16.0)
        else:
            q, v, r = rk4(q, v, r, dr)
        qs[i] = q
        vs[i] = v
        if q <= 0.0:
            fate = 1
            i_stop = i
            break
        if v < 0.0:
            turned = True
        elif turned and v > 0.0:
            fate = -1
            i_stop = i
            break
        if q > 50.0 * a and v > 0.0 and not turned:
            fate = 2  # a runaway
            i_stop = i
            break
    return fate, qs[: i_stop + 1], vs[: i_stop + 1]


# Q(0) shot at dr = 1e-2, r_max = 20
_NEAR_CONVERGED = {P314: 3.0686303742977543, P313: 2.1798581136254143,
                   P214: 1.6721923293443979}


def _assert_same_trajectory(a, P, dr, r_max):
    fate, qs, vs = _shoot_trajectory(a, P.N, P.b, P.p, dr, r_max)
    ref_fate, ref_qs, ref_vs = _reference_trajectory(a, P.N, P.b, P.p, dr, r_max)
    assert fate == ref_fate
    assert np.array_equal(qs, ref_qs) and np.array_equal(vs, ref_vs)


class TestTrajectory:
    @pytest.mark.parametrize("P", [P314, P313, P214])
    def test_matches_reference_loop(self, P):
        a0 = _NEAR_CONVERGED[P]
        near = [a0, math.nextafter(a0, math.inf), math.nextafter(a0, 0.0),
                a0 * (1 + 1e-9), a0 * (1 - 1e-9)]
        for a in [2.0**k for k in range(-10, 5)] + near:
            _assert_same_trajectory(a, P, 1e-2, 20.0)

    @pytest.mark.parametrize("r_max", [0.1, 0.17, 0.2])
    def test_grids_shorter_than_the_refined_nodes(self, r_max):
        # 11, 18 and 21 nodes: fewer, as many as and more than the 16
        # refined nodes after the series start
        for a in (0.5, 2.0, 2.0**-10):
            _assert_same_trajectory(a, P314, 1e-2, r_max)
            _, qs, _ = _shoot_trajectory(a, 3, 1.0, 4.0, 1e-2, r_max)
            assert len(qs) == int(round(r_max / 1e-2)) + 1

    @pytest.mark.parametrize("k", range(5, 11))
    def test_series_start_past_zero_is_overshoot(self, k):
        # at (2,1,6) with dr = 1e-2 the series start Q(dr) is already
        # negative for a >= 2^5: that is an overshoot, not a float overflow
        # in the RK4 loop or a run of NaN samples to r_max
        fate, qs, dqs = _shoot_trajectory(2.0**k, 2, 1.0, 6.0, 1e-2, 15.0)
        assert fate == ground_state._OVERSHOOT
        assert len(qs) == len(dqs) == 2
        assert qs[1] <= 0.0

    def test_one_radius_table_kept(self):
        radii = ground_state._radii
        for r_max in (0.2, 0.3, 0.4):
            _shoot_trajectory(1.0, 3, 1.0, 4.0, 1e-2, r_max)
        kept = radii.cache_info()
        assert kept.currsize == 1
        # the kept table is the last one built, and a trajectory on its
        # radii reads it instead of building another
        _shoot_trajectory(2.0, 3, 1.0, 4.0, 1e-2, 0.4)
        info = radii.cache_info()
        assert (info.hits, info.misses) == (kept.hits + 1, kept.misses)
        shoot(P214, dr=1e-2)
        assert radii.cache_info().currsize == 0

    def test_shoot_value_pinned(self):
        assert shoot(P214, dr=1e-2).shoot_value == 1.6721923293443979

    def test_shoot_reports_its_work(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _shoot_trajectory(*args)

        monkeypatch.setattr(ground_state, "_shoot_trajectory", counted)
        gs = shoot(P214, dr=1e-2)
        lo, hi = gs.bracket
        # the sweep scans 2^10 down to 2^0; the search and the replay
        # integrate 12 more, all inside the sweep's bracket (2^0, 2^1)
        assert gs.trajectories == len(calls) == 23
        assert gs.bisection_steps == 40
        assert calls[:11] == [2.0**k for k in range(10, -1, -1)]
        assert all(1.0 < a < 2.0 for a in calls[11:])
        assert lo == gs.shoot_value in calls and 0 < hi - lo <= 1e-12


_RISING = (ground_state._UNDERSHOOT, ground_state._RUNAWAY)


def _upward_sweep(P, r_max, dr):
    """The bracket (lo, hi) of a sweep that scans Q(0) = 2^-10, 2^-9, ...
    upward and stops at the first overshoot directly above an undershoot,
    or the error it meets first.  Runaways, which sit below the
    undershoots, scan as undershoots; one as the bracket's lo is an
    error."""
    prev = None
    for k in range(-10, 11):
        fate = _shoot_trajectory(2.0**k, P.N, P.b, P.p, dr, r_max)[0]
        if prev in _RISING and fate == ground_state._OVERSHOOT:
            if prev == ground_state._RUNAWAY:
                return "ran away"
            return 2.0 ** (k - 1), 2.0**k
        if prev == ground_state._OVERSHOOT and fate in _RISING:
            return "not monotone"
        prev = fate
    return "no undershoot/overshoot bracket"


class _Swept(Exception):
    pass


def _sweep_bracket(monkeypatch, P, r_max, dr):
    """The bracket shoot's sweep hands to _search, or the text of the error
    shoot raises before it."""

    def swept(lo, hi, *args):
        raise _Swept(lo, hi)

    with monkeypatch.context() as m:
        m.setattr(ground_state, "_search", swept)
        try:
            shoot(P, r_max=r_max, dr=dr)
        except _Swept as done:
            return done.args
        except RuntimeError as err:
            return str(err)


def _admissible_triples(seed, n):
    """n triples with 1 + 2b/(N-1) < p < (N+2+2b)/(N-2), p below the lower
    bound + 6 at N = 2."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        N = int(rng.integers(2, 6))
        b = round(float(rng.uniform(0.2, 2.0)), 3)
        low = 1.0 + 2.0 * b / (N - 1)
        high = (N + 2.0 + 2.0 * b) / (N - 2) if N >= 3 else low + 6.0
        triples.append(Params(N, b, round(low + float(rng.uniform(0.02, 0.98))
                                          * (high - low), 4)))
    return triples


class TestSweep:
    def test_non_monotone_fates_raise(self, monkeypatch):
        # scanning down, 2^10 .. 2^8 reach r_max, 2^7 undershoots and 2^6
        # overshoots: an undershoot directly above an overshoot, before any
        # bracket.  The undershoot at 2^5 below would bracket with 2^6, so
        # the sweep must stop at 2^6
        calls = []

        def faked(a, *args):
            calls.append(a)
            if a > 2.0**7:
                fate = 0
            elif a == 2.0**6:
                fate = ground_state._OVERSHOOT
            else:
                fate = ground_state._UNDERSHOOT
            return fate, np.array([a, a]), np.zeros(2)

        monkeypatch.setattr(ground_state, "_shoot_trajectory", faked)
        with pytest.raises(RuntimeError, match=r"not monotone in Q\(0\) on the sweep"):
            shoot(P314, dr=1e-2)
        assert calls == [2.0**k for k in range(10, 5, -1)]

    # Q(0) > 2^4 at (4,2,4.9) and Q(0) < 2^-5 at (4,1,1.7) and (5,1,1.55);
    # (4,1,1.67) brackets (2^-10, 2^-9) and (5,1,1.51) finds no bracket
    @pytest.mark.parametrize("P", [Params(4, 2.0, 4.9), Params(4, 1.0, 1.7),
                                   Params(5, 1.0, 1.55), Params(4, 1.0, 1.67),
                                   Params(5, 1.0, 1.51)]
                             + _admissible_triples(15, 25))
    def test_same_bracket_as_an_upward_scan(self, monkeypatch, P):
        ref = _upward_sweep(P, 20.0, 1e-2)
        got = _sweep_bracket(monkeypatch, P, 20.0, 1e-2)
        if isinstance(ref, tuple):
            assert got == ref
        else:
            assert isinstance(got, str) and ref in got


def _reference_shoot(P, r_max, tol, dr):
    """shoot with a plain bisection that integrates every midpoint: the
    sweep, the bisection loop and the profile built from the final lo.  A
    runaway below the sweep's lo scans as an undershoot; one at lo or at a
    midpoint raises, as in shoot."""
    N, b, p = P.N, P.b, P.p
    grid = make_grid(r_max, dr, N)
    prev = None
    for k in range(-10, 11):
        run = _shoot_trajectory(2.0**k, N, b, p, dr, r_max)
        if prev is not None and prev[0] in _RISING and run[0] == 1:
            break
        prev = run
    sweep = k + 11
    lo, hi = 2.0 ** (k - 1), 2.0**k
    lo_run = prev
    if lo_run[0] == ground_state._RUNAWAY:
        raise RuntimeError("ran away")
    bisections = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        run = _shoot_trajectory(mid, N, b, p, dr, r_max)
        bisections += 1
        if run[0] == ground_state._RUNAWAY:
            raise RuntimeError("ran away")
        if run[0] == 1:
            hi = mid
        else:
            lo, lo_run = mid, run
    _, qs, vs = lo_run
    q_full = np.zeros(len(grid))
    q_full[: len(qs)] = qs
    i_peak = int(np.argmax(qs))
    below = np.nonzero(qs[i_peak:] < 1e-8 * lo)[0]
    if len(below):
        i_match = i_peak + int(below[0])
    else:
        i_match = max(i_peak + 1, len(qs) - 1 - int(round(1.0 / dr)))
    r_match = grid.r[i_match]
    c_tail = qs[i_match] / ground_state._tail(r_match, 1.0, N)
    q_full[i_match:] = ground_state._tail(grid.r[i_match:], c_tail, N)
    fit = (grid.r >= r_match / 2.0) & (grid.r <= r_match)
    slope = np.polyfit(grid.r[fit], np.log(q_full[fit]), 1)[0]
    return ground_state.GroundState(
        profile=ground_state.RadialField(grid, q_full),
        shoot_value=lo,
        ode_residual=ground_state._ode_residual(
            qs, vs, grid.r[: len(qs)], dr, P, r_match),
        decay_rate=-float(slope),
        params=P,
        r_match=float(r_match),
        trajectories=sweep + bisections,
        bisection_steps=bisections,
        bracket=(lo, hi),
    )


# (params, r_max, tol, dr): the reference triples and the r_max = 15 set at
# dr = 1e-2, two other step sizes, tolerances below float spacing, and
# tolerances whose final lo is the search's U (0.2) or a midpoint below U
# that the replay skipped (1e-8, 1e-5)
_ORACLE_CASES = [
    (P314, 20.0, 1e-12, 1e-2), (P313, 20.0, 1e-12, 1e-2),
    (P214, 20.0, 1e-12, 1e-2), (Params(2, 1.0, 6.0), 15.0, 1e-12, 1e-2),
    (Params(3, 0.5, 2.5), 15.0, 1e-12, 1e-2),
    (Params(4, 1.0, 2.2), 15.0, 1e-12, 1e-2),
    (Params(3, 0.3, 3.7), 15.0, 1e-12, 1e-2), (P314, 15.0, 1e-12, 1e-2),
    (P214, 20.0, 1e-12, 2e-2), (P314, 20.0, 1e-12, 5e-3),
    (P214, 20.0, 1e-300, 1e-2), (P314, 20.0, 1e-300, 1e-2),
    (P314, 20.0, 0.2, 1e-2), (P314, 20.0, 1e-8, 1e-2),
    (P214, 20.0, 1e-5, 1e-2),
]


# RK4 node budgets, in _ORACLE_CASES order: what each case takes with the
# sweep scanning from 2^10 down, the search walking the bisection's path and
# the replay reading the shoot's table.  A shoot must never cost more
_NODE_BUDGETS = [13523, 15152, 12838, 11905, 15080, 18555, 11935, 16095,
                 6426, 24103, 34846, 33305, 1706, 8710, 6101]
# the test ids carry the budgets the cases were first given, so that
# tightening a budget does not rename its test
_BUDGET_IDS = [
    f"P{i}-{r_max}-{tol}-{dr}-{n}"
    for i, ((_, r_max, tol, dr), n) in enumerate(zip(
        _ORACLE_CASES, [25443, 28746, 20385, 22107, 32565, 37271, 25069, 29402,
                        11968, 52240, 42393, 45225, 8657, 18436, 12211]))]
# the static_theory workload's three shoots, at the CLI's default dr
_WORKLOAD_BUDGETS = [(P314, 20.0, 1e-12, 1e-3, 121217),
                     (P313, 20.0, 1e-12, 1e-3, 135798),
                     (P214, 20.0, 1e-12, 1e-3, 113521)]


def _record_shoot(monkeypatch, P, r_max, tol, dr, nodes=None):
    """shoot, with the points it integrates and the bracket _search returns;
    nodes, a list, gets the RK4 nodes of each trajectory."""
    calls, searched = [], []
    real_search = ground_state._search

    def counted(*args):
        calls.append(args[0])
        run = _shoot_trajectory(*args)
        if nodes is not None:
            nodes.append(len(run[1]) - 1)
        return run

    def search(*args):
        U, O = real_search(*args)
        searched.append((U, O, len(calls)))
        return U, O

    with monkeypatch.context() as m:
        m.setattr(ground_state, "_shoot_trajectory", counted)
        m.setattr(ground_state, "_search", search)
        gs = shoot(P, r_max=r_max, tol=tol, dr=dr)
    return gs, calls, searched[0]


class TestReplayedBisection:
    @pytest.mark.parametrize("P,r_max,tol,dr", _ORACLE_CASES)
    def test_matches_reference_bisection(self, P, r_max, tol, dr):
        gs = shoot(P, r_max=r_max, tol=tol, dr=dr)
        ref = _reference_shoot(P, r_max, tol, dr)
        assert gs.bracket == ref.bracket
        assert gs.bisection_steps == ref.bisection_steps
        assert gs.shoot_value == ref.shoot_value
        assert gs.ode_residual == ref.ode_residual
        assert gs.decay_rate == ref.decay_rate
        assert gs.r_match == ref.r_match
        assert gs.profile.values.tobytes() == ref.profile.values.tobytes()
        assert gs.trajectories <= ref.trajectories

    @pytest.mark.parametrize("P,r_max,tol,dr", _ORACLE_CASES)
    def test_integrates_only_inside_the_search_bracket(self, monkeypatch, P,
                                                       r_max, tol, dr):
        gs, calls, (U, O, searched) = _record_shoot(monkeypatch, P, r_max,
                                                    tol, dr)
        assert gs.trajectories == len(calls)
        replayed = calls[searched:]
        if replayed and not U < replayed[-1] < O:
            # the final lo, a midpoint the replay took as an undershoot
            assert replayed.pop() == gs.shoot_value <= U
        assert all(U < a < O for a in replayed)
        # each integrated midpoint is one bisection step
        assert len(replayed) <= gs.bisection_steps

    @pytest.mark.parametrize("P,r_max,tol,dr", _ORACLE_CASES)
    def test_integrates_each_point_once(self, monkeypatch, P, r_max, tol, dr):
        # the search, the replay and the final lo share one table, which
        # starts from the sweep's lo
        gs, calls, _ = _record_shoot(monkeypatch, P, r_max, tol, dr)
        assert len(set(calls)) == len(calls) == gs.trajectories

    @pytest.mark.parametrize(
        "P,r_max,tol,dr,budget",
        [c + (n,) for c, n in zip(_ORACLE_CASES, _NODE_BUDGETS)]
        + _WORKLOAD_BUDGETS,
        ids=_BUDGET_IDS + ["workload-3-1-4", "workload-3-1-3", "workload-2-1-4"])
    def test_within_node_budget(self, monkeypatch, P, r_max, tol, dr, budget):
        nodes = []
        _record_shoot(monkeypatch, P, r_max, tol, dr, nodes)
        assert sum(nodes) <= budget

    def test_aims_at_the_r_max_threshold(self, monkeypatch):
        # at r_max 15 the bisection converges on the smallest Q(0) that
        # overshoots before r_max; aiming there once a shot has reached
        # r_max, rather than at a*, takes (4,1,2.2) from 35,821 to 26,078
        nodes = []
        _record_shoot(monkeypatch, Params(4, 1.0, 2.2), 15.0, 1e-12, 1e-2,
                      nodes)
        assert sum(nodes) <= 30000

    def test_final_lo_overshooting_is_not_monotone(self, monkeypatch):
        # the final lo's trajectory is read from the shoot's table.  An
        # overshoot entry there, as a final lo below U that the replay
        # skipped would give if fates were not monotone in Q(0), breaks the
        # replay's premise
        gs, calls, _ = _record_shoot(monkeypatch, P314, 20.0, 1e-8, 1e-2)
        assert gs.shoot_value in calls
        real = ground_state._trajectory

        def flipped(a, table, *args):
            run = real(a, table, *args)
            if a == gs.shoot_value:
                table[a] = ground_state._OVERSHOT
            return run

        monkeypatch.setattr(ground_state, "_trajectory", flipped)
        with pytest.raises(RuntimeError, match="not monotone"):
            shoot(P314, tol=1e-8, dr=1e-2)

    # a* is the overshoot end of the bracket shoot finds at dr 1e-2
    @pytest.mark.parametrize("P,a_star", [(P314, 3.068630374298664),
                                          (P214, 1.6721923293453074),
                                          (Params(4, 1.0, 2.2), 1.726249378344619)])
    def test_overshoot_law(self, P, a_star):
        # log d + w(r_d) stays within 1e-3 for overshoots 1e-5 to 1e-9 above
        # a* at dr 1e-2; log d + 2 r_d on whole nodes spreads 1e-2 to 3e-2
        law = []
        for k in range(5, 10):
            d = a_star * 10.0**-k
            fate, qs, _ = _shoot_trajectory(a_star + d, P.N, P.b, P.p, 1e-2, 20.0)
            assert fate == ground_state._OVERSHOOT
            r = ground_state._crossing(qs, 1e-2)
            law.append(math.log(d) + ground_state._law(r, P.N))
        assert max(law) - min(law) < 1e-3


class TestExplicitW:
    def test_value_at_origin(self):
        g = make_grid(12.0, 1e-2, 4)
        W = explicit_W(P425, g)
        assert W.values[0] == 1.0

    def test_half_value_radius(self):
        # W = (1 + r^4/12)^{-1/2} halves squared at r = 12^{1/4}
        assert W_value(12.0**0.25, 4, 2.0) == pytest.approx(2.0**-0.5, rel=1e-12)

    def test_equation_residual(self):
        g = make_grid(12.0, 1e-3, 4)
        W = explicit_W(P425, g)
        lap = lumped_laplacian(W.values.real, g)
        resid = np.abs(lap + g.r**2 * np.real(W.values) ** 5)
        mask = (g.r >= 0.1) & (g.r <= 10.0)
        assert resid[mask].max() < 1e-5

    def test_non_critical_rejected(self):
        g = make_grid(4.0, 1e-2, 4)
        with pytest.raises(ValueError):
            explicit_W(Params(4, 2.0, 4.0), g)
        with pytest.raises(ValueError):
            explicit_W(Params(2, 1.0, 4.0), g)


BIG_GRID = None


def _big_grid():
    global BIG_GRID
    if BIG_GRID is None:
        BIG_GRID = make_grid(2000.0, 2e-2, 4)
    return BIG_GRID


class TestSharpSobolev:
    def test_identity_511(self):
        g = _big_grid()
        w = W_value(g.r, 4, 2.0)
        dw = W_prime(g.r, 4, 2.0)
        pot = integrate(g.r**2 * w**6, g)
        grad_sq = integrate(dw**2, g)
        assert abs(pot - grad_sq) / grad_sq < 1e-5

    def test_identity_512(self):
        g = _big_grid()
        w = W_value(g.r, 4, 2.0)
        dw = W_prime(g.r, 4, 2.0)
        pot = integrate(g.r**2 * w**6, g)
        grad_sq = integrate(dw**2, g)
        EW = 0.5 * grad_sq - pot / 6.0
        assert EW == pytest.approx((2.0 + 2) / (8 + 4) * grad_sq, rel=1e-5)

    def test_constant_stable_under_refinement(self):
        c1 = sharp_sobolev_constant(P425, _big_grid())
        c2 = sharp_sobolev_constant(P425, make_grid(2000.0, 1e-2, 4))
        assert abs(c1 - c2) / c1 < 1e-5

    def test_non_critical_rejected(self):
        with pytest.raises(ValueError):
            sharp_sobolev_constant(P314, _big_grid())

    def test_W_identities_leave_grid_without_kappa(self):
        # a quadrature-only probe grid never builds the edge conductances
        g = make_grid(2000.0, 2e-2, 4)
        W_identities(P425, g)
        assert "kappa" not in vars(g)


class TestUniqueness:
    def test_314_exact_constants(self):
        assert uniqueness_constants(P314) == (F(4, 7), F(30, 343), F(15, 98))

    def test_214_negative_D(self):
        assert uniqueness_constants(P214) == (F(1, 7), F(-54, 343), F(0))

    def test_precondition_rejected(self):
        # p = 1.5 lies below 1 + 2b/(N-1) = 2
        with pytest.raises(ValueError, match="p > 1"):
            uniqueness_constants(Params(3, 1.0, 1.5))

    def test_energy_critical_rejected(self):
        # p = 7 is the energy-critical power (N+2+2b)/(N-2) at (3, 1)
        with pytest.raises(ValueError, match="p < "):
            uniqueness_constants(Params(3, 1.0, 7.0))


class TestShootRobustness:
    # a spread of admissible parameter triples away from the reference set,
    # including fractional b, N up to 6, and mass-subcritical powers
    @pytest.mark.parametrize("N,b,p", [
        (4, 0.5, 2.8), (2, 2.0, 6.0), (5, 1.5, 2.0), (3, 4.0, 6.0),
        (2, 0.5, 3.0), (3, 2.0, 5.0), (4, 3.0, 3.2),
    ])
    def test_pohozaev_across_parameter_space(self, N, b, p):
        gs = shoot(Params(N, b, p))
        r1, r2 = pohozaev_residuals(gs.profile, Params(N, b, p))
        assert r1 < 1e-4 and r2 < 1e-4
        assert gs.ode_residual < 1e-4
        q = np.real(gs.profile.values)
        core = gs.profile.grid.r <= gs.r_match
        assert np.all(q[core] > 0)


class TestWIdentitiesAcrossPairs:
    # quadrature tolerance tracks the algebraic tail W ~ r^{-(N-2)}:
    # slower decay needs a larger domain and tolerates a larger error
    @pytest.mark.parametrize("N,b,rmax,dr,tol", [
        (5, 1.0, 400.0, 1e-2, 1e-5),
        (6, 3.0, 200.0, 5e-3, 1e-6),
        (3, 1.0, 20000.0, 2e-1, 5e-4),
    ])
    def test_511_512(self, N, b, rmax, dr, tol):
        g = make_grid(rmax, dr, N)
        w = W_value(g.r, N, b)
        dw = W_prime(g.r, N, b)
        q = (2.0 * N + 2.0 * b) / (N - 2.0)
        pot = integrate(g.r**b * w**q, g)
        grad = integrate(dw**2, g)
        assert abs(pot - grad) / grad < tol
        EW = 0.5 * grad - (N - 2.0) / (2.0 * N + 2.0 * b) * pot
        ref = (b + 2.0) / (2.0 * N + 2.0 * b) * grad
        assert abs(EW - ref) / ref < tol
