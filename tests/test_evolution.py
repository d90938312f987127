import importlib
import math
import sys

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import ztbtrs

from inls_lab import evolution
from inls_lab.grids import (NonFiniteError, Params, RadialField, gradient_sq_norm,
                            make_grid)
from inls_lab.functionals import mass
from inls_lab.evolution import (
    DiagnosticsSeries,
    RunStatus,
    StepperConfig,
    evolve,
    scattering_diagnostics,
    step,
)

from conftest import FATE, P313, P314, scaled


def _assert_same_fate(full, lean):
    """lean, run with record=False, ends as the full run does, bit for bit
    (repr, so that a NaN growth compares equal), with one t and grad_sq per
    state and the record-only fields not measured."""
    assert ([repr(getattr(lean.outcome, k)) for k in FATE]
            == [repr(getattr(full.outcome, k)) for k in FATE])
    assert repr(lean.diagnostics.t) == repr(full.diagnostics.t)
    assert repr(lean.diagnostics.grad_sq) == repr(full.diagnostics.grad_sq)
    assert lean.outcome.energy_drift_max is None
    assert lean.outcome.boundary_flagged is None
    assert lean.diagnostics.mass == lean.diagnostics.energy == []


class TestStep:
    def test_zero_fixed_point(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        out = step(z, P313, 1e-3)
        assert np.all(out.values == 0)

    def test_mass_exact_per_step(self, gauss_state):
        u1 = step(gauss_state, P313, 1e-3)
        drift = abs(mass(u1) - mass(gauss_state)) / mass(gauss_state)
        assert drift < 1e-12

    def test_mass_exact_other_dimensions(self):
        # the lumped-FE Cayley step conserves the trapezoid mass for every N
        for N in (2, 4, 5):
            g = make_grid(20.0, 5e-3, N)
            u = RadialField(g, np.exp(-g.r**2).astype(complex))
            u1 = step(u, Params(N, 1.0, 3.0), 1e-3)
            assert abs(mass(u1) - mass(u)) / mass(u) < 1e-12

    def test_time_reversal(self, gauss_state, q314, evo_grid):
        u1 = step(gauss_state, P313, 1e-3)
        back = step(u1, P313, -1e-3)
        assert np.abs(back.values - gauss_state.values).max() < 1e-8
        # 200 steps forward and 200 back return nodes 1..n-1 to roundoff
        # (1.4e-13 and 6.9e-14 of max|u0|); the origin is rebuilt from nodes
        # 1 and 2 by every step, so it returns only to 1.25e-9 and 7.4e-7
        for u0, params in [(gauss_state, P313), (scaled(q314, evo_grid, 0.6), P314)]:
            u = u0
            for dt in (1e-3, -1e-3):
                for _ in range(200):
                    u = step(u, params, dt)
            v = u.values
            assert (np.abs(v - u0.values)[1:].max()
                    < 1e-12 * np.abs(u0.values).max())
            assert v[0] == (4.0 * v[1] - v[2]) / 3.0

    def test_free_gaussian_spreads(self, evo_grid, gauss_state):
        u = gauss_state
        sups = [np.abs(u.values).max()]
        for _ in range(5):
            for _ in range(200):
                u = step(u, P313, 1e-3, linear_only=True)
            sups.append(np.abs(u.values).max())
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert mass(u) == pytest.approx(mass(gauss_state), rel=1e-12)


def _cn_matrix(g, dt):
    """A = M + i dt/2 K on nodes 1..n-2 of the grid g, written out: the
    lumped mass Mw, A's diagonal a and its off-diagonal e."""
    r, dr, N = g.r, g.dr, g.N
    m = len(r) - 2
    kappa = (r[1:-1] + 0.5 * dr) ** (N - 1) / dr
    diag = np.zeros(m)
    diag[:-1] += kappa[:-1]
    diag[1:] += kappa[:-1]
    diag[-1] += kappa[-1]
    Mw = r[1:-1] ** (N - 1) * dr
    z = 0.5j * dt
    return Mw, Mw + z * diag, -z * kappa[:-1]


def _ldl(a, e):
    """L's subdiagonal and D of A = L D L^T by the no-pivot recurrence
    D_0 = a_0, L_i = e_i / D_i, D_{i+1} = a_{i+1} - L_i e_i."""
    a, e = a.tolist(), e.tolist()  # Python complex arithmetic, as the plan's
    D, L = [a[0]], []
    for ai, ei in zip(a[1:], e):
        L.append(ei / D[-1])
        D.append(ai - L[-1] * ei)
    return np.array(L), np.array(D)


def _cayley_cn_step(u: RadialField, dt: float) -> np.ndarray:
    """The free-flow CN step as x = 2 A^{-1}(M u) - u, with A = L D L^T
    solved by two unit-diagonal ztbtrs sweeps and 2/D between them, and the
    stepper's origin fix-up."""
    Mw, a, e = _cn_matrix(u.grid, dt)
    L, D = _ldl(a, e)
    m = len(Mw)
    lower = np.zeros((2, m), dtype=complex, order="F")
    upper = np.zeros((2, m), dtype=complex, order="F")
    lower[1, :-1] = L
    upper[0, 1:] = L
    x = u.values[1:-1]
    y, info = ztbtrs(lower, (Mw * x)[:, None], uplo="L", diag="U")
    assert info == 0
    y, info = ztbtrs(upper, y * (2.0 / D)[:, None], uplo="U", diag="U")
    assert info == 0
    out = np.zeros(len(u.values), dtype=complex)
    out[1:-1] = y[:, 0] - x
    out[0] = (4.0 * out[1] - out[2]) / 3.0
    return out


def _banded_cn_step(u: RadialField, dt: float) -> np.ndarray:
    """The free-flow CN step (M + i dt/2 K) x = (M - i dt/2 K) u solved by
    solve_banded, a pivoting LU, with the stepper's origin fix-up."""
    Mw, a, e = _cn_matrix(u.grid, dt)
    ab = np.zeros((3, len(a)), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = e
    ab[1, :] = a
    x = u.values[1:-1]
    rhs = (2.0 * Mw - a) * x
    rhs[:-1] -= e * x[1:]
    rhs[1:] -= e * x[:-1]
    out = np.zeros(len(u.values), dtype=complex)
    out[1:-1] = solve_banded((1, 1), ab, rhs)
    out[0] = (4.0 * out[1] - out[2]) / 3.0
    return out


def _solver_case(N, dt):
    g = make_grid(20.0, 5e-3, N)
    u = RadialField(g, (np.exp(-g.r**2) * np.exp(0.3j * g.r)).astype(complex))
    return u, step(u, Params(N, 1.0, 3.0), dt, linear_only=True)


class TestSolver:
    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    def test_matches_banded_reference(self, N, dt):
        # bit for bit the written-out Cayley step on band-stored L D L^T
        u, out = _solver_case(N, dt)
        assert out.values.tobytes() == _cayley_cn_step(u, dt).tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    def test_agrees_with_solve_banded(self, N, dt):
        # an independent pivoting solve of the CN system: at most 1e-14 of
        # max|x| apart on every node (measured 1.4e-15 to 2.7e-15)
        u, out = _solver_case(N, dt)
        ref = _banded_cn_step(u, dt)
        assert np.abs(out.values - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_plan_cache_bounded(self):
        # one plan is kept: the last (grid, b, dt), reused until one changes
        g = make_grid(2.0, 1e-2, 3)
        u = RadialField(g, np.exp(-g.r**2).astype(complex))
        for k in range(20):
            step(u, P313, 1e-4 * (k + 1))
        key, plan = evolution._last_plan
        assert key[-1] == plan.dt == 2e-3
        step(u, P313, 2e-3)
        assert evolution._last_plan[1] is plan

    @pytest.mark.parametrize("dt", [math.nan, 1e308])
    def test_non_finite_pivot_raises(self, dt):
        g = make_grid(2.0, 1e-2, 3)
        u = RadialField(g, np.exp(-g.r**2).astype(complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                step(u, P313, dt)


# every (grid, dt) that the conftest fixtures, the benchmark workloads (full
# and tiny sizes) and demo 05 step
_STEPPED_PLANS = [((40.0, 5e-3, 3), dt) for dt in (2e-3, 1e-3, 5e-4, 2.5e-4, 1e-4)]
_STEPPED_PLANS.append(((40.0, 2e-2, 3), 1e-3))


@pytest.mark.parametrize("grid, dt", _STEPPED_PLANS)
def test_ldl_growth_factor(grid, dt):
    # no pivoting is safe where the factors stay as small as A:
    # max(|L|, |D|) / max|A| reads 0.586 on the default grid at dt 1e-3
    g = make_grid(*grid)
    _, a, e = _cn_matrix(g, dt)
    L, D = _ldl(a, e)
    plan = evolution._CrankNicolson(g, 1.0, dt)
    assert plan.lower[1, :-1].tobytes() == plan.upper[0, 1:].tobytes() == L.tobytes()
    assert plan.two_over_d.tobytes() == (2.0 / D).tobytes()
    growth = (max(np.abs(L).max(), np.abs(D).max())
              / max(np.abs(a).max(), np.abs(e).max()))
    assert np.isfinite(growth) and growth <= 1.0


class TestLapackModule:
    # a plan loads scipy.linalg._flapack alone and registers it, so the
    # routine it holds is scipy.linalg.lapack's own object, whichever of
    # the two is imported first; a step loads no BLAS module and no
    # scipy.linalg package
    @pytest.mark.parametrize("linalg_first", [True, False],
                             ids=["linalg-first", "plan-first"])
    def test_plan_holds_scipy_linalg_routines(self, monkeypatch, linalg_first):
        saved = dict(sys.modules)
        try:
            for name in [n for n in sys.modules if n.split(".")[0] == "scipy"]:
                del sys.modules[name]
            monkeypatch.setattr(evolution, "_last_plan", None)
            if linalg_first:
                lapack = importlib.import_module("scipy.linalg.lapack")
            g = make_grid(2.0, 1e-2, 3)
            step(RadialField(g, np.exp(-g.r**2).astype(complex)), P313, 1e-3)
            if not linalg_first:
                assert "scipy.linalg._flapack" in sys.modules
                assert "scipy.linalg._fblas" not in sys.modules
                assert "scipy.linalg" not in sys.modules
                lapack = importlib.import_module("scipy.linalg.lapack")
            assert evolution._last_plan[1].ztbtrs is lapack.ztbtrs
            assert evolution._flapack().ztbtrs is lapack.ztbtrs
        finally:
            sys.modules.clear()
            sys.modules.update(saved)


# |v|^k for a whole k = p - 1, written out as evolution._abs_power documents it
_CHAINS = {
    1: lambda a: a,
    2: lambda a: a * a,
    3: lambda a: (a * a) * a,
    4: lambda a: (a * a) * (a * a),
    5: lambda a: ((a * a) * (a * a)) * a,
}


def _reference_factor(v, h, p):
    """exp(h |v|^{p-1}) with np.exp on every node, and |v|^{p-1} by the
    documented rule: the written-out chain for a whole p - 1, else **."""
    a, k = np.abs(v), p - 1.0
    return np.exp(h * (_CHAINS[int(k)](a) if k.is_integer() else a ** k))


def _reference_phase(v, h, p):
    """v exp(h |v|^{p-1}), the factor taken as ``_reference_factor``."""
    return v * _reference_factor(v, h, p)


def _pow_phase(v, h, p):
    """The half-phase with |v|^{p-1} always taken by **."""
    return v * np.exp(h * np.abs(v) ** (p - 1.0))


def _reference_step(u, params, dt):
    """The Strang step with np.exp taken on every node."""
    plan = evolution._plan(u.grid, params.b, dt)
    v = _reference_phase(u.values, plan.h, params.p)
    v = _reference_phase(plan.apply(v), plan.h, params.p)
    v[0] = (4.0 * v[1] - v[2]) / 3.0
    return v


def _phase_test_state(g, far_bump):
    """A decaying chirped profile with exact zeros, negative zeros and
    subnormals, past its core and (with far_bump) on either side of a bump
    at r = 15, so that the nodes needing exp are not a prefix."""
    v = np.exp(-g.r + 0.3j * g.r)
    if far_bump:
        v += 0.5 * np.exp(-4.0 * (g.r - 15.0) ** 2 + 1j * g.r)
    special = [0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 5e-324,
               complex(-5e-324, 1e-310), complex(2.2e-308, -4e-320)]
    for r0 in (12.0, 18.0):
        i = int(r0 / g.dr)
        v[i:i + len(special)] = special
    return v


class TestExactTailPhase:
    """The half-phase takes np.exp only on the prefix of nodes whose phase
    |theta| reaches 2^-27, and is bit-identical to np.exp on every node."""

    @pytest.mark.parametrize("far_bump", [False, True])
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0, 3.7, 3.5])
    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("dt", [1e-3, -1e-3])
    def test_bit_identical_to_exp_everywhere(self, dt, N, p, far_bump):
        g = make_grid(20.0, 5e-3, N)
        v = _phase_test_state(g, far_bump)
        params = Params(N, 1.0, p)
        h = evolution._plan(g, params.b, dt).h
        theta = np.abs((h * np.abs(v) ** (p - 1.0)).imag)
        # both sides of the cut are exercised
        assert theta.max() >= 2.0**-27 and theta[-100:].max() < 2.0**-27
        assert ((v * evolution._phase_factor(v, h, p)).tobytes()
                == _reference_phase(v, h, p).tobytes())
        if p == 3.0:
            # a * a is numpy's a ** 2.0, so p = 3 is bit for bit the pow form
            assert ((v * evolution._phase_factor(v, h, p)).tobytes()
                    == _pow_phase(v, h, p).tobytes())
        out = step(RadialField(g, v), params, dt)
        assert out.values.tobytes() == _reference_step(RadialField(g, v),
                                                       params, dt).tobytes()

    def test_exp_is_exact_below_the_cut(self):
        # the platform property the exact tail rests on: for |theta| < 2^-27
        # the correctly rounded exp(+-0 + i theta) is 1 + i theta, bit for bit
        rng = np.random.default_rng(7)
        cut = 2.0**-27
        theta = np.concatenate([
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
             np.nextafter(cut, 0.0)],
            np.logspace(-300, math.log10(cut), 2000, endpoint=False),
            rng.uniform(0.0, cut, 2000),
        ])
        theta = np.concatenate([theta, -theta])
        for re in (0.0, -0.0):
            x = np.empty(len(theta), dtype=complex)
            x.real, x.imag = re, theta
            exact = np.empty_like(x)
            exact.real, exact.imag = 1.0, theta
            assert np.exp(x).tobytes() == exact.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                     1e160])
    def test_non_finite_node_raises(self, evo_grid, bad):
        # a non-finite node past the core fails |theta| < 2^-27 and so stays
        # on the np.exp prefix; the step still rejects the state.  1e160 is
        # finite, but |v|^2 and |v|^3 overflow, by pow and by the product
        for params in (P313, P314):
            v = np.exp(-evo_grid.r).astype(complex)
            u = RadialField(evo_grid, v)
            v[len(v) // 2] = bad  # u holds it too: the field keeps v
            h = evolution._plan(evo_grid, params.b, 1e-3).h
            with np.errstate(over="ignore", invalid="ignore"):
                assert ((v * evolution._phase_factor(v, h, params.p)).tobytes()
                        == _reference_phase(v, h, params.p).tobytes())
                with pytest.raises(NonFiniteError):
                    step(u, params, 1e-3)

    @pytest.mark.parametrize("p", [4.0, 5.0, 6.0])
    def test_large_theta_takes_the_documented_chain(self, p):
        # theta of order 1, where a one-ulp change of |v|^{p-1} reaches the
        # rotated value: the phase follows the chain, not **, on these nodes
        g = make_grid(20.0, 5e-3, 3)
        v = 1.5 * np.exp(-0.1 * g.r + 0.3j * g.r)
        h = evolution._plan(g, 1.0, 0.05).h
        out = v * evolution._phase_factor(v, h, p)
        assert out.tobytes() == _reference_phase(v, h, p).tobytes()
        assert np.count_nonzero(out != _pow_phase(v, h, p)) > 100


def _carried_chain(u, params, dt, n):
    """n Strang steps from u in which every step after the first reuses the
    trailing factor of the step before as its leading factor."""
    plan = evolution._plan(u.grid, params.b, dt)
    v, x = u.values, _reference_factor(u.values, plan.h, params.p)
    for _ in range(n):
        w = plan.apply(v * x)
        x = _reference_factor(w, plan.h, params.p)
        v = w * x
        v[0] = (4.0 * v[1] - v[2]) / 3.0
    return v


class TestCarriedFactor:
    """A step reuses the trailing phase factor of the step before only for
    the very values array that step returned, from the same plan and p."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 3.5])
    def test_chain_is_the_carried_chain(self, q314, evo_grid, p):
        params = Params(3, 1.0, p)
        u0 = scaled(q314, evo_grid, 0.6)
        u = u0
        for _ in range(50):
            u = step(u, params, 1e-3)
        carried = _carried_chain(u0, params, 1e-3, 50)
        assert u.values.tobytes() == carried.tobytes()
        # the carry is not a no-op: a fresh leading factor rounds differently
        fresh = u0
        for _ in range(50):
            fresh = RadialField(evo_grid, _reference_step(fresh, params, 1e-3))
        assert np.count_nonzero(fresh.values != carried) > 0

    def test_fresh_fields_take_their_own_factor(self, q314, evo_grid):
        u0 = scaled(q314, evo_grid, 0.6)

        def ref(u, params=P314, dt=1e-3):
            return _reference_step(u, params, dt).tobytes()

        # the same u0 twice
        a, b = step(u0, P314, 1e-3), step(u0, P314, 1e-3)
        assert a.values.tobytes() == b.values.tobytes() == ref(u0)
        # a copy of the last output
        copy = RadialField(evo_grid, b.values.copy())
        assert step(copy, P314, 1e-3).values.tobytes() == ref(copy)
        # the first step after a dt change
        c = step(u0, P314, 1e-3)
        assert step(c, P314, 5e-4).values.tobytes() == ref(c, dt=5e-4)
        # the same array at another p (one plan: b and dt are unchanged)
        d = step(u0, P314, 1e-3)
        assert step(d, P313, 1e-3).values.tobytes() == ref(d, params=P313)
        # a nonlinear step after a linear_only step, from its output and from
        # the field the linear step took, whose carry that step cleared
        e = step(u0, P314, 1e-3)
        free = step(e, P314, 1e-3, linear_only=True)
        assert step(free, P314, 1e-3).values.tobytes() == ref(free)
        assert step(e, P314, 1e-3).values.tobytes() == ref(e)

    def test_rejected_state_leaves_no_carry(self, q314, evo_grid):
        u0 = scaled(q314, evo_grid, 0.6)
        good = step(u0, P314, 1e-3)
        plan = evolution._last_plan[1]
        assert plan.carry[0]() is good.values
        huge = RadialField(evo_grid, (1e160 * np.exp(-evo_grid.r**2)).astype(complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                step(huge, P314, 1e-3)
        assert plan.carry is None
        assert step(good, P314, 1e-3).values.tobytes() == _reference_step(
            good, P314, 1e-3).tobytes()

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_returned_values_are_read_only(self, gauss_state, linear_only):
        out = step(gauss_state, P313, 1e-3, linear_only=linear_only)
        with pytest.raises(ValueError):
            out.values[1] = 0.0
        assert gauss_state.values.flags.writeable


class TestStepperConfig:
    @pytest.mark.parametrize("t_end, dt", [
        (1e-4, 1e-3),     # less than one step
        (2.5e-3, 1e-3),   # a half step, which rounding half to even dropped
        (1.5e-3, 1e-3),
        (2e-3 + 1e-11, 1e-3),
        (1.0, 1e-320),    # t_end / dt overflows to inf
    ])
    def test_partial_steps_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="whole number"):
            StepperConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("t_end, dt, n", [
        (1e-3, 1e-3, 1), (0.05, 1e-4, 500), (0.3, 0.1, 3), (2.0, 2.5e-4, 8000),
    ])
    def test_whole_steps_accepted(self, t_end, dt, n):
        assert StepperConfig(dt=dt, t_end=t_end).n_steps == n

    def test_run_takes_every_step(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        res = evolve(z, P313, StepperConfig(dt=0.1, t_end=0.3))
        assert len(res.diagnostics.t) == 4
        assert res.outcome.t_final == pytest.approx(0.3)


class TestEvolve:
    def test_zero_data(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        cfg = StepperConfig(dt=1e-3, t_end=0.05)
        res = evolve(z, P313, cfg)
        assert res.outcome.status == RunStatus.COMPLETED_GLOBAL
        assert all(m == 0 for m in res.diagnostics.mass)
        _assert_same_fate(res, evolve(z, P313, cfg, record=False))

    def test_mass_conservation_full_run(self, gauss_run):
        m = np.asarray(gauss_run.diagnostics.mass)
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-10

    def test_energy_drift_tolerance(self, gauss_run):
        assert gauss_run.outcome.energy_drift_max < 1e-4
        assert gauss_run.outcome.status == RunStatus.COMPLETED_GLOBAL

    def test_dt_convergence(self, gauss_finals):
        e1 = np.abs(gauss_finals[2e-3] - gauss_finals[5e-4]).max()
        e2 = np.abs(gauss_finals[1e-3] - gauss_finals[5e-4]).max()
        assert e1 / e2 >= 3.5

    def test_lwp_precondition(self, evo_grid):
        u = RadialField(evo_grid, np.exp(-evo_grid.r**2).astype(complex))
        with pytest.raises(ValueError):
            evolve(u, Params(3, 2.0, 2.0), StepperConfig(dt=1e-3, t_end=0.1))

    def test_diagnostics_csv_roundtrip(self, gauss_state, tmp_path):
        res = evolve(gauss_state, P313, StepperConfig(dt=1e-3, t_end=0.02))
        path = tmp_path / "diag.csv"
        res.diagnostics.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == res.diagnostics.column_names()
        assert len(lines) == len(res.diagnostics.t) + 1
        # %.12e formatting
        assert "e" in lines[1].split(",")[1]

    def test_outcome_only_series_has_no_csv(self, gauss_state, tmp_path):
        res = evolve(gauss_state, P313, StepperConfig(dt=1e-3, t_end=0.02),
                     record=False)
        path = tmp_path / "diag.csv"
        with pytest.raises(ValueError, match="outcome-only"):
            res.diagnostics.to_csv(path)
        assert not path.exists()
        with pytest.raises(ValueError, match="outcome-only"):
            scattering_diagnostics(res.diagnostics, P313, outcome=res.outcome)


class TestConservedEnergy:
    """The recorded grad_sq is the Dirichlet form the Crank-Nicolson step
    conserves, and virial_Vp is the scheme's own derivative of virial_V."""

    def test_free_flow_keeps_grad_sq(self, gauss_state):
        res = evolve(gauss_state, P313,
                     StepperConfig(dt=1e-3, t_end=1.0, linear_only=True))
        g = np.asarray(res.diagnostics.grad_sq)
        assert len(g) == 1001
        assert np.max(np.abs(g - g[0])) / g[0] < 1e-12

    def test_half_q_energy_drift(self, global_runs):
        # the splitting alone moves the energy: at most 1e-6 over t = 2
        assert global_runs[0.5].outcome.energy_drift_max <= 1e-6

    def test_virial_Vp_is_the_derivative_of_V(self, evo_grid):
        # a chirped Gaussian has V' != 0; the central difference of V meets
        # the edge-sum V' to O(dt^2), with no stencil floor under it
        u0 = RadialField(evo_grid, np.exp(-evo_grid.r**2 + 0.5j * evo_grid.r**2))
        dt = 1e-4
        d = evolve(u0, P313, StepperConfig(dt=dt, t_end=0.05,
                                            linear_only=True)).diagnostics
        V, Vp = np.asarray(d.virial_V), np.asarray(d.virial_Vp)
        central = (V[2:] - V[:-2]) / (2.0 * dt)
        assert np.max(np.abs(Vp[1:-1] - central)) / np.max(np.abs(Vp)) < 1e-6


class TestDichotomy:
    def test_global_branch_runs(self, global_runs, q314):
        gq = math.sqrt(gradient_sq_norm(q314.profile))
        mq = math.sqrt(mass(q314.profile))
        thresh = gq * mq**P314.sigma_c
        for c, res in global_runs.items():
            assert res.outcome.status == RunStatus.COMPLETED_GLOBAL, c
            d = res.diagnostics
            prods = [
                math.sqrt(gs) * m ** (P314.sigma_c / 2.0)
                for gs, m in zip(d.grad_sq, d.mass)
            ]
            assert all(pr < thresh for pr in prods), c

    def test_blowup_runs_mass_critical(self, blowup_runs_mc):
        for c in (1.2, 1.5):
            out = blowup_runs_mc[c].outcome
            assert out.status == RunStatus.BLOWUP_DETECTED, c
            assert out.t_final < 2.0
            assert out.gradient_growth >= 100.0
            assert out.blowup_time_estimate is not None

    def test_blowup_runs_intercritical(self, blowup_runs_ic):
        for c in (1.2, 1.5):
            out = blowup_runs_ic[c].outcome
            assert out.status == RunStatus.BLOWUP_DETECTED, c
            assert out.t_final < 2.0

    def test_outcome_only_runs_decide_as_full_ones(self, global_runs, q314,
                                                   q313, evo_grid):
        # the sweep's runs: c Q at dt = 1e-3 to t = 2, three amplitudes on
        # each side of c = 1 at (3,1,4), and the (3,1,3) collapse at 1.5 Q
        cfg = StepperConfig(dt=1e-3, t_end=2.0)
        for c, full in global_runs.items():
            _assert_same_fate(full, evolve(scaled(q314, evo_grid, c), P314, cfg,
                                           record=False))
        for ground, params, c in [(q314, P314, 1.2), (q314, P314, 1.35),
                                  (q314, P314, 1.5), (q313, P313, 1.5)]:
            u0 = scaled(ground, evo_grid, c)
            full = evolve(u0, params, cfg)
            assert full.outcome.status == RunStatus.BLOWUP_DETECTED, (params, c)
            _assert_same_fate(full, evolve(u0, params, cfg, record=False))

    def test_blowup_time_estimate_regression(self, blowup_runs_mc):
        est = blowup_runs_mc[1.2].outcome.blowup_time_estimate
        # frozen from the reference configuration (dt = 2.5e-4, dr = 5e-3)
        assert est == pytest.approx(0.3905, abs=5e-3)


def _constant_series(rows):
    """A standing wave's record: the potential is the same at every row."""
    diag = DiagnosticsSeries(radii=(5.0,))
    for k in range(rows):
        diag.append(k * 1e-3, 1.0, 0.0, 1.0, 2.5, [1.0], 0.0, 0.0)
    return diag


class TestScatteringDiagnostics:
    # beta = 5/12 at (3,1,3.4) and 5/7 at (2,2,5.8): a constant potential
    # grows at exponent 1, above (1 + beta)/2, at any series length
    @pytest.mark.parametrize("params", [Params(3, 1.0, 3.4), Params(2, 2.0, 5.8),
                                        P314], ids=["3-1-3.4", "2-2-5.8", "3-1-4"])
    @pytest.mark.parametrize("rows", [3, 2001])
    def test_standing_wave_fails(self, params, rows):
        rep = scattering_diagnostics(_constant_series(rows), params)
        (l1, s1), (l2, s2) = rep.morawetz_windows
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)
        assert not rep.sublinear_ok

    def test_global_run_report(self, global_runs):
        res = global_runs[0.5]
        diag = res.diagnostics
        assert min(diag.potential) < 0.5 * diag.potential[0]
        rep = scattering_diagnostics(diag, P314, outcome=res.outcome)
        assert [l for l, _ in rep.morawetz_windows] == [1.0, 2.0]
        assert rep.sublinear_ok

    def test_ground_state_run_fails(self, q314, evo_grid):
        # Q itself is a standing wave: 200 steps keep its potential constant
        res = evolve(scaled(q314, evo_grid, 1.0), P314,
                     StepperConfig(dt=1e-3, t_end=0.2))
        assert res.outcome.status == RunStatus.COMPLETED_GLOBAL
        rep = scattering_diagnostics(res.diagnostics, P314, outcome=res.outcome)
        assert not rep.sublinear_ok

    def test_requires_global(self, blowup_runs_mc):
        res = blowup_runs_mc[1.2]
        with pytest.raises(ValueError):
            scattering_diagnostics(res.diagnostics, P313, outcome=res.outcome)

    def test_refuses_mass_critical(self):
        # (3,1,3) lies outside the inter-critical range, where the paper's
        # Morawetz bound is not claimed: the series is refused, not judged
        diag = DiagnosticsSeries(radii=(5.0,))
        for t in (0.0, 1.0, 2.0):
            diag.append(t, 1.0, 0.0, 1.0, 115.5, [1.0], 0.0, 0.0)
        with pytest.raises(ValueError, match="inter-critical"):
            scattering_diagnostics(diag, P313)

    @pytest.mark.parametrize("ts", [(0.0, 1.5, 2.0), (0.0, 1.0), (0.0,)],
                             ids=["0-1.5-2", "2-rows", "1-row"])
    def test_no_sample_in_first_half_window(self, ts):
        # l1 would be t = 0, where (l2/l1) divides by zero
        diag = DiagnosticsSeries(radii=(5.0,))
        for t in ts:
            diag.append(t, 1.0, 0.0, 1.0, 2.5, [1.0], 0.0, 0.0)
        with pytest.raises(ValueError, match=r"no sample time in \(0, T/2\]"):
            scattering_diagnostics(diag, P314)

    def test_zero_series(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        res = evolve(z, P314, StepperConfig(dt=1e-3, t_end=0.01))
        rep = scattering_diagnostics(res.diagnostics, P314, outcome=res.outcome)
        assert rep.sublinear_ok
        assert [s for _, s in rep.morawetz_windows] == [0.0, 0.0]
        local = res.diagnostics.local_mass
        assert all(local[R][-1] == 0.0 for R in res.diagnostics.radii)


class TestUnderResolved:
    def test_nan_yields_outcome_not_crash(self, evo_grid):
        # absurd amplitude overflows the nonlinear phase within one step
        huge = RadialField(evo_grid,
                           (1e160 * np.exp(-evo_grid.r**2)).astype(complex))
        cfg = StepperConfig(dt=1e-3, t_end=0.01)
        res = evolve(huge, P313, cfg)
        assert res.outcome.status == RunStatus.UNDER_RESOLVED
        assert res.outcome.t_final == 0.0
        assert len(res.diagnostics.t) == 1
        _assert_same_fate(res, evolve(huge, P313, cfg, record=False))


class TestFailureLabel:
    def test_other_value_errors_propagate(self, gauss_state, monkeypatch):
        def broken(u, params, dt, linear_only=False):
            raise ValueError("a bug, not a non-finite state")

        monkeypatch.setattr(evolution, "step", broken)
        with pytest.raises(ValueError, match="a bug"):
            evolve(gauss_state, P313, StepperConfig(dt=1e-3, t_end=0.01))


class TestStepMetering:
    """evolve calls the module-level step by its global name once per
    accepted step, so a wrapper around evolution.step sees every step."""

    @staticmethod
    def _metered(monkeypatch):
        calls = []
        original = evolution.step

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(1)
            return out

        monkeypatch.setattr(evolution, "step", counted)
        return calls

    def test_global_run(self, gauss_state, monkeypatch):
        calls = self._metered(monkeypatch)
        res = evolve(gauss_state, P313, StepperConfig(dt=1e-3, t_end=0.05))
        assert res.outcome.status == RunStatus.COMPLETED_GLOBAL
        assert len(calls) == len(res.diagnostics.t) - 1 == 50

    def test_blowup_run_stops_early(self, monkeypatch):
        # negative energy at mass-critical (3,1,3): focuses within t = 0.2
        g = make_grid(10.0, 5e-3, 3)
        u0 = RadialField(g, (8.0 * np.exp(-g.r**2)).astype(complex))
        calls = self._metered(monkeypatch)
        res = evolve(u0, P313, StepperConfig(dt=1e-3, t_end=1.0))
        assert res.outcome.status == RunStatus.BLOWUP_DETECTED
        assert len(calls) == len(res.diagnostics.t) - 1 < 1000
