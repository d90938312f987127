import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from inls_lab import verify, virial
from inls_lab.grids import (Params, RadialField, gradient_sq_norm, integrate,
                            make_grid, radial_derivative)
from inls_lab.functionals import energy, potential
from inls_lab.virial import (
    blowup_bound_check,
    build_vartheta_psi,
    build_zeta_theta_phi,
    fit_envelope_constant,
    lemma52_check,
    lemma53_check,
    psi12,
    psi2_closed_form,
    quadratic_cutoff,
    vartheta,
    virial_dynamic_check,
    virial_rhs,
    _R1,
)

from conftest import P313, P314, P425


class TestCutoffPhi:
    def test_quadratic_inside(self):
        g = make_grid(8.0, 1e-3, 3)
        prof = build_zeta_theta_phi(2.0, g)
        inside = g.r <= 2.0
        assert np.abs(prof.phi[inside] - g.r[inside] ** 2).max() == 0.0

    def test_flat_beyond(self):
        g = make_grid(8.0, 1e-3, 3)
        prof = build_zeta_theta_phi(2.0, g)
        far = g.r >= 4.0
        assert np.abs(prof.d2phi[far]).max() == 0.0
        assert prof.lap[far].min() >= 0.0

    @pytest.mark.parametrize("R", [1.0, 2.0, 4.0, 8.0])
    def test_invariants_on_dense_grids(self, R):
        g = make_grid(4.0 * R, 4.0 * R / 99999, 3)
        prof = build_zeta_theta_phi(R, g)
        assert np.all(prof.d2phi <= 2.0 + 1e-12)
        assert np.all(prof.d2phi >= -1e-12)
        assert np.all(2.0 - prof.phi_over_r() >= -1e-12)
        assert np.all(2.0 * g.N - prof.lap >= -1e-12)

    def test_bilaplacian_scaling(self):
        sups = []
        Rs = (1.0, 2.0, 4.0, 8.0)
        for R in Rs:
            g = make_grid(4.0 * R, 4.0 * R / 99999, 3)
            sups.append(np.abs(build_zeta_theta_phi(R, g).bilap).max())
        slope = np.polyfit(np.log(Rs), np.log(sups), 1)[0]
        assert slope == pytest.approx(-2.0, rel=0.05)


class TestCutoffPsi:
    def test_vartheta_values(self):
        assert vartheta(np.array([1.0]))[0] == 2.0
        ref = 2.0 * (1.0 + 5.0**-0.25 - 5.0**-1.25)
        assert vartheta(np.array([_R1]))[0] == pytest.approx(ref, abs=1e-12)
        assert ref == pytest.approx(3.0700, abs=1e-4)

    # below 1, in the quintic, in the bridge, at and past 2
    @pytest.mark.parametrize("rho", [0.5, 1.5, 1.8, 2.0, 2.5])
    def test_scalar_rho(self, rho):
        family = virial._tabulate(virial._PSI_TABLE, rho, (1, 2))
        as_array = virial._tabulate(virial._PSI_TABLE, np.array([rho]), (1, 2))
        for got, ref in zip(family, as_array, strict=True):
            assert np.ndim(got) == 0 and got == ref[0]
        assert vartheta(rho) == family[0]
        if rho == 1.5:
            assert vartheta(rho) == 2.9375

    @pytest.mark.parametrize("R", [1.0, 2.0, 4.0, 8.0])
    def test_invariants_on_dense_grids(self, R):
        g = make_grid(4.0 * R, 4.0 * R / 99999, 3)
        prof = build_vartheta_psi(R, g)
        assert np.all(prof.d2phi <= 2.0 + 1e-12)
        assert np.all(prof.phi_over_r() <= 2.0 + 1e-12)
        assert np.all(prof.lap <= 2.0 * g.N + 1e-12)


class TestProfilesPinned:
    # phi, phi', phi'', lap phi and lap^2 phi of each family, byte for byte
    @pytest.mark.parametrize("build, digest", [
        (build_zeta_theta_phi,
         "70ee1d57d1e911248b2f04db463e0f9eacbaf16b94f8b8e08aefa85fbc6aba4e"),
        (build_vartheta_psi,
         "793fff18e0bfa55b9d35e292662ff2e11f5eb050e9d557a92c752a2e84d1bc79"),
    ])
    def test_sha256(self, build, digest):
        prof = build(2.0, make_grid(8.0, 8.0 / 99999, 3))
        data = b"".join(a.tobytes() for a in (
            prof.phi, prof.dphi, prof.d2phi, prof.lap, prof.bilap))
        assert hashlib.sha256(data).hexdigest() == digest


def _scale_order(monkeypatch, order, scale):
    """Make _tabulate return scale theta^(order) in place of theta^(order)."""
    tabulate = virial._tabulate

    def broken(table, rho, orders):
        return tuple(scale * a if k == order else a
                     for a, k in zip(tabulate(table, rho, orders), orders))

    monkeypatch.setattr(virial, "_tabulate", broken)


class TestBuildersCheckInvariants:
    # each builder raises, naming its family, when its generator profile
    # breaks one of the family's inequalities

    @pytest.mark.parametrize("scale", [1.5, -1.0])  # phi'' > 2, phi'' < 0
    def test_phi_family(self, monkeypatch, scale):
        _scale_order(monkeypatch, 2, scale)
        with pytest.raises(AssertionError, match="violated for PhiR"):
            build_zeta_theta_phi(2.0, make_grid(8.0, 1e-2, 3))

    # slot 0 is vartheta = theta' (psi'/r > 2), slot 1 vartheta' (psi'' > 2)
    @pytest.mark.parametrize("slot", [0, 1])
    def test_psi_family(self, monkeypatch, slot):
        _scale_order(monkeypatch, 1 + slot, 1.5)
        with pytest.raises(AssertionError, match="violated for PsiR"):
            build_vartheta_psi(2.0, make_grid(8.0, 1e-2, 3))


class TestPsi12:
    def test_zero_inside(self):
        g = make_grid(8.0, 1e-3, 3)
        psi1, psi2 = psi12(2.0, P313, g)
        inside = g.r <= 2.0
        assert np.abs(psi1[inside]).max() == 0.0
        assert np.abs(psi2[inside]).max() == 0.0

    def test_closed_form_midpoint(self):
        g = make_grid(8.0, 1e-3, 3)
        R = 2.0
        _, psi2 = psi12(R, P313, g)
        rho_mid = 1.0 + 0.5 * 5.0**-0.25
        i = int(np.argmin(np.abs(g.r - rho_mid * R)))
        ref = psi2_closed_form(g.r[i] / R, P313)
        assert psi2[i] == pytest.approx(float(ref), abs=1e-8)

    def test_psi1_lower_bounds(self):
        g = make_grid(8.0, 1e-3, 3)
        psi1, _ = psi12(2.0, P313, g)
        annulus = (g.r > 2.0) & (g.r <= _R1 * 2.0)
        assert psi1[annulus].min() >= 0.0
        assert psi1[g.r > _R1 * 2.0].min() >= 2.0

    def test_closed_form_limit_is_10pm1(self):
        rho = np.array([1.0 + 1e-6])
        lim = psi2_closed_form(rho, P313)[0] / (rho[0] - 1.0) ** 4
        assert lim == pytest.approx(10.0 * (P313.p - 1.0), rel=1e-5)

    def test_non_mass_critical_rejected(self):
        g = make_grid(8.0, 1e-2, 3)
        with pytest.raises(ValueError):
            psi12(2.0, P314, g)

    def test_equals_the_full_profile(self):
        # psi12 tabulates vartheta and vartheta' alone; its result is the
        # one the full psi_R profile gives, bit for bit, psi_2 clamped at 0
        R, N, b = 2.0, P313.N, P313.b
        g = make_grid(4.0 * R, 4.0 * R / 99999, 3)
        prof = build_vartheta_psi(R, g)
        psi1, psi2 = psi12(R, P313, g)
        assert len(g) == 100000
        assert np.array_equal(psi1, 2.0 - prof.d2phi)
        assert np.array_equal(
            psi2, np.maximum((4.0 + 2.0 * b) / N * (2.0 * N - prof.lap)
                             - 2.0 * b * (2.0 - prof.phi_over_r()), 0.0))

    # psi_2 is 0 for r <= R, and its formula rounds to -4.4e-16 (3,1,3) and
    # -2.2e-16 (3, 1/2, 8/3) next to R at these R: psi12 clamps it once
    @pytest.mark.parametrize("P", [P313, Params(3, 0.5, 8 / 3)])
    @pytest.mark.parametrize("R", [1.9, 3.5])
    def test_psi2_never_negative(self, R, P):
        assert psi12(R, P, virial._lemma_grid(R, 3))[1].min() >= 0.0


class TestLemmaChecks:
    def test_lemma52_bounded_R_independent(self):
        sups = [lemma52_check(R, P313) for R in (1.0, 2.0, 4.0, 8.0)]
        assert all(np.isfinite(s) for s in sups)
        assert (max(sups) - min(sups)) / max(sups) < 0.10
        # bit for bit the values of the full-profile build
        assert sups == [80.50386234825373, 80.78607602615695,
                        81.01198282926731, 81.155696770306]

    # psi_2 is 0 for r <= R but rounds to -4e-16 at some of those nodes at
    # these R; its power there read NaN, and the centred difference at the
    # first node past R carried it into the sup
    @pytest.mark.parametrize("R", [1.9, 3.5, 5.0, 10.0])
    def test_lemma52_finite_off_powers_of_two(self, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sup = lemma52_check(R, P313)
        assert np.isfinite(sup)
        assert abs(sup - 80.50386234825373) / sup < 0.10

    # at (3, 1/2, 8/3) the power N/(2+b) = 6/5 of psi_2 is not whole, and
    # psi_2, 0 for r <= R, rounds to -2e-16 next to R: its power read NaN
    @pytest.mark.parametrize("R", [1.9, 3.5, 5.0, 10.0])
    def test_lemma53_finite_off_whole_powers(self, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ok, margin = lemma53_check(R, Params(3, 0.5, 8 / 3), 1e-3)
        assert np.isfinite(margin)
        assert ok == (margin >= 0.0)

    def test_lemma53_small_eps_holds(self):
        ok, margin = lemma53_check(1.0, P313, 1e-3)
        assert ok and margin >= 0.0
        assert margin == 1.3319123581823078e-14

    def test_lemma53_large_eps_fails(self):
        ok, margin = lemma53_check(1.0, P313, 10.0)
        assert not ok and margin < 0.0
        assert margin == -53.78090060354979

    def test_lemma52_peak_memory(self):
        # the 199,999-node grid at R = 8 sets the peak, 3.05 MiB of it its r
        # and weights; the full psi_R profile took 24.4 MiB there, vartheta
        # and vartheta' of the whole grid about 10 MiB, of its blocks 3.9 MiB
        # (numpy reports its buffers to tracemalloc)
        assert _traced_peak(lambda: lemma52_check(8.0, P313)) < 4.5 * 2**20


def _traced_peak(fn):
    """The peak of the memory numpy and Python allocate during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedScans:
    # the verify scans run over grids.blocks; each equals the scan of the
    # whole profile, bit for bit

    @staticmethod
    def _whole_green_defect(R, g):
        phi = build_zeta_theta_phi(R, g)
        a = 2.0 / R**2
        f = np.exp(-a * g.r**2)
        lhs = integrate(phi.bilap * f, g)
        rhs = integrate(phi.lap * (4.0 * a * a * g.r**2 - 2.0 * a * g.N) * f, g)
        return abs(lhs - rhs) / abs(rhs)

    # shorter than one block, exactly one block, and verify's 100,000 nodes
    @pytest.mark.parametrize("n", [5000, 8192, 100000])
    @pytest.mark.parametrize("R", [1.0, 8.0])
    def test_green_defect(self, R, n):
        g = make_grid(4.0 * R, 4.0 * R / (n - 1), 3)
        assert len(g) == n
        if n == 100000:
            assert len(verify._cutoff_grid(R)) == n
        assert verify._green_defect(R, g) == self._whole_green_defect(R, g)

    # R = 16384 dr / 4 gives 2 blocks and a last block of one node, whose
    # derivative takes its left neighbour from the block before; at the two
    # R below 0.8 the sup lies at the last node of the first block and at the
    # first node of the second, where the centred difference reaches into
    # the next block
    @pytest.mark.parametrize("R, n, argmax", [
        (1.0, None, None), (8.0, 199999, None),
        (16384 * 16.0 / 99999 / 4, 2 * 8192 + 1, None),
        (0.7851914392981528, None, 8191), (0.7852873083423576, None, 8192)])
    def test_lemma52(self, R, n, argmax):
        grid = virial._lemma_grid(R, P313.N)
        mask = grid.r > R * (1.0 + 1e-9)
        y = psi12(R, P313, grid)[1] ** (1.0 / (P313.p - 1.0))
        blocked = lemma52_check(R, P313)
        dy = np.abs(radial_derivative(y, grid))
        assert blocked == float(np.max(dy[mask]) * R)
        if argmax is not None:
            assert np.argmax(np.where(mask, dy, 0.0)) == argmax
        if n is not None:
            assert len(grid) == n

    @pytest.mark.parametrize("R, eps", [(1.0, 1e-3), (1.0, 10.0), (8.0, 1e-3)])
    def test_lemma53(self, R, eps):
        grid = virial._lemma_grid(R, P313.N)
        expr = virial._lemma53_form(*psi12(R, P313, grid), P313, eps)
        margin = float(np.min(expr[grid.r > R * (1.0 + 1e-9)]))
        assert lemma53_check(R, P313, eps) == (margin >= 0.0, margin)

    def test_virial_suite_peak_memory(self):
        # besides a grid's r and weights (3.05 MiB for the 199,999-node
        # Lemma 5.2 grid) no array is longer than a block; the scans of
        # whole profiles peaked at 11.5 MiB
        assert _traced_peak(verify.suite_virial) <= 4.5 * 2**20


@pytest.fixture(scope="module")
def synthetic_state():
    g = make_grid(8.0, 1e-3, 3)
    vals = (
        np.exp(-g.r**2) * (1 + 0.3 * np.sin(3 * g.r))
        + 0.2j * np.exp(-0.5 * (g.r - 2) ** 2)
    )
    return RadialField(g, vals)


class TestVirialRHS:
    def test_quadratic_is_16E_mass_critical(self, synthetic_state):
        cut = quadratic_cutoff(synthetic_state.grid)
        rhs = virial_rhs(synthetic_state, P313, cut)
        assert rhs == pytest.approx(16.0 * energy(synthetic_state, P313),
                                    rel=1e-10)

    def test_quadratic_general_p(self, synthetic_state):
        cut = quadratic_cutoff(synthetic_state.grid)
        rhs = virial_rhs(synthetic_state, P314, cut)
        pred = 8.0 * gradient_sq_norm(synthetic_state) - (
            4 * 3 * 3 - 8
        ) / 5.0 * potential(synthetic_state, P314)
        assert rhs == pytest.approx(pred, rel=1e-10)

    def test_dimension_mismatch(self):
        # same radii, but the cutoff's lap phi and lap^2 phi are those of N = 3
        g = make_grid(8.0, 1e-2, 2)
        u = RadialField(g, np.exp(-g.r**2))
        cut = build_zeta_theta_phi(2.0, make_grid(8.0, 1e-2, 3))
        mismatch = "the grid has N = 2, the RadialGrid N = 3"
        with pytest.raises(ValueError, match=mismatch):
            virial_rhs(u, P314, cut)
        with pytest.raises(ValueError, match=mismatch):
            virial.virial_V(u, cut)

    def test_block_profile_refused(self):
        # a profile of one block of the field's grid is not the whole cutoff
        g = make_grid(4.0, 4.0 / 9999, 3)
        u = RadialField(g, np.exp(-g.r**2))
        cut = build_zeta_theta_phi(1.0, g, slice(0, 8192))
        for check in (lambda: virial_rhs(u, P313, cut), lambda: virial.virial_V(u, cut)):
            with pytest.raises(ValueError, match="different grid"):
                check()

    def test_locality_matches_quadratic(self):
        g = make_grid(8.0, 1e-3, 3)
        t = g.r / 1.5
        vals = np.zeros(len(g))
        inside = t < 1
        vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        u = RadialField(g, vals)
        prof = build_zeta_theta_phi(2.0, g)
        cut = quadratic_cutoff(g)
        assert virial_rhs(u, P314, prof) == pytest.approx(
            virial_rhs(u, P314, cut), rel=1e-10
        )


class TestDynamicCheck:
    def test_free_gaussian_quadratic(self, evo_grid):
        from inls_lab.evolution import StepperConfig, evolve

        u0 = RadialField(evo_grid, np.exp(-evo_grid.r**2).astype(complex))
        res = evolve(u0, P313,
                     StepperConfig(dt=2.5e-4, t_end=0.1, save_every=4,
                                   linear_only=True))
        dev = virial_dynamic_check(res.states, P313,
                                   quadratic_cutoff(evo_grid),
                                   linear_only=True)
        assert dev < 1e-2

    def test_half_Q_run(self, half_q_saved):
        cut = quadratic_cutoff(half_q_saved.states[0][1].grid)
        dev_1em3 = virial_dynamic_check(half_q_saved.states[::2], P314, cut)
        assert dev_1em3 < 2e-2
        dev_5em4 = virial_dynamic_check(half_q_saved.states, P314, cut)
        assert dev_5em4 < 1e-2

    def test_second_order_in_save_interval(self, free_phir_saved, evo_grid):
        cut = build_zeta_theta_phi(2.0, evo_grid)
        states = free_phir_saved.states
        dev_coarse = virial_dynamic_check(states[::4], P313, cut,
                                          linear_only=True)
        dev_fine = virial_dynamic_check(states[::2], P313, cut,
                                        linear_only=True)
        assert dev_coarse / dev_fine >= 3.5

    def test_zero_states(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        states = [(0.0, z), (0.01, z), (0.02, z)]
        dev = virial_dynamic_check(states, P313, quadratic_cutoff(evo_grid))
        assert dev == 0.0

    def test_too_few_states(self, evo_grid):
        z = RadialField(evo_grid, np.zeros(len(evo_grid), dtype=complex))
        with pytest.raises(ValueError):
            virial_dynamic_check([(0.0, z)], P313, quadratic_cutoff(evo_grid))


class TestEnvelopeInputs:
    # Gaussians at (3,1,3) whose amplitude grows from state to state: their
    # energies drift apart from the first, so no V'' stencil is resolved

    @pytest.fixture(scope="class")
    def drifting(self):
        g = make_grid(20.0, 0.05, 3)
        return [(0.01 * k, RadialField(g, (1.0 + 0.1 * k) * np.exp(-g.r**2)))
                for k in range(4)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_states(self, drifting, n):
        with pytest.raises(ValueError, match="at least 3 saved states"):
            fit_envelope_constant(drifting[:n], P313, 2.0, 0.1)
        with pytest.raises(ValueError, match="at least 3 saved states"):
            blowup_bound_check(drifting[:n], P313, 2.0, 0.1, 1.0)

    def test_no_resolved_stencil(self, drifting):
        with pytest.raises(ValueError, match="no V'' stencil"):
            fit_envelope_constant(drifting, P313, 2.0, 0.1)
        assert blowup_bound_check(drifting, P313, 2.0, 0.1, 1.0) == []

    def test_uneven_spacing(self):
        # one Gaussian saved at uneven times: every stencil is resolved, but
        # no step dt makes its second differences V''; the second set's
        # steps, 1e-10 and 2e-10, differ by less than np.allclose's default atol
        g = make_grid(20.0, 0.05, 3)
        u = RadialField(g, np.exp(-g.r**2))
        for times in ((0.0, 0.1, 0.3, 0.35, 0.5, 0.9), (0.0, 1e-10, 3e-10, 4e-10)):
            states = [(t, u) for t in times]
            with pytest.raises(ValueError, match="uniformly spaced"):
                fit_envelope_constant(states, P313, 2.0, 0.1)
            with pytest.raises(ValueError, match="uniformly spaced"):
                blowup_bound_check(states, P313, 2.0, 0.1, 1.0)


class TestBlowupEnvelope:
    def test_mass_critical_envelope(self, blowup_runs_mc):
        C = fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
        for c in (1.2, 1.5):
            rows = blowup_bound_check(blowup_runs_mc[c].states, P313, 32.0,
                                      0.1, C)
            assert len(rows) > 10, c
            assert all(r.holds for r in rows), c

    def test_mass_critical_envelope_pinned(self, blowup_runs_mc, tmp_path):
        # the calibrated constant and the 1.2 run's rows, byte for byte
        C = fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
        assert C == 10.696413509944152
        rows = blowup_bound_check(blowup_runs_mc[1.2].states, P313, 32.0,
                                  0.1, C)
        virial.bound_rows_to_csv(rows, tmp_path / "bounds.csv")
        digest = hashlib.sha256((tmp_path / "bounds.csv").read_bytes()).hexdigest()
        assert digest == ("49cdfce735614e3750e48ba08cdaf4f7"
                          "9e05ae000b247bd527fe521f3a77f1de")

    def test_num_tol_is_the_fourth_difference(self, blowup_runs_mc):
        # each row's allowance is 1.5 dt^2 |V''''|/12 + 1e-9 (1 + |V''|),
        # V'''' the fourth difference about the row's centre state, bit for bit
        states = blowup_runs_mc[1.2].states
        C = fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
        rows = blowup_bound_check(states, P313, 32.0, 0.1, C)
        cutoff = build_vartheta_psi(32.0, states[0][1].grid)
        ts = [t for t, _ in states]
        V = [virial.virial_V(u, cutoff) for _, u in states]
        dt = ts[1] - ts[0]
        assert len(rows) > 10
        for row in rows:
            j = ts.index(row.t)
            assert 2 <= j <= len(V) - 3
            v4 = (V[j - 2] - 4 * V[j - 1] + 6 * V[j] - 4 * V[j + 1]
                  + V[j + 2]) / dt**4
            vpp = (V[j + 1] - 2.0 * V[j] + V[j - 1]) / dt**2
            assert row.num_tol == (1.5 * dt**2 * abs(v4) / 12.0
                                   + 1e-9 * (1.0 + abs(vpp)))

    def test_remainder_smaller_than_8E(self, blowup_runs_mc):
        from inls_lab.grids import RegimeKind
        from inls_lab.virial import _remainder_scale

        C = fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
        E0 = energy(blowup_runs_mc[1.2].states[0][1], P313)
        remainder = C * _remainder_scale(RegimeKind.MASS_CRITICAL, P313, 32.0, 0.1,
                                         0.0)
        # the sign mechanism: remainder below |8 E(u0)| forces V'' <= 8E < 0
        assert remainder < abs(8.0 * E0)
        rows = blowup_bound_check(blowup_runs_mc[1.2].states, P313, 32.0,
                                  0.1, C)
        assert all(r.Vpp_measured <= 16.0 * E0 + remainder + r.num_tol
                   for r in rows)

    def test_intercritical_envelope(self, blowup_runs_ic):
        C = fit_envelope_constant(blowup_runs_ic[1.6].states, P314, 32.0, 0.1)
        for c in (1.2, 1.5):
            rows = blowup_bound_check(blowup_runs_ic[c].states, P314, 32.0,
                                      0.1, C)
            assert len(rows) >= 1, c
            assert all(r.holds for r in rows), c

    def test_global_run_has_slack(self, half_q_saved):
        rows = blowup_bound_check(half_q_saved.states[::20], P314, 32.0, 0.1,
                                  1e-6)
        assert len(rows) > 3
        assert all(r.holds for r in rows)

    def test_regime_mismatch_rejected(self, blowup_runs_mc):
        with pytest.raises(ValueError):
            blowup_bound_check(blowup_runs_mc[1.2].states,
                               Params(3, 1.0, 2.5), 32.0, 0.1, 1.0)


class TestBoundCSV:
    def test_roundtrip(self, blowup_runs_mc, tmp_path):
        from inls_lab.virial import bound_rows_to_csv, fit_envelope_constant

        C = fit_envelope_constant(blowup_runs_mc[1.6].states, P313, 32.0, 0.1)
        rows = blowup_bound_check(blowup_runs_mc[1.2].states, P313, 32.0,
                                  0.1, C)
        path = tmp_path / "bounds.csv"
        bound_rows_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,V,Vp,Vpp_measured,rhs_bound,slack"
        assert len(lines) == len(rows) + 1


class TestEnergyCriticalEnvelope:
    def test_tapered_W_collapse(self):
        from inls_lab.evolution import RunStatus, StepperConfig, evolve
        from inls_lab.ground_state import W_value

        g = make_grid(20.0, 5e-3, 4)
        s = np.clip((g.r - 14.0) / 4.0, 0.0, 1.0)
        taper = 1.0 - (6 * s**5 - 15 * s**4 + 10 * s**3)
        u0 = RadialField(g, (1.2 * W_value(g.r / 1.3, 4, 2.0)
                             * taper).astype(complex))
        assert energy(u0, P425) < 0
        cfg = StepperConfig(dt=2.5e-4, t_end=1.0, save_every=2)
        res = evolve(u0, P425, cfg)
        assert res.outcome.status == RunStatus.BLOWUP_DETECTED
        C = fit_envelope_constant(res.states, P425, 8.0, 0.1)
        rows = blowup_bound_check(res.states, P425, 8.0, 0.1, 1.2 * C)
        assert len(rows) > 50
        assert all(r.holds for r in rows)


class TestMassCriticalCoefficientEquivalence:
    def test_statement_and_proof_coefficients_agree(self):
        # N eps/(2N+4+2b) versus eps/(p+1): identical since
        # p + 1 = (2N+4+2b)/N at mass-critical parameters
        from fractions import Fraction

        for N in (2, 3, 4, 5, 6):
            for b in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
                p = Fraction(N + 4 + 2 * b, N)
                assert Fraction(N, 2 * N + 4 + 2 * b) == 1 / (p + 1)
