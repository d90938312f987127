import math

import numpy as np
import pytest

from inls_lab.grids import Params, RadialField, gradient_sq_norm, make_grid
from inls_lab.functionals import (
    Verdict,
    c_opt_closed_form,
    energy,
    mass,
    pohozaev_residuals,
    potential,
    threshold_report,
    weinstein,
)

from conftest import P313, P314

GAUSS_MASS = (math.pi / 2) ** 1.5
GAUSS_GRAD = 1.5 * math.pi * math.sqrt(math.pi / 2)


@pytest.fixture(scope="module")
def gauss3():
    g = make_grid(8.0, 1e-3, 3)
    return RadialField(g, np.exp(-g.r**2))


class TestExponents:
    def test_AB_sum(self):
        assert P314.A == pytest.approx(3.5)
        assert P314.B == pytest.approx(1.5)
        assert P314.A + P314.B == pytest.approx(P314.p + 1)

    def test_sigma_infinite_at_mass_critical(self):
        assert P313.sigma_c == math.inf


class TestBasicFunctionals:
    def test_zero_field(self, gauss3):
        z = RadialField(gauss3.grid, np.zeros(len(gauss3.grid)))
        assert mass(z) == 0.0
        assert potential(z, P313) == 0.0
        assert energy(z, P313) == 0.0

    def test_gaussian_mass(self, gauss3):
        assert mass(gauss3) == pytest.approx(GAUSS_MASS, abs=1e-6)

    def test_gaussian_potential(self, gauss3):
        assert potential(gauss3, P313) == pytest.approx(math.pi / 8, abs=1e-6)

    def test_gaussian_energy(self, gauss3):
        expected = 0.5 * GAUSS_GRAD - (math.pi / 8) / 4.0
        assert energy(gauss3, P313) == pytest.approx(expected, abs=5e-3)

    def test_homogeneity(self, gauss3):
        c = 1.7
        cu = c * gauss3
        assert mass(cu) == pytest.approx(c**2 * mass(gauss3), rel=1e-12)
        assert potential(cu, P314) == pytest.approx(
            c ** (P314.p + 1) * potential(gauss3, P314), rel=1e-12
        )
        assert energy(cu, P314) == pytest.approx(
            0.5 * c**2 * gradient_sq_norm(gauss3)
            - c**5 * potential(gauss3, P314) / 5.0,
            rel=1e-12,
        )


class TestWeinstein:
    def test_zero_rejected(self, gauss3):
        z = RadialField(gauss3.grid, np.zeros(len(gauss3.grid)))
        with pytest.raises(ValueError):
            weinstein(z, P314)

    def test_scale_invariance(self, gauss3):
        w1 = weinstein(gauss3, P314)
        w2 = weinstein(3.3 * gauss3, P314)
        assert w2 == pytest.approx(w1, rel=1e-10)

    def test_dilation_invariance(self):
        lam = 2.0
        g1 = make_grid(8.0, 1e-3, 3)
        u1 = RadialField(g1, np.exp(-g1.r**2))
        g2 = make_grid(8.0 / lam, 1e-3 / lam, 3)
        u2 = RadialField(g2, np.exp(-((lam * g2.r) ** 2)))
        assert weinstein(u2, P314) == pytest.approx(
            weinstein(u1, P314), rel=1e-6
        )

    def test_ground_state_is_optimal(self, q314, gauss3):
        wq = weinstein(q314.profile, P314)
        assert weinstein(gauss3, P314) < wq * (1 + 1e-6)

    def test_argmax_at_ground_state(self, q314):
        g = q314.profile.grid
        bump = np.exp(-((g.r - 2.0) ** 2))
        base = weinstein(q314.profile, P314)
        for eps in np.linspace(-0.5, 0.5, 21):
            if abs(eps) < 1e-12:
                continue
            u = RadialField(g, np.real(q314.profile.values) + eps * bump)
            assert weinstein(u, P314) < base


class TestPohozaev:
    def test_converged_residuals(self, q314):
        r1, r2 = pohozaev_residuals(q314.profile, P314)
        assert r1 < 1e-4 and r2 < 1e-4

    def test_exact_ratio(self, q314):
        g = gradient_sq_norm(q314.profile)
        m = mass(q314.profile)
        assert g / m == pytest.approx(7.0 / 3.0, abs=1e-4)

    def test_scaled_profile_fails(self, q314):
        # the second residual has a genuine homogeneity mismatch
        r1, r2 = pohozaev_residuals(1.1 * q314.profile, P314)
        assert r2 > 0.05

    def test_zero_rejected(self, q314):
        z = RadialField(q314.profile.grid, np.zeros(len(q314.profile.grid)))
        with pytest.raises(ValueError):
            pohozaev_residuals(z, P314)

    @pytest.mark.parametrize("N,b,p", [(4, 2.0, 5.0), (5, 1.0 / 3.0, 23.0 / 9.0)])
    def test_energy_critical_rejected(self, N, b, p):
        # B is 0 at (4,2,5) and 4.4e-16 in floats at (5,1/3,23/9); both are
        # energy-critical as Params classifies them
        g = make_grid(8.0, 1e-2, N)
        with pytest.raises(ValueError, match="energy-critical"):
            pohozaev_residuals(RadialField(g, np.exp(-g.r**2)), Params(N, b, p))


class TestSharpConstant:
    def test_prefactor_and_exponent(self):
        # C_opt = 10/7 (grad * mass^sigma)^{-3/2} at (3,1,4)
        assert c_opt_closed_form((1.0, 1.0), P314) == pytest.approx(10.0 / 7.0)
        assert c_opt_closed_form((2.0, 1.0), P314) == pytest.approx(
            10.0 / 7.0 * 2.0 ** (-1.5), rel=1e-12
        )

    def test_matches_weinstein(self, q314):
        w = weinstein(q314.profile, P314)
        c = c_opt_closed_form(
            (math.sqrt(gradient_sq_norm(q314.profile)),
             math.sqrt(mass(q314.profile))),
            P314,
        )
        assert w == pytest.approx(c, rel=1e-4)

    def test_mass_critical_rejected(self):
        with pytest.raises(ValueError):
            c_opt_closed_form((1.0, 1.0), P313)


class TestThresholdReport:
    def test_half_Q_global(self, q314):
        rep = threshold_report(0.5 * q314.profile, P314, q314)
        assert rep.verdict == Verdict.GLOBAL_BRANCH
        assert rep.grad_product == pytest.approx(0.25 * rep.grad_Q, rel=1e-6)

    def test_3halves_Q_blowup(self, q314):
        rep = threshold_report(1.5 * q314.profile, P314, q314)
        assert rep.verdict == Verdict.BLOWUP_BRANCH
        assert rep.me_product < rep.me_Q
        assert rep.grad_product > rep.grad_Q

    def test_slightly_above_Q_blowup_branch(self, q314):
        # E > 0 with the gradient product above threshold
        u = 1.05 * q314.profile
        assert energy(u, P314) > 0
        rep = threshold_report(u, P314, q314)
        assert rep.verdict == Verdict.BLOWUP_BRANCH

    def test_mass_critical_negative_energy(self, q313):
        u = 1.2 * q313.profile
        rep = threshold_report(u, P313, q313)
        assert rep.verdict == Verdict.NEGATIVE_ENERGY
        # E(cQ) = (c^2 - c^{p+1}) P(Q)/(p+1) < 0 for c > 1 at mass-critical
        c = 1.2
        pred = (c**2 - c**4) * potential(q313.profile, P313) / 4.0
        assert energy(u, P313) == pytest.approx(pred, rel=1e-3)

    def test_mass_critical_positive_energy_rejected(self, q313):
        with pytest.raises(ValueError):
            threshold_report(0.5 * q313.profile, P313, q313)

    def test_above_threshold(self, q314):
        # Q plus a far shell: extra mass and kinetic energy at negligible
        # potential cost pushes the mass-energy product above the threshold
        g = q314.profile.grid
        shell = 0.1 * np.exp(-4.0 * (g.r - 15.0) ** 2)
        u = RadialField(g, np.real(q314.profile.values) + shell)
        assert energy(u, P314) > 0
        rep = threshold_report(u, P314, q314)
        assert rep.me_product > rep.me_Q
        assert rep.verdict == Verdict.ABOVE_THRESHOLD


class TestEnergyCriticalThresholds:
    def test_below_W_global(self):
        from inls_lab.ground_state import W_value
        from conftest import P425

        g = make_grid(60.0, 5e-3, 4)
        W = RadialField(g, W_value(g.r, 4, 2.0))
        rep = threshold_report(0.5 * W, P425, W)
        assert rep.verdict == Verdict.GLOBAL_BRANCH
        assert rep.me_product < rep.me_Q
        assert rep.grad_product < rep.grad_Q

    def test_dilated_above_W_blowup(self):
        from inls_lab.ground_state import W_value
        from conftest import P425

        g = make_grid(60.0, 5e-3, 4)
        W = RadialField(g, W_value(g.r, 4, 2.0))
        u = RadialField(g, 1.2 * W_value(g.r / 1.3, 4, 2.0))
        assert energy(u, P425) < 0
        rep = threshold_report(u, P425, W)
        assert rep.verdict == Verdict.BLOWUP_BRANCH
        assert rep.grad_product > rep.grad_Q
