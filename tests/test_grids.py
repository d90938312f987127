import math
import random
from fractions import Fraction

import numpy as np
import pytest

from inls_lab import functionals, virial
from inls_lab.evolution import StepperConfig, evolve, step
from inls_lab.exponents import morawetz_beta, scattering_alpha_window, table
from inls_lab.ground_state import (W_identities, explicit_W, shoot,
                                   sharp_sobolev_constant, uniqueness_constants)
from inls_lab.inequalities import gn_check
from inls_lab.grids import (
    NonFiniteError,
    Params,
    RadialField,
    RegimeKind,
    classify,
    dot,
    grad_sq_edges,
    gradient_sq_norm,
    integrate,
    make_grid,
    require_finite,
    sphere_area,
)


def gaussian_field(r_max=8.0, dr=1e-3, N=3):
    g = make_grid(r_max, dr, N)
    return RadialField(g, np.exp(-g.r**2))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(1, 1.0, 2.0)
        with pytest.raises(ValueError):
            Params(3, 0.0, 2.0)
        with pytest.raises(ValueError):
            Params(3, 1.0, 1.0)

    def test_gamma_sigma(self):
        pr = Params(3, 1.0, 4.0)
        assert pr.gamma_c == pytest.approx(0.5)
        assert pr.sigma_c == pytest.approx(1.0)
        assert Params(3, 1.0, 3.0).sigma_c == math.inf

    @staticmethod
    def _assert_matches_exact_table(N, b, p):
        exact = table(N, b, p)
        pr = Params(N, float(b), float(p))
        assert pr.A == float(exact["A"])
        assert pr.B == float(exact["B"])
        sigma = math.inf if exact["sigma_c"] == "inf" else float(exact["sigma_c"])
        assert pr.sigma_c == sigma

    @pytest.mark.parametrize("N, b, p", [(3, 1, 4), (2, 1, 6), (3, 1, 3), (4, 2, 5),
                                         (3, "1/2", "5/2")])
    def test_exponents_match_exact_table(self, N, b, p):
        self._assert_matches_exact_table(N, Fraction(b), Fraction(p))

    def test_exponents_match_exact_table_seeded(self):
        # dyadic b and p make float(b), float(p), A and B exact, so each float
        # exponent is the correctly rounded exact one
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            N = rng.randint(2, 6)
            b = Fraction(rng.randint(1, 12), rng.choice((1, 2, 4, 8)))
            p = 1 + Fraction(rng.randint(1, 30), rng.choice((1, 2, 4, 8)))
            if p >= 1 + 2 * b / (N - 1):
                self._assert_matches_exact_table(N, b, p)
                checked += 1

    @pytest.mark.parametrize("N, b", [(4, Fraction(2)), (5, Fraction(1, 3))])
    def test_sigma_zero_at_energy_critical(self, N, b):
        # at (5, 1/3, 23/9) the float B is 4e-16, not 0
        p = (N + 2 + 2 * b) / (N - 2)
        pr = Params(N, float(b), float(p))
        assert classify(pr).kind == RegimeKind.ENERGY_CRITICAL
        assert pr.sigma_c == 0.0


class TestClassify:
    def test_mass_critical(self):
        assert classify(Params(3, 1, 3)).kind == RegimeKind.MASS_CRITICAL

    def test_energy_critical(self):
        assert classify(Params(4, 2, 5)).kind == RegimeKind.ENERGY_CRITICAL

    def test_intercritical_flags(self):
        rc = classify(Params(3, 1, 4))
        assert rc.kind == RegimeKind.INTERCRITICAL
        assert rc.lwp_side == 1  # 1 + 2b/(N-1) = 2 < 4
        # alpha = p - 1 - 2b/(N-1) = 2 lies in the scattering window (4/3, 4)
        alpha, _ = morawetz_beta(Params(3, 1, 4))
        lo, hi = scattering_alpha_window(3)
        assert alpha == 2 and lo < alpha < hi

    def test_subcritical_and_supercritical(self):
        assert classify(Params(3, 1, 2.5)).kind == RegimeKind.MASS_SUBCRITICAL
        assert classify(Params(4, 2, 6)).kind == RegimeKind.ENERGY_SUPERCRITICAL


class TestOneDecision:
    """classify is the one comparison of p with a critical power: sigma_c
    and the range guards read its answer, so they agree with it inside its
    1e-12 tolerance band as well as outside."""

    BOUNDS = ("mass_critical_p", "energy_critical_p", "lwp_lower_p")
    SUBCRITICAL = (RegimeKind.MASS_SUBCRITICAL, RegimeKind.MASS_CRITICAL,
                   RegimeKind.INTERCRITICAL)

    @staticmethod
    def _accepts(fn, *args) -> bool:
        try:
            fn(*args)
        except ValueError:
            return False
        return True

    def test_seeded_sweeps_across_each_bound(self):
        rng = random.Random(1801)
        for _ in range(6):
            N, b = rng.randint(2, 6), rng.uniform(0.1, 4.0)
            grid = make_grid(4.0, 0.05, N)
            f = RadialField(grid, np.exp(-grid.r**2))
            for name in self.BOUNDS:
                bound = getattr(Params(N, b, 2.0), name)
                if math.isinf(bound):
                    continue
                decisions = set()
                for k in range(-30, 31):
                    pr = Params(N, b, bound * (1 + k * 1e-13))
                    rc = classify(pr)
                    kind, above_lwp = rc.kind, rc.lwp_side > 0
                    decisions.add(rc.lwp_side if name == "lwp_lower_p" else kind)
                    assert math.isinf(pr.sigma_c) == (kind == RegimeKind.MASS_CRITICAL)
                    assert (pr.sigma_c == 0) == (kind == RegimeKind.ENERGY_CRITICAL)
                    assert self._accepts(uniqueness_constants, pr) == (
                        above_lwp and kind in self.SUBCRITICAL)
                    assert self._accepts(gn_check, f, pr, 1.0) == (
                        above_lwp and kind != RegimeKind.ENERGY_SUPERCRITICAL)
                # below, at and above the bound
                assert len(decisions) == 3, (N, b, name, decisions)

    def test_mass_critical_band_has_infinite_sigma(self):
        pr = Params(3, 1.0, 3 + 2e-12)
        assert classify(pr).kind == RegimeKind.MASS_CRITICAL
        assert pr.sigma_c == math.inf

    def test_energy_critical_float_triple_outside_uniqueness(self):
        # the float 23/9 lies a rounding below (N+2+2b)/(N-2) at (5, 1/3)
        pr = Params(5, 1 / 3, 23 / 9)
        assert classify(pr).kind == RegimeKind.ENERGY_CRITICAL
        with pytest.raises(ValueError, match="p < "):
            uniqueness_constants(pr)
        with pytest.raises(ValueError, match="energy-subcritical"):
            shoot(pr)


class TestQuadrature:
    def test_ball_volumes(self):
        # constant 1 integrates to the exact ball volume within O(dr^2)
        for N in range(2, 7):
            g = make_grid(1.0, 1e-3, N)
            vol = integrate(np.ones(len(g)), g)
            exact = math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
            assert abs(vol - exact) < 10 * g.dr**2 * exact

    def test_ball_volume_value(self):
        g = make_grid(1.0, 1e-3, 3)
        assert integrate(np.ones(len(g)), g) == pytest.approx(
            4 * math.pi / 3, abs=1e-4
        )

    def test_zero(self):
        g = make_grid(1.0, 1e-2, 3)
        assert integrate(np.zeros(len(g)), g) == 0.0

    def test_gaussian_closed_form(self):
        u = gaussian_field()
        val = integrate(np.abs(u.values) ** 2, u.grid)
        assert val == pytest.approx((math.pi / 2) ** 1.5, abs=1e-6)

    def test_weight_origin_zero(self):
        g = make_grid(1.0, 1e-2, 3)
        assert g.weights[0] == 0.0

    def test_nonfinite_rejected(self):
        g = make_grid(1.0, 1e-2, 3)
        bad = np.ones(len(g))
        bad[3] = np.nan
        with pytest.raises(ValueError):
            integrate(bad, g)


class TestDot:
    def test_one_block_is_one_np_dot(self):
        # up to one block, the sum is np.dot's, bit for bit
        rng = np.random.default_rng(0)
        for n in (1, 8001, 8192):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert dot(a, b) == np.dot(a, b)

    def test_blocks_added_in_order(self):
        # beyond one block, np.dot of each 8192-element block, added left
        # to right, for real and complex samples
        rng = np.random.default_rng(1)
        for n in (8193, 20001, 100000):
            a = rng.standard_normal(n)
            for b in (rng.standard_normal(n),
                      rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                ref = np.dot(a[:8192], b[:8192])
                for k in range(8192, n, 8192):
                    ref = ref + np.dot(a[k:k + 8192], b[k:k + 8192])
                assert dot(a, b) == ref

    def test_integrate_is_the_weighted_dot(self):
        g = make_grid(10.0, 1e-4, 3)
        v = np.exp(-g.r**2)
        assert integrate(v, g) == float(dot(g.weights, v))


# grids and fields met with Params of another N: an N = 2 field with
# Params(3, 1, 3), and an N = 3 grid with the W triple (4, 2, 5)
_G2 = make_grid(8.0, 1e-2, 2)
_U2 = RadialField(_G2, np.exp(-_G2.r**2).astype(complex))
_P313 = Params(3, 1.0, 3.0)
_STATES2 = [(0.0, _U2), (1e-3, _U2), (2e-3, _U2)]
_N_MISMATCH = {
    "step": lambda: step(_U2, _P313, 1e-3),
    "evolve": lambda: evolve(_U2, _P313, StepperConfig(dt=1e-3, t_end=1e-3)),
    "potential": lambda: functionals.potential(_U2, _P313),
    "energy": lambda: functionals.energy(_U2, _P313),
    "grad_mass_energy": lambda: functionals.grad_mass_energy(_U2, _P313),
    "weinstein": lambda: functionals.weinstein(_U2, _P313),
    "pohozaev_residuals": lambda: functionals.pohozaev_residuals(_U2, _P313),
    "threshold_report": lambda: functionals.threshold_report(
        _U2, Params(3, 1.0, 4.0), _U2),
    "virial_rhs": lambda: virial.virial_rhs(
        _U2, _P313, virial.quadratic_cutoff(_G2)),
    "psi12": lambda: virial.psi12(2.0, _P313, make_grid(8.0, 1e-3, 2)),
    "virial_dynamic_check": lambda: virial.virial_dynamic_check(
        _STATES2, _P313, virial.quadratic_cutoff(_G2)),
    "fit_envelope_constant": lambda: virial.fit_envelope_constant(
        _STATES2, _P313, 2.0, 0.1),
    "blowup_bound_check": lambda: virial.blowup_bound_check(
        _STATES2, _P313, 2.0, 0.1, 1.0),
    "explicit_W": lambda: explicit_W(Params(4, 2.0, 5.0), make_grid(8.0, 1e-2, 3)),
    "W_identities": lambda: W_identities(Params(4, 2.0, 5.0),
                                         make_grid(8.0, 1e-2, 3)),
    "sharp_sobolev_constant": lambda: sharp_sobolev_constant(
        Params(4, 2.0, 5.0), make_grid(8.0, 1e-2, 3)),
}


@pytest.mark.parametrize("call", _N_MISMATCH.values(), ids=_N_MISMATCH.keys())
def test_grid_and_params_dimensions_must_agree(call):
    # each entry point where a grid meets a Params raises, naming both N:
    # without the check the N = 2 stepper and weights met the N = 3
    # regime, and psi12 blamed its closed-form cross-check
    with pytest.raises(ValueError, match=r"the grid has N = [23], the Params "
                                         r"N = [34]$"):
        call()


class TestGradient:
    def test_constant_zero(self):
        g = make_grid(4.0, 1e-3, 3)
        assert gradient_sq_norm(RadialField(g, np.ones(len(g)))) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_gaussian_closed_form(self):
        val = gradient_sq_norm(gaussian_field())
        exact = 1.5 * math.pi * math.sqrt(math.pi / 2)
        assert val == pytest.approx(exact, abs=1e-3)

    def test_W_matches_analytic_derivative(self):
        from inls_lab.ground_state import W_prime, W_value

        g = make_grid(8.0, 1e-3, 4)
        u = RadialField(g, W_value(g.r, 4, 2.0))
        val = gradient_sq_norm(u)
        ref = integrate(W_prime(g.r, 4, 2.0) ** 2, g)
        assert val == pytest.approx(ref, abs=1e-5)

    def test_origin_edge_carries_no_flux(self):
        # the edge form skips the edge 0 -- 1, as the Crank-Nicolson step does
        u = gaussian_field(r_max=2.0, dr=1e-2)
        v = u.values.copy()
        v[0] += 1.0
        assert gradient_sq_norm(RadialField(u.grid, v)) == gradient_sq_norm(u)

    def test_kappa_built_on_first_use(self):
        g = make_grid(2.0, 1e-2, 4)
        assert "kappa" not in vars(g)
        kappa = g.kappa
        assert np.array_equal(kappa, (g.r[1:-1] + 0.5 * g.dr) ** 3 / g.dr)
        assert g.kappa is kappa and not kappa.flags.writeable

    def test_edge_terms_match_unfactored_form(self):
        # the cached omega_{N-1} kappa is the left-to-right product of the
        # unfactored expression, so the edge terms agree bit for bit
        g = make_grid(4.0, 1e-2, 4)
        v = np.exp(-g.r**2 + 0.3j * g.r)
        d = v[2:] - v[1:-1]
        ref = sphere_area(g.N) * g.kappa * np.abs(d) ** 2
        assert grad_sq_edges(v, g).tobytes() == ref.tobytes()
        assert not g.area_kappa.flags.writeable

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 0.9, 3)

    @pytest.mark.parametrize("r_max, dr", [(math.inf, 1e-2), (math.nan, 1e-2),
                                           (1.0, math.nan), (1.0, math.inf),
                                           (-1.0, 1e-2), (1.0, 0.0)])
    def test_non_finite_or_non_positive_rejected(self, r_max, dr):
        with pytest.raises(ValueError, match="finite and positive"):
            make_grid(r_max, dr, 3)


class TestRefinement:
    def test_second_order_convergence(self):
        exact_vol = 4 * math.pi / 3
        exact_grad = 1.5 * math.pi * math.sqrt(math.pi / 2)
        errs = {}
        for dr in (2e-3, 1e-3):
            gv = make_grid(1.0, dr, 3)
            e1 = abs(integrate(np.ones(len(gv)), gv) - exact_vol)
            gg = make_grid(8.0, dr, 3)
            u = RadialField(gg, np.exp(-gg.r**2))
            e2 = abs(gradient_sq_norm(u) - exact_grad)
            errs[dr] = (e1, e2)
        for a, b in zip(errs[2e-3], errs[1e-3]):
            assert a / b >= 3.5


class TestRadialField:
    def test_shape_mismatch(self):
        g = make_grid(1.0, 1e-2, 3)
        with pytest.raises(ValueError):
            RadialField(g, np.ones(len(g) + 1))

    def test_nan_rejected(self):
        g = make_grid(1.0, 1e-2, 3)
        v = np.ones(len(g), dtype=complex)
        v[0] = np.nan + 0j
        with pytest.raises(ValueError):
            RadialField(g, v)

    def test_non_finite_has_its_own_error(self):
        # NonFiniteError names a non-finite value and nothing else
        g = make_grid(1.0, 1e-2, 3)
        v = np.ones(len(g), dtype=complex)
        v[3] = np.inf
        with pytest.raises(NonFiniteError):
            RadialField(g, v)
        with pytest.raises(NonFiniteError):
            require_finite(math.nan)
        with pytest.raises(ValueError) as err:
            RadialField(g, np.ones(len(g) + 1))
        assert not isinstance(err.value, NonFiniteError)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                     complex(1.0, math.inf)])
    def test_non_finite_single_precision_rejected(self, bad):
        # a NaN or an imaginary inf in complex64 samples is caught
        g = make_grid(1.0, 1e-2, 3)
        v = np.ones(len(g), dtype=np.complex64)
        v[3] = bad
        with pytest.raises(NonFiniteError):
            RadialField(g, v)
        with pytest.raises(NonFiniteError):
            integrate(v, g)

    def test_strided_complex_samples_checked(self):
        # a strided complex array is checked sample by sample too
        g = make_grid(1.0, 1e-2, 3)
        big = np.ones(2 * len(g), dtype=complex)
        u = RadialField(g, big[::2])
        assert np.all(u.values == 1.0)
        assert integrate(big[::2], g) == integrate(np.ones(len(g)), g)
        for bad in (complex(math.nan, 0.0), complex(1.0, math.inf)):
            big[6] = bad
            with pytest.raises(NonFiniteError):
                RadialField(g, big[::2])
            with pytest.raises(NonFiniteError):
                integrate(big[::2], g)
            big[6] = 1.0

    def test_scalar_multiply(self):
        g = make_grid(1.0, 1e-2, 3)
        u = RadialField(g, np.ones(len(g)))
        assert np.all((2.0 * u).values == 2.0)
