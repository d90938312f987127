import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import inls_lab
from inls_lab.grids import Params, classify
from inls_lab.exponents import (
    admissible_check,
    auxiliary_exponents,
    dispersive_n_feasible,
    morawetz_beta,
    scattering_alpha_window,
    scattering_exponents,
    table,
)


class TestAdmissible:
    def test_endpoint_infinity(self):
        assert admissible_check(None, F(2), 3)

    def test_worked_pair(self):
        assert admissible_check(F(8, 3), F(4), 3)

    def test_bad_pair(self):
        assert not admissible_check(F(2), F(2), 3)

    def test_range_matters(self):
        # 2/q + N/r = N/2 alone is not enough: r must be in range
        assert not admissible_check(F(1), F(12), 3)  # r > 2N/(N-2) = 6

    def test_dimension_two_open_range(self):
        # (q, r) = (2, inf-like large r) excluded arithmetic-wise; check a
        # legal interior pair instead
        assert admissible_check(F(4), F(4), 2)


class TestScatteringExponents:
    def test_worked_triple(self):
        assert scattering_exponents(F(2), 3) == (F(8, 3), F(4), F(8), F(8, 5))

    def test_window_rejection(self):
        with pytest.raises(ValueError):
            scattering_exponents(F(1), 3)  # alpha <= 4/N
        with pytest.raises(ValueError):
            scattering_exponents(F(4), 3)  # alpha >= 4/(N-2)

    def test_random_rational_identities(self):
        rng = random.Random(12345)
        checked = 0
        for _ in range(1000):
            N = rng.randint(2, 6)
            lo, hi = scattering_alpha_window(N)
            if hi is None:
                alpha = lo + F(rng.randint(1, 4000), rng.randint(1, 500))
            else:
                alpha = lo + (hi - lo) * F(rng.randint(1, 999), 1000)
            q, r, k, m = scattering_exponents(alpha, N)
            l, d = auxiliary_exponents(alpha, N)
            assert 1 / k + 1 / m == 2 / q
            assert k > q / 2
            assert admissible_check(q, r, N)
            assert admissible_check(k, l, N)
            assert F(0) < d < F(1)
            assert l <= r  # Sobolev direction: 1/r = 1/l - delta/N
            assert 1 / r == 1 / l - d / N
            checked += 1
        assert checked == 1000


class TestAuxiliary:
    def test_worked_values(self):
        assert auxiliary_exponents(F(2), 3) == (F(12, 5), F(1, 2))

    def test_delta_vanishes_at_window_edge(self):
        _, d = auxiliary_exponents(F(4, 3) + F(1, 10**6), 3)
        assert 0 < float(d) < 1e-5


class TestMorawetz:
    def test_314(self):
        assert morawetz_beta(Params(3, 1, 4)) == (F(2), F(1, 3))

    def test_216(self):
        assert morawetz_beta(Params(2, 1, 6)) == (F(3), F(2, 5))

    def test_beta_always_below_one(self):
        for i in range(1, 60):
            p = 10 / 3 + 0.2 * i
            try:
                _, beta = morawetz_beta(Params(3, 1.0, p))
            except ValueError:
                continue
            assert F(0) < beta < F(1)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            morawetz_beta(Params(3, 3.0, 2.0))

    def test_alpha_inside_classify_band_rejected(self):
        # classify places p = 2 + 1e-13 at the bound 1 + 2b/(N-1) = 2, so
        # alpha is not positive and the table has no Morawetz pair
        p = 2 + F(1, 10**13)
        assert classify(Params(3, F(1), p)).lwp_side == 0
        with pytest.raises(ValueError, match="must be positive"):
            morawetz_beta(Params(3, F(1), p))
        rows = table(3, F(1), p)
        assert rows["alpha_N_minus_1"] == rows["beta"] == "n/a"
        assert table(3, F(1), 2 + F(1, 10**11))["alpha_N_minus_1"] == F(1, 10**11)


class TestDispersive:
    def test_worked_choice(self):
        rep = dispersive_n_feasible(F(2), 3)
        assert rep.feasible
        assert rep.n is None  # 1/n = 0
        assert rep.theta == F(3, 5)

    def test_branch_boundary_alpha_one(self):
        # alpha = 1 inside the window (N = 5): both branches give 1/n = 0
        rep = dispersive_n_feasible(F(1), 5)
        assert rep.feasible
        assert rep.n is None

    def test_factorization_value(self):
        # (a+1)(N a^2 + (N-2) a - 4) at (alpha, N) = (1, 4) equals 4
        a, N = F(1), 4
        assert (a + 1) * (N * a**2 + (N - 2) * a - 4) == 4

    def test_window_boundary_excluded(self):
        rep = dispersive_n_feasible(F(4, 3), 3)
        assert not rep.feasible
        assert any("4/N" in v for v in rep.violations)

    def test_small_alpha_branch(self):
        # alpha <= 1 in window at N = 5: 1/n = (1-alpha)/2
        rep = dispersive_n_feasible(F(9, 10), 5)
        assert rep.feasible
        assert rep.n == F(20)  # 1/n = 1/20

    def test_N2_unsupported(self):
        rep = dispersive_n_feasible(F(3), 2)
        assert not rep.feasible


class TestOptimizedInterpreter:
    """The exact identities are explicit raises, so python -O keeps them."""

    @staticmethod
    def _run_O(*args):
        env = dict(os.environ)
        src = str(Path(inls_lab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
        return subprocess.run([sys.executable, "-O", *args], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_failed_identity_raises_under_O(self):
        proc = self._run_O("-c", (
            "from fractions import Fraction\n"
            "import inls_lab.exponents as expo\n"
            "expo.admissible_check = lambda *a: False\n"
            "try:\n"
            "    expo.scattering_exponents(Fraction(2), 3)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"

    def test_verify_exponents_under_O(self):
        proc = self._run_O("-m", "inls_lab.cli", "verify", "--suite", "exponents")
        assert proc.returncode == 0, proc.stderr
