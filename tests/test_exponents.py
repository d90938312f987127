import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import inls_lab
import inls_lab.exponents as expo
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


# ---------------------------------------------------------------------------
# the Fraction-arithmetic formulas the integer core replaced, kept verbatim
# as its oracle
# ---------------------------------------------------------------------------

def _ref_inv(q):
    if q is None:
        return F(0)
    if q <= 0:
        raise ValueError("exponents must be positive (or None for infinity)")
    return 1 / q


def _ref_require(holds, identity):
    if not holds:
        raise AssertionError(f"exact identity failed: {identity}")


def _ref_admissible_check(q, r, N):
    if N < 1:
        raise ValueError("N must be >= 1")
    qi, ri = _ref_inv(q), _ref_inv(r)
    if 2 * qi + N * ri != F(N, 2):
        return False
    if N >= 3:
        return F(N - 2, 2 * N) <= ri <= F(1, 2)
    if N == 2:
        return F(0) < ri <= F(1, 2)
    return F(0) <= ri <= F(1, 2)


def _ref_require_window(alpha, N):
    lo = F(4, N)
    hi = F(4, N - 2) if N >= 3 else None
    if not alpha > lo:
        raise ValueError(f"alpha = {alpha} must exceed 4/N = {lo}")
    if hi is not None and not alpha < hi:
        raise ValueError(f"alpha = {alpha} must be below 4/(N-2) = {hi}")


def _ref_scattering_exponents(alpha, N):
    alpha = F(alpha)
    _ref_require_window(alpha, N)
    q = 4 * (alpha + 2) / (N * alpha)
    r = alpha + 2
    k_den = 4 - (N - 2) * alpha
    if k_den <= 0:
        raise ValueError("k degenerates: 4 - (N-2) alpha must be positive")
    k = 2 * alpha * (alpha + 2) / k_den
    m_den = N * alpha**2 + (N - 2) * alpha - 4
    if m_den <= 0:
        raise ValueError("m degenerates: N alpha^2 + (N-2) alpha - 4 must be positive")
    m = 2 * alpha * (alpha + 2) / m_den
    _ref_require(1 / k + 1 / m == 2 / q, "1/k + 1/m = 2/q")
    _ref_require(k > q / 2, "k > q/2")
    _ref_require(_ref_admissible_check(q, r, N), "(q, r) admissible")
    return q, r, k, m


def _ref_auxiliary_exponents(alpha, N):
    alpha = F(alpha)
    _, r, k, _ = _ref_scattering_exponents(alpha, N)
    l_den = N * alpha**2 + 4 * (N - 1) * alpha - 8
    if l_den <= 0:
        raise ValueError("l degenerates in the given window")
    l = 2 * N * alpha * (alpha + 2) / l_den
    delta = (N * alpha - 4) / (2 * alpha)
    _ref_require(1 / r == 1 / l - delta / N, "1/r = 1/l - delta/N")
    _ref_require(l <= r, "l <= r")
    _ref_require(F(0) < delta < F(1), "0 < delta < 1")
    _ref_require(_ref_admissible_check(k, l, N), "(k, l) admissible")
    return l, delta


def _outcome(f, *args):
    """What f(*args) gives: its value with the type of each entry, or the
    type and message of what it raises."""
    try:
        value = f(*args)
    except (ValueError, AssertionError, ZeroDivisionError) as e:
        return "raised", type(e), str(e)
    kinds = tuple(map(type, value)) if isinstance(value, tuple) else type(value)
    return "returned", value, kinds


def _alpha_cases(rng, N):
    """Alphas inside the window, exactly at and just past both of its ends,
    where the k, m or l denominator is <= 0, and anywhere."""
    lo, hi = F(4, N), F(4, N - 2) if N >= 3 else None
    tiny = F(rng.choice((-1, 1)), 10 ** rng.randint(1, 12))
    yield lo + (F(rng.randint(1, 4000), rng.randint(1, 500)) if hi is None
                else (hi - lo) * F(rng.randint(1, 999), 1000))
    yield lo
    yield lo + tiny
    yield hi if hi is not None else lo + 10 ** rng.randint(1, 6)
    yield hi + tiny if hi is not None else lo + abs(tiny)
    # 4 - (N-2) a <= 0 from 4/(N-2) on; N a^2 + (N-2) a - 4 <= 0 up to 2/N,
    # and N a^2 + 4(N-1) a - 8 <= 0 below it
    yield (hi if hi is not None else lo) + F(rng.randint(0, 100), rng.randint(1, 9))
    yield F(2, N) * F(rng.randint(0, 1000), 1000)
    yield F(rng.randint(-50, 400), rng.randint(1, 60))


class TestIntegerCoreOracle:
    """The integer core returns what the Fraction formulas return, as
    Fractions, and raises what they raise, with the same message."""

    def test_seeded_alpha_N_pairs(self):
        rng = random.Random(28)
        seen, pairs = set(), 0
        for _ in range(100):
            for N in range(1, 8):
                for alpha in _alpha_cases(rng, N):
                    for new, ref in ((scattering_exponents, _ref_scattering_exponents),
                                     (auxiliary_exponents, _ref_auxiliary_exponents)):
                        got = _outcome(new, alpha, N)
                        assert got == _outcome(ref, alpha, N), (new.__name__, alpha, N)
                        if got[0] == "returned":
                            assert all(t is F for t in got[2])
                        seen.add(got[0] if got[0] == "returned"
                                 else re.search("must (exceed|be below)", got[2])[1])
                    pairs += 1
        assert pairs >= 5000
        # for N >= 1 a k, m or l denominator <= 0 lies outside the window, and
        # only the window's two messages are raised
        assert seen == {"returned", "exceed", "be below"}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.fractions(max_denominator=10**6), N=st.integers(1, 7))
    def test_any_alpha(self, alpha, N):
        for new, ref in ((scattering_exponents, _ref_scattering_exponents),
                         (auxiliary_exponents, _ref_auxiliary_exponents)):
            got = _outcome(new, alpha, N)
            assert got == _outcome(ref, alpha, N)
            assert got[0] == "raised" or all(t is F for t in got[2])

    def test_seeded_admissible_pairs(self):
        rng = random.Random(2801)
        admissible = 0
        for _ in range(2000):
            N = rng.randint(-1, 7)
            r = rng.choice((None, F(rng.randint(-2, 60), rng.randint(1, 12))))
            q = rng.choice((None, F(rng.randint(-2, 60), rng.randint(1, 12))))
            if N >= 1 and r is not None and r > 0 and rng.random() < 0.7:
                # q from 2/q = N/2 - N/r, so that the relation holds
                qi = F(N, 4) - F(N, 2) / r
                q = None if qi == 0 else 1 / qi if qi > 0 else q
            got = _outcome(admissible_check, q, r, N)
            assert got == _outcome(_ref_admissible_check, q, r, N), (q, r, N)
            admissible += got[:3] == ("returned", True, bool)
        assert admissible > 150

    @pytest.mark.parametrize("identity", [
        "1/k + 1/m = 2/q", "k > q/2", "(q, r) admissible",
        "1/r = 1/l - delta/N", "l <= r", "0 < delta < 1", "(k, l) admissible"])
    def test_each_identity_goes_through_require(self, monkeypatch, identity):
        require = expo._require
        monkeypatch.setattr(expo, "_require", lambda holds, name: require(
            holds and name != identity, name))
        with pytest.raises(AssertionError, match=re.escape(identity)):
            auxiliary_exponents(F(2), 3)
