"""Zeta-engine accuracy against independent oracles.

Oracles used here:
  - direct Dirichlet-series summation with an integral tail bound (s = 3),
  - central finite differences for derivatives,
  - the doubled-cutoff accelerated limit for Stieltjes constants,
  - sign-change bisection of the Hardy Z function (via mpmath.siegelz) for
    zero ordinates,
  - mpmath's own zeta as a fully separate implementation for spot values.
"""

import math
import random

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from divisorlab import zeta as engine
from divisorlab.errors import (
    DomainError,
    HeightRangeError,
    PoleError,
    RefinementError,
)


def series_zeta_oracle(s: float, terms: int = 200000):
    """Plain partial sum plus integral tail bound; only for real s > 1."""
    with mp.workprec(80):
        total = mp.fsum(mp.power(n, -s) for n in range(1, terms + 1))
        tail = mp.power(terms, 1 - s) / (s - 1)
        return total, tail


def test_zeta_2_closed_form():
    assert abs(engine.zeta(2) - mp.pi**2 / 6) < mpf("1e-30")


def test_zeta_0():
    assert abs(engine.zeta(0).real + mpf("0.5")) < mpf("1e-30")
    assert abs(engine.zeta(0).imag) < mpf("1e-30")


def test_zeta_3_against_series_summation():
    value, tail = series_zeta_oracle(3.0)
    assert abs(engine.zeta(3).real - value) < tail + mpf("1e-20")
    assert abs(engine.zeta(3).real - mpf("1.2020569031595942854")) < mpf("1e-18")


def test_zeta_pole_and_height_cap():
    with pytest.raises(PoleError):
        engine.zeta(1)
    with pytest.raises(HeightRangeError):
        engine.zeta(mpc(0.5, 2.0e4))


def test_precision_doubling_stability():
    """zeta at 128 and 192 bits agrees to 2^-120 relative on a random sample."""
    rng = random.Random(20260824)
    bound = mpf(2) ** -120
    for _ in range(100):
        s = mpc(rng.uniform(-2, 3), rng.uniform(-500, 500))
        lo = engine.zeta(s, 128)
        hi = engine.zeta(s, 192)
        assert abs(lo - hi) / abs(hi) < bound


def test_against_independent_implementation():
    for s in (mpc(0.25, 7.07), mpc(-1.5, 123.4), mpc(2.0, 0.3), mpc(0.6, 50)):
        ours = engine.zeta(s, 128)
        theirs = mpmath.zeta(s)
        assert abs(ours - theirs) / abs(theirs) < mpf("1e-14")


def test_derivative_matches_finite_differences():
    rng = random.Random(7)
    h = mpf("1e-8")
    for _ in range(20):
        s = mpc(rng.uniform(-1, 3), rng.uniform(-50, 50))
        if abs(s - 1) < 0.1:
            continue
        fd = (engine.zeta(s + h, 128) - engine.zeta(s - h, 128)) / (2 * h)
        an = engine.zeta_derivative(s, 1, 128)
        assert abs(fd - an) / abs(an) < mpf("1e-6")


def test_derivative_examples():
    d1 = engine.zeta_derivative(2, 1)
    assert abs(d1.real + mpf("0.93754825431584")) < mpf("1e-13")
    d0 = engine.zeta_derivative(mpc(0, 0), 1)
    assert abs(d0.real + mp.log(2 * mp.pi) / 2) < mpf("1e-25")
    assert engine.zeta_derivative(3, 0) == engine.zeta(3)
    with pytest.raises(DomainError):
        engine.zeta_derivative(3, 5)


def test_higher_derivatives_against_mpmath():
    s = mpc(2.0, 0.0)
    for k in (2, 3, 4):
        ours = engine.zeta_derivative(s, k, 128)
        theirs = mpmath.zeta(s, derivative=k)
        assert abs(ours - theirs) / abs(theirs) < mpf("1e-20")


def test_taylor_coefficients_consistency():
    coeffs = engine.zeta_taylor(2, 4)
    for k in range(5):
        direct = engine.zeta_derivative(2, k) / mp.factorial(k)
        assert abs(coeffs[k] - direct) < mpf("1e-30")


class TestStieltjes:
    def test_gamma0_is_euler(self):
        assert abs(engine.stieltjes(0) - mp.euler) < mpf("1e-30")

    def test_doubled_cutoff_oracle(self):
        for m in range(5):
            a = engine.stieltjes(m, 128)
            b = engine.stieltjes(m, 128, cutoff=2 * max(256, 128))
            tol = mpf("1e-12") if m == 0 else mpf("1e-10")
            assert abs(a - b) < tol

    def test_known_values(self):
        assert abs(engine.stieltjes(1) + mpf("0.0728158454836767")) < mpf("1e-15")
        for m in range(6):
            assert abs(engine.stieltjes(m) - mpmath.stieltjes(m)) < mpf("1e-25")

    def test_raw_partial_at_large_cutoff(self):
        raw = engine.stieltjes_raw_partial(0, 10**6)
        assert abs(raw - float(mp.euler)) < 1e-6

    def test_index_range(self):
        with pytest.raises(DomainError):
            engine.stieltjes(9)
        with pytest.raises(DomainError):
            engine.stieltjes(-1)


class TestFunctionalEquation:
    def test_residual_small_off_line(self):
        assert engine.functional_equation_residual(mpc(-1, 0.3)) < mpf("1e-10")
        assert engine.functional_equation_residual(mpc(2, 0)) < mpf("1e-10")

    def test_residual_random_sample(self):
        rng = random.Random(99)
        for _ in range(25):
            s = mpc(rng.uniform(-2, 3),
                    rng.choice([-1, 1]) * rng.uniform(0.2, 500))
            assert engine.functional_equation_residual(s) < mpf("1e-10")

    def test_chi_modulus_on_critical_line(self):
        assert abs(abs(engine.chi(mpc(0.5, 50))) - 1) < mpf("1e-8")

    def test_chi_growth_trend(self):
        # |chi(sigma+it)| ~ (t/2pi)^(1/2-sigma): ratio trend only, not
        # asserted as an equality.
        sigma = mpf(-1)
        ratios = []
        for t in (50, 100, 200):
            ratios.append(float(abs(engine.chi(mpc(sigma, t)))
                                / (mpf(t) / (2 * mp.pi)) ** (mpf("0.5") - sigma)))
        assert all(0.5 < r < 2.0 for r in ratios)

    def test_chi_pole_proximity(self):
        with pytest.raises(PoleError):
            engine.chi(mpc(3, 1e-9))  # 1-s within 1e-6 of -2


class TestRefineZero:
    def siegelz_bisect(self, lo: float, hi: float) -> float:
        """Independent oracle: bisection on Hardy Z sign changes."""
        with mp.workprec(80):
            flo = mpmath.siegelz(lo)
            assert flo * mpmath.siegelz(hi) < 0
            a, b = mpf(lo), mpf(hi)
            for _ in range(120):
                mid = (a + b) / 2
                if mpmath.siegelz(mid) * flo > 0:
                    a = mid
                else:
                    b = mid
            return float((a + b) / 2)

    @pytest.mark.parametrize("approx,window", [
        (14.13, (14.0, 14.3)),
        (21.02, (20.9, 21.1)),
    ])
    def test_against_bisection_oracle(self, approx, window):
        refined = engine.refine_zero(approx)
        oracle = self.siegelz_bisect(*window)
        assert abs(float(refined) - oracle) < 1e-12

    def test_postcondition(self):
        gamma = engine.refine_zero(25.01)
        assert abs(engine.zeta(mpc(mpf("0.5"), gamma))) < mpf("1e-10")

    def test_known_ordinates(self):
        assert abs(engine.refine_zero(14.13) - mpf("14.134725141734695")) < mpf("1e-12")
        assert abs(engine.refine_zero(21.02) - mpf("21.022039638771555")) < mpf("1e-12")

    def test_bad_start(self):
        with pytest.raises((RefinementError, DomainError)):
            engine.refine_zero(5.0)


def test_laurent_reconstruction_of_zeta_near_1():
    """Stieltjes constants plugged back into the Laurent series at s = 1."""
    s = mpf("1.1")
    u = s - 1
    with mp.workprec(160):
        series_value = 1 / u
        for m in range(9):
            series_value += ((-1) ** m) * engine.stieltjes(m) * u**m / mp.factorial(m)
    direct = engine.zeta(s).real
    assert abs(series_value - direct) < mpf("1e-8")


def test_call_counter():
    engine.reset_call_count()
    engine.zeta(2)
    engine.zeta_with_derivatives(3, 1)
    assert engine.call_count() == 2


class TestZetaF64:
    SIGMAS = (0.6, 1.25, 1.5, 2.0, 3.0, 4.0)

    def test_against_mpmath(self):
        """Each point alone, so N is chosen from that point's own height.

        Relative error is bounded by 1e-12 wherever |zeta| is bounded away
        from 0 (sigma >= 1.25).  At sigma = 0.6 |zeta| dips to ~0.1 and the
        float64 phase rounding of t log n (~5e-13 absolute at t = 800) is
        not relative to it, so there the bound is 1e-12 max(|zeta|, 1).
        """
        with mp.workdps(20):
            for sigma in self.SIGMAS:
                for t in range(-800, 801, 50):
                    ours = complex(engine.zeta_f64(np.array([complex(sigma, t)]))[0])
                    theirs = complex(mpmath.zeta(mpc(sigma, t)))
                    scale = abs(theirs) if sigma > 1 else max(abs(theirs), 1.0)
                    assert abs(ours - theirs) <= 1e-12 * scale, (sigma, t)

    def test_batch_shape_and_empty(self):
        s = np.array([[2.0 + 1j, 3.0 - 5j], [0.6 + 100j, 1.5 + 0j]])
        values = engine.zeta_f64(s)
        assert values.shape == s.shape
        for got, point in zip(values.ravel(), s.ravel()):
            want = complex(engine.zeta(mpc(point.real, point.imag)))
            assert abs(got - want) <= 1e-12 * abs(want)
        assert engine.zeta_f64(np.array([], dtype=complex)).shape == (0,)

    def test_uses_shared_parameter_rule(self, monkeypatch):
        chosen, sizes = [], []
        em_parameters = engine._em_parameters
        bernoulli_f64 = engine._bernoulli_f64

        def spy_em(*args):
            chosen.append((args, em_parameters(*args)))
            return chosen[-1][1]

        def spy_bernoulli(J):
            sizes.append(J)
            return bernoulli_f64(J)

        monkeypatch.setattr(engine, "_em_parameters", spy_em)
        monkeypatch.setattr(engine, "_bernoulli_f64", spy_bernoulli)
        engine.zeta_f64(np.array([2.0 + 10j, 0.6 - 800j, 4.0 + 300j]))
        assert chosen == [((53, 800.0, 0.6), em_parameters(53, 800.0, 0.6))]
        assert sizes == [chosen[0][1][1]]
        # far fewer terms than the former 1.5 (|t| + 2J + 10) rule at |t| = 800
        assert em_parameters(53, 800.0, 4.0)[0] == 500

    def test_bernoulli_table_sized_by_request(self):
        for J in (5, 30, 12):
            table = engine._bernoulli_f64(J)
            assert len(table) == J
            for j in (1, J):
                want = float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
                assert table[j - 1] == want
