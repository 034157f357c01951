"""Zeta-engine accuracy against independent oracles.

Oracles used here:
  - direct Dirichlet-series summation with an integral tail bound (s = 3),
  - central finite differences for derivatives,
  - mp.euler and mpmath.stieltjes for the Stieltjes constants,
  - the functional equation zeta(s) = chi(s) zeta(1-s), with chi from
    mpmath's gamma function,
  - mpmath's own zeta as a fully separate implementation for spot values.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from conftest import trial_factorize
from divisorlab import zeta as engine
from divisorlab.errors import DomainError, HeightRangeError, PoleError


def series_zeta_oracle(s: float, terms: int = 200000):
    """Plain partial sum plus integral tail bound; only for real s > 1."""
    with mp.workprec(80):
        total = mp.fsum(mp.power(n, -s) for n in range(1, terms + 1))
        tail = mp.power(terms, 1 - s) / (s - 1)
        return total, tail


def chi(s, precision: int = engine.DEFAULT_PRECISION) -> mpc:
    """Conversion factor chi(s) with zeta(s) = chi(s) zeta(1-s).

    Computed as pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), which is equal to
    2^s pi^(s-1) sin(pi s/2) Gamma(1-s) but stays finite at the even
    integers s >= 2 where the sin factor cancels the Gamma pole.  Genuine
    poles sit at the odd integers s = 1, 3, 5, ... only.
    """
    with mp.workprec(precision + 24):
        z = mpc(s)
        w = (1 - z) / 2
        nearest = mp.floor(w.real + mpf("0.5"))
        if nearest <= 0 and abs(w - nearest) < mpf("1e-6"):
            raise PoleError("chi(s): pole at odd integer s too close")
        return +(mp.power(mp.pi, z - mpf("0.5"))
                 * mp.gamma(w) / mp.gamma(z / 2))


def functional_equation_residual(s, precision: int = engine.DEFAULT_PRECISION) -> mpf:
    """|zeta(s) - chi(s) zeta(1-s)|; a self-test of the whole engine."""
    with mp.workprec(precision + 24):
        z = mpc(s)
        lhs = engine.zeta(z, precision)
        rhs = chi(z, precision) * engine.zeta(1 - z, precision)
        return +abs(lhs - rhs)


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
    with pytest.raises(PoleError):
        engine.zeta(mpc(1, 0))
    with pytest.raises(HeightRangeError):
        engine.zeta(mpc(0.5, 2.0e4))


def test_real_part_floor(monkeypatch):
    """Both engines refuse a Re s that is not finite or lies below
    MIN_REAL_PART, in the (N, J) rule they share and before it plans: at
    -1e308 its Cauchy sum alone would take 1e308 terms.  The floor itself is
    planned; zeta_pair refuses s whose double lies below it before either
    engine call, and F refuses a batch that reaches below it through 2s."""
    floor = engine.MIN_REAL_PART
    assert engine._em_parameters(128, 0.0, floor, 2) == (416, 701)
    monkeypatch.setattr(engine, "_cutoffs", None)
    for sigma in (math.nan, math.inf, -math.inf, -1e308, floor - 0.5):
        for precision, kmax in ((53, 0), (128, 2)):
            with pytest.raises(DomainError, match="evaluation range"):
                engine._em_parameters(precision, 0.0, sigma, kmax)
    monkeypatch.undo()
    engine.reset_call_count()
    with pytest.raises(DomainError, match=r"\[-512.0, inf\)"):
        engine.zeta_pair(mpc(floor / 2 - 0.25, 3))
    assert engine.call_count() == 0
    with pytest.raises(DomainError):
        engine.zeta(mpc(floor - 1, 3))
    with pytest.raises(DomainError):
        engine.dirichlet_quotient_f64(np.array([2.0 + 1j, floor / 2 - 0.25 + 3j]))


def test_precision_doubling_stability():
    """zeta at 128 and 192 bits agrees to 2^-120 relative on a random sample."""
    rng = random.Random(20260824)
    bound = mpf(2) ** -120
    for _ in range(100):
        s = mpc(rng.uniform(-2, 3), rng.uniform(-500, 500))
        lo = engine.zeta(s, 128)
        hi = engine.zeta(s, 192)
        assert abs(lo - hi) / abs(hi) < bound


#: Points at 128 bits where the least J the (N, J) rule allows has an N_J
#: past the float range, (s, kmax): the walk must start above those J.
FAR_LEFT = ((mpc(-234, 7), 0), (mpc(-276, 7), 0), (mpc(-283.5, 0), 2), (mpc(-180, 7), 2))


def test_against_independent_implementation():
    """At 128 bits within 1e-14 relative of mpmath, also far left of 0."""
    for s in (mpc(0.25, 7.07), mpc(-1.5, 123.4), mpc(2.0, 0.3), mpc(0.6, 50),
              *(s for s, kmax in FAR_LEFT if kmax == 0)):
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
        an = engine.zeta_with_derivatives(s, 1, 128)[1]
        assert abs(fd - an) / abs(an) < mpf("1e-6")


def test_derivative_examples():
    d1 = engine.zeta_with_derivatives(2, 1)[1]
    assert abs(d1.real + mpf("0.93754825431584")) < mpf("1e-13")
    d0 = engine.zeta_with_derivatives(mpc(0, 0), 1)[1]
    assert abs(d0.real + mp.log(2 * mp.pi) / 2) < mpf("1e-25")
    assert engine.zeta_with_derivatives(3, 0)[0] == engine.zeta(3)


def test_higher_derivatives_against_mpmath():
    s = mpc(2.0, 0.0)
    for k in (2, 3, 4):
        ours = engine.zeta_with_derivatives(s, k, 128)[k]
        theirs = mpmath.zeta(s, derivative=k)
        assert abs(ours - theirs) / abs(theirs) < mpf("1e-20")


class TestStieltjes:
    def test_gamma0_is_euler(self):
        assert abs(engine.stieltjes(0) - mp.euler) < mpf("1e-30")

    def test_euler_and_mpmath_oracle(self):
        for m in range(5):
            oracle = mp.euler if m == 0 else mpmath.stieltjes(m)
            tol = mpf("1e-12") if m == 0 else mpf("1e-10")
            assert abs(engine.stieltjes(m, 128) - oracle) < tol

    @pytest.mark.parametrize("precision", (64, 128, 192))
    @pytest.mark.parametrize("m", range(9))
    def test_accuracy_against_mpmath(self, m, precision):
        """Within 2^-(precision+16) absolute of mpmath at the suite's 220 bits."""
        error = abs(engine.stieltjes(m, precision) - mpmath.stieltjes(m))
        assert error <= mpf(2) ** -(precision + 16)

    def test_known_values(self):
        assert abs(engine.stieltjes(1) + mpf("0.0728158454836767")) < mpf("1e-15")
        for m in range(6):
            assert abs(engine.stieltjes(m) - mpmath.stieltjes(m)) < mpf("1e-25")

    def test_raw_partial_at_large_cutoff(self):
        """The unaccelerated partial expression of the defining limit at m = 0."""
        n = 10**6
        raw = math.fsum(1 / k for k in range(1, n + 1)) - math.log(n)
        assert abs(raw - float(mp.euler)) < 1e-6

    def test_index_range(self):
        with pytest.raises(DomainError):
            engine.stieltjes(9)
        with pytest.raises(DomainError):
            engine.stieltjes(-1)


class TestFunctionalEquation:
    def test_residual_small_off_line(self):
        assert functional_equation_residual(mpc(-1, 0.3)) < mpf("1e-10")
        assert functional_equation_residual(mpc(2, 0)) < mpf("1e-10")

    def test_residual_random_sample(self):
        rng = random.Random(99)
        for _ in range(25):
            s = mpc(rng.uniform(-2, 3),
                    rng.choice([-1, 1]) * rng.uniform(0.2, 500))
            assert functional_equation_residual(s) < mpf("1e-10")

    def test_chi_modulus_on_critical_line(self):
        assert abs(abs(chi(mpc(0.5, 50))) - 1) < mpf("1e-8")

    def test_chi_growth_trend(self):
        # |chi(sigma+it)| ~ (t/2pi)^(1/2-sigma): ratio trend only, not
        # asserted as an equality.
        sigma = mpf(-1)
        ratios = []
        for t in (50, 100, 200):
            ratios.append(float(abs(chi(mpc(sigma, t)))
                                / (mpf(t) / (2 * mp.pi)) ** (mpf("0.5") - sigma)))
        assert all(0.5 < r < 2.0 for r in ratios)

    def test_chi_pole_proximity(self):
        with pytest.raises(PoleError):
            chi(mpc(3, 1e-9))  # 1-s within 1e-6 of -2


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
    for kmax in range(5):
        before = engine.call_count()
        engine.zeta_with_derivatives(mpc(0.5, 14 + kmax), kmax)
        engine.zeta_with_derivatives(mpc(-1, 3), kmax)
        assert engine.call_count() == before + 2
        engine.zeta_pair(mpc(0.25, 7 + kmax), kmax, 4 - kmax)
        assert engine.call_count() == before + 4


def _pair_points(zero_table):
    """Circle nodes about 1 and about 0 (where Re 2s < 0 lifts the working
    precision), rho_k/2 for k = 1, 50, 100, and a point whose |Im 2s| is
    near the height cap, each with the jet orders (kmax_s, kmax_2s)."""
    nodes = [(c + r * mp.expjpi(mpf(2 * j) / 16), (0, 0), (2, 1))
             for c, r in ((1, 0.2), (0, 0.15)) for j in (0, 3, 8, 13)]
    zeros = [(mpc(0.25, zero_table.ordinates[k - 1] / 2), (0, 1), (1, 2))
             for k in (1, 50, 100)]
    return nodes + zeros + [(mpc(0.3, 4999.5), (0, 1))]


class TestZetaPair:
    def test_matches_separate_calls(self, zero_table):
        precision = engine.DEFAULT_PRECISION
        bound = mpf(2) ** -(precision + 8)
        for s, *orders in _pair_points(zero_table):
            for kmax_s, kmax_2s in orders:
                at_s, at_2s = engine.zeta_pair(s, kmax_s, kmax_2s)
                want_s = engine.zeta_with_derivatives(s, kmax_s, precision)
                want_2s = engine.zeta_with_derivatives(2 * mpc(s), kmax_2s, precision)
                assert len(at_s) == kmax_s + 1 and len(at_2s) == kmax_2s + 1
                for got, want in zip(at_s + at_2s, want_s + want_2s):
                    assert abs(got - want) <= bound * max(1, abs(want)), (s, got, want)

    def test_one_plan_per_engine_call(self, monkeypatch):
        # zeta_pair plans s and 2s once and hands each call its plan
        plans = []
        plan = engine._engine_plan
        monkeypatch.setattr(engine, "_engine_plan",
                            lambda *args: plans.append(args) or plan(*args))
        engine.zeta_pair(mpc(0.25, 7), 0, 1)
        assert len(plans) == 2
        engine.zeta_with_derivatives(mpc(0.25, 7), 1)
        assert len(plans) == 3

    def test_pole_guard_and_height_cap(self):
        for s in (1, 0.5, mpc(0.5, 0), mpc(1, 0)):
            with pytest.raises(PoleError):
                engine.zeta_pair(s)
        engine.zeta_pair(mpc(0.25, 4999))
        with pytest.raises(HeightRangeError):
            engine.zeta_pair(mpc(0.25, 5001))  # |Im s| is below the cap, |Im 2s| is not


def test_smallest_prime_factors_match_trial_division():
    size = 2**13
    spf = engine._smallest_prime_factors(size)
    assert len(spf) == size and spf[:2] == (0, 1)
    for n in range(2, size):
        smallest = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        assert spf[n] == smallest, n


def test_factor_groups_match_trial_division():
    """The float64 table's fill order: the primes, then every composite
    n < size once, as (n, smallest prime p | n, n // p), grouped by its
    number of prime factors and ascending within a group."""
    size = 2**10
    primes, composites = engine._factor_groups(size)
    factors = {n: trial_factorize(n) for n in range(2, size)}
    count = {n: sum(a for _, a in f) for n, f in factors.items()}
    assert primes.tolist() == [n for n in factors if count[n] == 1]
    seen = []
    for omega, (n, p, cofactor) in enumerate(composites, start=2):
        assert list(n) == sorted(n)
        for m, q, c in zip(n.tolist(), p.tolist(), cofactor.tolist()):
            assert count[m] == omega and q == factors[m][0][0] and c == m // q
        seen += n.tolist()
    assert sorted(seen) == [n for n in factors if count[n] > 1]


def _height_for_cutoff(N: int, precision: int, sigma: float) -> float:
    """A height |t| below the cap at which the (N, J) rule picks exactly this
    N for the value alone (kmax = 0).

    N is not monotone in t (it drops where J steps up), so this scans whole
    units up to the cap and, in each unit whose ends' cutoffs bracket N,
    steps of 1e-3, over which the cutoff moves by less than 1 between the
    J steps.
    """
    def cutoff(t):
        return engine._em_parameters(precision, float(t), sigma)[0]

    low = cutoff(0)
    for top in range(1, int(engine.DEFAULT_HEIGHT_CAP) + 1):
        high = cutoff(top)
        if min(low, high) <= N <= max(low, high):
            hit = next((t for t in np.linspace(top - 1, top, 1001) if cutoff(t) == N), None)
            if hit is not None:
                return float(hit)
        low = high
    raise AssertionError(f"no height below the cap picks N = {N}")


@pytest.mark.slow
def test_every_order_against_mpmath():
    """Each kmax = 0..4 at 64, 128, 192 and 256 bits within 2^-(prec-8)
    relative of mpmath at 500 bits, on seeded points, on points whose
    Dirichlet sum ends just past a prime (N - 1 prime) or at and past a power
    of two, and at sigma = -2, |t| near 1000, where the terms grow like N^2
    and the fixed-point sum carries the most guard bits.  At s = -2 + 3i the
    third and fourth derivatives (about 0.015 in modulus) are small beside
    terms of size N^2 (ln N)^k: the cancellation the working precision must
    cover."""
    rng = random.Random(20261018)
    points = [(prec, mpc(rng.uniform(-2, 3), rng.choice((-1, 1)) * rng.uniform(0, 1000)))
              for prec in (64, 128, 192) for _ in range(3)]
    for prec, N in ((64, 64), (64, 65), (64, 98), (128, 212), (128, 257),
                    (192, 256), (192, 257), (192, 348)):
        sigma = rng.uniform(-2, 3)
        points.append((prec, mpc(sigma, rng.choice((-1, 1))
                                 * _height_for_cutoff(N, prec, sigma))))
    points += [(256, mpc(rng.uniform(-2, 3), rng.uniform(-1000, 1000))),
               (256, mpc(0.5, 236.52)),
               (128, mpc(-2, 998.3)), (192, mpc(-2, -1000)), (256, mpc(-2, 991.7)),
               (128, mpc(-2, 3)), (192, mpc(-2, 3))]
    for prec, s in points:
        with mp.workprec(500):
            want = [mpmath.zeta(s, derivative=k) for k in range(5)]
        for kmax in range(5):
            got = engine.zeta_with_derivatives(s, kmax, prec)
            assert len(got) == kmax + 1
            for k, value in enumerate(got):
                with mp.workprec(500):
                    err = abs(value - want[k]) / abs(want[k])
                assert err <= mpf(2) ** (8 - prec), (prec, s, kmax, k)


def _backlund_bound(s, kmax: int, N: int, J: int):
    """Backlund's bound on the Euler-Maclaurin remainder at (N, J), with the
    rule's Cauchy radius delta = 1/4 for kmax > 0: delta^-kmax times
    (|s+2J+1| + delta) / (sigma - delta + 2J + 1) |B_2J+2| / (2J+2)!
    prod_{k <= 2J} (|s+k| + delta) N^-(sigma - delta + 2J + 1), in mpmath at
    300 bits with the exact product."""
    with mp.workprec(300):
        delta = mpf(1) / 4 if kmax else mpf(0)
        s = mpc(s)
        product = mpf(1)
        for k in range(2 * J + 1):
            product *= abs(s + k) + delta
        b = s.real - delta + 2 * J + 1
        return (delta ** -kmax * (abs(s + 2 * J + 1) + delta) / b
                * abs(mp.bernoulli(2 * J + 2)) / mp.factorial(2 * J + 2)
                * product * mpf(N) ** -b)


def test_parameter_rule_meets_backlund_bound():
    """At the (N, J) the rule returns, Backlund's bound is at most
    2^-(precision+12), and, wherever N is above its floor of 20, at least
    2^-(precision+40): a looser bound would pick a larger N unnoticed.  At
    s = -2 the product holds the factor |s + 2| = 0, so the bound is 0
    there.  The FAR_LEFT points are checked at 128 bits."""
    points = [(precision, mpc(sigma, t), kmax) for precision in (53, 64, 128, 192, 256)
              for sigma in (-2, 0.25, 0.5, 1, 2, 4, 110)
              for t in (0, 7, 118, 400, 1000, 5000) for kmax in (0, 2, 4)]
    for precision, s, kmax in points + [(128, s, kmax) for s, kmax in FAR_LEFT]:
        N, J = engine._em_parameters(precision, float(s.imag), float(s.real), kmax)
        bound = _backlund_bound(s, kmax, N, J)
        point = (precision, s, kmax, N, J)
        assert bound <= mpf(2) ** -(precision + 12), point
        if N > 20 and (s, kmax) != (-2, 0):
            assert bound >= mpf(2) ** -(precision + 40), point


def test_parameter_rule_picks_the_least_sum():
    """No J from the least the bound allows up to N + J gives a smaller
    ceil(N_J) + J than the rule's pick, with N_J, floored at 20, read from
    the rule's own _cutoffs: over the Backlund test's grid, at 2048 bits too,
    and at 4 + 800i and 53 bits, the float64 batch of the Perron line
    c = 2 at T = 400 doubled.  An N_J past the float range is no smaller,
    and at the FAR_LEFT points the least J the bound allows has one."""
    def least(precision, t, sigma, kmax=0):
        lowest, _, cutoff = engine._cutoffs(precision, t, sigma, kmax)
        N, J = engine._em_parameters(precision, t, sigma, kmax)
        assert N == math.ceil(cutoff(J)), (precision, sigma, t, kmax)
        for j in range(lowest, N + J + 1):
            try:
                total = math.ceil(cutoff(j)) + j
            except OverflowError:
                continue
            assert total >= N + J, (precision, sigma, t, kmax, j)
        return N, J

    for precision in (53, 64, 128, 192, 256, 2048):
        for sigma in (-2, 0.25, 0.5, 1, 2, 4, 110):
            for t in (0, 7, 118, 400, 1000, 5000):
                for kmax in (0, 2, 4):
                    least(precision, float(t), float(sigma), kmax)
    assert least(53, 800.0, 4.0) == (170, 45)
    for s, kmax in FAR_LEFT:
        sigma, t = float(s.real), float(s.imag)
        least(128, t, sigma, kmax)
        lowest, _, cutoff = engine._cutoffs(128, t, sigma, kmax)
        assert cutoff(lowest) == math.inf, s


def _walk_length(monkeypatch, *args) -> int:
    """N_J evaluations of one _em_parameters call."""
    count = 0
    cutoffs = engine._cutoffs

    def spy(*rule_args):
        lowest, J, cutoff = cutoffs(*rule_args)

        def counted(j):
            nonlocal count
            count += 1
            return cutoff(j)
        return lowest, J, counted

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_cutoffs", spy)
        engine._em_parameters(*args)
    return count


def test_parameter_rule_walk_length(monkeypatch):
    """The walk from the estimate evaluates N_J at most once more than it
    did when pinned, at points the benchmark workloads run: the float64
    Perron lines at 53 bits, Re s = 0.85..3 and |t| <= 400, and 4 + 800i,
    the line c = 2 at T = 400 doubled; at 128 bits, a residue circle node
    near 1 and its double, and rho/2 and rho, with the jet to order 1 there,
    of zeros 1 and 100.  A worse estimate walks further."""
    heights = (0, 1, 10, 50, 100, 200, 400)
    pinned = {0.85: (7, 8, 9, 4, 3, 4, 6), 1.25: (7, 8, 9, 4, 4, 3, 5),
              1.5: (7, 8, 9, 5, 4, 3, 4), 2: (7, 8, 9, 5, 5, 4, 3),
              3: (8, 9, 10, 6, 7, 6, 6)}
    for sigma, counts in pinned.items():
        for t, count in zip(heights, counts):
            assert _walk_length(monkeypatch, 53, float(t), float(sigma)) <= count + 1, (sigma, t)
    assert _walk_length(monkeypatch, 53, 800.0, 4.0) <= 11 + 1
    node = 1 + mpf("0.2") * mp.expjpi(mpf(3) / 8)
    for z in (node, 2 * node):
        assert _walk_length(monkeypatch, 128, abs(float(z.imag)), float(z.real)) <= 5 + 1
    for gamma, (half, whole) in ((14.134725141734694, (8, 7)),
                                 (236.52422966581620, (4, 6))):
        assert _walk_length(monkeypatch, 128, gamma / 2, 0.25) <= half + 1, gamma
        assert _walk_length(monkeypatch, 128, gamma, 0.5, 1) <= whole + 1, gamma


def test_engine_plan_picks():
    """The rule's picks at three points that the benchmark workloads run:
    a residue circle node near 1, the zeta_pair of the 100th zero's
    coefficient, and a float64 batch at 4 + 800i.  The former model took
    N = 54, 129 and 216 there."""
    node = 1 + mpf("0.2") * mp.expjpi(mpf(3) / 8)
    assert engine._engine_plan(node, 0, 128)[0] <= 32
    gamma_100 = mpf("236.52422966581620580")
    rho_half = mpc(mpf("0.25"), gamma_100 / 2)
    plans = engine._engine_plan(rho_half, 0, 128), engine._engine_plan(2 * rho_half, 1, 128)
    assert max(plan[0] for plan in plans) <= 100
    assert engine._engine_plan(mpc(4, 800), 0, 53)[0] <= 190


def test_near_the_pole_against_mpmath():
    """Within 2^(8-prec) relative of mpmath at 600 bits, every order, at
    points as close to s = 1 as 1e-15.  The first four are doubles, which the
    engine reads exactly; the last carries a full mantissa below 2^-50, which
    a pole term read at the scale 2^-wp would cut to about 100 bits: 1/(s-1)
    is read at a scale at which s - 1 is exact."""
    prec = 128
    points = [mpc(1, 1e-6), mpc(1 - 1e-6, 0), mpc(complex(1 + 1e-12, 1e-12)),
              mpc(1, 1e-15), mpc(1, mpf("1e-15"))]
    for s in points:
        with mp.workprec(600):
            want = [mpmath.zeta(s, derivative=k) for k in range(5)]
        for kmax in range(5):
            got = engine.zeta_with_derivatives(s, kmax, prec)
            for k, value in enumerate(got):
                with mp.workprec(600):
                    err = abs(value - want[k]) / abs(want[k])
                assert err <= mpf(2) ** (8 - prec), (s, kmax, k)


def test_real_s_rows_match_the_cos_sin_path():
    """For real s the prime rows skip the cos/sin; the rows are the bits the
    full path, exp times cos/sin of a zero phase, gives."""
    wp, size = 160, 2000
    re, im = engine.dirichlet_powers_fixed(mpc(3, 0), size, wp)
    ln = engine.dirichlet_logs_fixed(size, wp)
    sre = 3 << wp
    cos, sin = cos_sin_fixed(0, wp)  # of the phase -(Im s) ln p = 0
    spf = engine._smallest_prime_factors(2048)
    for n in range(2, size):
        if spf[n] == n:
            u = exp_fixed(-(sre * ln[n]) >> wp, wp)
            assert (re[n], im[n]) == ((u * cos) >> wp, (u * sin) >> wp), n
    assert not any(im)


def test_result_independent_of_ambient_precision():
    """The same bits at mpmath's default 53 bits, at 500 bits and at the
    suite's 220: the engine works at its own precision throughout."""
    points = (mpc(0.5, 236.52), mpc(-2, 998.3), mpc(1.2, 0.05), mpc(3, -40))
    for s in points:
        with mp.workprec(53):
            low = engine.zeta_with_derivatives(s, 2, 128)
        with mp.workprec(500):
            high = engine.zeta_with_derivatives(s, 2, 128)
        here = engine.zeta_with_derivatives(s, 2, 128)
        assert [v._mpc_ for v in low] == [v._mpc_ for v in high]
        assert [v._mpc_ for v in low] == [v._mpc_ for v in here]


def test_fixed_bernoulli_table_from_exact_fractions():
    """The mp engine's coefficients: floor(B_2j/(2j)! 2^bits) for every
    j <= J, up to J = 64, with bits enough that even the smallest entry,
    j = J, keeps more than precision + 24 significant bits."""
    for J, precision in ((12, 64), (36, 128), (52, 192), (64, 256), (64, 64)):
        bits, table = engine._bernoulli_fixed(J, precision)
        assert len(table) == J
        for j, entry in enumerate(table, start=1):
            p, q = mp.bernfrac(2 * j)
            exact = Fraction(int(p), int(q) * math.factorial(2 * j))
            assert entry == math.floor(exact * 2**bits), (J, precision, j)
        assert abs(table[-1]).bit_length() > precision + 24


def test_dirichlet_powers_fixed_against_mpmath():
    """n^-s and ln n in fixed point against mpmath at 300 bits for every
    n < 1200.  Each prime factor p of n adds a few units of 2^-wp, relative,
    and the phase |s| ln p its log's unit, so the bound is
    2^-(wp-8) (1 + (1 + |s| ln n) |n^-s|)."""
    wp = 160
    for s in (mpc(3, 0), mpc(0.5, 236.52), mpc(-2, 998.3)):
        re, im = engine.dirichlet_powers_fixed(s, 1200, wp)
        ln = engine.dirichlet_logs_fixed(1200, wp)
        assert (re[0], im[0], ln[0], re[1], im[1], ln[1]) == (0, 0, 0, 1 << wp, 0, 0)
        with mp.workprec(300):
            for n in range(2, 1200):
                want = mp.power(n, -s)
                got = mpc(mpf((re[n], -wp)), mpf((im[n], -wp)))
                bound = mpf(2) ** (8 - wp) * (1 + (1 + abs(s) * mp.ln(n)) * abs(want))
                assert abs(got - want) <= bound, (s, n)
                assert abs(mpf((ln[n], -wp)) - mp.ln(n)) <= mpf(2) ** (8 - wp), n


def test_logs_built_only_for_derivative_jets(monkeypatch):
    """The ln n list is built only by calls with kmax > 0, and once per
    zeta_pair however many of its two calls read it."""
    built = []
    logs = engine.dirichlet_logs_fixed

    def spy(size, wp):
        built.append(size)
        return logs(size, wp)

    monkeypatch.setattr(engine, "dirichlet_logs_fixed", spy)
    s = mpc(0.25, 7.0673)
    for run, want in ((lambda: engine.zeta(s), 0),
                      (lambda: engine.zeta_with_derivatives(s, 2), 1),
                      (lambda: engine.zeta_pair(s, 0, 0), 0),
                      (lambda: engine.zeta_pair(s, 0, 1), 1),
                      (lambda: engine.zeta_pair(s, 2, 1), 1)):
        built.clear()
        run()
        assert len(built) == want


def test_dirichlet_sum_guard_bits(monkeypatch):
    """The engine's fixed-point scale keeps sum_{n<N} n^-s within
    2^-(precision+20) (1 + |s| ln N) absolute, however large the terms:
    at sigma = -2 and |t| near 1000 they reach N^2, about 2^21."""
    calls = []
    powers = engine.dirichlet_powers_fixed

    def spy(s, size, wp):
        calls.append((s, size, wp))
        return powers(s, size, wp)

    monkeypatch.setattr(engine, "dirichlet_powers_fixed", spy)
    for prec, s in ((64, mpc(-2, 998.3)), (128, mpc(-2, -1000)),
                    (128, mpc(-1.9, 0.5)), (192, mpc(0.5, 236.52))):
        engine.zeta(s, prec)
        z, N, wp = calls[-1]
        re, im = powers(z, N, wp)
        with mp.workprec(prec + 200):
            got = mpc(mpf((sum(re), -wp)), mpf((sum(im), -wp)))
            want = mp.fsum(mp.power(n, -z) for n in range(1, N))
            bound = mpf(2) ** -(prec + 20) * (1 + abs(z) * mp.ln(N))
            assert abs(got - want) <= bound, (prec, s)


def test_argument_kept_at_working_precision():
    """An argument carrying more than 53 bits keeps them at mpmath's default
    53-bit ambient precision, the one a fresh process runs at."""
    gamma_1 = mpf("14.1347251417346937904572519835624702707842571156992431756856")
    rho = mpc(mpf("0.5"), gamma_1)
    s = mpc(2, mpf(1) / 3)
    with mp.workprec(53):
        at_zero = engine.zeta(rho, 200)
        ours = engine.zeta(s, 200)
    assert abs(at_zero) < mpf("1e-55")
    assert abs(ours - mpmath.zeta(s)) / abs(mpmath.zeta(s)) < mpf(2) ** -190


class TestZetaF64:
    SIGMAS = (0.6, 1.25, 1.5, 2.0, 3.0, 4.0)

    def test_against_mpmath(self):
        """F = zeta^3(s) / zeta(2s), each point alone, so N is chosen from
        that point's own height.

        Relative error is bounded by 1e-12 wherever |zeta| is bounded away
        from 0 (sigma >= 1.25).  At sigma = 0.6 |zeta| dips to ~0.1 and the
        float64 phase rounding of t ln n (~5e-13 absolute at t = 800) is not
        relative to it: as in test_against_mpmath_at_the_height_cap, F, which
        carries zeta cubed, is held there to 3e-12 max(1, 1/|zeta|) relative.
        """
        with mp.workdps(25):
            for sigma in self.SIGMAS:
                for t in range(-800, 801, 50):
                    z = mpc(sigma, t)
                    zeta_s = mpmath.zeta(z)
                    want = complex(zeta_s ** 3 / mpmath.zeta(2 * z))
                    point = np.array([complex(sigma, t)])
                    got = complex(engine.dirichlet_quotient_f64(point)[0])
                    dip = 3 * max(1.0, 1.0 / abs(complex(zeta_s))) if sigma < 1 else 1.0
                    assert abs(got - want) <= 1e-12 * dip * abs(want), (sigma, t)

    @pytest.mark.slow
    def test_against_mpmath_at_the_height_cap(self):
        """F from 5000 to 10^4 in |t|, where zeta(2s) takes J near 240
        Bernoulli terms and Q_j, B_2j/(2j)! alone would leave the float64
        range.  Relative bound 1e-11.  At sigma = 0.6 the float64 phase
        rounding of t ln p (up to ~5e-12 absolute here) is not relative to
        |zeta|, which dips to ~0.4: F, which carries zeta cubed, is held to
        3e-11 max(1, 1/|zeta|) relative."""
        with mp.workdps(25):
            for sigma in (0.6, 1.5, 2.0, 4.0):
                for t in range(5000, 10001, 1000):
                    z = mpc(sigma, t)
                    zeta_s = complex(mpmath.zeta(z))
                    quotient = complex(mpmath.zeta(z) ** 3 / mpmath.zeta(2 * z))
                    dip = max(1.0, 1.0 / abs(zeta_s)) if sigma < 1 else 1.0
                    for sign in (1, -1):  # F(conj s) = conj F(s)
                        point = np.array([complex(sigma, sign * t)])
                        want = quotient if sign > 0 else quotient.conjugate()
                        got = complex(engine.dirichlet_quotient_f64(point)[0])
                        bound = 1e-11 * (3 * dip if sigma < 1 else 1.0)
                        assert abs(got - want) <= bound * abs(want), point

    def test_batch_shape_and_empty(self):
        """Without offsets F keeps the shape of s, 2-D or empty; a 2-D s
        gives the values of its flat form, each within 1e-12 relative of the
        multiprecision zeta^3(s) / zeta(2s), 3e-12 max(1, 1/|zeta|) where
        sigma < 1 as in test_against_mpmath."""
        s = np.array([[2.0 + 1j, 3.0 - 5j], [0.6 + 100j, 1.5 + 0j]])
        values = engine.dirichlet_quotient_f64(s)
        assert values.shape == s.shape
        assert np.array_equal(values.ravel(), engine.dirichlet_quotient_f64(s.ravel()))
        for got, point in zip(values.ravel(), s.ravel()):
            z = mpc(point.real, point.imag)
            zeta_s = engine.zeta(z)
            want = complex(zeta_s ** 3 / engine.zeta(2 * z))
            dip = 3 * max(1.0, 1.0 / abs(complex(zeta_s))) if point.real < 1 else 1.0
            assert abs(got - want) <= 1e-12 * dip * abs(want), point
        assert engine.dirichlet_quotient_f64(np.array([], dtype=complex)).shape == (0,)

    def test_uses_shared_parameter_rule(self, monkeypatch):
        """A flat batch takes (N, J) for s and for 2s from the shared rule at
        53 bits, at the batch's greatest |t| and least sigma, and a Bernoulli
        table of each J."""
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
        engine.dirichlet_quotient_f64(np.array([2.0 + 10j, 0.6 - 800j, 4.0 + 300j]))
        assert [args for args, _ in chosen] == [(53, 800.0, 0.6), (53, 1600.0, 1.2)]
        assert sizes == [J for _, (N, J) in chosen]
        # the least N + J at |t| = 800 under Backlund's bound: (170, 45),
        # where the former model's least took (216, 57) and the rule before
        # it, J = (precision + 16) // 4, took (500, 17)
        assert em_parameters(53, 800.0, 4.0) == (170, 45)

    # The Perron layer's contours: the abscissa lines, the rectangle's sides
    # and its horizontal edges at t = +-50.
    CONTOURS = (
        2.0 + 1j * np.linspace(-400, 400, 81),
        1.5 + 1j * np.linspace(-100, 100, 41),
        1.25 + 1j * np.linspace(-50, 50, 21),
        0.6 + 1j * np.linspace(-50, 50, 21),
        np.linspace(0.6, 1.25, 14) + 50j,
        np.linspace(0.6, 1.25, 14) - 50j,
    )

    def test_quotient_against_mpmath_on_contours(self):
        """F = zeta^3(s) / zeta(2s) to 1e-12 relative, in batches of 8
        neighbouring points so each batch picks its own N like a quadrature
        batch does."""
        with mp.workdps(25):
            for contour in self.CONTOURS:
                for i in range(0, len(contour), 8):
                    batch = contour[i: i + 8]
                    got = engine.dirichlet_quotient_f64(batch)
                    for point, value in zip(batch, got):
                        z = mpc(point.real, point.imag)
                        want = complex(mpmath.zeta(z) ** 3 / mpmath.zeta(2 * z))
                        assert abs(value - want) <= 1e-12 * abs(want), point

    def test_quotient_uses_shared_parameter_rule(self, monkeypatch):
        chosen = []
        em_parameters = engine._em_parameters

        def spy_em(*args):
            chosen.append(args)
            return em_parameters(*args)

        monkeypatch.setattr(engine, "_em_parameters", spy_em)
        s = np.array([[2.0 + 10j, 0.6 - 400j], [4.0 + 300j, 1.5 + 0j]])
        assert engine.dirichlet_quotient_f64(s).shape == s.shape
        assert chosen == [(53, 400.0, 0.6), (53, 800.0, 1.2)]

    # The Perron layer's panel grids: (start, direction, length) of each
    # abscissa line and of the rectangle's top edge, panels about 0.2 wide in
    # batches of 31, 33 node offsets per panel.
    LINES = ((2.0, 1j, 400.0), (1.5, 1j, 100.0), (1.25, 1j, 50.0),
             (0.6, 1j, 50.0), (0.6 + 50j, 1.0, 0.65))

    def test_grid_matches_flat_on_contours(self):
        """F on the grid of panel midpoints plus node offsets against the
        flat form at the same points.  The two round the phase t ln p in
        different places, so they differ by rounding only: 2e-13 relative for
        sigma >= 1.25, and 1e-12 at sigma = 0.6, where |zeta| dips."""
        unit = np.linspace(-1.0, 1.0, 33)
        for start, direction, length in self.LINES:
            count = 31 * math.ceil(length / (31 * 0.2))
            half = length / (2 * count)
            mid = start + direction * half * np.arange(1, 2 * count, 2)
            offsets = direction * half * unit
            tol = 2e-13 if start.real >= 1.25 else 1e-12
            for i in range(0, count, 31):
                base = mid[i: i + 31]
                grid = engine.dirichlet_quotient_f64(base, offsets)
                flat = engine.dirichlet_quotient_f64(np.add.outer(base, offsets))
                assert grid.shape == (len(base), 33)
                assert np.all(np.abs(grid - flat) <= tol * np.abs(flat)), base[0]

    @pytest.mark.parametrize("heights", [
        (0.0, 50.0, 800.0), pytest.param((9990.0,), marks=pytest.mark.slow)])
    def test_grid_against_mpmath(self, heights):
        """F on vertical and horizontal 2 x 3 grids, rows about sigma + it and
        offsets along the grid, at TestZetaF64's tolerances: 1e-12 relative to
        |t| = 800 and 1e-11 above, times 3 max(1, 1/|zeta|) left of 1."""
        unit = np.array([-0.99, 0.1, 0.99])
        with mp.workdps(25):
            for sigma in (0.6, 1.25, 2.0, 4.0):
                for t in heights:
                    tol = 1e-12 if t <= 800 else 1e-11
                    for direction, half in ((1j, 0.1), (1.0, 0.02)):
                        if direction == 1.0 and t == 0:
                            continue  # the row would cross the pole at 1
                        base = complex(sigma, t) + half * direction * np.array([-1, 1])
                        grid = engine.dirichlet_quotient_f64(base, direction * half * unit)
                        points = np.add.outer(base, direction * half * unit)
                        for point, got in zip(points.ravel(), grid.ravel()):
                            z = mpc(point.real, point.imag)
                            zeta_s = mpmath.zeta(z)
                            want = complex(zeta_s ** 3 / mpmath.zeta(2 * z))
                            dip = 3 * max(1.0, 1.0 / abs(complex(zeta_s)))
                            scale = dip if point.real < 1 else 1.0
                            assert abs(got - want) <= tol * scale * abs(want), point

    def test_grid_shape_and_empty(self):
        s = np.array([2.0 + 1j, 1.5 - 30j])
        assert engine.dirichlet_quotient_f64(s, np.array([0.1j])).shape == (2, 1)
        assert engine.dirichlet_quotient_f64(s, np.array([], dtype=complex)).shape == (2, 0)
        assert engine.dirichlet_quotient_f64(s[:0], np.array([0.1j])).shape == (0, 1)

    def test_horner_tail_against_terms(self):
        """_em_tail, by Horner from j = J from one exp, against the tail
        summed term by term, Q_j by forward products and the pole term,
        N^-s / 2 and N^(-1-s) from three exps: within 1e-14 of the tail, on
        batches and single points at heights up to the cap."""

        def by_terms(s, N, J):
            L = math.log(N)
            q, total = s * 2.0 ** -5, np.zeros_like(s)
            for j in range(1, J + 1):
                if j > 1:
                    q = q * ((s + (2 * j - 3)) * (s + (2 * j - 2)) * 2.0 ** -5 / (N * N))
                p, d = mp.bernfrac(2 * j)
                exact = Fraction(int(p), int(d) * math.factorial(2 * j))
                total += float(exact * 2 ** (5 * j)) * q
            return (np.exp((1 - s) * L) / (s - 1) + np.exp(-s * L) / 2
                    + total * np.exp((-s - 1) * L))

        heights = np.array([0.0, 3.0, 50.0, 400.0, -800.0, 5000.0, 1e4])
        for sigma in (0.6, 1.25, 2.0, 4.0):
            s = sigma + 1j * heights
            batches = [s, 2 * s] + [s[k: k + 1] for k in range(len(s))]
            for points in batches:
                N, J = engine._em_rule(points)
                want = by_terms(points, N, J)
                got = engine._em_tail(points, N, J)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), points

    def test_multiplicative_table_against_direct_exp(self):
        """n^-s from prime rows and products against exp(-s ln n) for every
        n < 1024.  Each is within a few ulps of the phase |s| ln n, so the
        bound is 16 eps (1 + |s| ln n) |n^-s|."""
        s = np.concatenate([3.0 + 1j * np.linspace(-800, 800, 33),
                            0.6 + 1j * np.linspace(-800, 800, 33),
                            np.array([-1.5 + 7j, 1.0 + 0j])])
        table = engine._dirichlet_powers(s, 1024)
        ln_n = np.log(np.arange(1, 1024, dtype=np.float64))[:, None]
        direct = np.exp(-s * ln_n)
        bound = 16 * np.finfo(float).eps * (1 + np.abs(s) * ln_n) * np.abs(direct)
        assert np.all(np.abs(table[1:] - direct) <= bound)

    def test_bernoulli_table_sized_by_request(self):
        """One B_2j/(2j)! 2^5j table per J: sized by the request, each entry
        the correctly rounded float64 of the exact fraction, up to J = 244,
        which zeta(2s) takes at the height cap."""
        for J in (5, 30, 12, 244):
            table = engine._bernoulli_f64(J)
            assert len(table) == J
            for j in range(1, J + 1):
                p, q = mp.bernfrac(2 * j)
                exact = Fraction(int(p), int(q) * math.factorial(2 * j))
                assert table[j - 1] == float(exact * 2 ** (5 * j)), (J, j)
                assert table[j - 1] == float(mp.bernoulli(2 * j) * 2 ** (5 * j)
                                             / mp.factorial(2 * j)), (J, j)
