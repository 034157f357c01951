"""Jet arithmetic against an exact integer-convolution oracle, and the
residue coefficients against closed forms, mpmath and contour quadrature."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from divisorlab import series, zeta as zeta_engine
from divisorlab.errors import DomainError
from divisorlab.zeta import jet_inverse, jet_mul

from conftest import residue_jet


def make(coeffs):
    return [mpc(c) for c in coeffs]


def convolve(a, b, length):
    """Exact Cauchy product of integer coefficient lists, truncated."""
    out = [0] * length
    for i, ca in enumerate(a[:length]):
        for j, cb in enumerate(b[:length]):
            if i + j < length:
                out[i + j] += ca * cb
    return out


small_ints = st.lists(st.integers(min_value=-9, max_value=9),
                      min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(a=small_ints, b=small_ints)
def test_product_matches_integer_convolution(a, b):
    product = jet_mul(make(a), make(b))
    oracle = convolve(a, b, min(len(a), len(b)))
    assert len(product) == len(oracle)
    for got, expected in zip(product, oracle):
        assert got.real == expected and got.imag == 0


def test_invert_against_fraction_recurrence():
    """Inverse coefficients reproduced by exact rational arithmetic."""
    coeffs = [3, -1, 4, -1, 5, 9]
    inv = jet_inverse(make(coeffs))
    # exact oracle: q_0 = 1/c_0, q_n = -(1/c_0) sum_{k>=1} c_k q_{n-k}
    q = [Fraction(1, coeffs[0])]
    for n in range(1, len(coeffs)):
        acc = sum(Fraction(coeffs[k]) * q[n - k] for k in range(1, n + 1))
        q.append(-acc / coeffs[0])
    assert len(inv) == len(q)
    for got, expected in zip(inv, q):
        assert abs(got - mpf(expected.numerator) / expected.denominator) < mpf("1e-35")


@settings(max_examples=40, deadline=None)
@given(a=small_ints)
def test_invert_residual(a):
    if a[0] == 0:
        a = [1] + a[1:]
    s = make(a)
    product = jet_mul(s, jet_inverse(s))
    assert len(product) == len(a)
    assert abs(product[0] - 1) < mpf("1e-30")
    for c in product[1:]:
        assert abs(c) < mpf("1e-30")


def test_invert_zero_lead_rejected():
    with pytest.raises(DomainError):
        jet_inverse(make([0, 1, 2]))


def test_geometric_and_exponential_building_blocks():
    g = jet_inverse(make([1, 1, 0, 0, 0, 0, 0]))  # 1/s = 1/(1 + (s-1))
    for k in range(7):
        assert g[k] == (-1) ** k
    x = mpf("7.25")
    lam = mp.ln(x)
    e = [mpc(1)]  # exp((s-1) log x): lam^k / k!
    for k in range(1, 7):
        e.append(e[-1] * (lam / k))
    for k in range(7):
        assert abs(e[k] - lam**k / mp.factorial(k)) < mpf("1e-32")
    square = jet_mul(e, e)  # x^(s-1) squared is (x^2)^(s-1)
    for k in range(7):
        assert abs(square[k] - (2 * lam)**k / mp.factorial(k)) < mpf("1e-30")


def test_cube_principal_part():
    """zeta^3 Laurent data: c_-3 = 1, c_-2 = 3 gamma, c_-1 = 3 gamma^2 - 3 gamma_1,
    from the jet (1, gamma, -gamma_1) of (s - 1) zeta(s) at s = 1."""
    g0 = zeta_engine.stieltjes(0)
    g1 = zeta_engine.stieltjes(1)
    e = [mpc(1), g0, -g1]
    cube = jet_mul(jet_mul(e, e), e)
    assert abs(cube[0] - 1) < mpf("1e-35")
    assert abs(cube[1] - 3 * g0) < mpf("1e-33")
    assert abs(cube[2] - (3 * g0**2 - 3 * g1)) < mpf("1e-33")


def test_inverse_zeta_2s_taylor():
    """1/zeta(2s) at s = 1 as the exact mode builds it: the inverse of the
    jet zeta^(k)(2) 2^k / k!."""
    ders = zeta_engine.zeta_with_derivatives(2, 2)
    q = jet_inverse([ders[0], 2 * ders[1], 2 * ders[2]])
    z2 = zeta_engine.zeta(2).real
    zp2 = zeta_engine.zeta_with_derivatives(2, 1)[1].real
    assert abs(q[0] - 1 / z2) < mpf("1e-30")
    # d/ds [1/zeta(2s)] at s=1 is -2 zeta'(2)/zeta(2)^2
    assert abs(q[1] + 2 * zp2 / z2**2) < mpf("1e-30")


def _residues_by_mpmath(j: int, mode: str):
    """The s = 1 coefficients and the s = 0 residue from mpmath alone:
    residue_jet's r_i / (j-1-i)! and zeta(0)^(j-1), at 90 digits."""
    r = residue_jet(j, mode)
    with mp.workdps(90):
        return ([r[i] / math.factorial(j - 1 - i) for i in range(j)],
                mpmath.zeta(0) ** (j - 1))


@pytest.mark.parametrize("mode", series.MODES)
@pytest.mark.parametrize("j", [1, 2, 3])
def test_residues_against_mpmath(j, mode):
    """Both residues of zeta^j(s)/zeta(2s) x^s/s for every j and mode,
    against mpmath's Stieltjes constants, zeta derivatives at 2 and zeta(0);
    at s = 0 they are 1 for |mu|, -1/2 for 2^omega and 1/4 for d(n^2)."""
    got = series.main_term_coefficients(j, mode)
    terms, at_zero = _residues_by_mpmath(j, mode)
    assert len(got.terms) == j
    for i, (value, want) in enumerate(zip(got.terms, terms)):
        assert abs(value - want) < mpf("1e-28"), i
    assert abs(got.at_zero - at_zero) < mpf("1e-28")
    assert abs(at_zero - (1, mpf(-1) / 2, mpf(1) / 4)[j - 1]) < mpf("1e-28")


class TestMainTermCoefficients:
    def test_paper_mode_closed_forms(self):
        a1, a2, a3 = series.main_term_coefficients(3, "paper").terms
        g0 = zeta_engine.stieltjes(0)
        g1 = zeta_engine.stieltjes(1)
        z2 = zeta_engine.zeta(2).real
        assert abs(a1 - 1 / (2 * z2)) < mpf("1e-30")
        assert abs(a2 - (6 * g0 - 2) / (2 * z2)) < mpf("1e-30")
        assert abs(a3 - (6 * g0**2 - 6 * g0 - 6 * g1 + 2) / (2 * z2)) < mpf("1e-28")

    def test_leading_coefficient_both_modes(self):
        # A1 = 3/pi^2 regardless of how 1/zeta(2s) is treated
        target = 3 / mp.pi**2
        for mode in ("paper", "exact"):
            a1 = series.main_term_coefficients(3, mode).terms[0]
            assert abs(a1 - target) < mpf("1e-28")

    def test_mode_discrepancy_closed_form(self):
        paper = series.main_term_coefficients(3, "paper")
        exact = series.main_term_coefficients(3, "exact")
        shift = exact.terms[1] - paper.terms[1]
        assert abs(shift) > mpf("0.5")  # the omission is not small
        assert abs(shift - series.a2_mode_shift()) < mpf("1e-20")

    def test_exact_mode_against_mpmath(self):
        """All three exact-mode coefficients from mpmath's Stieltjes constants
        and zeta derivatives alone: with q = 1/zeta(2s) expanded at s = 1,
        A1 = q0/2, A2 = q1 + (3g - 1) q0, A3 = q2 + (3g - 1) q1
        + (3g^2 - 3g - 3g_1 + 1) q0."""
        c = series.main_term_coefficients(3, "exact")
        with mp.workdps(40):
            g0, g1 = mpmath.stieltjes(0), mpmath.stieltjes(1)
            z0, z1, z2 = (mpmath.zeta(2, derivative=k) for k in range(3))
            q0 = 1 / z0
            q1 = -2 * z1 / z0**2
            q2 = (4 * z1**2 / z0 - 2 * z2) / z0**2
            want = (q0 / 2, q1 + (3 * g0 - 1) * q0,
                    q2 + (3 * g0 - 1) * q1
                    + (3 * g0**2 - 3 * g0 - 3 * g1 + 1) * q0)
        for name, value, target in zip(("A1", "A2", "A3"), c.terms, want):
            assert abs(value - target) < mpf("1e-25"), name

    def test_constant_term_is_quarter(self):
        for mode in series.MODES:
            c = series.main_term_coefficients(3, mode)
            assert abs(c.at_zero - mpf("0.25")) < mpf("1e-30"), mode

    def test_computed_once_per_mode_and_precision(self):
        """The three jets are computed once per precision: a repeat call, the
        other mode and another j at the same precision make no zeta calls and
        give the same values, and another precision computes them anew."""
        series.constant_jets.cache_clear()
        zeta_engine.reset_call_count()
        first = series.main_term_coefficients(3, "exact", precision=72)
        assert zeta_engine.call_count() == 3  # the s = 1, s = 2 and s = 0 jets
        zeta_engine.reset_call_count()
        assert series.main_term_coefficients(3, "exact", 72) == first
        series.main_term_coefficients(3, "paper", precision=72)
        series.main_term_coefficients(1, "exact", precision=72)
        assert zeta_engine.call_count() == 0
        finer = series.main_term_coefficients(3, "exact", precision=80)
        assert zeta_engine.call_count() == 3
        assert abs(finer.terms[2] - first.terms[2]) < mpf(2) ** -64

    def test_error_paths(self):
        with pytest.raises(DomainError):
            series.main_term_coefficients(3, "frozen")
        for j in (0, 4):
            with pytest.raises(DomainError):
                series.main_term_coefficients(j, "exact")
        with pytest.raises(DomainError):
            series.residue_main_term(1.0)


def test_residue_main_term_matches_contour():
    from divisorlab import perron

    for x in (100.0, 1000.0):
        _, value = series.residue_main_term(x)
        circle = perron.residue_by_circle(1.0, 0.2, x, nodes=96)
        assert abs(circle.imag) < mpf("1e-20")
        assert abs(circle.real - value) / abs(value) < mpf("1e-10")


def test_theorem_A_companion_constants():
    """The residue routine at the double pole of zeta^2(s)/zeta(2s) (2^omega)
    and the simple pole of zeta(s)/zeta(2s) (|mu|), against mpmath."""
    with mp.workdps(40):
        inv_z2 = 6 / mpmath.pi**2
        a2_paper = (2 * mpmath.euler - 1) * inv_z2
    a1p, a2p = series.main_term_coefficients(2, "paper").terms
    assert abs(a1p - inv_z2) < mpf("1e-28")
    assert abs(a2p - a2_paper) < mpf("1e-28")
    e1, e2 = series.main_term_coefficients(2, "exact").terms
    assert abs(e1 - inv_z2) < mpf("1e-28")
    assert abs(e2 - (a2p + series.a2_mode_shift())) < mpf("1e-30")
    for mode in series.MODES:
        (c,) = series.main_term_coefficients(1, mode).terms
        assert abs(c - inv_z2) < mpf("1e-28"), mode
    with pytest.raises(DomainError):
        series.main_term_coefficients(2, "neither")
