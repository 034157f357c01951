"""Contour quadrature: truncated Perron integrals against exact sieve sums,
small-circle residues against series closed forms, and the rectangle check."""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from divisorlab import perron, series, sieve, zeros
from divisorlab.errors import (
    ContourError,
    ConventionError,
    DomainError,
    QuadratureError,
)
from divisorlab.sieve import ArithmeticFunction as AF


class TestPerronTruncated:
    def test_x_10_5_approaches_48(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 10).value
        assert exact == 48
        value = perron.perron_truncated(10.5, 2.0, 200.0)
        # truncation law: |I(T) - S(x)| <= C x^c / T with a modest constant
        assert abs(value.real - exact) < 20.0 * 10.5 ** 2 / 200.0
        assert abs(value.imag) < 1e-6 * abs(value.real)

    def test_x_2_5(self):
        # S(2.5) = d(1) + d(4) = 1 + 3 = 4
        value = perron.perron_truncated(2.5, 2.0, 400.0)
        assert abs(value.real - 4.0) < 1.0

    def test_larger_T_is_closer(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 100).value
        coarse = perron.perron_truncated(100.5, 2.0, 50.0)
        fine = perron.perron_truncated(100.5, 2.0, 800.0)
        assert abs(fine.real - exact) < abs(coarse.real - exact)

    def test_integer_x_rejected(self):
        with pytest.raises(ConventionError):
            perron.perron_truncated(10.0, 1.5, 100.0)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            perron.perron_truncated(10.5, 1.0, 100.0)
        with pytest.raises(DomainError):
            perron.perron_truncated(10.5, 1.5, -5.0)
        with pytest.raises(DomainError):
            perron.perron_truncated(10.5, 1.5, 100.0, nodes=16)

    def test_node_floor(self):
        with pytest.raises(DomainError):
            perron.perron_truncated(10.5, 1.5, 50.0, nodes=32)
        with pytest.raises(DomainError):
            perron.perron_truncated(10.5, 1.5, 50.0, nodes=perron.MIN_NODES - 1)
        perron.perron_truncated(10.5, 1.5, 50.0, nodes=perron.MIN_NODES)

    def test_node_doubling_raises_below_gap(self):
        # The coarse and fine grids differ by rounding at least; a tolerance
        # below that gap must fail, and the default must pass.
        perron.perron_truncated(10.5, 2.0, 50.0)
        with pytest.raises(QuadratureError, match="T = 50"):
            perron.perron_truncated(10.5, 2.0, 50.0, tol=1e-18)

    def test_panel_layout(self, monkeypatch):
        """Every height is a panel edge, panels are at most a quarter period
        of x^(it) wide, and the fine grid bisects every coarse panel."""
        grids = []
        panel_integrals = perron._panel_integrals

        def spy(start, direction, edges, x):
            grids.append((direction, edges.copy()))
            return panel_integrals(start, direction, edges, x)

        monkeypatch.setattr(perron, "_panel_integrals", spy)
        exact = sieve.prefix_sum(AF.D_SQUARE, 100).value
        perron.truncation_decay(100.5, 2.0, [10, 25, 40], exact, nodes=256)
        assert [d for d, _ in grids] == [1j, 1j, -1j, -1j]
        quarter = 2 * math.pi / math.log(100.5) / 4
        for (_, coarse), (_, fine) in (grids[0:2], grids[2:4]):
            widths = np.diff(coarse)
            assert coarse[0] == 0.0 and widths.max() <= quarter * (1 + 1e-12)
            assert {10.0, 25.0, 40.0} <= set(coarse)
            assert np.count_nonzero(coarse <= 10.0) - 1 >= 256 // 16
            np.testing.assert_array_equal(fine[0::2], coarse)
            np.testing.assert_allclose(fine[1::2], (coarse[1:] + coarse[:-1]) / 2,
                                       rtol=0, atol=0)


class TestCircleResidues:
    def test_pole_at_one_matches_series(self):
        _, expected = series.residue_main_term(1000.0, mode="exact")
        got = perron.residue_by_circle(1.0, 0.2, 1000.0, nodes=96)
        assert abs(got.real - expected) / abs(expected) < mpf("1e-10")
        assert abs(got.imag) < mpf("1e-20")

    def test_pole_at_zero_is_quarter(self):
        got = perron.residue_by_circle(0.0, 0.15, 1000.0, nodes=96)
        assert abs(got.real - mpf("0.25")) < mpf("1e-10")
        assert abs(got.imag) < mpf("1e-20")

    def test_first_zero_pole_matches_coefficient(self, zero_coefficients):
        c = zero_coefficients[0]
        x = 1000.0
        with mp.workprec(160):
            expected = c.coefficient * mp.exp(c.rho_half * mp.ln(x))
        got = perron.residue_by_circle(complex(c.rho_half), 0.05, x, nodes=128)
        assert abs(got - expected) / abs(expected) < mpf("1e-8")

    def test_radius_independence(self):
        a = perron.residue_by_circle(1.0, 0.3, 500.0, nodes=96,
                                     verify_radius=True)
        b = perron.residue_by_circle(1.0, 0.12, 500.0, nodes=96)
        assert abs(a - b) / abs(a) < mpf("1e-10")

    def test_radius_halving_catches_pole_capture(self):
        # radius 0.5 about s = 0.6 reaches the triple pole at s = 1, but the
        # half-radius circle does not, so verification must fail.
        with pytest.raises(ContourError):
            perron.residue_by_circle(0.6, 0.5, 500.0, nodes=256,
                                     verify_radius=True)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            perron.residue_by_circle(1.0, -0.1, 100.0)
        with pytest.raises(DomainError):
            perron.residue_by_circle(1.0, 0.1, 100.0, nodes=16)

    def test_node_floor(self):
        with pytest.raises(DomainError):
            perron.residue_by_circle(1 + 0j, 0.1, 10.5, nodes=32)
        with pytest.raises(DomainError):
            perron.residue_by_circle(1 + 0j, 0.1, 10.5, nodes=perron.MIN_NODES - 1)

    def test_circle_through_pole_rejected(self):
        # centre 0.5, radius 0.5 passes through both s = 0 and s = 1
        with pytest.raises(ContourError):
            perron.residue_by_circle(0.5 + 0j, 0.5, 10.5)
        with pytest.raises(ContourError, match="pole at 0j"):
            perron.residue_by_circle(-0.3 + 0j, 0.3005, 10.5)
        with pytest.raises(ContourError, match=r"pole at \(1\+0j\)"):
            perron.residue_by_circle(1.2 + 0.1j, abs(0.2 + 0.1j) - 0.0009, 10.5)


class TestTruncationDecay:
    def test_rows_and_slope(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 100).value
        rows, slope = perron.truncation_decay(100.5, 2.0, [50, 100, 200],
                                              exact)
        assert [T for T, _ in rows] == [50.0, 100.0, 200.0]
        assert all(err >= 0 for _, err in rows)
        assert slope < 0  # errors shrink with T

    def test_unsorted_T_rejected(self):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [100, 50], 48)

    @pytest.mark.parametrize("T_list", [[], [100], [50, 50], [50, 100, 100]])
    def test_degenerate_sweep_rejected(self, T_list):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, T_list, 48)

    def test_sweep_validation(self):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 1.0, [50, 100], 48)
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [0, 100], 48)
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [-50, 100], 48)
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [float("nan"), 100], 48)
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [50, 100], 48, nodes=32)
        with pytest.raises(ConventionError):
            perron.truncation_decay(100.0, 2.0, [50, 100], 48)

    def test_sweep_matches_single_heights(self):
        T_list = [20.0, 50.0, 100.0]
        exact = sieve.prefix_sum(AF.D_SQUARE, 100).value
        rows, _ = perron.truncation_decay(100.5, 2.0, T_list, exact)
        for T, err in rows:
            single = perron.perron_truncated(100.5, 2.0, T)
            assert abs(err - abs(single.real - exact)) <= 1e-10 * abs(single.real)


class TestRectangle:
    def test_consistency_small_x(self):
        check = perron.rectangle_consistency(100.5, T=40.0)
        assert check.discrepancy < 1e-6
        assert set(check.edge_magnitudes) == {"right", "left", "top", "bottom"}
        assert check.contour_value == pytest.approx(check.residue_value,
                                                    abs=1e-6)

    def test_geometry_enforced(self):
        with pytest.raises(ContourError):
            perron.rectangle_consistency(100.5, left=0.4)
        with pytest.raises(ContourError):
            perron.rectangle_consistency(100.5, right=0.9)
        with pytest.raises(ConventionError):
            perron.rectangle_consistency(100.0)
        with pytest.raises(DomainError):
            perron.rectangle_consistency(100.5, T=0.0)
