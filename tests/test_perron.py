"""Contour quadrature: truncated Perron integrals against exact sieve sums,
small-circle residues against series closed forms, and the rectangle check."""

import math

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from divisorlab import perron, series, sieve, zeros
from divisorlab import zeta as zeta_engine
from divisorlab.errors import (
    ContourError,
    ConventionError,
    DomainError,
    QuadratureError,
)
from divisorlab.sieve import ArithmeticFunction as AF

from conftest import perron_reference


class TestPerronTruncated:
    def test_x_10_5_approaches_48(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 10)
        assert exact == 48
        values, _, bounds = perron.perron_sweep(10.5, 2.0, [200.0])
        # truncation law: |I(T) - S(x)| <= C x^c / T with a modest constant
        assert abs(values[0] - exact) < 20.0 * 10.5 ** 2 / 200.0
        assert bounds[0] >= abs(values[0] - perron_reference(10.5, 2.0, 200.0))

    def test_x_2_5(self):
        # S(2.5) = d(1) + d(4) = 1 + 3 = 4
        value = perron.perron_truncated(2.5, 2.0, 400.0)
        assert abs(value.real - 4.0) < 1.0

    def test_larger_T_is_closer(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 100)
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

    def test_node_doubling_raises_below_gap(self, monkeypatch):
        # The coarse and fine grids differ by rounding at least; a tolerance
        # below that gap must fail, and the default must pass.
        perron.perron_truncated(10.5, 2.0, 50.0)
        monkeypatch.setattr(perron, "GAP_TOL", 1e-18)
        with pytest.raises(QuadratureError, match="T = 50"):
            perron.perron_truncated(10.5, 2.0, 50.0)

    @pytest.mark.parametrize("x, c, T", [
        (2.5, 1.2, 300.0), pytest.param(4.5, 1.1, 1000.0, marks=pytest.mark.slow)])
    def test_small_x_lines(self, x, c, T):
        """Below x = e^4 the n^-it terms of F set the panel width, not x^(it);
        with panels a quarter period of x^(it) wide these lines fail the
        quadrature check."""
        exact = sieve.prefix_sum(AF.D_SQUARE, int(x))
        values, _, bounds = perron.perron_sweep(x, c, [T])
        assert bounds[0] >= abs(values[0] - perron_reference(x, c, T))
        assert abs(values[0] - exact) < 20.0 * x ** c / T

    def test_panel_layout(self, monkeypatch):
        """Every height is a panel edge, panels are at most a quarter period
        of x^(it) wide, and F sees the 33 Gauss-Kronrod nodes of every panel,
        each once."""
        grids, seen = [], []
        panel_integrals = perron._panel_integrals
        quotient = perron.dirichlet_quotient_f64

        def spy(start, direction, edges, x, kronrod):
            grids.append((start, direction, edges.copy(), kronrod))
            return panel_integrals(start, direction, edges, x, kronrod)

        def spy_f(s):
            seen.append(s.copy())
            return quotient(s)

        monkeypatch.setattr(perron, "_panel_integrals", spy)
        monkeypatch.setattr(perron, "dirichlet_quotient_f64", spy_f)
        exact = sieve.prefix_sum(AF.D_SQUARE, 100)
        perron.truncation_decay(100.5, 2.0, [10, 25, 40], exact, nodes=256)
        assert [(d, k) for _, d, _, k in grids] == [(1j, True)]
        quarter = 2 * math.pi / math.log(100.5) / 4
        nodes, _, _ = perron._kronrod_rule()
        want = []
        for start, direction, edges, _ in grids:
            widths = np.diff(edges)
            assert edges[0] == 0.0 and widths.max() <= quarter * (1 + 1e-12)
            assert {10.0, 25.0, 40.0} <= set(edges)
            assert np.count_nonzero(edges <= 10.0) - 1 >= 256 // 16
            mid, half = (edges[1:] + edges[:-1]) / 2, widths / 2
            want.append(start + direction * (mid[:, None] + half[:, None] * nodes))
        want = np.concatenate([w.ravel() for w in want])
        got = np.concatenate(seen)
        assert len(nodes) == 33 and len(got) == 33 * (len(want) // 33)
        np.testing.assert_array_equal(got, want)
        assert len(np.unique(got)) == len(got)

    def test_kronrod_rule(self):
        """33 nodes with positive weights, exact through degree 49, and the
        16 odd-indexed nodes carry numpy's 16-point Gauss-Legendre rule."""
        nodes, kronrod, gauss = perron._kronrod_rule()
        assert len(nodes) == len(kronrod) == 33 and len(gauss) == 16
        assert np.all(np.diff(nodes) > 0) and np.all(kronrod > 0)
        for d in range(50):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(np.sum(kronrod * nodes ** d) - exact) <= 1e-14, d
        g_nodes, g_weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(nodes[1::2], g_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss, g_weights, rtol=0, atol=1e-15)
        # QUADPACK's G7-K15 pair, from the same algorithm at n = 7.
        k = np.arange(1, 15, dtype=float)
        a, b = perron._kronrod_extension(7, np.zeros(15),
                                         np.concatenate(([2.0], k * k / (4 * k * k - 1))))
        assert abs(a[14]) < 1e-15
        off = np.sqrt(b[1:])
        x15, v15 = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
        assert abs(x15[-1] - 0.991455371120812639206854697526329) < 1e-15
        assert abs(2 * v15[0, -1] ** 2 - 0.022935322010529224963732008058970) < 1e-15

    def test_decay_node_count(self, monkeypatch):
        """The perron_lines decay sweep at x = 1000.5 evaluates F at 1760
        panels of 33 nodes on the upper half-line: 58,080 nodes."""
        count = _count_f_nodes(monkeypatch)
        perron.truncation_decay(1000.5, 2.0, [50, 100, 200, 400], 0)
        assert sum(count) == 58_080
        assert max(count) <= 1024

    def test_perron_lines_pass_node_count(self, monkeypatch):
        """A whole perron_lines pass at x = 1000.5 (the decay sweep, the
        c = 1.5 integral to T = 100 and the rectangle) evaluates F at
        58,080 + 14,520 + 7,296 = 79,896 nodes, at most 1024 per call."""
        count = _count_f_nodes(monkeypatch)
        perron.truncation_decay(1000.5, 2.0, [50, 100, 200, 400], 0)
        perron.perron_sweep(1000.5, 1.5, [100.0])
        perron.rectangle_consistency(1000.5)
        assert sum(count) == 79_896
        assert max(count) <= 1024


def _count_f_nodes(monkeypatch) -> list[int]:
    """The sizes of perron's F batches from here on."""
    count = []
    quotient = perron.dirichlet_quotient_f64

    def spy_f(s):
        count.append(len(s))
        return quotient(s)

    monkeypatch.setattr(perron, "dirichlet_quotient_f64", spy_f)
    return count


class TestErrorBound:
    """error_bound = gap + (eps log2(n) sum |w f|
    + eps sqrt(sum (|w f| |t| (ln x + 3 ln N))^2)) / pi covers the Kronrod
    value's distance to a 16-point Gauss reference on 0.02-wide panels."""

    @pytest.mark.parametrize("x", [1000.5, 1e6 + 0.5])
    @pytest.mark.parametrize("c, T", [
        (c, T) if T < 1000 else pytest.param(c, T, marks=pytest.mark.slow)
        for c in (1.1, 1.5, 2.0, 3.0) for T in (100.0, 1000.0)])
    def test_covers_fine_reference(self, x, c, T):
        values, gaps, bounds = perron.perron_sweep(x, c, [T])
        assert bounds[0] >= abs(values[0] - perron_reference(x, c, T))
        assert bounds[0] >= gaps[0]

    def test_formula(self, monkeypatch):
        """The bound is the gap plus the rounding terms, recomputed here from
        the F values at the Kronrod nodes, each batch's N, and the rule."""
        seen = []
        quotient = perron.dirichlet_quotient_f64

        def spy_f(s):
            f = quotient(s)
            seen.append((s.copy(), f, zeta_engine._em_rule(s)[0]))
            return f

        monkeypatch.setattr(perron, "dirichlet_quotient_f64", spy_f)
        x, c, heights = 1e6 + 0.5, 2.0, [30.0, 80.0]
        values, gaps, bounds = perron.perron_sweep(x, c, heights)
        nodes, weights, _ = perron._kronrod_rule()
        s = np.concatenate([b for b, _, _ in seen]).reshape(-1, 33)
        f = np.concatenate([v for _, v, _ in seen]).reshape(-1, 33)
        log_n = np.concatenate([np.full(len(b), math.log(n)) for b, _, n in seen])
        half = (s[:, -1].imag - s[:, 0].imag) / (nodes[-1] - nodes[0])
        size = np.abs(f * np.exp(s * math.log(x)) / s) * weights * half[:, None]
        phase = size * s.imag * (math.log(x) + 3 * log_n.reshape(-1, 33))
        for k, T in enumerate(heights):
            rows = s[:, -1].imag <= T
            n = 33 * np.count_nonzero(rows)
            rounding = 2.0 ** -52 * (math.log2(n) * size[rows].sum()
                                     + math.sqrt((phase[rows] ** 2).sum()))
            assert bounds[k] == pytest.approx(gaps[k] + rounding / math.pi, rel=1e-9)
            assert rounding / math.pi > gaps[k]


class TestCircleResidues:
    def test_pole_at_one_matches_series(self):
        _, expected = series.residue_main_term(1000.0)
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


def _circle_node(center, radius, j: int, nodes: int) -> mpc:
    return mpc(center) + mpf(radius) * mp.expjpi(mpf(2 * j) / nodes)


def _one_level_trapezoid(center, radius: float, x: float, nodes: int,
                         precision: int = 128) -> mpc:
    """The plain trapezoid rule on all `nodes` circle nodes, one sum, with
    zeta(s) and zeta(2s) from separate engine calls; F(1/2) = 0."""
    with mp.workprec(precision + 16):
        total = mpc(0)
        for j in range(nodes):
            z = _circle_node(center, radius, j, nodes)
            if 2 * z == 1:
                continue
            total += (zeta_engine.zeta(z, precision) ** 3
                      / zeta_engine.zeta(2 * z, precision)
                      * mp.exp(z * mp.ln(x)) / z * (z - mpc(center)))
        return total / nodes


class TestNestedCircle:
    """The nested trapezoid levels of residue_by_circle stop early only
    where the finest level would not change the value beyond 2^-precision."""

    def test_matches_one_level_trapezoid(self, zero_table):
        circles = [(1.0, 0.2), (1.0, 0.1), (0.0, 0.15)]
        circles += [(complex(0.25, float(g) / 2), 0.2) for g in zero_table.ordinates[:5]]
        for center, radius in circles:
            got = perron.residue_by_circle(center, radius, 1000.5)
            want = _one_level_trapezoid(center, radius, 1000.5, 128)
            assert abs(got - want) <= mpf(2) ** -128 * abs(want), center

    def test_verified_pole_at_one_halves_the_calls(self):
        """Both circles of --verify-radius stop at 64 of 128 nodes and
        evaluate only the 33 with angle in [0, pi], each one zeta_pair of
        two engine calls: 132 where the one-level rule on all nodes made
        512."""
        zeta_engine.reset_call_count()
        perron.residue_by_circle(1.0, 0.2, 1000.5, verify_radius=True)
        assert zeta_engine.call_count() == 2 * 2 * 33

    def test_slow_circle_reaches_the_cap(self):
        """About 0.6 with radius 0.5 the circle passes 0.1 from the poles at
        0 and 1, so the levels converge slowly and all 256 nodes run: the
        129 with angle in [0, pi] are evaluated."""
        zeta_engine.reset_call_count()
        perron.residue_by_circle(0.6, 0.5, 500.0, nodes=256)
        assert zeta_engine.call_count() == 2 * (256 // 2 + 1)

    def test_96_nodes_nest(self, monkeypatch):
        """96 nodes nest as 24, 48, 96: every fourth node, then the nodes
        halfway between, then the odd ones, each node with angle in [0, pi]
        once and no mirrored node, and the value is the one-level
        trapezoid's on all 96 nodes."""
        seen = []
        pair = zeta_engine.zeta_pair

        def spy(s, kmax_s, kmax_2s, precision):
            seen.append(s)
            return pair(s, kmax_s, kmax_2s, precision)

        monkeypatch.setattr(perron.zeta_engine, "zeta_pair", spy)
        got = perron.residue_by_circle(1.0, 0.2, 500.5, nodes=96)
        monkeypatch.undo()
        order = [*range(0, 49, 4), *range(2, 48, 4), *range(1, 48, 2)]
        assert len(seen) == len(order) == 96 // 2 + 1
        for j, z in zip(order, seen):
            assert z.imag >= 0, j
            assert abs(z - _circle_node(1.0, 0.2, j, 96)) < mpf(2) ** -120, j
        want = _one_level_trapezoid(1.0, 0.2, 500.5, 96)
        assert abs(got - want) <= mpf(2) ** -128 * abs(want)
        assert got.imag == 0

    def test_node_at_the_pole_of_zeta_2s(self):
        """About 0.625 with radius 0.125 the node at angle pi is s = 1/2,
        where zeta(2s) has its pole and F vanishes; the circle encloses no
        pole of F x^s / s."""
        got = perron.residue_by_circle(0.625, 0.125, 1000.5)
        assert abs(got) <= mpf(2) ** -100


class TestTruncationDecay:
    def test_rows_and_slope(self):
        exact = sieve.prefix_sum(AF.D_SQUARE, 100)
        rows, slope = perron.truncation_decay(100.5, 2.0, [50, 100, 200],
                                              exact)
        assert [T for T, _, _, _ in rows] == [50.0, 100.0, 200.0]
        assert all(err >= 0 for _, err, _, _ in rows)
        assert all(0 <= gap <= 1e-6 * exact for _, _, gap, _ in rows)
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
        for heights in ([50, float("nan")], [50, float("nan"), 100], [50, float("inf")]):
            with pytest.raises(DomainError):
                perron.perron_sweep(100.5, 2.0, heights)
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [50, 100], 48, nodes=32)
        with pytest.raises(ConventionError):
            perron.truncation_decay(100.0, 2.0, [50, 100], 48)

    def test_sweep_matches_single_heights(self):
        T_list = [20.0, 50.0, 100.0]
        exact = sieve.prefix_sum(AF.D_SQUARE, 100)
        rows, _ = perron.truncation_decay(100.5, 2.0, T_list, exact)
        for T, err, _, _ in rows:
            single = perron.perron_truncated(100.5, 2.0, T)
            assert abs(err - abs(single.real - exact)) <= 1e-10 * abs(single.real)


class TestRectangle:
    def test_consistency_small_x(self):
        check = perron.rectangle_consistency(100.5)
        assert check.discrepancy < 1e-6
        assert set(check.edge_magnitudes) == {"right", "left", "top", "bottom"}
        assert check.contour_value == pytest.approx(check.residue_value,
                                                    abs=1e-6)

    def test_integer_x_rejected(self):
        with pytest.raises(ConventionError):
            perron.rectangle_consistency(100.0)
