"""Contour quadrature: truncated Perron integrals against exact sieve sums,
small-circle residues against series closed forms, and the rectangle check."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from divisorlab import perron, series, sieve, zeros
from divisorlab import zeta as zeta_engine
from divisorlab.errors import (
    CapacityError,
    ContourError,
    ConventionError,
    DomainError,
    HeightRangeError,
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

    @pytest.mark.parametrize("x", [-5.5, 0.0, -0.5])
    def test_nonpositive_x_rejected(self, x):
        with pytest.raises(DomainError, match="positive"):
            perron.perron_truncated(x, 1.5, 100.0)
        with pytest.raises(DomainError, match="positive"):
            perron.rectangle_consistency(x)

    @pytest.mark.parametrize("T", [
        1e9, 20000.0, math.nextafter(zeta_engine.DEFAULT_HEIGHT_CAP, math.inf)])
    def test_height_above_cap_rejected(self, T):
        """Raised before any node is laid out: at T = 1e9 the panels alone
        would take terabytes, and T = 20000 would run for minutes."""
        start = time.perf_counter()
        with pytest.raises(HeightRangeError, match="cap"):
            perron.perron_sweep(1000.5, 1.5, [T])
        with pytest.raises(HeightRangeError):
            perron.truncation_decay(1000.5, 2.0, [50.0, T])
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("c", [110.0, 60.0])
    def test_non_finite_result_rejected(self, c):
        """x^c overflows at c = 110, so the values and the gap are NaN; at
        c = 60 the square of the rounding term overflows and the bound is
        infinite.  Neither passes the quadrature check."""
        with pytest.raises(QuadratureError, match="T = 100"):
            perron.perron_sweep(1000.5, c, [100.0])
        with pytest.raises(QuadratureError, match="T = 50"):
            perron.truncation_decay(1000.5, c, [50.0, 100.0])

    def test_panel_floor(self):
        """Close to the pole at s = 1 the first height sets the panel width:
        with MIN_PANELS = 64 panels below T = 5 the bound at c = 1.1 is about
        1e-11 (about 2e-6 with 16 panels) and covers the fine reference."""
        values, _, bounds = perron.perron_sweep(100.5, 1.1, [5.0])
        assert bounds[0] <= 1e-9
        assert bounds[0] >= abs(values[0] - perron_reference(100.5, 1.1, 5.0))

    def test_near_pole_line(self):
        """At c = 1.1 the line passes 0.1 from the pole at s = 1, so its
        first panels are 0.1 wide, not one period (0.91): the bound is
        about 1.5e-10 and covers the fine reference.  Quarter-period panels
        give a Kronrod-Gauss gap of 1.5e-7 here, and half-period panels with
        no distance cap a bound of about 1.9e-3."""
        values, _, bounds = perron.perron_sweep(1000.5, 1.1, [100.0])
        assert bounds[0] <= 1e-9
        assert bounds[0] >= abs(values[0] - perron_reference(1000.5, 1.1, 100.0))

    @pytest.mark.parametrize("c", [1.1, 1.0 + 1e-9, math.nextafter(1.0, 2.0)])
    def test_graded_layout_near_pole(self, c):
        """Near s = 1 the panels widen geometrically: each is at most its
        stretch's distance to the pole, recomputed here, and at most one
        period, and every height is a stretch edge.  Up to T = 100, where a
        line far from the pole takes 128 panels of 50 / MIN_PANELS in 2
        stretches, c = 1.1 takes 171 in 4 and c = 1 + 2^-52 takes 265 in
        35, not ~1e16."""
        heights = [50.0, 100.0]
        stretches, ends = perron._layout(c, 1j, heights, 1000.5)
        assert stretches[0][0] == 0.0
        assert all(a[1] == b[0] for a, b in zip(stretches, stretches[1:]))
        assert set(heights) <= {hi for _, hi, _ in stretches}
        assert list(ends) == [sum(n for _, hi, n in stretches if hi <= T)
                              for T in heights]
        period = 2 * math.pi / math.log(1000.5)
        for lo, hi, count in stretches:
            width = (hi - lo) / count
            assert width <= min(period, c - 0.5, math.hypot(c - 1.0, lo)) * (1 + 1e-12)
        assert ends[-1] <= 265 and len(stretches) <= 35

    def test_line_next_to_pole_refused(self, monkeypatch):
        """At c = 1 + 1e-9 the graded layout takes 237 panels to T = 100, but
        F reaches 1e27 near t = 0 and the panel integrals cancel far below
        float64 rounding, so the gap check refuses the line."""
        count = _count_f_nodes(monkeypatch)
        with pytest.raises(QuadratureError, match="T = 100"):
            perron.perron_sweep(1000.5, 1.0 + 1e-9, [100.0])
        assert sum(count) == 237 * 33

    def test_panel_cap(self, monkeypatch):
        """A layout of more than _MAX_PANELS panels on one edge is refused
        before any F call: a first height of 1e-6 would make panels 1.6e-8
        wide up to T = 1000, 6.4e10 of them."""
        monkeypatch.setattr(perron, "dirichlet_quotient_f64", None)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="panels"):
            perron.perron_sweep(1000.5, 2.0, [1e-6, 1000.0])
        assert time.perf_counter() - start < 0.5

    def test_node_doubling_raises_below_gap(self, monkeypatch):
        # The coarse and fine grids differ by rounding at least; a tolerance
        # below that gap must fail, and the default must pass.
        perron.perron_truncated(10.5, 2.0, 50.0)
        monkeypatch.setattr(perron, "GAP_TOL", 1e-18)
        with pytest.raises(QuadratureError, match="T = 50"):
            perron.perron_truncated(10.5, 2.0, 50.0)

    @pytest.mark.parametrize("x, c, T", [
        (2.5, 1.2, 300.0), (2.5, 3.0, 300.0),
        pytest.param(4.5, 1.1, 1000.0, marks=pytest.mark.slow)])
    def test_small_x_lines(self, x, c, T):
        """For small x the terms n^-it of F oscillate faster than x^(it),
        whose period is 6.9 at x = 2.5; the pole distance holds the
        panels to at most c - 1/2 (0.7, 2.5 and 0.6 here, graded down to
        c - 1 near t = 0), and the bound covers the fine reference."""
        exact = sieve.prefix_sum(AF.D_SQUARE, int(x))
        values, _, bounds = perron.perron_sweep(x, c, [T])
        assert bounds[0] >= abs(values[0] - perron_reference(x, c, T))
        assert abs(values[0] - exact) < 20.0 * x ** c / T

    def test_panel_layout(self, monkeypatch):
        """Every height is a panel edge, panels are of one width between two
        heights, at most one period of x^(it) and at most the stretch's
        distance to the nearest pole, and F sees the 33 Gauss-Kronrod nodes
        of every panel, each once, as a grid of panel midpoints plus that
        width's node offsets within one stretch.  At c = 2 the first stretch
        is 1 from s = 1, the later ones 1.5 from Re s = 1/2."""
        grids, seen = [], []
        panel_integrals = perron._panel_integrals
        quotient = perron.dirichlet_quotient_f64

        def spy(start, direction, stretches, x):
            grids.append((start, direction, list(stretches)))
            return panel_integrals(start, direction, stretches, x)

        def spy_f(s, offsets):
            seen.append((s.copy(), offsets.copy()))
            return quotient(s, offsets)

        monkeypatch.setattr(perron, "_panel_integrals", spy)
        monkeypatch.setattr(perron, "dirichlet_quotient_f64", spy_f)
        perron.truncation_decay(100.5, 2.0, [10, 25, 40])
        assert [(s, d) for s, d, _ in grids] == [(2.0, 1j)]
        stretches = grids[0][2]
        assert [(lo, hi) for lo, hi, _ in stretches] == [(0.0, 10.0), (10.0, 25.0),
                                                         (25.0, 40.0)]
        assert stretches[0][2] >= perron.MIN_PANELS
        period = 2 * math.pi / math.log(100.5)
        nodes, _, _ = perron._kronrod_rule()
        want, got = [], []
        for lo, hi, count in stretches:
            h = (hi - lo) / (2 * count)
            pole = min(1.5, math.hypot(1.0, lo))
            assert 2 * h <= period * (1 + 1e-12)
            assert 2 * h <= pole * (1 + 1e-12)
            mid = 2.0 + 1j * (lo + h * np.arange(1, 2 * count, 2))
            want.append(np.add.outer(mid, 1j * h * nodes))
            stretch = [(s, offsets) for s, offsets in seen if lo < s[0].imag < hi]
            for s, offsets in stretch:  # a batch lies within one stretch
                assert np.all((lo < s.imag) & (s.imag < hi))
                np.testing.assert_array_equal(offsets, 1j * h * nodes)
            got.append(np.concatenate([np.add.outer(s, o) for s, o in stretch]))
        want, got = np.concatenate(want).ravel(), np.concatenate(got).ravel()
        assert len(nodes) == 33 and sum(len(s) for s, _ in seen) * 33 == len(got)
        np.testing.assert_array_equal(got, want)
        assert len(np.unique(got)) == len(got)

    def test_kronrod_rule(self, monkeypatch):
        """33 nodes with positive weights, exact through degree 49, and the
        16 odd-indexed nodes carry numpy's 16-point Gauss-Legendre rule."""
        nodes, kronrod, gauss = perron._kronrod_rule()
        assert len(nodes) == len(kronrod) == 33 and len(gauss) == 16
        assert np.all(np.diff(nodes) > 0) and np.all(kronrod > 0)
        for d in range(50):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(np.sum(kronrod * nodes ** d) - exact) <= 1e-14, d
        g_nodes, g_weights = np.polynomial.legendre.leggauss(16)
        np.testing.assert_array_equal(nodes[1::2], g_nodes)
        np.testing.assert_allclose(gauss, g_weights, rtol=0, atol=1e-15)
        # QUADPACK's G7-K15 pair, from the same construction at n = 7.
        monkeypatch.setattr(perron, "GAUSS_ORDER", 7)
        x15, w15, _ = perron._kronrod_rule.__wrapped__()
        assert abs(x15[-1] - 0.991455371120812639206854697526329) < 1e-15
        assert abs(w15[-1] - 0.022935322010529224963732008058970) < 1e-15

    def test_one_period_panels_at_rounding(self):
        """Panels one period of x^(it) wide keep the 16-point Gauss rule at
        float64 rounding: on the layouts of Re s = 2 and 3 to T = 400 at
        x = 1000.5 and 1e6 + 0.5, every panel's |K - G| is at most 1e-12 of
        its sum |w f| (8.1e-14 at worst).  Four-period panels are not: on
        the one of these lines whose pole distance admits them, Re s = 3 at
        x = 1e6 + 0.5 (1.82 wide, 2 from s = 1), the median reads 6.1e-11."""
        for x in (1000.5, 1e6 + 0.5):
            period = 2 * math.pi / math.log(x)
            for c in (2.0, 3.0):
                stretches, _ = perron._layout(c, 1j, [400.0], x)
                assert max((hi - lo) / n for lo, hi, n in stretches) >= 0.99 * period
                gauss, kronrod, size, _ = perron._panel_integrals(c, 1j, stretches, x)
                assert np.all(np.abs(kronrod - gauss) <= 1e-12 * size), (x, c)
        x, c = 1e6 + 0.5, 3.0
        width = 4 * 2 * math.pi / math.log(x)
        assert width <= perron._pole_distance(c, 1j, 0.0, 400.0)
        stretches = [(0.0, 400.0, math.ceil(400.0 / width))]
        gauss, kronrod, size, _ = perron._panel_integrals(c, 1j, stretches, x)
        assert np.median(np.abs(kronrod - gauss) / size) > 1e-12

    def test_decay_node_count(self, monkeypatch):
        """The perron_lines decay sweep at x = 1000.5 cuts the upper
        half-line into panels 50 / MIN_PANELS = 0.78 wide, the MIN_PANELS
        floor being below one period, 2 pi / ln x = 0.9095 (the poles are 1
        or more away): 64 + 64 + 128 + 256 = 512 panels of 33 nodes, 16,896
        nodes."""
        count = _count_f_nodes(monkeypatch)
        perron.truncation_decay(1000.5, 2.0, [50, 100, 200, 400])
        assert sum(count) == 16_896
        assert max(count) <= 1024

    def test_perron_lines_pass_node_count(self, monkeypatch):
        """A whole perron_lines pass at x = 1000.5 evaluates F at 29,733
        nodes, at most 1024 per call, 33 Gauss-Kronrod nodes per panel: the
        decay sweep's 512 panels, 16,896; the c = 1.5 integral to T = 100,
        111 panels, 3,663: s = 1 is 0.5 away, so 2 panels of 0.5 up to
        t = 1, then 109 of 0.908, under one period (0.9095); and the
        rectangle's 69 + 145 + 64 = 278 panels, 9,174.  Its right side at 1.25 is 0.25
        from s = 1: 2 panels of 0.25 up to t = 0.5, where the distance is
        0.56, 2 of 0.56 up to t = 1.62, then 65 of 0.75, its distance to
        Re s = 1/2; its left side at 0.85 is 0.15 from s = 1 and 0.35 from
        Re s = 1/2: 2 panels of 0.15 up to t = 0.3, 2 of 0.34 up to
        t = 0.97, then 141 of 0.35; its top spans MIN_PANELS panels."""
        count = _count_f_nodes(monkeypatch)
        perron.truncation_decay(1000.5, 2.0, [50, 100, 200, 400])
        perron.perron_sweep(1000.5, 1.5, [100.0])
        perron.rectangle_consistency(1000.5)
        assert sum(count) == 29_733
        assert max(count) <= 1024

    def test_edge_memory(self):
        """Each F batch is reduced to its panel sums before the next, so an
        edge holds four numbers per panel, not its nodes: a line to T = 2000
        at x = 1000.5 (4,400 panels) peaks at 12.4 MiB traced, most of it
        F's own contraction of one batch, against 16.7 MiB when the whole
        edge's nodes and F values were kept to the end."""
        perron.perron_sweep(1000.5, 2.0, [2000.0])  # the tables F caches
        tracemalloc.start()
        try:
            perron.perron_sweep(1000.5, 2.0, [2000.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.5 * 2 ** 20

    @pytest.mark.parametrize("c, pinned", [
        (2.0, {50.0: 22159.279011468636, 100.0: 21793.328974773543,
               200.0: 22112.05156551487, 400.0: 22541.71280329483}),
        (1.5, {100.0: 22465.086151007647})])
    def test_values_within_bound_of_flat_batches(self, c, pinned):
        """The perron_lines decay sweep and integral at x = 1000.5, as computed
        when F was evaluated on flat batches of 31 panels across heights:
        each value now is within its error bound of that one."""
        heights = list(pinned)
        values, _, bounds = perron.perron_sweep(1000.5, c, heights)
        for T, value, bound in zip(heights, values, bounds):
            assert abs(value - pinned[T]) <= bound, T


def _count_f_nodes(monkeypatch) -> list[int]:
    """The node counts of perron's F calls from here on: grid rows times
    offsets."""
    count = []
    quotient = perron.dirichlet_quotient_f64

    def spy_f(s, offsets):
        count.append(len(s) * len(offsets))
        return quotient(s, offsets)

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

        def spy_f(s, offsets):
            f = quotient(s, offsets)
            grid = np.add.outer(s, offsets)
            seen.append((grid, f, zeta_engine._em_rule(grid.ravel())[0]))
            return f

        monkeypatch.setattr(perron, "dirichlet_quotient_f64", spy_f)
        x, c, heights = 1e6 + 0.5, 2.0, [30.0, 80.0]
        values, gaps, bounds = perron.perron_sweep(x, c, heights)
        nodes, weights, _ = perron._kronrod_rule()
        s = np.concatenate([b for b, _, _ in seen]).reshape(-1, 33)
        f = np.concatenate([v for _, v, _ in seen]).reshape(-1, 33)
        log_n = np.concatenate([np.full(b.size, math.log(n)) for b, _, n in seen])
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

    @pytest.mark.parametrize("x", [10.5, 1000.5])
    def test_pole_at_minus_one(self, x):
        """zeta(2s) has its trivial zero at s = -1, so F has a simple pole
        there with residue zeta(-1)^3 / (2 zeta'(-2)) times x^-1 / -1."""
        got = perron.residue_by_circle(-1.0, 0.2, x)
        with mp.workprec(160):
            expected = mp.zeta(-1) ** 3 / (2 * mp.zeta(-2, derivative=1)) * (-1 / mpf(x))
        assert abs(got - expected) / abs(expected) < mpf("1e-30")

    @pytest.mark.parametrize("x", [10.5, 1000.5])
    def test_pole_at_minus_three(self, x):
        """The next trivial zero of zeta(2s), at s = -3, gives a simple pole
        with residue zeta(-3)^3 / (2 zeta'(-6)) times x^-3 / -3."""
        got = perron.residue_by_circle(-3.0, 0.2, x)
        with mp.workprec(160):
            expected = (mp.zeta(-3) ** 3 / (2 * mp.zeta(-6, derivative=1))
                        * mpf(x) ** -3 / -3)
        assert abs(got - expected) / abs(expected) < mpf("1e-30")

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
        # radius 0.4 about s = 1.28 encloses the triple pole at s = 1, but the
        # half-radius circle does not; both meet the stop rule, so
        # verification must fail.
        with pytest.raises(ContourError):
            perron.residue_by_circle(1.28, 0.4, 500.0, nodes=512,
                                     verify_radius=True)

    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            perron.residue_by_circle(1.0, -0.1, 100.0)
        for x in (-3.0, 0.0):
            with pytest.raises(DomainError, match="positive"):
                perron.residue_by_circle(1.0, 0.2, x)
        with pytest.raises(DomainError):
            perron.residue_by_circle(1.0, 0.1, 100.0, nodes=16)

    def test_node_floor(self):
        with pytest.raises(DomainError):
            perron.residue_by_circle(1 + 0j, 0.1, 10.5, nodes=32)
        with pytest.raises(DomainError):
            perron.residue_by_circle(1 + 0j, 0.1, 10.5, nodes=perron.MIN_NODES - 1)
        zeta_engine.reset_call_count()
        with pytest.raises(DomainError, match="multiple of 4"):
            perron.residue_by_circle(1 + 0j, 0.1, 10.5, nodes=66)
        assert zeta_engine.call_count() == 0

    def test_circle_through_pole_rejected(self):
        # centre 0.5, radius 0.5 passes through both s = 0 and s = 1
        with pytest.raises(ContourError):
            perron.residue_by_circle(0.5 + 0j, 0.5, 10.5)
        with pytest.raises(ContourError, match="pole at 0j"):
            perron.residue_by_circle(-0.3 + 0j, 0.3005, 10.5)
        with pytest.raises(ContourError, match=r"pole at \(1\+0j\)"):
            perron.residue_by_circle(1.2 + 0.1j, abs(0.2 + 0.1j) - 0.0009, 10.5)
        # centres -1.3, -3.3 and -5.3, radius 0.3, pass through the poles at
        # s = -1, -3 and -5; the last circle, about -2 + 0.5i, passes within
        # 1e-3 of s = -3
        zeta_engine.reset_call_count()
        with pytest.raises(ContourError, match=r"pole at \(-1\+0j\)"):
            perron.residue_by_circle(-1.3 + 0j, 0.3, 10.5)
        with pytest.raises(ContourError, match=r"pole at \(-3\+0j\)"):
            perron.residue_by_circle(-3.3 + 0j, 0.3, 10.5)
        with pytest.raises(ContourError, match=r"pole at \(-5\+0j\)"):
            perron.residue_by_circle(-5.3 + 0j, 0.3, 10.5)
        with pytest.raises(ContourError, match=r"pole at \(-3\+0j\)"):
            perron.residue_by_circle(-2 + 0.5j, abs(1 + 0.5j) + 0.0009, 10.5)
        assert zeta_engine.call_count() == 0


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
        0 and 1, so the levels converge slowly: all 256 nodes run, the 129
        with angle in [0, pi] are evaluated, and the stop rule never fires."""
        zeta_engine.reset_call_count()
        with pytest.raises(QuadratureError, match="nodes = 256"):
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
        rows, slope = perron.truncation_decay(100.5, 2.0, [50, 100, 200])
        assert [T for T, _, _, _ in rows] == [50.0, 100.0, 200.0]
        assert all(err >= 0 for _, err, _, _ in rows)
        assert all(0 <= gap <= 1e-6 * exact for _, _, gap, _ in rows)
        assert slope < 0  # errors shrink with T

    def test_unsorted_T_rejected(self):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [100, 50])

    @pytest.mark.parametrize("T_list", [[], [100], [50, 50], [50, 100, 100]])
    def test_degenerate_sweep_rejected(self, T_list):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, T_list)

    def test_sweep_validation(self):
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 1.0, [50, 100])
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [0, 100])
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [-50, 100])
        with pytest.raises(DomainError):
            perron.truncation_decay(100.5, 2.0, [float("nan"), 100])
        for heights in ([], [50, float("nan")], [50, float("nan"), 100], [50, float("inf")]):
            with pytest.raises(DomainError):
                perron.perron_sweep(100.5, 2.0, heights)
        with pytest.raises(ConventionError):
            perron.truncation_decay(100.0, 2.0, [50, 100])

    def test_sweep_matches_single_heights(self):
        T_list = [20.0, 50.0, 100.0]
        exact = sieve.prefix_sum(AF.D_SQUARE, 100)
        rows, _ = perron.truncation_decay(100.5, 2.0, T_list)
        for T, err, _, _ in rows:
            single = perron.perron_truncated(100.5, 2.0, T)
            assert abs(err - abs(single.real - exact)) <= 1e-10 * abs(single.real)


class TestRectangle:
    def test_consistency_small_x(self):
        check = perron.rectangle_consistency(100.5)
        assert check.discrepancy < 1e-6
        assert check.contour_value == pytest.approx(check.residue_value,
                                                    abs=1e-6)

    @pytest.mark.parametrize("x", [100.5, 950.5, 1000.5, 1049.5])
    def test_discrepancy_within_bound(self, x):
        """The three sides' summed error bound, about 1.2e-10 at x near 1000
        and 8e-12 at 100.5, covers the distance to the residue."""
        check = perron.rectangle_consistency(x)
        assert check.discrepancy <= check.error_bound <= 1e-9

    def test_gap_check_can_fail(self, monkeypatch):
        """Every side runs the lines' gap check, which names the side."""
        monkeypatch.setattr(perron, "GAP_TOL", 1e-18)
        with pytest.raises(QuadratureError, match="rectangle's right side"):
            perron.rectangle_consistency(1000.5)

    def test_integer_x_rejected(self):
        with pytest.raises(ConventionError):
            perron.rectangle_consistency(100.0)
