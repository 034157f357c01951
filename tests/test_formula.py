"""Explicit-formula assembly: grids, truncation rules, the cosine form of a
zero term, and exact bookkeeping of the error decomposition."""

import cmath
import csv
import json
import math

import numpy as np
import pytest
from mpmath import mpf

from divisorlab import formula, series, sieve
from divisorlab.errors import DomainError
from divisorlab.formula import Cutoff, ReportRow, compare, log_grid
from divisorlab.sieve import ArithmeticFunction as AF


class TestGrid:
    def test_half_integer_snapping(self):
        grid = log_grid(10, 1000, 7)
        assert all(x == math.floor(x) + 0.5 for x in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] == 10.5

    def test_collision_dedup(self):
        grid = log_grid(2, 4, 30)  # snapping collides heavily on a tiny span
        assert len(grid) == len(set(grid))
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_raw_grid(self):
        grid = log_grid(10, 1000, 3, half_integers=False)
        assert grid[0] == pytest.approx(10.0)
        assert grid[1] == pytest.approx(100.0)
        assert grid[2] == pytest.approx(1000.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_grid(0.5, 10, 5)
        with pytest.raises(DomainError):
            log_grid(10, 10, 5)
        with pytest.raises(DomainError):
            log_grid(10, 100, 1)


class TestCutoff:
    def test_kinds(self):
        with pytest.raises(DomainError):
            Cutoff("height", 100)
        with pytest.raises(DomainError):
            Cutoff("count", 0)

    def test_count_shortfall_warns(self, zero_coefficients):
        chosen, warns = formula.select_zero_terms(
            zero_coefficients, Cutoff("count", 500))
        assert len(chosen) == len(zero_coefficients)
        assert warns and "500" in warns[0]

    def test_ordinate_cutoff_selects_prefix(self, zero_coefficients):
        chosen, warns = formula.select_zero_terms(
            zero_coefficients, Cutoff("ordinate", 25.0))
        # gamma/2 <= 25 means gamma <= 50: the first ten zeros end at 49.77
        assert len(chosen) == 10
        assert warns == []

    def test_ordinate_cutoff_beyond_table_warns(self, zero_coefficients):
        chosen, warns = formula.select_zero_terms(
            zero_coefficients, Cutoff("ordinate", 1.0e6))
        assert len(chosen) == len(zero_coefficients)
        assert warns


def _terms(coeffs):
    return coeffs.A1, coeffs.A2, coeffs.A3


class TestMainValue:
    def test_matches_multiprecision_residue(self):
        coeffs, value = series.residue_main_term(5000.5, mode="exact")
        got = formula.main_value(5000.5, _terms(coeffs))
        assert got == pytest.approx(float(value), rel=1e-13)

    def test_constant_flag(self):
        coeffs, _ = series.residue_main_term(100.5, mode="exact")
        with_c = formula.main_value(100.5, _terms(coeffs), coeffs.constant_term)
        without = formula.main_value(100.5, _terms(coeffs))
        assert with_c - without == pytest.approx(0.25, abs=1e-12)

    def test_domain(self):
        coeffs, _ = series.residue_main_term(100.5)
        with pytest.raises(DomainError):
            formula.main_value(1.0, _terms(coeffs))


class TestZeroSum:
    def test_single_zero_cosine_form(self, zero_coefficients):
        c = zero_coefficients[0]
        x = 777.5
        got = formula.zero_sum_terms(x, [c])
        a = complex(c.coefficient)
        gamma = float(c.ordinate)
        expected = (2 * abs(a) * x ** 0.25
                    * math.cos((gamma / 2) * math.log(x) + math.atan2(a.imag, a.real)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality(self, zero_coefficients):
        bound = sum(2 * abs(complex(c.coefficient)) for c in zero_coefficients)
        for x in (10.5, 1000.5, 123456.5):
            value = formula.zero_sum_terms(x, zero_coefficients)
            assert abs(value) <= bound * x ** 0.25 * (1 + 1e-12)

    def test_grid_matches_per_x_loop(self, zero_coefficients):
        """The (x by zero) array form, one exp per zero, against a per-x loop
        that evaluates both halves of each conjugate pair."""

        def per_x(x):
            lx = math.log(x)
            total = 0j
            for c in zero_coefficients:
                rho, a = complex(c.rho_half), complex(c.coefficient)
                total += (a * cmath.exp(rho * lx)
                          + a.conjugate() * cmath.exp(rho.conjugate() * lx))
            return total.real

        grid = log_grid(2, 1.0e12, 400)
        values = formula.zero_sum_terms(np.array(grid), zero_coefficients)
        assert values.shape == (len(grid),)
        abs_sum = sum(2 * abs(complex(c.coefficient)) for c in zero_coefficients)
        for x, value in zip(grid, values):
            ulps = 4 * 2.0 ** -53 * abs_sum * x ** 0.25
            assert abs(value - per_x(x)) <= ulps

    def test_domain(self, zero_coefficients):
        with pytest.raises(DomainError):
            formula.zero_sum_terms(1.0, zero_coefficients)
        with pytest.raises(DomainError):
            formula.zero_sum_terms(np.array([100.5, 1.0]), zero_coefficients)


class TestCompare:
    def test_bookkeeping_identity(self, zero_coefficients):
        grid = [100.5, 1000.5, 5000.5]
        report = compare(grid, zero_coefficients=zero_coefficients,
                         cutoff=Cutoff("count", 50))
        assert [r.x for r in report.rows] == grid
        for r in report.rows:
            # E is defined by exact float subtraction, not re-derived
            assert r.E == float(r.S_exact) - r.main - r.zero_sum
            assert r.E_over_x14 == r.E / r.x ** 0.25
            assert r.E_over_x13 == r.E / r.x ** (1.0 / 3.0)
            assert r.zeros_used == 100

    def test_exact_sums_in_rows(self, zero_coefficients):
        report = compare([10.5], zero_coefficients=zero_coefficients,
                         cutoff=Cutoff("count", 10))
        assert report.rows[0].S_exact == 48

    def test_determinism(self, zero_coefficients):
        grid = log_grid(100, 10000, 6)
        a = compare(grid, zero_coefficients=zero_coefficients,
                    cutoff=Cutoff("count", 30))
        b = compare(grid, zero_coefficients=zero_coefficients,
                    cutoff=Cutoff("count", 30))
        assert a.rows == b.rows

    def test_companion_two_omega(self):
        report = compare([1000.5, 10000.5], function=AF.TWO_OMEGA, mode="exact")
        for r in report.rows:
            assert r.zero_sum == 0.0 and r.zeros_used == 0
            assert abs(r.E) / r.x < 0.05

    def test_companion_mu_squared(self):
        report = compare([1000.5, 10000.5], function=AF.MU_SQUARED)
        for r in report.rows:
            assert abs(r.E) / math.sqrt(r.x) < 0.5

    def test_unsupported_function(self):
        with pytest.raises(DomainError):
            compare([100.5], function=AF.D_SQUARED)

    def test_truncation_warning_propagates(self, zero_coefficients):
        report = compare([100.5], zero_coefficients=zero_coefficients,
                         cutoff=Cutoff("count", 10 ** 6))
        assert report.warnings

    def test_csv_and_json_outputs(self, tmp_path, zero_coefficients):
        report = compare([100.5, 1000.5], zero_coefficients=zero_coefficients,
                         cutoff=Cutoff("count", 20))
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.write_csv(csv_path)
        report.write_json(json_path)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == formula.CSV_COLUMNS
        assert len(rows) == 3
        # repr round trip keeps the floats exact
        assert float(rows[1][0]) == 100.5
        assert int(rows[1][1]) == report.rows[0].S_exact
        summary = json.loads(json_path.read_text())
        assert summary["rows"] == 2
        assert summary["max_abs_E"] == max(abs(r.E) for r in report.rows)


class TestConjectureScan:
    def test_scan_shape(self, zero_table, zero_coefficients):
        grid = log_grid(100, 100000, 8)
        scan = formula.conjecture_scan(grid, zero_table, zero_coefficients)
        assert scan.zeros_used == 200
        assert len(scan.trace) == len(grid)
        assert scan.argmax_x in grid
        ratios = [r for _, _, r in scan.trace]
        assert scan.sup_ratio == max(ratios)

    def test_epsilon_domain(self, zero_table, zero_coefficients):
        with pytest.raises(DomainError):
            formula.conjecture_scan([100.5], zero_table, zero_coefficients,
                                    epsilon=-0.1)
