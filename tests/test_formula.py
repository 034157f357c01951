"""Explicit-formula assembly: grids, the cosine form of a zero term, and
exact bookkeeping of the error decomposition."""

import cmath
import csv
import json
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from divisorlab import formula, series, sieve
from divisorlab.errors import DomainError
from divisorlab.formula import ReportRow, compare, log_grid
from divisorlab.sieve import ArithmeticFunction as AF

from conftest import residue_jet


class TestGrid:
    def test_half_integer_snapping(self):
        grid = log_grid(10, 1000, 7)
        assert all(x == math.floor(x) + 0.5 for x in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] == 10.5

    @pytest.mark.parametrize("start, stop", [(1e3, 1e6), (1e3, 1e7), (1e6, 1e7)])
    def test_ends_snapped_from_start_and_stop(self, start, stop):
        """exp(log(1e3)) and exp(log(1e6)) round below 1e3 and 1e6; the ends
        are still the half-integers just above start and stop."""
        grid = log_grid(start, stop, 13)
        assert (grid[0], grid[-1]) == (start + 0.5, stop + 0.5)

    def test_collision_dedup(self):
        grid = log_grid(2, 4, 30)  # snapping collides heavily on a tiny span
        assert len(grid) == len(set(grid))
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_grid(0.5, 10, 5)
        with pytest.raises(DomainError):
            log_grid(10, 10, 5)
        with pytest.raises(DomainError):
            log_grid(10, 100, 1)


def _residue_oracle(function: AF, mode: str, x: float):
    """The main term compare writes for function at x, at 90 digits: the
    h^(j-1) coefficient of x^(1+h) times residue_jet, plus 1/4 for
    d(n^2)."""
    j = {AF.D_SQUARE: 3, AF.TWO_OMEGA: 2, AF.MU_SQUARED: 1}[function]
    r = residue_jet(j, mode)
    with mp.workdps(90):
        lx = mp.ln(mpf(x))
        value = sum(r[i] * x * lx ** (j - 1 - i) / math.factorial(j - 1 - i)
                    for i in range(j))
        return value + (mpf(1) / 4 if function is AF.D_SQUARE else 0)


class TestMainValue:
    def test_compare_main_is_correctly_rounded(self, monkeypatch):
        """Every main term compare writes is the float nearest an mpmath
        oracle, for the three functions in both modes.  The exact sums are
        stubbed out: the main term does not read them, and the grid to 1e12
        then needs no sieve."""
        monkeypatch.setattr(formula, "prefix_sums_at",
                            lambda function, floors: dict.fromkeys(floors, 0))
        grid = sorted(set(log_grid(1e3, 1e7, 25) + log_grid(1e3, 1e12, 200)))
        for function in (AF.D_SQUARE, AF.TWO_OMEGA, AF.MU_SQUARED):
            for mode in series.MODES:
                for row in compare(grid, function=function, mode=mode).rows:
                    want = _residue_oracle(function, mode, row.x)
                    with mp.workdps(90):
                        ulps = abs(mpf(row.main) - want) / math.ulp(row.main)
                    assert ulps <= 0.5, (function, mode, row.x, ulps)

    def test_constant_flag(self):
        coeffs, _ = series.residue_main_term(100.5)
        with_c = series.main_term(100.5, coeffs.terms, coeffs.at_zero)
        without = series.main_term(100.5, coeffs.terms)
        assert abs(with_c - without - 0.25) < 1e-12

    def test_domain(self):
        coeffs, _ = series.residue_main_term(100.5)
        with pytest.raises(DomainError):
            series.main_term(1.0, coeffs.terms)


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
        report = compare(grid, zero_coefficients=zero_coefficients[:50])
        assert [r.x for r in report.rows] == grid
        for r in report.rows:
            # E is defined by exact float subtraction, not re-derived
            assert r.E == float(r.S_exact) - r.main - r.zero_sum
            assert r.E_over_x14 == r.E / r.x ** 0.25
            assert r.E_over_x13 == r.E / r.x ** (1.0 / 3.0)
            assert r.zeros_used == 100

    def test_exact_sums_in_rows(self, zero_coefficients):
        report = compare([10.5], zero_coefficients=zero_coefficients[:10])
        assert report.rows[0].S_exact == 48

    def test_determinism(self, zero_coefficients):
        grid = log_grid(100, 10000, 6)
        a = compare(grid, zero_coefficients=zero_coefficients[:30])
        b = compare(grid, zero_coefficients=zero_coefficients[:30])
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

    def test_sums_every_zero_given(self, zero_coefficients):
        """The zero sum runs over every given coefficient, with no warning;
        with none, the report warns that E holds the whole zero sum."""
        report = compare([1000.5], zero_coefficients=zero_coefficients)
        assert report.rows[0].zeros_used == 2 * len(zero_coefficients)
        assert report.rows[0].zero_sum == formula.zero_sum_terms(
            np.array([1000.5]), zero_coefficients)[0]
        assert report.warnings == []
        for empty in (None, []):
            report = compare([1000.5], zero_coefficients=empty)
            assert report.rows[0].zero_sum == 0.0 and report.rows[0].zeros_used == 0
            assert len(report.warnings) == 1
            assert "no zero coefficients" in report.warnings[0]

    def test_companion_takes_no_zeros(self, zero_coefficients):
        """compare sums zeros for d_square only: a companion's zero sum
        stays in its E, so zeros given for it are refused."""
        with pytest.raises(DomainError,
                           match="d_square only; two_omega's zero sum stays in E"):
            compare([1000.5], function=AF.TWO_OMEGA,
                    zero_coefficients=zero_coefficients[:5])

    def test_unsupported_function(self):
        with pytest.raises(DomainError):
            compare([100.5], function=AF.D_SQUARED)
        for grid in ([], [1.0, 100.5]):
            with pytest.raises(DomainError, match="grid points must exceed 1"):
                compare(grid)

    def test_csv_and_json_outputs(self, tmp_path, zero_coefficients):
        report = compare([100.5, 1000.5], zero_coefficients=zero_coefficients[:20])
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
    def test_scan_shape(self, zero_coefficients):
        grid = log_grid(100, 100000, 8)
        scan = formula.conjecture_scan(grid, zero_coefficients)
        assert scan.zeros_used == 200
        assert len(scan.trace) == len(grid)
        assert scan.argmax_x in grid
        ratios = [r for _, _, r in scan.trace]
        assert scan.sup_ratio == max(ratios)

    def test_epsilon_domain(self, zero_coefficients):
        with pytest.raises(DomainError):
            formula.conjecture_scan([100.5], zero_coefficients,
                                    epsilon=-0.1)
