"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; without -s they show up in the captured output of any failing test.
"""

import json
import math
import time
from collections import defaultdict

import numpy as np
import pytest
from mpmath import mp, mpf

from divisorlab import cli, perron, series, sieve, zeta as zeta_engine
from divisorlab.formula import Cutoff, compare, log_grid
from divisorlab.sieve import ArithmeticFunction as AF


def report(index: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {index:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {index}: {label}: {detail}"


def test_01_exact_prefix_sums_exhaustive():
    limit = 10**4
    oracle_values = [
        sieve.evaluate(AF.D_SQUARE, sieve.trial_factorize(n))
        for n in range(1, limit + 1)
    ]
    oracle_cumsum = np.cumsum(oracle_values)
    t0 = time.perf_counter()
    got = sieve.prefix_sums_at(AF.D_SQUARE, list(range(1, limit + 1)))
    elapsed = time.perf_counter() - t0
    mismatches = sum(
        1 for x in range(1, limit + 1) if got[x] != int(oracle_cumsum[x - 1])
    )
    ok = (mismatches == 0 and got[10] == 48 and got[1] == 1 and elapsed < 1.0)
    report(1, "exact prefix sums vs naive oracle, x <= 1e4", ok,
           f"mismatches={mismatches}, S(10)={got[10]}, S(1)={got[1]}, "
           f"{elapsed:.2f} s")


def test_02_convolution_identities_to_1e6():
    t0 = time.perf_counter()
    ok_identities = sieve.identity_check_range(10**6)
    elapsed = time.perf_counter() - t0
    ok = bool(ok_identities) and elapsed < 60.0
    report(2, "three convolution identities for all n <= 1e6", ok,
           f"identities={'hold' if ok_identities else 'violated'}, "
           f"{elapsed:.1f} s")


def test_03_dirichlet_series_verification(capsys):
    code = cli.main(["dirichlet-verify", "3", "10000"])
    payload = json.loads(capsys.readouterr().out)
    difference = float(payload["difference"])
    ok = (code == 0 and payload["pass"] is True and difference < 1e-6
          and difference <= float(payload["tail_bound"]))
    with capsys.disabled():
        report(3, "Dirichlet-series identity at s=3, N=1e4", ok,
               f"difference={difference:.3e}, "
               f"tail_bound={float(payload['tail_bound']):.3e}")


def test_04_analytic_constants():
    with mp.workprec(200):
        e_z2 = abs(zeta_engine.zeta(2, 160).real - mp.pi**2 / 6)
        e_z0 = abs(zeta_engine.zeta(0, 160).real + mpf("0.5"))
        g0 = zeta_engine.stieltjes(0, 160)
        g1 = zeta_engine.stieltjes(1, 160)
        e_g0 = abs(g0 - zeta_engine.stieltjes(0, 160, cutoff=2 * 256))
        e_g1 = abs(g1 - zeta_engine.stieltjes(1, 160, cutoff=2 * 256))
        target = 3 / mp.pi**2
        e_a1 = max(
            abs(series.main_term_coefficients(m, precision=160).A1 - target)
            for m in ("paper", "exact")
        )
    ok = (e_z2 < mpf("1e-20") and e_z0 < mpf("1e-15")
          and e_g0 < mpf("1e-12") and e_g1 < mpf("1e-10")
          and e_a1 < mpf("1e-12"))
    report(4, "zeta(2), zeta(0), gamma, gamma_1, A1 = 3/pi^2", ok,
           f"|zeta2 err|={float(e_z2):.1e}, |zeta0 err|={float(e_z0):.1e}, "
           f"|g0 err|={float(e_g0):.1e}, |g1 err|={float(e_g1):.1e}, "
           f"|A1 err|={float(e_a1):.1e}")


def test_05_residue_oracle_equivalence(zero_coefficients):
    t0 = time.perf_counter()
    worst_rel = mpf(0)
    for x in (100.0, 1000.0, 1.0e5):
        _, expected = series.residue_main_term(x, mode="exact")
        circle = perron.residue_by_circle(1.0, 0.2, x, nodes=96)
        worst_rel = max(worst_rel, abs(circle.real - expected) / abs(expected))
    zero_res = perron.residue_by_circle(0.0, 0.15, 1000.0, nodes=96)
    e_quarter = abs(zero_res.real - mpf("0.25")) + abs(zero_res.imag)
    c = zero_coefficients[0]
    with mp.workprec(160):
        term = c.coefficient * mp.exp(c.rho_half * mp.ln(mpf(1000)))
    zcircle = perron.residue_by_circle(complex(c.rho_half), 0.05, 1000.0,
                                       nodes=128)
    e_zero_coeff = abs(zcircle - term) / abs(term)
    elapsed = time.perf_counter() - t0
    ok = (worst_rel < mpf("1e-8") and e_quarter < mpf("1e-6")
          and e_zero_coeff < mpf("1e-6") and elapsed < 120.0)
    report(5, "series residues vs circle quadrature", ok,
           f"s=1 rel={float(worst_rel):.1e}, s=0 err={float(e_quarter):.1e}, "
           f"first-zero rel={float(e_zero_coeff):.1e}, {elapsed:.1f} s")


def test_06_mode_discrepancy_closed_form():
    paper = series.main_term_coefficients("paper")
    exact = series.main_term_coefficients("exact")
    shift = exact.A2 - paper.A2
    e_closed = abs(shift - series.a2_mode_shift())
    ok = abs(shift) > 0 and e_closed < mpf("1e-10")
    report(6, "A2 mode discrepancy matches -2 zeta'(2)/zeta(2)^2", ok,
           f"shift={float(shift):.12f}, closed-form err={float(e_closed):.1e}")


def test_07_perron_truncation_decay():
    t0 = time.perf_counter()
    exact = sieve.prefix_sum(AF.D_SQUARE, 1000)
    rows, slope = perron.truncation_decay(1000.5, 2.0, [50, 100, 200, 400],
                                          exact)
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= slope <= -0.7 and elapsed < 300.0
    report(7, "Perron truncation-error slope in [-1.3, -0.7]", ok,
           f"slope={slope:.3f}, errors={[round(e, 1) for _, e, _, _ in rows]}, "
           f"{elapsed:.0f} s")


def test_08_explicit_formula_trend(zero_coefficients):
    t0 = time.perf_counter()
    grid = log_grid(1.0e3, 1.0e7, 25)
    rep = compare(grid, mode="exact", zero_coefficients=zero_coefficients,
                  cutoff=Cutoff("count", 100))
    elapsed = time.perf_counter() - t0
    bottom = max(abs(r.E) / r.x for r in rep.rows if r.x < 1.0e4)
    top = max(abs(r.E) / r.x for r in rep.rows if r.x >= 1.0e6)
    imag_warnings = [w for w in rep.warnings if "imaginary" in w]
    ok = top < bottom and not imag_warnings and elapsed < 180.0
    report(8, "explicit-formula |E|/x shrinks bottom decade -> top", ok,
           f"bottom={bottom:.5f}, top={top:.5f}, "
           f"imag warnings={len(imag_warnings)}, {elapsed:.0f} s")


MU_SQUARED_RESIDUAL_BOUND = 0.5  # recorded constant for |E| / sqrt(x)


def test_09_companion_sum_shapes():
    grid = log_grid(1.0e3, 1.0e6, 13)
    mu = compare(grid, function=AF.MU_SQUARED)
    worst_mu = max(abs(r.E) / math.sqrt(r.x) for r in mu.rows)
    om = compare(grid, function=AF.TWO_OMEGA, mode="paper")
    decade_max = defaultdict(float)
    for r in om.rows:
        decade_max[int(math.log10(r.x))] = max(
            decade_max[int(math.log10(r.x))], abs(r.E) / r.S_exact)
    trend = [decade_max[k] for k in sorted(decade_max)]
    shrinking = all(a > b for a, b in zip(trend, trend[1:]))
    ok = worst_mu < MU_SQUARED_RESIDUAL_BOUND and shrinking
    report(9, "companion-sum shapes (squarefree count, squarefree divisors)",
           ok,
           f"max |E|/sqrt(x)={worst_mu:.4f} < {MU_SQUARED_RESIDUAL_BOUND}, "
           f"relative-error decades={[round(t, 4) for t in trend]}")


def test_10_rectangle_consistency():
    check = perron.rectangle_consistency(1000.5)
    ok = check.discrepancy < 1e-6
    report(10, "rectangle contour vs enclosed residue", ok,
           f"discrepancy={check.discrepancy:.2e}")
