"""The benchmark's three workloads: seeded inputs, operations and output checks.

Every operation goes through divisorlab.cli.main(argv), except the rectangle
check, which has no subcommand and is called as perron.rectangle_consistency.
A seed moves evaluation points (grid ends, x, which zero pole) but never the
problem size, so run times stay comparable across seeds.  Each output is
checked after the timed pass against a reference from oracles.py.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import oracles

ZEROS_FILE = "data/zeros_first_100.txt"
ZERO_COUNT = 100
#: Digits a float64 result can carry; decimal strings carry one less than printed.
FLOAT_DIGITS = 16.0
#: Relative tolerance for float64 results against a multiprecision reference;
#: a 1e-12 relative perturbation of any such result fails it.  It also applies
#: to the values `perron residue`, `dirichlet-verify` and `zeros coeffs` print:
#: the CLI formats them after leaving its working precision, at 53 bits.
FLOAT_TOL = 1e-13
#: Unit roundoff of float64.  Values the program forms in float64 from large
#: or oscillating parts (E = S - main - zero sum, zero sums whose phases reach
#: (gamma/2) log x ~ 2e3 rad) are checked against a few roundoffs of those
#: parts' sizes, the error a float64 evaluation can carry.
EPS = 2.0 ** -53
#: Cached coefficients against mpmath at the table ordinate.  coefficient_for
#: rounds the ordinate to 53 bits, which costs up to 8.4e-14 relative on the
#: 100-zero table; min_correct_digits reports that loss.
COEFF_TOL = 2e-13


@dataclass
class Check:
    name: str
    ok: bool
    digits: float | None = None
    detail: str = ""


@dataclass
class Op:
    """One timed operation and the untimed checks on what it returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Check]]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    setup: Op | None = None
    notes: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """divisorlab.cli.main(argv) with stdout and stderr captured."""
    from divisorlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _payload(name: str, result) -> tuple[dict | None, list[Check]]:
    rc, text = result
    if rc != 0:
        return None, [Check(f"{name}.exit", False, detail=f"rc={rc}: {text[-300:]}")]
    return json.loads(text), []


def _close(name: str, got, ref, tol: float, cap: float) -> Check:
    """Relative agreement check that also reports the digits reached."""
    err = abs(got - ref)
    ok = err <= tol * abs(ref)
    return Check(name, bool(ok), oracles.correct_digits(got, ref, cap),
                 "" if ok else f"got {got}, want {ref}")


def _rel(got: float, want: float) -> bool:
    """Agreement to a few float64 roundoffs, for values derived from others."""
    return abs(got - want) <= 4 * EPS * abs(want)


def _mp(text: str):
    return mpmath.mpf(text)


def _string_close(name: str, text: str, ref, printed: int,
                  tol: float | None = None) -> Check:
    """A value printed with `printed` significant digits against an mp reference;
    the tolerance defaults to the printed resolution."""
    with mpmath.workdps(60):
        return _close(name, _mp(text), ref, tol or 10.0 ** (1 - printed), printed - 1)


def _read_cache(path: Path) -> list[tuple]:
    """(gamma, A) pairs from a coefficient cache file, at its 30 digits."""
    out = []
    with mpmath.workdps(40):
        for line in path.read_text().splitlines():
            if line and not line.startswith("#"):
                g, cre, cim = (mpmath.mpf(v) for v in line.split()[:3])
                out.append((g, mpmath.mpc(cre, cim)))
    return out


def _zero_table(root: Path) -> list:
    with mpmath.workdps(40):
        lines = (raw.split("#", 1)[0].strip()
                 for raw in (root / ZEROS_FILE).read_text().splitlines())
        return [mpmath.mpf(line) for line in lines if line][:ZERO_COUNT]


def _coeffs_op(root: Path, cache: Path, name: str) -> Op:
    """`zeros coeffs` from a cold cache: computes and writes every coefficient.

    Every cached coefficient is checked against a recomputation with
    mpmath.zeta at the table's ordinate; the references are made once.
    """
    gammas = _zero_table(root)
    refs: list = []

    def check(result):
        payload, fails = _payload(name, result)
        if payload is None:
            return fails
        if not refs:
            refs.extend(oracles.zero_coefficient(g) for g in gammas)
        cached = _read_cache(cache)
        checks = [Check("coeffs.count", len(cached) == payload["count"] == ZERO_COUNT,
                        detail=f"{len(cached)} rows")]
        with mpmath.workdps(40):
            for k, ((g, a), ref) in enumerate(zip(cached, refs)):
                checks.append(_close(f"coeffs.gamma[{k}]", g, gammas[k], 1e-15, 29))
                checks.append(_close(f"coeffs.A[{k}]", a, ref, COEFF_TOL, 29))
            got = mpmath.mpc(_mp(payload["first_coefficient"]["re"]),
                             _mp(payload["first_coefficient"]["im"]))
            checks.append(_close(f"{name}.first", got, refs[0], COEFF_TOL, 29))
            total = sum(2 * abs(a) for _, a in cached)
            checks.append(_string_close(f"{name}.sum_2_abs", payload["sum_2_abs"],
                                        total, 20, FLOAT_TOL))
        return checks

    return Op(name,
              lambda: run_cli(["zeros", "coeffs", "--count", str(ZERO_COUNT),
                               "--zeros-path", str(root / ZEROS_FILE),
                               "--cache-path", str(cache)]),
              check, prepare=lambda: cache.unlink(missing_ok=True))


# ---------------------------------------------------------------------------
# formula_grid
# ---------------------------------------------------------------------------

def _grid(start: float, stop: float, count: int) -> list[float]:
    from divisorlab.formula import log_grid

    return log_grid(start, stop, count)


D_GRID, C_GRID, J_GRID = 25, 13, 2000


def formula_grid(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(seed)
    x_sum = 10 ** 7 + rng.randrange(-50_000, 50_000)
    d_stop = 1e7 * (1 + rng.uniform(-0.01, 0.01))
    d_start = 1e3 * (1 + rng.uniform(0.0, 0.05))
    c_stop = 3e6 * (1 + rng.uniform(-0.01, 0.01))
    j_stop = 1e12 * (1 + rng.uniform(-0.01, 0.01))
    d_grid = _grid(d_start, d_stop, D_GRID)
    c_grid = _grid(d_start, c_stop, C_GRID)
    cache = work / "coeffs.txt"
    zeros_path = str(root / ZEROS_FILE)
    analytic = oracles.Analytic()
    mu = oracles.mobius_upto(4000)
    exact = {f: {int(x): oracles.exact_sum(f, int(x), mu) for x in grid}
             for f, grid in (("d_square", d_grid), ("two_omega", c_grid),
                             ("mu_squared", c_grid))}
    exact["d_square"][x_sum] = oracles.exact_sum("d_square", x_sum, mu)
    # The reference route itself, against trial division at small x.
    small = range(1 + seed % 7, 2001, 7)
    route_ok = all(
        np.array_equal(np.cumsum(oracles.trial_division_values(f, 2000))[[x - 1 for x in small]],
                       [oracles.exact_sum(f, x, mu) for x in small])
        for f in oracles.DIVISOR_ORDER)
    zero_refs: dict[float, tuple] = {}

    def zero_ref(x: float):
        if x not in zero_refs:
            zero_refs[x] = oracles.zero_sum(x, _read_cache(cache))
        return zero_refs[x]

    def check_sum(result):
        payload, fails = _payload("sum", result)
        if payload is None:
            return fails
        return [Check("sum.value", int(payload["value"]) == exact["d_square"][x_sum],
                      detail=f"x={x_sum}"),
                Check("oracle.trial_division", route_ok)]

    def compare_op(function: str, stop: float, count: int, main_ref) -> Op:
        grid = _grid(d_start, stop, count)
        argv = ["formula", "compare", "--function", function,
                "--grid-start", repr(d_start), "--grid-stop", repr(stop),
                "--grid-count", str(count), "--output-dir", str(work)]
        if function == "d_square":
            argv += ["--zeros", str(ZERO_COUNT), "--zeros-path", zeros_path,
                     "--cache-path", str(cache)]

        def check(result):
            payload, fails = _payload(function, result)
            if payload is None:
                return fails
            with open(work / f"compare_{function}.csv") as fh:
                rows = list(csv.DictReader(fh))
            checks = [Check(f"{function}.rows", len(rows) == len(grid)
                            and payload["rows"] == len(grid) and not payload["warnings"],
                            detail=str(payload["warnings"]))]
            for row, x in zip(rows, grid):
                s, main, zs = int(row["S"]), float(row["main"]), float(row["zero_sum"])
                checks.append(Check(f"{function}.S({x})",
                                    float(row["x"]) == x and s == exact[function][int(x)]))
                checks.append(_close(f"{function}.main({x})", main, main_ref(x),
                                     FLOAT_TOL, FLOAT_DIGITS))
                e = float(row["E"])
                checks.append(Check(f"{function}.E({x})",
                                    abs(e - (s - main - zs)) <= 4 * EPS * (s + abs(main) + abs(zs))
                                    and _rel(float(row["E_x14"]), e / x ** 0.25)
                                    and _rel(float(row["E_x13"]), e / x ** (1.0 / 3.0))))
                checks.append(Check(f"{function}.zeros_used({x})", int(row["zeros_used"])
                                    == (2 * ZERO_COUNT if function == "d_square" else 0)
                                    and (function == "d_square" or zs == 0.0)))
                if function == "d_square":
                    # Digits relative to the sum of term magnitudes: the zero sum
                    # itself can cancel to near zero.
                    ref, scale, phase_scale = zero_ref(x)
                    err = abs(zs - ref)
                    checks.append(Check(
                        f"zero_sum({x})", err <= 8 * EPS * phase_scale,
                        oracles.correct_digits(zs, ref, FLOAT_DIGITS, scale),
                        f"err {float(err):.3e} bound {float(8 * EPS * phase_scale):.3e}"))
            for key, column in (("max_abs_E", "E"), ("max_abs_E_over_x14", "E_x14"),
                                ("max_abs_E_over_x13", "E_x13")):
                checks.append(Check(f"{function}.{key}", payload[key] == max(
                    abs(float(row[column])) for row in rows)))
            return checks

        return Op(f"compare_{function}", lambda: run_cli(argv), check)

    def check_conjecture(result):
        payload, fails = _payload("conjecture", result)
        if payload is None:
            return fails
        scan = json.loads((work / "conjecture_scan.json").read_text())
        coeffs = _read_cache(cache)
        trace = scan["trace"]
        xs = np.array([row["x"] for row in trace])
        got = np.array([row["abs_zero_sum"] for row in trace])
        ref, phase_scale = oracles.zero_sum_f64(xs, coeffs)
        # Both sides are float64 here, so the bound is twice the one above.
        excess = np.abs(got - np.abs(ref)) / (16 * EPS * phase_scale)
        ratios = [row["ratio"] for row in trace]
        best = max(range(len(trace)), key=ratios.__getitem__)
        return [
            Check("conjecture.grid", np.array_equal(xs, _grid(1e3, j_stop, J_GRID))),
            Check("conjecture.zero_sum", bool(np.all(excess <= 1)),
                  detail=f"worst error / bound {float(excess.max()):.2e}"),
            Check("conjecture.ratio", all(
                _rel(r, row["abs_zero_sum"] / row["x"] ** (1.0 / 3.0 + scan["epsilon"]))
                for r, row in zip(ratios, trace))),
            Check("conjecture.sup", payload["sup_ratio"] == scan["sup_ratio"] == ratios[best]
                  and payload["argmax_x"] == scan["argmax_x"] == trace[best]["x"]
                  and payload["zeros_used"] == scan["zeros_used"] == 2 * ZERO_COUNT),
        ]

    return Workload(
        setup=_coeffs_op(root, cache, "coeffs_cold"),
        ops=[
            Op("sum", lambda: run_cli(["sum", "d_square", str(x_sum)]), check_sum),
            compare_op("d_square", d_stop, D_GRID, analytic.main_value),
            compare_op("two_omega", c_stop, C_GRID, analytic.two_omega_main),
            compare_op("mu_squared", c_stop, C_GRID, analytic.mu_squared_main),
            Op("conjecture", lambda: run_cli(
                ["formula", "conjecture", "--grid-start", "1e3", "--grid-stop",
                 repr(j_stop), "--grid-count", str(J_GRID), "--zeros", str(ZERO_COUNT),
                 "--zeros-path", zeros_path, "--cache-path", str(cache),
                 "--output-dir", str(work)]), check_conjecture),
        ],
        notes={"x_sum": x_sum, "grid_stop": d_grid[-1]},
    )


# ---------------------------------------------------------------------------
# perron_lines
# ---------------------------------------------------------------------------

def perron_lines(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(seed)
    x = 1000.5 + rng.randrange(-50, 50)
    T_list = [50, 100, 200, 400]
    analytic = oracles.Analytic()
    d_sq = oracles.d_square_values(int(50 * x))
    s_exact = int(d_sq[: int(x)].sum())
    bound = {(c, T): oracles.perron_truncation_bound(x, c, T, d_sq)
             for c, T in [(2.0, T) for T in T_list] + [(1.5, 100)]}
    residue = analytic.main_value(x, include_constant=False)
    # Fixed points on the decay (c = 2) and integral (c = 1.5) lines where the
    # float64 engine is checked; F does not depend on x, so neither do they.
    s_nodes = ([complex(2.0, t) for t in np.linspace(-400, 400, 33)]
               + [complex(1.5, t) for t in np.linspace(-100, 100, 9)])
    f_refs = [complex(oracles.dirichlet_quotient(s)) for s in s_nodes]

    def check_decay(result):
        payload, fails = _payload("decay", result)
        if payload is None:
            return fails
        rows = payload["rows"]
        # The fitted slope is recomputed the way truncation_decay fits it.
        slope = float(np.polyfit(np.log([r["T"] for r in rows]),
                                 np.log([max(r["abs_error"], 1e-300) for r in rows]), 1)[0])
        checks = [Check("decay.rows", [r["T"] for r in rows] == T_list
                        and abs(payload["slope"] - slope) <= 1e-9 * abs(slope),
                        detail=f"slope {payload['slope']}")]
        for r in rows:
            b = bound[(2.0, r["T"])]
            checks.append(Check(f"decay.T{r['T']}", 0 <= r["abs_error"] <= b,
                                detail=f"{r['abs_error']} vs bound {b}"))
        return checks + f64_checks()

    def f64_checks():
        from divisorlab.zeta import dirichlet_quotient_f64

        got = dirichlet_quotient_f64(np.array(s_nodes))
        return [_close(f"zeta_f64({s})", g, r, 1e-11, FLOAT_DIGITS)
                for s, g, r in zip(s_nodes, got, f_refs)]

    def check_integral(result):
        payload, fails = _payload("integral", result)
        if payload is None:
            return fails
        re, im = float(payload["real"]), float(payload["imag"])
        b = bound[(1.5, 100)]
        return [Check("integral.truncation", abs(re - s_exact) <= b,
                      detail=f"|{re} - {s_exact}| vs bound {b}"),
                Check("integral.conjugate_symmetry", abs(im) <= 1e-10 * abs(re),
                      detail=f"imag {im}")]

    def check_rectangle(rect):
        return [
            _close("rectangle.residue", rect.residue_value, residue, FLOAT_TOL,
                   FLOAT_DIGITS),
            _close("rectangle.contour", rect.contour_value, residue, FLOAT_TOL,
                   FLOAT_DIGITS),
            Check("rectangle.discrepancy", rect.discrepancy <= FLOAT_TOL * float(residue),
                  detail=f"{rect.discrepancy}"),
        ]

    def rectangle():
        from divisorlab import perron

        return perron.rectangle_consistency(x)

    return Workload(
        ops=[
            Op("decay", lambda: run_cli(
                ["perron", "decay", repr(x), "--T", *map(str, T_list),
                 "--output-dir", str(work)]), check_decay),
            Op("integral", lambda: run_cli(
                ["perron", "integral", repr(x), "--c", "1.5", "--T", "100"]),
               check_integral),
            Op("rectangle", rectangle, check_rectangle),
        ],
        notes={"x": x},
    )


# ---------------------------------------------------------------------------
# mp_residues
# ---------------------------------------------------------------------------

def mp_residues(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    x = 1000.5 + rng.randrange(-50, 50)
    gammas = _zero_table(root)
    analytic = oracles.Analytic()
    with mpmath.workdps(40):
        pole_ref = oracles.zero_pole_residue(k, x)
        closed = mpmath.zeta(3) ** 3 / mpmath.zeta(6)
        d_sq = oracles.d_square_values(10_000)
        partial = mpmath.fsum(int(v) * mpmath.mpf(n) ** -3
                              for n, v in enumerate(d_sq, start=1))
        # dirichlet-verify bounds the tail past N = 1e4 by the integral of
        # n^0.9 n^-s, which is closed-form when N is already 1e4.
        tail = mpmath.power(10 ** 4, -mpmath.mpf("1.1")) / mpmath.mpf("1.1")
        difference = closed - partial
    outputs: dict[int, dict] = {}

    def constants_op(bits: int) -> Op:
        def check(result):
            payload, fails = _payload(f"constants{bits}", result)
            if payload is None:
                return fails
            outputs[bits] = payload
            a = analytic
            refs = {f"gamma{m}": (payload["gamma"][str(m)], a.gamma[m]) for m in range(5)}
            refs["zeta_2"] = (payload["zeta_2"], a.pi_squared_over_6)
            refs["zeta_prime_2"] = (payload["zeta_prime_2"], a.zeta2[1])
            refs["zeta_0_squared"] = (payload["zeta_0_squared"], mpmath.mpf(1) / 4)
            refs["A2_mode_shift"] = (payload["main_terms"]["A2_mode_shift"], a.a2_shift)
            for mode in ("paper", "exact"):
                for i, key in enumerate(("A1", "A2", "A3")):
                    refs[f"{mode}.{key}"] = (payload["main_terms"][mode][key],
                                             a.main[mode][i])
            refs["A1_prime"] = (payload["companion"]["A1_prime"], a.companion[0])
            refs["A2_prime"] = (payload["companion"]["A2_prime"], a.companion[1])
            checks = [_string_close(f"constants{bits}.{name}", got, ref, 20)
                      for name, (got, ref) in refs.items()]
            if bits == 192 and 128 in outputs:
                low = _flatten(outputs[128])
                high = _flatten(payload)
                checks.append(Check("constants.128_vs_192", all(
                    abs(_mp(low[key]) - _mp(high[key])) <= 2e-19 * abs(_mp(high[key]))
                    for key in high if key != "precision_bits")))
            return checks

        return Op(f"constants{bits}", lambda: run_cli(
            ["constants", "--precision-bits", str(bits)]), check,
            prepare=lambda: outputs.pop(bits, None))

    def check_residue_one(result):
        from divisorlab import series

        payload, fails = _payload("residue_s1", result)
        if payload is None:
            return fails
        _, own = series.residue_main_term(x)
        return [_string_close("residue_s1.oracle", payload["real"],
                              analytic.main_value(x, include_constant=False), 20,
                              FLOAT_TOL),
                _string_close("residue_s1.series", payload["real"], own, 20, FLOAT_TOL),
                Check("residue_s1.imag", abs(_mp(payload["imag"])) <= 1e-20 * abs(own))]

    def check_residue_zero(result):
        payload, fails = _payload("residue_zero", result)
        if payload is None:
            return fails
        with mpmath.workdps(40):
            got = mpmath.mpc(_mp(payload["real"]), _mp(payload["imag"]))
            return [_close("residue_zero.A_x_rho", got, pole_ref, FLOAT_TOL, 19)]

    def check_dirichlet(result):
        payload, fails = _payload("dirichlet", result)
        if payload is None:
            return fails
        return [Check("dirichlet.pass", payload["pass"] is True),
                _string_close("dirichlet.closed_form", payload["closed_form"], closed, 25,
                              FLOAT_TOL),
                _string_close("dirichlet.partial_sum", payload["partial_sum"], partial, 25,
                              FLOAT_TOL),
                _string_close("dirichlet.difference", payload["difference"],
                              difference, 20, FLOAT_TOL),
                _string_close("dirichlet.tail_bound", payload["tail_bound"], tail, 20,
                              FLOAT_TOL)]

    return Workload(
        ops=[
            constants_op(128),
            constants_op(192),
            _coeffs_op(root, work / "mp_coeffs.txt", "coeffs_cold"),
            Op("residue_s1", lambda: run_cli(
                ["perron", "residue", "--center-re", "1", "--radius", "0.2",
                 "--x", repr(x), "--verify-radius"]), check_residue_one),
            Op("residue_zero", lambda: run_cli(
                ["perron", "residue", "--center-re", "0.25", "--center-im",
                 repr(float(gammas[k - 1]) / 2), "--radius", "0.2", "--x", repr(x)]),
               check_residue_zero),
            Op("dirichlet", lambda: run_cli(["dirichlet-verify", "3", "10000"]),
               check_dirichlet),
        ],
        notes={"zero_index": k, "x": x},
    )


def _flatten(payload: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


WORKLOADS = {"formula_grid": formula_grid, "perron_lines": perron_lines,
             "mp_residues": mp_residues}
