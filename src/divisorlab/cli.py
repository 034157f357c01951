"""Command-line entry point: every experiment as a reproducible subcommand.

Subcommands
    sum              exact prefix sum of one arithmetic function
    constants        analytic constants in both coefficient modes
    zeros import     ingest and validate a zero table
    zeros coeffs     compute and cache explicit-formula coefficients
    formula compare  exact sums vs. decomposition over a grid, CSV + JSON out
    formula conjecture  zero-sum growth scan against x^(1/3+eps)
    perron integral  one truncated Perron value
    perron decay     truncation-error decay table and fitted slope
    perron residue   small-circle residue quadrature
    dirichlet-verify Dirichlet-series identity check at a real point

A zero count K (--count, --zeros) takes the first K zeros of the file and
fails if the file holds fewer; the ordinates are used as written.  The
formula subcommands sum every zero they take.  --zeros needs a zeros path.
formula compare takes zeros for d_square only: two_omega and mu_squared have
zero sums and s = 0 residues too, but compare leaves both in their E.

Every subcommand works at divisorlab.DEFAULT_PRECISION (128 bits) except
constants, whose --precision-bits sets its working precision.  All numeric
output is serialized in decimal with explicit digit counts.  A subcommand
takes only the run settings (the _SETTINGS flags) its handler reads; each is
given by its flag and nothing else.  Float arguments must be finite.  A
failed run, a file it cannot read or write included, prints {"error",
"message"} JSON on stderr and exits 2.

Importing this module loads argparse, json and the sieve: mpmath and the
computation modules (formula, perron, series, zeros, zeta) are bound by
lazy_import and run at a handler's first use of them.  So --help and sum
never load mpmath, and every other subcommand loads it with the modules it
calls.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path

from . import DEFAULT_PRECISION, MODES, lazy_import, sieve
from .errors import DivisorLabError, DomainError
from .sieve import ArithmeticFunction

mpmath = lazy_import("mpmath")
formula, perron, series, zeros, zeta_engine = (
    lazy_import(f"divisorlab.{name}")
    for name in ("formula", "perron", "series", "zeros", "zeta"))

DIGITS = 20


def __getattr__(name: str):
    """compare and conjecture_scan, formula's, which the benchmark's tracer
    looks up here; formula is loaded only when one is asked for."""
    if name in ("compare", "conjecture_scan"):
        return getattr(formula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _num(value, digits: int = DIGITS) -> str:
    """`digits` significant digits; an mpf is formatted from all its bits."""
    return mpmath.nstr(value if isinstance(value, mpmath.mpf) else mpmath.mpf(value),
                       digits)


def _output_dir(args) -> Path:
    """The output directory, created now that a file is about to be written."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _import_zeros(path, count: int | None):
    if path is None:
        raise DomainError("no zeros path; pass --zeros-path")
    return zeros.import_zeros(path, limit_count=count)


def _coefficients(args, table: zeros.ZeroTable):
    """The table's coefficients, from the cache when one exists, else
    computed and, given a cache path, cached."""
    if args.cache_path and Path(args.cache_path).exists():
        coeffs = zeros.load_cache(args.cache_path, table)
    else:
        coeffs = zeros.coefficients_for_table(table)
        if args.cache_path:
            zeros.persist_cache(table, coeffs, args.cache_path)
    return coeffs


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sum(args) -> int:
    function = ArithmeticFunction(args.function)
    value = sieve.prefix_sum(function, args.x)
    _emit({"function": function.value, "x": args.x, "value": str(value)})
    return 0


def cmd_constants(args) -> int:
    prec = args.precision_bits
    with mpmath.workprec(prec + 16):
        paper = series.main_term_coefficients(3, "paper", prec)
        exact = series.main_term_coefficients(3, "exact", prec)
        a1p, a2p = series.main_term_coefficients(2, "paper", prec).terms
        at_one, at_two, _ = series.constant_jets(prec)
        payload = {
            "precision_bits": prec,
            "gamma": {str(m): _num((-1) ** m * at_one[m].real) for m in range(5)},
            "zeta_2": _num(at_two[0].real),
            "zeta_prime_2": _num(at_two[1].real),
            "zeta_0_squared": _num(exact.at_zero),
            "main_terms": {
                "paper": dict(zip(("A1", "A2", "A3"), map(_num, paper.terms))),
                "exact": dict(zip(("A1", "A2", "A3"), map(_num, exact.terms))),
                "A2_mode_shift": _num(series.a2_mode_shift(prec)),
            },
            "companion": {"A1_prime": _num(a1p), "A2_prime": _num(a2p)},
        }
    _emit(payload)
    return 0


def cmd_zeros_import(args) -> int:
    table = _import_zeros(args.zeros_path, args.count)
    _emit({
        "count": len(table),
        "source_digest": table.source_digest,
        "first": _num(table.ordinates[0]),
        "last": _num(table.ordinates[-1]),
    })
    return 0


def cmd_zeros_coeffs(args) -> int:
    coeffs = _coefficients(args, _import_zeros(args.zeros_path, args.count))
    with mpmath.workprec(DEFAULT_PRECISION + 16):
        sum_2_abs = sum(2 * abs(c.coefficient) for c in coeffs)
    _emit({
        "count": len(coeffs),
        "cache_path": args.cache_path,
        "sum_2_abs": _num(sum_2_abs),
        "first_coefficient": {
            "re": _num(coeffs[0].coefficient.real, 30),
            "im": _num(coeffs[0].coefficient.imag, 30),
        },
    })
    return 0


def cmd_formula_compare(args) -> int:
    function = ArithmeticFunction(args.function)
    d_square = function is ArithmeticFunction.D_SQUARE
    if args.zeros is not None:
        formula.check_takes_zeros(function)
    grid = formula.log_grid(args.grid_start, args.grid_stop, args.grid_count)
    coeffs = None
    if d_square and (args.zeros_path or args.zeros is not None):
        coeffs = _coefficients(args, _import_zeros(args.zeros_path, args.zeros))
    report = formula.compare(grid, function=function, mode=args.mode,
                     zero_coefficients=coeffs)
    out = _output_dir(args)
    csv_path = out / f"compare_{function.value}.csv"
    json_path = out / f"compare_{function.value}.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    _emit({"csv": str(csv_path), "json": str(json_path), **report.summary()})
    return 0


def cmd_formula_conjecture(args) -> int:
    grid = formula.log_grid(args.grid_start, args.grid_stop, args.grid_count)
    coeffs = _coefficients(args, _import_zeros(args.zeros_path, args.zeros))
    scan = formula.conjecture_scan(grid, coeffs, epsilon=args.epsilon)
    out = _output_dir(args) / "conjecture_scan.json"
    payload = {
        "epsilon": scan.epsilon,
        "sup_ratio": scan.sup_ratio,
        "argmax_x": scan.argmax_x,
        "zeros_used": scan.zeros_used,
        "trace": [{"x": x, "abs_zero_sum": v, "ratio": r} for x, v, r in scan.trace],
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _emit({"json": str(out), **{k: payload[k] for k in
                                ("epsilon", "sup_ratio", "argmax_x", "zeros_used")}})
    return 0


def cmd_perron_integral(args) -> int:
    values, gaps, bounds = perron.perron_sweep(args.x, args.c, [args.T])
    # The value is real by conjugate symmetry; "imag" stays in the payload.
    _emit({"x": args.x, "c": args.c, "T": args.T,
           "real": _num(float(values[0])), "imag": _num(0.0),
           "quadrature_gap": float(gaps[0]), "error_bound": float(bounds[0])})
    return 0


def cmd_perron_decay(args) -> int:
    rows, slope = perron.truncation_decay(args.x, args.c, args.T)
    out = _output_dir(args) / "perron_decay.csv"
    with open(out, "w") as fh:
        fh.write("T,abs_error,quadrature_gap,error_bound\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    _emit({"csv": str(out), "slope": slope,
           "rows": [{"T": T, "abs_error": err, "quadrature_gap": gap, "error_bound": bound}
                    for T, err, gap, bound in rows]})
    return 0


def cmd_perron_residue(args) -> int:
    center = complex(args.center_re, args.center_im)
    value = perron.residue_by_circle(center, args.radius, args.x, args.nodes,
                                     verify_radius=args.verify_radius)
    _emit({"center": [args.center_re, args.center_im], "radius": args.radius,
           "x": args.x, "real": _num(value.real), "imag": _num(value.imag)})
    return 0


#: Largest N dirichlet-verify accepts: its n^-s table holds about 85 bytes per n.
MAX_VERIFY_N = 10**7

#: Each n^-s row of dirichlet_powers_fixed at real s > 1 is within this many
#: units of 2^-wp: 2^8 (1 + (1 + s ln n) n^-s), and (1 + t) e^-t <= 1.
ROW_UNITS = 2**9


def cmd_dirichlet_verify(args) -> int:
    """Check the Dirichlet-series identity sum d(n^2) n^-s = zeta^3(s)/zeta(2s).

    Every term is positive, so closed - partial must lie between -slack, the
    two sides' stated rounding, and the tail bound past N.
    """
    s, N = args.s, args.N
    if s <= 1:
        raise DomainError("s must exceed 1 for absolute convergence")
    if not 1 <= N <= MAX_VERIFY_N:
        raise DomainError(f"N must be between 1 and {MAX_VERIFY_N}")
    M = max(N, 10**4)
    prec = DEFAULT_PRECISION
    values = sieve.build_sieve(M, ArithmeticFunction.D_SQUARE)
    with mpmath.workprec(prec + 16):
        # n^-s in fixed point from the engine's multiplicative rule.  Since
        # d(n^2) <= 2n the weights sum below 2^(2 bitlen M); 8 more bits
        # absorb the few units of rounding in each n^-s.
        wp = mpmath.mp.prec + 2 * M.bit_length() + 8
        powers = zeta_engine.dirichlet_powers_fixed(mpmath.mpc(s), M + 1, wp)[0]
        rows = zip(values.tolist(), powers)  # n = 0..M; row 0 is 0
        partial = mpmath.mpf((sum(v * p for v, p in islice(rows, N + 1)), -wp))
        # the exact terms N < n <= M, each rounded up by its row's units
        tail_bound = (mpmath.mpf((sum(v * (p + ROW_UNITS) for v, p in rows), -wp))
                      + _tail_bound(s, M))
        (zeta_s,), (zeta_2s,) = zeta_engine.zeta_pair(s, 0, 0, prec)
        closed = (zeta_s ** 3 / zeta_2s).real
        difference = closed - partial
        # the rows' units over the partial sum; four engine values to prec bits
        slack = (mpmath.mpf((ROW_UNITS * int(values[: N + 1].sum()), -wp))
                 + closed * mpmath.mpf(2) ** (3 - prec))
    passed = -slack <= difference <= tail_bound
    _emit({
        "s": s, "N": N,
        "partial_sum": _num(partial, 25),
        "closed_form": _num(closed, 25),
        "difference": _num(difference),
        "tail_bound": _num(tail_bound),
        "pass": passed,
    })
    return 0 if passed else 1


def _tail_bound(s: float, M: int) -> mpmath.mpf:
    """Upper bound on sum_{n>M} d(n^2) n^-s for s > 1 and M >= 1e4.

    Neither rule uses the identity under test.  For s >= 2.8: past 1e4,
    d(n^2) <= d(n)^(log2 3) <= n^(C ln 3 / ln ln n) <= n^0.9, C = 1.53794
    (Nicolas and Robin 1983: d(n) <= n^(C ln 2 / ln ln n) for n >= 3), and
    the sum is at most the integral of u^(0.9 - s) from M.  Below 2.8, by
    Rankin's trick: d(n^2) <= d_3(n), since 2a + 1 <= C(a + 2, 2), and for
    1 < sigma <= s each n > M has n^-s <= M^(sigma - s) n^-sigma, so the sum
    is at most M^(sigma - s) zeta(sigma)^3 <= M^(sigma - s) (sigma / (sigma - 1))^3.
    sigma = (1 + sqrt(1 + 12 / ln M)) / 2 minimizes it; sigma is capped at s.
    """
    if s >= 2.8:
        exponent = mpmath.mpf(s) - mpmath.mpf("0.9") - 1
        return mpmath.power(M, -exponent) / exponent
    sigma = min(mpmath.mpf(s), (1 + mpmath.sqrt(1 + 12 / mpmath.ln(M))) / 2)
    return mpmath.power(M, sigma - s) * (sigma / (sigma - 1)) ** 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


#: argparse keywords of each run setting's flag --<key with dashes>.
_SETTINGS = {
    "precision_bits": {"type": int, "default": DEFAULT_PRECISION},
    "zeros_path": {},
    "cache_path": {},
    "output_dir": {"default": "."},
    "mode": {"choices": MODES, "default": "exact"},
}


def _command(p: argparse.ArgumentParser, handler, *settings: str) -> None:
    """Bind handler to p with flags for the settings it reads."""
    for key in settings:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **_SETTINGS[key])
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divisorlab",
        description="Divisor-square summatory function: exact sums, residues, "
                    "zero sums, and Perron contour verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    zeros_settings = ("zeros_path", "cache_path")

    p = sub.add_parser("sum", help="exact prefix sum")
    p.add_argument("function", choices=[f.value for f in ArithmeticFunction])
    p.add_argument("x", type=int)
    _command(p, cmd_sum)

    p = sub.add_parser("constants", help="analytic constants, both modes")
    _command(p, cmd_constants, "precision_bits")

    pz = sub.add_parser("zeros", help="zero table operations")
    zsub = pz.add_subparsers(dest="zeros_command", required=True)
    p = zsub.add_parser("import", help="ingest and validate a zero file")
    p.add_argument("--count", type=int)
    _command(p, cmd_zeros_import, "zeros_path")
    p = zsub.add_parser("coeffs", help="compute/cache zero coefficients")
    p.add_argument("--count", type=int)
    _command(p, cmd_zeros_coeffs, *zeros_settings)

    pf = sub.add_parser("formula", help="explicit-formula experiments")
    fsub = pf.add_subparsers(dest="formula_command", required=True)
    p = fsub.add_parser("compare", help="exact sums vs decomposition over a grid")
    p.add_argument("--function", default="d_square",
                   choices=["d_square", "two_omega", "mu_squared"])
    p.add_argument("--grid-start", type=finite_float, default=1e3)
    p.add_argument("--grid-stop", type=finite_float, default=1e6)
    p.add_argument("--grid-count", type=int, default=13)
    p.add_argument("--zeros", type=int, help="import the first K zeros")
    _command(p, cmd_formula_compare, *zeros_settings, "output_dir", "mode")
    p = fsub.add_parser("conjecture", help="zero-sum growth scan")
    p.add_argument("--grid-start", type=finite_float, default=1e3)
    p.add_argument("--grid-stop", type=finite_float, default=1e6)
    p.add_argument("--grid-count", type=int, default=13)
    p.add_argument("--zeros", type=int)
    p.add_argument("--epsilon", type=finite_float, default=0.01)
    _command(p, cmd_formula_conjecture, *zeros_settings, "output_dir")

    pp = sub.add_parser("perron", help="contour experiments")
    psub = pp.add_subparsers(dest="perron_command", required=True)
    p = psub.add_parser("integral", help="one truncated Perron value")
    p.add_argument("x", type=finite_float)
    p.add_argument("--c", type=finite_float, default=1.5)
    p.add_argument("--T", type=finite_float, default=100.0)
    _command(p, cmd_perron_integral)
    p = psub.add_parser("decay", help="truncation decay table")
    p.add_argument("x", type=finite_float)
    p.add_argument("--c", type=finite_float, default=2.0)
    p.add_argument("--T", type=finite_float, nargs="+", default=[50, 100, 200, 400])
    _command(p, cmd_perron_decay, "output_dir")
    p = psub.add_parser("residue", help="small-circle residue quadrature")
    p.add_argument("--center-re", type=finite_float, required=True)
    p.add_argument("--center-im", type=finite_float, default=0.0)
    p.add_argument("--radius", type=finite_float, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--verify-radius", action="store_true")
    _command(p, cmd_perron_residue)

    p = sub.add_parser("dirichlet-verify",
                       help="Dirichlet-series identity check at real s > 1")
    p.add_argument("s", type=finite_float)
    p.add_argument("N", type=int)
    _command(p, cmd_dirichlet_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        zeros_path = getattr(args, "zeros_path", None)
        if zeros_path is not None and not Path(zeros_path).exists():
            raise DomainError(f"zeros path {zeros_path} does not exist")
        return args.handler(args)
    except (DivisorLabError, OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
