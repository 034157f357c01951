"""Command-line entry point: every experiment as a reproducible subcommand.

Subcommands
    sum              exact prefix sum of one arithmetic function
    constants        analytic constants in both coefficient modes
    zeros import     ingest/validate (optionally polish) a zero table
    zeros coeffs     compute and cache explicit-formula coefficients
    formula compare  exact sums vs. decomposition over a grid, CSV + JSON out
    formula conjecture  zero-sum growth scan against x^(1/3+eps)
    perron integral  one truncated Perron value
    perron decay     truncation-error decay table and fitted slope
    perron residue   small-circle residue quadrature
    dirichlet-verify Dirichlet-series identity check at a real point

All numeric output is serialized in decimal with explicit digit counts.  A
subcommand takes only the settings (RunConfig fields) its handler reads, as
flags or as keys of a config file (key = value lines; flags win); it checks
the file's other keys but ignores them.  The zeros path may also come from
the DIVISORLAB_ZEROS environment variable (the only environment override).
Float arguments must be finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpc, mpf

from .errors import DivisorLabError, DomainError
from . import perron, series, sieve, zeros
from . import zeta as zeta_engine
from .formula import Cutoff, compare, conjecture_scan, log_grid
from .sieve import ArithmeticFunction

DIGITS = 20


@dataclass
class RunConfig:
    precision_bits: int = zeta_engine.DEFAULT_PRECISION
    zeros_path: str | None = None
    cache_path: str | None = None
    output_dir: str = "."
    workers: int = 1
    mode: str = "exact"

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        """The settings the subcommand reads (args.settings): defaults, then
        the config file, DIVISORLAB_ZEROS, the flags and zeros import's path,
        each overriding the last.  Every key in the file is checked."""
        cfg, read = cls(), args.settings
        if getattr(args, "config", None):
            for where, key, value in _read_config_file(args.config):
                if not hasattr(cfg, key):
                    raise DomainError(f"{where}: unknown config key {key!r}")
                if key == "mode" and value not in series.MODES:
                    raise DomainError(f"{where}: mode must be 'paper' or 'exact'")
                if isinstance(getattr(cfg, key), int):
                    try:
                        value = int(value)
                    except ValueError:
                        raise DomainError(
                            f"{where}: {key} must be an integer, got {value!r}"
                        ) from None
                if key in read:
                    setattr(cfg, key, value)
        env_zeros = os.environ.get("DIVISORLAB_ZEROS")
        if env_zeros and "zeros_path" in read and cfg.zeros_path is None:
            cfg.zeros_path = env_zeros
        for key in read:
            if getattr(args, key) is not None:
                setattr(cfg, key, getattr(args, key))
        if getattr(args, "path", None):
            cfg.zeros_path = args.path
        if cfg.workers < 1:
            raise DomainError("worker count must be >= 1")
        if cfg.zeros_path is not None and not Path(cfg.zeros_path).exists():
            raise DomainError(f"zeros path {cfg.zeros_path} does not exist")
        return cfg


def _read_config_file(path) -> list[tuple[str, str, str]]:
    """("path:line", key, value) for each setting, in file order."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out.append((f"{path}:{lineno}", key, value))
    return out


def _num(value, digits: int = DIGITS) -> str:
    """`digits` significant digits; an mpf is formatted from all its bits."""
    return mp.nstr(value if isinstance(value, mpf) else mpf(value), digits)


def _output_dir(cfg: RunConfig) -> Path:
    """The output directory, created now that a file is about to be written."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _import_zeros(cfg: RunConfig, count: int | None, refine: bool):
    if cfg.zeros_path is None:
        raise DomainError(
            "no zeros path; pass --zeros-path, set it in the config file, "
            "or export DIVISORLAB_ZEROS"
        )
    return zeros.import_zeros(cfg.zeros_path, limit_count=count, refine=refine,
                              precision=cfg.precision_bits)


def _table_and_coefficients(cfg: RunConfig, count: int | None, refine: bool):
    table = _import_zeros(cfg, count, refine)
    if cfg.cache_path and Path(cfg.cache_path).exists():
        coeffs = zeros.load_cache(cfg.cache_path, table, cfg.precision_bits)
    else:
        coeffs = zeros.coefficients_for_table(table, cfg.precision_bits,
                                              workers=cfg.workers)
        if cfg.cache_path:
            zeros.persist_cache(table, coeffs, cfg.cache_path,
                                cfg.precision_bits)
    return table, coeffs


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sum(args, cfg: RunConfig) -> int:
    function = ArithmeticFunction(args.function)
    value = sieve.prefix_sum(function, args.x)
    _emit({"function": function.value, "x": args.x, "value": str(value)})
    return 0


def cmd_constants(args, cfg: RunConfig) -> int:
    prec = cfg.precision_bits
    with mp.workprec(prec + 16):
        paper = series.main_term_coefficients("paper", precision=prec)
        exact = series.main_term_coefficients("exact", precision=prec)
        a1p, a2p = series.residue_coefficients(2, "paper", prec)
        at_one, at_two, _ = series.constant_jets(prec)
        payload = {
            "precision_bits": prec,
            "gamma": {str(m): _num((-1) ** m * at_one[m].real) for m in range(5)},
            "zeta_2": _num(at_two[0].real),
            "zeta_prime_2": _num(at_two[1].real),
            "zeta_0_squared": _num(series.residue_at_zero(prec)),
            "main_terms": {
                "paper": {k: _num(getattr(paper, k)) for k in ("A1", "A2", "A3")},
                "exact": {k: _num(getattr(exact, k)) for k in ("A1", "A2", "A3")},
                "A2_mode_shift": _num(series.a2_mode_shift(prec)),
            },
            "companion": {"A1_prime": _num(a1p), "A2_prime": _num(a2p)},
        }
    _emit(payload)
    return 0


def cmd_zeros_import(args, cfg: RunConfig) -> int:
    table = _import_zeros(cfg, args.count, args.refine)
    _emit({
        "count": len(table),
        "source_digest": table.source_digest,
        "first": _num(table.ordinates[0]),
        "last": _num(table.ordinates[-1]),
    })
    return 0


def cmd_zeros_coeffs(args, cfg: RunConfig) -> int:
    table, coeffs = _table_and_coefficients(cfg, args.count, args.refine)
    with mp.workprec(cfg.precision_bits + 16):
        sum_2_abs = sum(2 * abs(c.coefficient) for c in coeffs)
    _emit({
        "count": len(coeffs),
        "cache_path": cfg.cache_path,
        "sum_2_abs": _num(sum_2_abs),
        "first_coefficient": {
            "re": _num(coeffs[0].coefficient.real, 30),
            "im": _num(coeffs[0].coefficient.imag, 30),
        },
    })
    return 0


def cmd_formula_compare(args, cfg: RunConfig) -> int:
    grid = log_grid(args.grid_start, args.grid_stop, args.grid_count,
                    half_integers=not args.no_half_integers)
    function = ArithmeticFunction(args.function)
    coeffs = None
    cutoff = None
    if function is ArithmeticFunction.D_SQUARE and cfg.zeros_path:
        _, coeffs = _table_and_coefficients(cfg, args.zeros, False)
        cutoff = (Cutoff("ordinate", args.ordinate_cutoff)
                  if args.ordinate_cutoff is not None
                  else Cutoff("count", len(coeffs) if args.zeros is None else args.zeros))
    report = compare(
        grid, function=function, mode=cfg.mode, zero_coefficients=coeffs,
        cutoff=cutoff, include_constant=not args.no_constant,
        precision=cfg.precision_bits,
    )
    out = _output_dir(cfg)
    csv_path = out / f"compare_{function.value}.csv"
    json_path = out / f"compare_{function.value}.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    _emit({"csv": str(csv_path), "json": str(json_path), **report.summary()})
    return 0


def cmd_formula_conjecture(args, cfg: RunConfig) -> int:
    grid = log_grid(args.grid_start, args.grid_stop, args.grid_count)
    _, coeffs = _table_and_coefficients(cfg, args.zeros, False)
    scan = conjecture_scan(grid, coeffs, epsilon=args.epsilon)
    out = _output_dir(cfg) / "conjecture_scan.json"
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


def cmd_perron_integral(args, cfg: RunConfig) -> int:
    values, gaps, bounds = perron.perron_sweep(args.x, args.c, [args.T], args.nodes)
    # The value is real by conjugate symmetry; "imag" stays in the payload.
    _emit({"x": args.x, "c": args.c, "T": args.T,
           "real": _num(float(values[0])), "imag": _num(0.0),
           "quadrature_gap": float(gaps[0]), "error_bound": float(bounds[0])})
    return 0


def cmd_perron_decay(args, cfg: RunConfig) -> int:
    exact = sieve.prefix_sum(ArithmeticFunction.D_SQUARE, int(args.x))
    rows, slope = perron.truncation_decay(args.x, args.c, args.T, exact,
                                          args.nodes)
    out = _output_dir(cfg) / "perron_decay.csv"
    with open(out, "w") as fh:
        fh.write("T,abs_error,quadrature_gap,error_bound\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    _emit({"csv": str(out), "slope": slope,
           "rows": [{"T": T, "abs_error": err, "quadrature_gap": gap, "error_bound": bound}
                    for T, err, gap, bound in rows]})
    return 0


def cmd_perron_residue(args, cfg: RunConfig) -> int:
    center = complex(args.center_re, args.center_im)
    value = perron.residue_by_circle(center, args.radius, args.x, args.nodes,
                                     cfg.precision_bits,
                                     verify_radius=args.verify_radius)
    _emit({"center": [args.center_re, args.center_im], "radius": args.radius,
           "x": args.x, "real": _num(value.real), "imag": _num(value.imag)})
    return 0


def cmd_dirichlet_verify(args, cfg: RunConfig) -> int:
    """Check the Dirichlet-series identity sum d(n^2) n^-s = zeta^3(s)/zeta(2s)."""
    s, N = args.s, args.N
    if s <= 1:
        raise DomainError("s must exceed 1 for absolute convergence")
    if N < 1:
        raise DomainError("N must be >= 1")
    prec = cfg.precision_bits
    values = sieve.build_sieve(max(N, 10**4), ArithmeticFunction.D_SQUARE)
    with mp.workprec(prec + 16):
        # n^-s in fixed point from the engine's multiplicative rule.  Since
        # d(n^2) <= 2n the weights sum below 2^(2 bitlen N); 8 more bits
        # absorb the few units of rounding in each n^-s.
        wp = mp.prec + 2 * N.bit_length() + 8
        powers = zeta_engine.dirichlet_powers_fixed(mpc(s), N + 1, wp)[0]
        partial = mpf((sum(v * p for v, p in zip(values[1: N + 1].tolist(),
                                                  powers[1:])), -wp))
        (zeta_s,), (zeta_2s,) = zeta_engine.zeta_pair(s, 0, 0, prec)
        closed = (zeta_s ** 3 / zeta_2s).real
        difference = abs(partial - closed)
        tail_bound = _tail_bound(s, N, values)
    payload = {
        "s": s, "N": N,
        "partial_sum": _num(partial, 25),
        "closed_form": _num(closed, 25),
        "difference": _num(difference),
        "tail_bound": _num(tail_bound),
    }
    if N <= 1:
        payload["note"] = "degenerate N; difference reported, no pass claim"
        _emit(payload)
        return 0
    payload["pass"] = bool(difference <= tail_bound)
    _emit(payload)
    return 0 if payload["pass"] else 1


def _tail_bound(s: float, N: int, values) -> mpf:
    """Upper bound on sum_{n>N} d(n^2)/n^s for s > 1; values[n] = d(n^2) for
    n <= 1e4, whose exact terms past N are added.

    Past M = max(N, 1e4), d(n^2) <= d(n)^(log2 3) <= n^e with
    e = C ln 3 / ln ln n, C = 1.53794 (Nicolas and Robin 1983: d(n) <=
    n^(C ln 2 / ln ln n) for n >= 3); e falls with n and is 0.761 at 1e4.
    For s >= 2.8 the bound is the integral of u^(0.9 - s) from M.  Below,
    e is taken per block a < n <= b, ln ln b = (16/15) ln ln a: the block is
    at most (a - 1)^(e(a) - s) plus the integral of u^(e(a) - s) over
    [a, b], until e(a) - s + 1 <= -(s - 1)/2 leaves one integral to
    infinity.  In logs, L = ln a.
    """
    crude_from = max(N, 10**4)
    exponent = mpf(s) - mpf("0.9") - 1
    if s >= 2.8:  # e <= 0.9 past 1e4 meets the blocks' stop rule at once
        bound = mp.power(crude_from, -exponent) / exponent
    else:
        with mp.workprec(80):
            bound = _blockwise_tail(mpf(s), mp.ln(crude_from))
    if N < crude_from:
        with mp.workprec(80):
            for n, v in enumerate(values[N + 1: crude_from + 1].tolist(), N + 1):
                bound += v * mp.power(n, -s)
    return bound


def _blockwise_tail(s: mpf, L: mpf) -> mpf:
    """_tail_bound's blocks past a = e^L."""
    bound, exponent = mpf(0), mpf("1.53794") * mp.ln(3)
    while True:
        beta = exponent / mp.ln(L) - s + 1  # block terms are u^(beta - 1)
        bound += mp.exp((beta - 1) * (L - 1))  # (a - 1)^(beta - 1), a - 1 >= a/e
        if beta <= -(s - 1) / 2:
            return bound + mp.exp(beta * L) / -beta
        step = L ** mpf(1 / 15) * L - L  # ln(b/a)
        bound += mp.exp(beta * L) * (mp.expm1(beta * step) / beta if beta else step)
        L += step


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
    "precision_bits": {"type": int},
    "zeros_path": {},
    "cache_path": {},
    "output_dir": {},
    "workers": {"type": int, "help": "processes for zero coefficients on a cold cache"},
    "mode": {"choices": series.MODES},
}


def _command(p: argparse.ArgumentParser, handler, *settings: str) -> None:
    """Bind handler to p with flags for the settings it reads, and --config."""
    if settings:
        p.add_argument("--config", help="key = value config file")
    for key in settings:
        p.add_argument("--" + key.replace("_", "-"), dest=key, **_SETTINGS[key])
    p.set_defaults(handler=handler, settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divisorlab",
        description="Divisor-square summatory function: exact sums, residues, "
                    "zero sums, and Perron contour verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    zeros_settings = ("precision_bits", "zeros_path", "cache_path", "workers")

    p = sub.add_parser("sum", help="exact prefix sum")
    p.add_argument("function", choices=[f.value for f in ArithmeticFunction])
    p.add_argument("x", type=int)
    _command(p, cmd_sum)

    p = sub.add_parser("constants", help="analytic constants, both modes")
    _command(p, cmd_constants, "precision_bits")

    pz = sub.add_parser("zeros", help="zero table operations")
    zsub = pz.add_subparsers(dest="zeros_command", required=True)
    p = zsub.add_parser("import", help="ingest and validate a zero file")
    p.add_argument("path", nargs="?")
    p.add_argument("--count", type=int)
    p.add_argument("--refine", action="store_true")
    _command(p, cmd_zeros_import, "precision_bits", "zeros_path")
    p = zsub.add_parser("coeffs", help="compute/cache zero coefficients")
    p.add_argument("--count", type=int)
    p.add_argument("--refine", action="store_true")
    _command(p, cmd_zeros_coeffs, *zeros_settings)

    pf = sub.add_parser("formula", help="explicit-formula experiments")
    fsub = pf.add_subparsers(dest="formula_command", required=True)
    p = fsub.add_parser("compare", help="exact sums vs decomposition over a grid")
    p.add_argument("--function", default="d_square",
                   choices=["d_square", "two_omega", "mu_squared"])
    p.add_argument("--grid-start", type=finite_float, default=1e3)
    p.add_argument("--grid-stop", type=finite_float, default=1e6)
    p.add_argument("--grid-count", type=int, default=13)
    p.add_argument("--zeros", type=int, help="zero count cutoff K")
    p.add_argument("--ordinate-cutoff", type=finite_float, help="ordinate cutoff T")
    p.add_argument("--no-half-integers", action="store_true")
    p.add_argument("--no-constant", action="store_true",
                   help="exclude the s = 0 residue 1/4 from the main term")
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
    p.add_argument("--nodes", type=int, default=1024)
    _command(p, cmd_perron_integral)
    p = psub.add_parser("decay", help="truncation decay table")
    p.add_argument("x", type=finite_float)
    p.add_argument("--c", type=finite_float, default=2.0)
    p.add_argument("--T", type=finite_float, nargs="+", default=[50, 100, 200, 400])
    p.add_argument("--nodes", type=int, default=1024)
    _command(p, cmd_perron_decay, "output_dir")
    p = psub.add_parser("residue", help="small-circle residue quadrature")
    p.add_argument("--center-re", type=finite_float, required=True)
    p.add_argument("--center-im", type=finite_float, default=0.0)
    p.add_argument("--radius", type=finite_float, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    p.add_argument("--nodes", type=int, default=128)
    p.add_argument("--verify-radius", action="store_true")
    _command(p, cmd_perron_residue, "precision_bits")

    p = sub.add_parser("dirichlet-verify",
                       help="Dirichlet-series identity check at real s > 1")
    p.add_argument("s", type=finite_float)
    p.add_argument("N", type=int)
    _command(p, cmd_dirichlet_verify, "precision_bits")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        return args.handler(args, cfg)
    except DivisorLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
