"""Assembly of the explicit-formula decomposition and error reporting.

For the divisor-square sum the decomposition reads

    S(x) = A1 x log^2 x + A2 x log x + A3 x + 1/4
           + sum over zeros  2 |A_g| x^(1/4) cos((g/2) log x + arg A_g)
           + E(x),

with the coefficients from the series module and one cosine term per
conjugate pair of zeros, 2 Re(A_g x^(rho/2)).  compare() fills an
ErrorReport over a grid of half-integer x, with E normalized by x^(1/4) and
x^(1/3).  Both compare() and conjecture_scan() sum every zero they are
given: which zeros enter is settled when the zero table is imported.

Companion modes: the squarefree-divisor sum (2^omega, main term
A1' x log x + A2' x) and the squarefree-indicator sum (|mu|, x / zeta(2)).
Every main term is series.main_term_coefficients(j, mode) for the j of
sieve's route, zeta^j(s) / zeta(2s), evaluated by series.main_term.  The
companions also have zero sums and s = 0 residues (-1/2 and 1), which
compare still leaves in their E.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import lazy_import
from .errors import DomainError
from .series import main_term, main_term_coefficients
from .sieve import _ROUTES, ArithmeticFunction, prefix_sums_at
from .zeros import ZeroTermCoefficient

np = lazy_import("numpy")

CSV_COLUMNS = ["x", "S", "main", "zero_sum", "zeros_used", "E", "E_x14", "E_x13"]


@dataclass(frozen=True)
class ReportRow:
    x: float
    S_exact: int
    main: float
    zero_sum: float
    zeros_used: int
    E: float
    E_over_x14: float
    E_over_x13: float


@dataclass
class ErrorReport:
    function: ArithmeticFunction
    mode: str
    rows: list[ReportRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([
                    repr(r.x), r.S_exact, repr(r.main), repr(r.zero_sum),
                    r.zeros_used, repr(r.E), repr(r.E_over_x14), repr(r.E_over_x13),
                ])

    def summary(self) -> dict:
        return {
            "function": self.function.value,
            "mode": self.mode,
            "rows": len(self.rows),
            "max_abs_E": max((abs(r.E) for r in self.rows), default=0.0),
            "max_abs_E_over_x14": max((abs(r.E_over_x14) for r in self.rows), default=0.0),
            "max_abs_E_over_x13": max((abs(r.E_over_x13) for r in self.rows), default=0.0),
            "warnings": self.warnings,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n")


def log_grid(start: float, stop: float, count: int) -> list[float]:
    """Log-spaced grid snapped to half-integers n + 1/2, off the jumps of S."""
    if not (1 <= start < stop) or count < 2:
        raise DomainError("need 1 <= start < stop and count >= 2")
    la, lb = math.log(start), math.log(stop)
    xs = [math.floor(math.exp(la + (lb - la) * i / (count - 1))) + 0.5
          for i in range(count)]
    out = []
    for x in xs:  # snapping can collide at the low end
        if not out or x > out[-1]:
            out.append(x)
    return out


def zero_sum_terms(x, terms: list[ZeroTermCoefficient]):
    """The zero sum 2 Re(sum_k A_k x^(rho_k/2)) at x, a float or an array.

    Each conjugate pair contributes A x^(1/4 + i g/2) plus its conjugate,
    so one complex exp per (x, zero) gives both.  The coefficients are
    converted to complex once, and a grid of x is one (x by zero) array
    product; an array x gives an array back, a scalar x a float.
    """
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs <= 1):
        raise DomainError("x must be > 1")
    rho = np.array([complex(c.rho_half) for c in terms], dtype=np.complex128)
    a = np.array([complex(c.coefficient) for c in terms], dtype=np.complex128)
    lx = np.log(xs)[..., None]
    total = 2 * (a * np.exp(rho * lx)).sum(axis=-1).real
    return float(total) if xs.ndim == 0 else total


def check_takes_zeros(function: ArithmeticFunction) -> None:
    """Raise DomainError unless compare sums zeros for function.  Only
    d_square's are summed; a companion's zero sum stays in its E."""
    if function is not ArithmeticFunction.D_SQUARE:
        raise DomainError(f"compare sums zeros for d_square only; "
                          f"{function.value}'s zero sum stays in E")


def compare(
    x_grid,
    function: ArithmeticFunction = ArithmeticFunction.D_SQUARE,
    mode: str = "exact",
    zero_coefficients: list[ZeroTermCoefficient] | None = None,
) -> ErrorReport:
    """Exact prefix sums versus the analytic decomposition over a grid.

    The exact sums come from one prefix_sums_at call for the whole grid
    (sum mu(k) D_j(x // k^2), one D_j table); the main term is the residue
    at s = 1 for the same j.  Only the divisor-square function takes zeros,
    and only it adds its residue 1/4 at s = 0: its zero sum is the sum over
    every given zero, one array product over the grid, and given no zeros it
    warns that E still holds the whole zero sum.  The companions' zero sums
    and s = 0 residues (1 for mu_squared, -1/2 for two_omega) stay in E.
    """
    xs = sorted(float(x) for x in x_grid)
    if not xs or xs[0] <= 1:
        raise DomainError("grid points must exceed 1")
    report = ErrorReport(function=function, mode=mode)

    j, over_all_k = _ROUTES[function]
    if not over_all_k or j > 3:
        raise DomainError(
            f"no analytic main term implemented for {function.value}; "
            "it is sieve/identity checked only"
        )
    takes_zeros = function is ArithmeticFunction.D_SQUARE
    zero_terms = list(zero_coefficients or ())
    if zero_terms:
        check_takes_zeros(function)
    if takes_zeros and not zero_terms:
        report.warnings.append(
            "no zero coefficients given: E = S - main still holds the "
            "whole zero sum"
        )
    floors = [int(x) for x in xs]
    sums = prefix_sums_at(function, floors)
    residues = main_term_coefficients(j, mode)
    constant = residues.at_zero if takes_zeros else 0

    zero_sums = zero_sum_terms(np.array(xs), zero_terms)
    for x, fl, zs in zip(xs, floors, zero_sums.tolist()):
        s_exact = sums[fl]
        main = float(main_term(x, residues.terms, constant))
        e = float(s_exact) - main - zs
        report.rows.append(ReportRow(
            x=x, S_exact=s_exact, main=main, zero_sum=zs,
            zeros_used=2 * len(zero_terms),
            E=e, E_over_x14=e / x ** 0.25, E_over_x13=e / x ** (1.0 / 3.0),
        ))
    return report


@dataclass(frozen=True)
class ConjectureScan:
    """sup over the grid of |zero_sum(x)| / x^(1/3 + eps), with its argmax."""

    epsilon: float
    sup_ratio: float
    argmax_x: float
    zeros_used: int
    trace: tuple  # (x, |zero_sum|, ratio) rows


def conjecture_scan(
    x_grid,
    zero_coefficients: list[ZeroTermCoefficient],
    epsilon: float = 0.01,
) -> ConjectureScan:
    """Scan the magnitude of the sum over every given zero against the
    conjectured x^(1/3+eps) growth."""
    if epsilon < 0:
        raise DomainError("epsilon must be >= 0")
    xs = sorted(float(x) for x in x_grid)
    values = zero_sum_terms(np.array(xs), zero_coefficients)
    trace = []
    sup_ratio, argmax = 0.0, float("nan")
    for x, value in zip(xs, values.tolist()):
        ratio = abs(value) / x ** (1.0 / 3.0 + epsilon)
        trace.append((x, abs(value), ratio))
        if ratio > sup_ratio:
            sup_ratio, argmax = ratio, x
    return ConjectureScan(
        epsilon=epsilon,
        sup_ratio=sup_ratio,
        argmax_x=argmax,
        zeros_used=2 * len(zero_coefficients),
        trace=tuple(trace),
    )
