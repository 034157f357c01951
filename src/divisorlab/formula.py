"""Assembly of the explicit-formula decomposition and error reporting.

For the divisor-square sum the decomposition reads

    S(x) = A1 x log^2 x + A2 x log x + A3 x + 1/4
           + sum over zeros  2 |A_g| x^(1/4) cos((g/2) log x + arg A_g)
           + E(x),

with the coefficients from the series module and one cosine term per
conjugate pair of zeros, 2 Re(A_g x^(rho/2)).  compare() fills an
ErrorReport over a grid of half-integer x, with E normalized by x^(1/4) and
x^(1/3).

Companion modes: the squarefree-divisor sum (main term A1' x log x + A2' x,
no zero sum) and the squarefree-indicator sum (main term x / zeta(2)).
Every main term is series.residue_coefficients(j, mode) for the j of
sieve's route, zeta^j(s) / zeta(2s), evaluated by series.main_term; only the
divisor-square sum adds the residue at s = 0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError
from .series import main_term, main_term_coefficients, residue_coefficients
from .sieve import _ROUTES, ArithmeticFunction, prefix_sums_at
from .zeros import ZeroTermCoefficient
from .zeta import DEFAULT_PRECISION

CSV_COLUMNS = ["x", "S", "main", "zero_sum", "zeros_used", "E", "E_x14", "E_x13"]


@dataclass(frozen=True)
class Cutoff:
    """Zero-sum truncation: by zero count ('count') or ordinate bound ('ordinate')."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("count", "ordinate"):
            raise DomainError("cutoff kind must be 'count' or 'ordinate'")
        if self.value <= 0:
            raise DomainError("cutoff value must be positive")


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
    cutoff: Cutoff | None
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
            "cutoff": None if self.cutoff is None
            else {"kind": self.cutoff.kind, "value": self.cutoff.value},
            "rows": len(self.rows),
            "max_abs_E": max((abs(r.E) for r in self.rows), default=0.0),
            "max_abs_E_over_x14": max((abs(r.E_over_x14) for r in self.rows), default=0.0),
            "max_abs_E_over_x13": max((abs(r.E_over_x13) for r in self.rows), default=0.0),
            "warnings": self.warnings,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n")


def log_grid(start: float, stop: float, count: int,
             half_integers: bool = True) -> list[float]:
    """Log-spaced grid, optionally snapped to half-integers n + 1/2."""
    if not (1 <= start < stop) or count < 2:
        raise DomainError("need 1 <= start < stop and count >= 2")
    la, lb = math.log(start), math.log(stop)
    xs = [math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]
    if half_integers:
        xs = [math.floor(x) + 0.5 for x in xs]
    out = []
    for x in xs:  # snapping can collide at the low end
        if not out or x > out[-1]:
            out.append(x)
    return out


def select_zero_terms(
    coefficients: list[ZeroTermCoefficient],
    cutoff: Cutoff,
) -> tuple[list[ZeroTermCoefficient], list[str]]:
    """Apply the truncation rule; report (never silently absorb) shortfalls."""
    warnings = []
    if cutoff.kind == "count":
        k = int(cutoff.value)
        if k > len(coefficients):
            warnings.append(
                f"requested {k} zeros but the table holds {len(coefficients)}; "
                f"using all {len(coefficients)}"
            )
            k = len(coefficients)
        chosen = coefficients[:k]
    else:
        chosen = [c for c in coefficients if float(c.ordinate) / 2 <= cutoff.value]
        if chosen == coefficients:
            top = float(coefficients[-1].ordinate) / 2 if coefficients else 0.0
            warnings.append(
                f"ordinate cutoff {cutoff.value} exceeds the table's top "
                f"half-ordinate {top}; zero sum is truncated by the table"
            )
    return chosen, warnings


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


def compare(
    x_grid,
    function: ArithmeticFunction = ArithmeticFunction.D_SQUARE,
    mode: str = "exact",
    zero_coefficients: list[ZeroTermCoefficient] | None = None,
    cutoff: Cutoff | None = None,
    include_constant: bool = True,
    precision: int = DEFAULT_PRECISION,
) -> ErrorReport:
    """Exact prefix sums versus the analytic decomposition over a grid.

    The exact sums come from one prefix_sums_at call for the whole grid
    (sum mu(k) D_j(x // k^2), one D_j table); the main term is the residue
    at s = 1 for the same j; the zero sum applies only to the divisor-square
    function and is one array product over the grid.
    """
    xs = sorted(float(x) for x in x_grid)
    if xs[0] <= 1:
        raise DomainError("grid points must exceed 1")
    report = ErrorReport(function=function, mode=mode, cutoff=cutoff)

    j, over_all_k = _ROUTES[function]
    if not over_all_k or j > 3:
        raise DomainError(
            f"no analytic main term implemented for {function.value}; "
            "it is sieve/identity checked only"
        )
    floors = [int(x) for x in xs]
    sums = prefix_sums_at(function, floors)

    constant = 0
    if function is ArithmeticFunction.D_SQUARE:
        coefficients = main_term_coefficients(mode, precision=precision)
        terms = (coefficients.A1, coefficients.A2, coefficients.A3)
        if include_constant:
            constant = coefficients.constant_term
    else:
        terms = residue_coefficients(j, mode, precision)

    chosen: list[ZeroTermCoefficient] = []
    if function is ArithmeticFunction.D_SQUARE:
        if zero_coefficients and cutoff:
            chosen, warns = select_zero_terms(zero_coefficients, cutoff)
            report.warnings.extend(warns)
        else:
            report.warnings.append(
                "no zero coefficients and cutoff given: E = S - main still "
                "holds the whole zero sum"
            )

    zero_sums = zero_sum_terms(np.array(xs), chosen)
    for x, fl, zs in zip(xs, floors, zero_sums.tolist()):
        s_exact = sums[fl]
        main = float(main_term(x, terms, constant, precision))
        e = float(s_exact) - main - zs
        report.rows.append(ReportRow(
            x=x, S_exact=s_exact, main=main, zero_sum=zs,
            zeros_used=2 * len(chosen),
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
