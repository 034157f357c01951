"""Zero-ordinate ingestion, validation, and explicit-formula coefficients.

Input format: one decimal ordinate per line, strictly ascending, '#' comments
and blank lines allowed.  Only positive ordinates are stored; negative-gamma
terms are reconstructed by conjugation at evaluation time.

For a simple critical-line zero rho = 1/2 + i gamma of zeta, the function
zeta(2s) vanishes at rho/2 = 1/4 + i gamma/2 and the residue of 1/zeta(2s)
there is 1/(2 zeta'(rho)).  The explicit-formula coefficient attached to the
zero is therefore

    A = zeta^3(1/4 + i gamma/2) / ((1/4 + i gamma/2) * 2 zeta'(1/2 + i gamma)).

Everything here runs at DEFAULT_PRECISION, the working precision of the
zero coefficients.  Cache format: '# source_digest <sha256>',
'# precision_bits <P>' and '# digits <D>' headers, then one line per zero
with ordinate, Re A, Im A, Re zeta', Im zeta' at D = CACHE_DIGITS
significant digits.  A cache serves only when it records a precision of at
least DEFAULT_PRECISION and its rows hold at least CACHE_DIGITS digits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpc, mpf

from .errors import (
    DomainError,
    StaleCacheError,
    ZeroDataError,
    ZeroFileParseError,
)
from . import zeta as zeta_engine
from .zeta import DEFAULT_PRECISION


#: Significant digits a cache row needs to carry DEFAULT_PRECISION bits,
#: ceil(128 log10 2) + 3 = 42, with three to spare.
CACHE_DIGITS = math.ceil(DEFAULT_PRECISION * math.log10(2)) + 3


@dataclass(frozen=True)
class ZeroTable:
    """Validated ascending positive zero ordinates plus the file digest."""

    ordinates: tuple
    source_digest: str

    def __len__(self) -> int:
        return len(self.ordinates)


@dataclass(frozen=True)
class ZeroTermCoefficient:
    """One zero's contribution data for the explicit formula."""

    ordinate: mpf
    rho_half: mpc
    coefficient: mpc
    derivative_at_zero: mpc


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite_decimal(text: str, lineno: int) -> mpf:
    """text as an mpf at the working precision; nan, inf or anything else
    that is not a finite decimal is a parse error at lineno."""
    try:
        value = mpf(text)
        if mp.isfinite(value):
            return value
    except ValueError:
        pass
    raise ZeroFileParseError(f"not a finite decimal: {text!r}", lineno)


def import_zeros(path, limit_count: int | None = None) -> ZeroTable:
    """Parse and validate a zero-ordinate file, at DEFAULT_PRECISION + 16 bits.

    limit_count, when given, keeps the first limit_count ordinates; it must
    be at least 1, and a file with fewer ordinates raises ZeroDataError.
    A line that is not a finite decimal is a parse error.
    The ordinates are kept as written: the package does not polish them, so
    the file must hold each to |zeta(rho)| < 1e-8, as coefficient_for checks.
    """
    if limit_count is not None and limit_count < 1:
        raise DomainError(f"zero count must be >= 1, got {limit_count}")
    path = Path(path)
    digest = file_digest(path)
    ordinates: list[mpf] = []
    with mp.workprec(DEFAULT_PRECISION + 16):
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            value = _finite_decimal(line, lineno)
            if ordinates and value <= ordinates[-1]:
                raise ZeroFileParseError(
                    f"ordinate {line} not strictly greater than the previous one",
                    lineno,
                )
            if value <= 10:
                raise ZeroFileParseError(
                    f"ordinate {line} below 10; the first zero is near 14.13", lineno
                )
            ordinates.append(value)
            if limit_count is not None and len(ordinates) >= limit_count:
                break
    if not ordinates:
        raise ZeroDataError(f"no ordinates found in {path}")
    if limit_count is not None and len(ordinates) < limit_count:
        raise ZeroDataError(f"{limit_count} zeros requested but {path} holds "
                            f"{len(ordinates)}")
    return ZeroTable(ordinates=tuple(ordinates), source_digest=digest)


def coefficient_for(gamma) -> ZeroTermCoefficient:
    """Explicit-formula coefficient for the zero at ordinate gamma.

    gamma must be positive, and the package does not polish ordinates:
    |zeta(1/2 + i gamma)| < 1e-8 must hold as given.  The zero at -gamma
    enters the zero sum as the conjugate term.
    zeta(rho/2) and the jet zeta(rho), zeta'(rho) come from one zeta_pair
    at rho/2.
    """
    with mp.workprec(DEFAULT_PRECISION + 16):
        g = mpf(gamma)
        if g <= 0:
            raise DomainError(f"zero ordinates must be positive, got {g}")
        rho_half = mpc(mpf("0.25"), g / 2)
        (z_half,), (val, der) = zeta_engine.zeta_pair(rho_half, 0, 1)
        if abs(val) >= mpf("1e-8"):
            raise DomainError(
                f"ordinate {g} is not a polished zero: |zeta(rho)| = {abs(val)}"
            )
        if abs(der) < mpf("1e-6"):
            raise DomainError(
                f"|zeta'(rho)| = {abs(der)} at gamma = {g}: "
                "numerically violates the simple-zero assumption"
            )
        coeff = z_half ** 3 / (rho_half * 2 * der)
        return ZeroTermCoefficient(
            ordinate=+g,
            rho_half=+rho_half,
            coefficient=+coeff,
            derivative_at_zero=+der,
        )


def coefficients_for_table(table: ZeroTable) -> list[ZeroTermCoefficient]:
    """Coefficients for every table ordinate, in table order."""
    return [coefficient_for(g) for g in table.ordinates]


def persist_cache(table: ZeroTable, coefficients, path) -> None:
    """Write a human-inspectable coefficient cache keyed to the table digest
    and the precision the coefficients were computed at, with the
    CACHE_DIGITS digits that precision needs."""
    lines = [
        f"# source_digest {table.source_digest}",
        f"# precision_bits {DEFAULT_PRECISION}",
        f"# digits {CACHE_DIGITS}",
        "# columns: gamma re_coeff im_coeff re_deriv im_deriv",
    ]
    for c in coefficients:
        fields = (
            c.ordinate,
            c.coefficient.real,
            c.coefficient.imag,
            c.derivative_at_zero.real,
            c.derivative_at_zero.imag,
        )
        lines.append(" ".join(mp.nstr(v, CACHE_DIGITS) for v in fields))
    Path(path).write_text("\n".join(lines) + "\n")


def load_cache(path, table: ZeroTable) -> list[ZeroTermCoefficient]:
    """Cached coefficients for exactly the table's zeros, in table order.

    Fails if the cache was built from another zero file, does not record a
    precision of at least DEFAULT_PRECISION bits, holds fewer digits than
    CACHE_DIGITS or fewer rows than the table, or lists an
    ordinate that differs from the table's in those digits (a polished or
    differently rounded table).  The rows are read at all the cache's digits,
    and a field of a row served that is not a finite decimal is a parse
    error at its line.
    """
    path = Path(path)
    rows = []
    digest = built_at = digits = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if line.startswith("# source_digest"):
            digest = line.split()[-1]
            continue
        if line.startswith(("# precision_bits", "# digits")):
            key = line.split()[1]
            try:
                value = int(line.split()[-1])
            except ValueError:
                raise ZeroFileParseError(f"{key} must be an integer",
                                         lineno) from None
            if key == "digits":
                digits = value
            else:
                built_at = value
            continue
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ZeroFileParseError("expected 5 fields", lineno)
        rows.append((lineno, parts))
    if digest is None:
        raise ZeroDataError(f"cache {path} has no source_digest header")
    if digest != table.source_digest:
        raise StaleCacheError(
            "cache was built from a different zero file "
            f"(cache digest {digest[:12]}..., table digest {table.source_digest[:12]}...)"
        )
    if built_at is None:
        raise StaleCacheError(f"cache {path} records no precision_bits")
    if built_at < DEFAULT_PRECISION:
        raise StaleCacheError(
            f"cache was built at {built_at} bits, {DEFAULT_PRECISION} were requested"
        )
    if digits is None:
        raise StaleCacheError(f"cache {path} records no digits")
    if digits < CACHE_DIGITS:
        raise StaleCacheError(f"cache rows hold {digits} digits, {CACHE_DIGITS} "
                              f"are needed at {DEFAULT_PRECISION} bits")
    if len(rows) < len(table):
        raise StaleCacheError(
            f"cache holds {len(rows)} zeros, the table {len(table)}"
        )
    coefficients = []
    with mp.workprec(max(DEFAULT_PRECISION, math.ceil(digits * math.log2(10))) + 16):
        for k, ((lineno, parts), gamma) in enumerate(zip(rows, table.ordinates), 1):
            g, cre, cim, dre, dim = (_finite_decimal(p, lineno) for p in parts)
            cached, wanted = (mp.nstr(v, CACHE_DIGITS) for v in (g, gamma))
            if cached != wanted:
                raise StaleCacheError(
                    f"cached ordinate {k} is {cached}, the table's {wanted}")
            coefficients.append(
                ZeroTermCoefficient(
                    ordinate=gamma,
                    rho_half=mpc(mpf("0.25"), gamma / 2),
                    coefficient=mpc(cre, cim),
                    derivative_at_zero=mpc(dre, dim),
                )
            )
    return coefficients
