"""Truncated Laurent/Taylor series arithmetic and residue extraction.

The residue of zeta(s)^3 / zeta(2s) * x^s / s at the order-3 pole s = 1 is
computed by finite series arithmetic: cube the zeta Laurent expansion,
multiply by the Taylor expansion of 1/zeta(2s), by 1/(1 + (s-1)) for the 1/s
factor, and by x * exp((s-1) log x), then read off the (s-1)^-1 coefficient.

Two coefficient modes are exposed.  The 'paper' mode freezes 1/zeta(2s) at
its value 1/zeta(2), which yields

    x ((log x)^2 + (6g - 2) log x + 6g^2 - 6g - 6g_1 + 2) / (2 zeta(2)),

with g, g_1 the first two Stieltjes constants.  The 'exact' mode expands
1/zeta(2s) fully, which shifts the x log x and x coefficients by terms
involving zeta'(2) and zeta''(2).  Both are reported; the x log x shift has
the closed form -2 zeta'(2) / zeta(2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DomainError, PrecisionError
from . import zeta as zeta_engine
from .zeta import DEFAULT_PRECISION

MIN_PRECISION = 64
DEFAULT_ORDER = 8


@dataclass(frozen=True)
class TruncatedLaurentSeries:
    """Finite window of Laurent coefficients around a common center.

    coefficients[i] multiplies (s - center)^(lowest_order + i); orders above
    lowest_order + len(coefficients) - 1 are unknown, not zero.
    """

    center: mpc
    lowest_order: int
    coefficients: tuple
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION:
            raise PrecisionError(
                f"series precision must be >= {MIN_PRECISION} bits"
            )
        if not self.coefficients:
            raise DomainError("series needs at least one coefficient")

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def highest_order(self) -> int:
        return self.lowest_order + len(self.coefficients) - 1

    def coefficient(self, order: int) -> mpc:
        """Coefficient of (s - center)^order; zero below the window."""
        if order < self.lowest_order:
            return mpc(0)
        if order > self.highest_order:
            raise DomainError(
                f"order {order} beyond truncation window (top {self.highest_order})"
            )
        return self.coefficients[order - self.lowest_order]

    def _check_compatible(self, other: "TruncatedLaurentSeries") -> None:
        if self.center != other.center:
            raise DomainError("series centers differ")
        if self.precision_bits != other.precision_bits:
            raise DomainError("series precisions differ")

    def __add__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        self._check_compatible(other)
        lo = min(self.lowest_order, other.lowest_order)
        top = min(self.highest_order, other.highest_order)
        with mp.workprec(self.precision_bits + 16):
            coeffs = tuple(
                self.coefficient(k) + other.coefficient(k) for k in range(lo, top + 1)
            )
        return TruncatedLaurentSeries(self.center, lo, coeffs, self.precision_bits)

    def __mul__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        return series_mul(self, other)

    def scaled(self, factor) -> "TruncatedLaurentSeries":
        with mp.workprec(self.precision_bits + 16):
            f = mpc(factor)
            coeffs = tuple(c * f for c in self.coefficients)
        return TruncatedLaurentSeries(
            self.center, self.lowest_order, coeffs, self.precision_bits
        )


def series_mul(a: TruncatedLaurentSeries, b: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """Cauchy product, truncated to the shorter reliable window."""
    a._check_compatible(b)
    length = min(len(a), len(b))
    lo = a.lowest_order + b.lowest_order
    with mp.workprec(a.precision_bits + 16):
        out = [mpc(0)] * length
        for i, ca in enumerate(a.coefficients[:length]):
            for j in range(length - i):
                out[i + j] += ca * b.coefficients[j]
        coeffs = tuple(+c for c in out)
    return TruncatedLaurentSeries(a.center, lo, coeffs, a.precision_bits)


def series_pow(a: TruncatedLaurentSeries, k: int) -> TruncatedLaurentSeries:
    """a^k for integer k >= 1 by repeated multiplication."""
    if k < 1:
        raise DomainError("series_pow exponent must be >= 1")
    result = a
    for _ in range(k - 1):
        result = series_mul(result, a)
    return result


def series_invert(a: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """Multiplicative inverse: a * invert(a) = 1 + O((s-center)^len)."""
    lead = a.coefficients[0]
    if lead == 0:
        raise DomainError("cannot invert a series with zero leading coefficient")
    length = len(a)
    with mp.workprec(a.precision_bits + 16):
        inv_lead = 1 / mpc(lead)
        out = [mpc(0)] * length
        out[0] = inv_lead
        for n in range(1, length):
            acc = mpc(0)
            for k in range(1, n + 1):
                acc += a.coefficients[k] * out[n - k]
            out[n] = -inv_lead * acc
        coeffs = tuple(+c for c in out)
    return TruncatedLaurentSeries(a.center, -a.lowest_order, coeffs, a.precision_bits)


def geometric_inverse_s(order: int, precision: int = DEFAULT_PRECISION) -> TruncatedLaurentSeries:
    """1/s = 1/(1 + (s-1)) around s = 1: coefficients (-1)^k."""
    with mp.workprec(precision + 16):
        coeffs = tuple(mpc((-1) ** k) for k in range(order + 1))
    return TruncatedLaurentSeries(mpc(1), 0, coeffs, precision)


def exp_log_series(x, order: int, precision: int = DEFAULT_PRECISION) -> TruncatedLaurentSeries:
    """exp((s-1) log x) around s = 1: coefficients (log x)^k / k!."""
    with mp.workprec(precision + 16):
        lam = mp.ln(mpf(x))
        coeffs = []
        term = mpc(1)
        for k in range(order + 1):
            coeffs.append(term)
            term = term * lam / (k + 1)
        coeffs = tuple(coeffs)
    return TruncatedLaurentSeries(mpc(1), 0, coeffs, precision)


def zeta_laurent_at_1(order: int, precision: int = DEFAULT_PRECISION) -> TruncatedLaurentSeries:
    """Laurent expansion of zeta at s = 1, through (s-1)^order.

    c_-1 = 1 and c_m = (-1)^m gamma_m / m! for the Stieltjes constants
    gamma_m.
    """
    if order < 1:
        raise DomainError("zeta Laurent order must be >= 1")
    if precision < MIN_PRECISION:
        raise PrecisionError(f"precision must be >= {MIN_PRECISION} bits")
    with mp.workprec(precision + 16):
        coeffs = [mpc(1)]
        for m in range(order + 1):
            gm = zeta_engine.stieltjes(m, precision)
            coeffs.append(mpc((-1) ** m) * gm / mp.factorial(m))
        coeffs = tuple(coeffs)
    return TruncatedLaurentSeries(mpc(1), -1, coeffs, precision)


def taylor_of_inverse_zeta_2s_at_1(
    order: int, precision: int = DEFAULT_PRECISION
) -> TruncatedLaurentSeries:
    """Taylor series of 1/zeta(2s) around s = 1.

    Built by series inversion of the Taylor expansion of zeta(2s), whose
    coefficients are zeta^(k)(2) 2^k / k!.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    taylor2 = zeta_engine.zeta_taylor(2, order, precision)
    with mp.workprec(precision + 16):
        coeffs = tuple(taylor2[k] * mpc(2) ** k for k in range(order + 1))
    forward = TruncatedLaurentSeries(mpc(1), 0, coeffs, precision)
    return series_invert(forward)


@dataclass(frozen=True)
class MainTermCoefficients:
    """Coefficients of x log^2 x, x log x, x in the smooth part of the sum,
    plus the constant contributed by the residue at s = 0."""

    A1: mpf
    A2: mpf
    A3: mpf
    constant_term: mpf
    mode: str  # 'paper' or 'exact'


def residue_at_zero(precision: int = DEFAULT_PRECISION) -> mpf:
    """Residue of F(s) x^s / s at s = 0: zeta(0)^2 = 1/4, independent of x."""
    with mp.workprec(precision + 16):
        z0 = zeta_engine.zeta(0, precision)
        return +(z0 * z0).real


def main_term_coefficients(
    mode: str,
    order: int = DEFAULT_ORDER,
    precision: int = DEFAULT_PRECISION,
) -> MainTermCoefficients:
    """Residue data at s = 1 in either coefficient mode.

    With G(s) = zeta^3(s) * q(s) * 1/(1+(s-1)) (q the 1/zeta(2s) factor),
    the residue of G(s) x e^((s-1) log x) is
        x (g_-3 (log x)^2 / 2 + g_-2 log x + g_-1),
    so A1 = g_-3 / 2, A2 = g_-2, A3 = g_-1.
    """
    if mode not in ("paper", "exact"):
        raise DomainError("mode must be 'paper' or 'exact'")
    if order < 5:
        raise DomainError("truncation order must be >= 5 to isolate the residue")
    z3 = series_pow(zeta_laurent_at_1(order, precision), 3)
    if mode == "exact":
        q = taylor_of_inverse_zeta_2s_at_1(order, precision)
    else:
        with mp.workprec(precision + 16):
            z2 = zeta_engine.zeta(2, precision)
            coeffs = tuple([1 / mpc(z2)] + [mpc(0)] * order)
        q = TruncatedLaurentSeries(mpc(1), 0, coeffs, precision)
    g = series_mul(series_mul(z3, q), geometric_inverse_s(order, precision))
    with mp.workprec(precision + 16):
        a1 = +(g.coefficient(-3) / 2).real
        a2 = +g.coefficient(-2).real
        a3 = +g.coefficient(-1).real
    return MainTermCoefficients(
        A1=a1, A2=a2, A3=a3, constant_term=residue_at_zero(precision), mode=mode
    )


def residue_main_term(
    x,
    mode: str = "exact",
    order: int = DEFAULT_ORDER,
    precision: int = DEFAULT_PRECISION,
) -> tuple[MainTermCoefficients, mpf]:
    """Main-term coefficients and the evaluated residue at s = 1 for this x."""
    with mp.workprec(precision + 16):
        xv = mpf(x)
        if xv <= 1:
            raise DomainError("x must be > 1")
        coeffs = main_term_coefficients(mode, order, precision)
        lam = mp.ln(xv)
        value = xv * (coeffs.A1 * lam**2 + coeffs.A2 * lam + coeffs.A3)
        return coeffs, +value


def a2_mode_shift(precision: int = DEFAULT_PRECISION) -> mpf:
    """Closed form of A2_exact - A2_paper: -2 zeta'(2) / zeta(2)^2.

    Obtained by direct differentiation, independently of the series route.
    """
    with mp.workprec(precision + 16):
        vals = zeta_engine.zeta_with_derivatives(2, 1, precision)
        return +(-2 * vals[1] / vals[0] ** 2).real


def theorem_A_coefficients(precision: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """Published main-term constants of the squarefree-divisor companion sum:
    A1' = 1/zeta(2) and A2' = (2 gamma - 1)/zeta(2)."""
    with mp.workprec(precision + 16):
        z2 = zeta_engine.zeta(2, precision).real
        g = zeta_engine.stieltjes(0, precision)
        return +(1 / z2), +((2 * g - 1) / z2)


def two_omega_coefficients(mode: str = "exact",
                           precision: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """Main-term constants for the squarefree-divisor sum in both modes.

    The published constants treat 1/zeta(2s) as locally constant at s = 1,
    exactly as in the divisor-square case; the full double-pole residue of
    zeta^2(s)/zeta(2s) x^s/s shifts the x coefficient by -2 zeta'(2)/zeta(2)^2.
    """
    if mode not in ("paper", "exact"):
        raise DomainError("mode must be 'paper' or 'exact'")
    a1p, a2p = theorem_A_coefficients(precision)
    if mode == "paper":
        return a1p, a2p
    with mp.workprec(precision + 16):
        return a1p, +(a2p + a2_mode_shift(precision))
