"""Multiprecision Riemann zeta machinery.

Everything is built on one Euler-Maclaurin continuation

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1..J} B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j) + R,

with N and J chosen from the target precision and |Im s| so that |R| stays
below the last retained bit.  Derivatives in s are obtained by differentiating
the same formula term by term (Leibniz on each product), which costs a single
pass and keeps the derivative values consistent with the base evaluation.

Also here: Stieltjes constants via the Euler-Maclaurin-accelerated tail of
their defining limit, the functional-equation conversion factor
chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s), and Newton polishing of
critical-line zero ordinates.

A vectorized float64 evaluator is provided for contour quadrature, where
thousands of nodes are needed at only double accuracy.  It picks (N, J) by
the same rule as the multiprecision engine, at 53 bits.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import (
    DomainError,
    HeightRangeError,
    PoleError,
    PrecisionError,
    RefinementError,
)

DEFAULT_PRECISION = 128

#: Default cap on |Im s|; Riemann-Siegel large-height evaluation is out of scope.
DEFAULT_HEIGHT_CAP = 1.0e4

# Engine call counter, used by cache-instrumentation tests.
_calls = 0


def call_count() -> int:
    return _calls


def reset_call_count() -> None:
    global _calls
    _calls = 0


def _em_parameters(precision: int, t_abs: float, sigma: float) -> tuple[int, int]:
    """Choose (N, J) so the Euler-Maclaurin remainder is below 2^-(precision+8).

    The remainder behaves like ((|t| + 2J) / (2 pi N))^(2J) * N^(1-sigma);
    solve for N at a J proportional to the precision.
    """
    J = max(12, (precision + 16) // 4)
    target = (precision + 12) * math.log(2.0)
    base = (t_abs + 2.0 * J) / (2.0 * math.pi)
    N = base * math.exp(target / (2.0 * J))
    for _ in range(3):  # absorb the N^(1-sigma) factor
        extra = max(0.0, 1.0 - sigma) * math.log(max(N, 2.0))
        N = base * math.exp((target + extra) / (2.0 * J))
    return max(int(math.ceil(N)), 2 * J, 20), J


def zeta_with_derivatives(
    s,
    kmax: int = 0,
    precision: int = DEFAULT_PRECISION,
    height_cap: float = DEFAULT_HEIGHT_CAP,
) -> list[mpc]:
    """[zeta(s), zeta'(s), ..., zeta^(kmax)(s)] in one Euler-Maclaurin pass."""
    global _calls
    _calls += 1
    z = mpc(s)
    if z == 1:
        raise PoleError("zeta has a pole at s = 1")
    t_abs = abs(float(z.imag))
    if t_abs > height_cap:
        raise HeightRangeError(
            f"|Im s| = {t_abs} exceeds the evaluation cap {height_cap}"
        )
    N, J = _em_parameters(precision, t_abs, float(z.real))
    K = kmax + 1
    with mp.workprec(precision + 24):
        z = mpc(z)
        out = [mpc(0) for _ in range(K)]
        out[0] += 1  # n = 1 term
        for n in range(2, N):
            ln_n = mp.ln(n)
            npow = mp.exp(-z * ln_n)
            fac = npow
            out[0] += fac
            for k in range(1, K):
                fac *= -ln_n
                out[k] += fac

        L = mp.ln(N)
        # N^(1-s)/(s-1): Leibniz over u = N^(1-s), v = 1/(s-1).
        u = mp.exp((1 - z) * L)
        u_der = [u]
        for _ in range(1, K):
            u_der.append(u_der[-1] * (-L))
        v_der = []
        vb = 1 / (z - 1)
        for b in range(K):
            v_der.append(vb)
            vb = vb * (-(b + 1)) / (z - 1)
        for k in range(K):
            acc = mpc(0)
            for a in range(k + 1):
                acc += mp.binomial(k, a) * u_der[a] * v_der[k - a]
            out[k] += acc

        # N^-s / 2
        half = mp.exp(-z * L) / 2
        fac = half
        out[0] += fac
        for k in range(1, K):
            fac *= -L
            out[k] += fac

        # Bernoulli corrections with P_j(s) = s(s+1)...(s+2j-2) kept as a
        # derivative vector p[a] = P_j^(a)(s), updated factor by factor.
        p = [mpc(0) for _ in range(K)]
        p[0] = z  # P_1(s) = s
        if K > 1:
            p[1] = mpc(1)
        w = mp.exp((-z - 1) * L)  # N^(1-s-2j) at j = 1
        w_scale = mp.exp(-2 * L)
        for j in range(1, J + 1):
            if j > 1:
                for c in (2 * j - 3, 2 * j - 2):
                    newp = [mpc(0) for _ in range(K)]
                    for a in range(K):
                        newp[a] = (z + c) * p[a]
                        if a >= 1:
                            newp[a] += a * p[a - 1]
                    p = newp
                w = w * w_scale
            coeff = mp.bernoulli(2 * j) / mp.factorial(2 * j)
            w_der = [w]
            for _ in range(1, K):
                w_der.append(w_der[-1] * (-L))
            for k in range(K):
                acc = mpc(0)
                for a in range(k + 1):
                    acc += mp.binomial(k, a) * p[a] * w_der[k - a]
                out[k] += coeff * acc
        return [+v for v in out]


def zeta(s, precision: int = DEFAULT_PRECISION,
         height_cap: float = DEFAULT_HEIGHT_CAP) -> mpc:
    """zeta(s) accurate to roughly 2^-(precision-8) relative."""
    return zeta_with_derivatives(s, 0, precision, height_cap)[0]


def zeta_derivative(s, k: int, precision: int = DEFAULT_PRECISION,
                    height_cap: float = DEFAULT_HEIGHT_CAP) -> mpc:
    """k-th derivative of zeta at s, k <= 4."""
    if not 0 <= k <= 4:
        raise DomainError("derivative order must satisfy 0 <= k <= 4")
    return zeta_with_derivatives(s, k, precision, height_cap)[k]


def zeta_taylor(center, order: int, precision: int = DEFAULT_PRECISION) -> list[mpc]:
    """Taylor coefficients zeta^(k)(center)/k! for k = 0..order."""
    ders = zeta_with_derivatives(center, order, precision)
    with mp.workprec(precision + 24):
        return [ders[k] / mp.factorial(k) for k in range(order + 1)]


# ---------------------------------------------------------------------------
# Stieltjes constants
# ---------------------------------------------------------------------------

def _log_power_derivative_coeffs(m: int, order: int) -> list[list[int]]:
    """Coefficient tables for derivatives of f(x) = (log x)^m / x.

    f^(j)(x) = sum_a c[j][a] (log x)^a x^-(j+1), with the integer recurrence
    c[j+1][a] = (a+1) c[j][a+1] - (j+1) c[j][a].
    """
    c = [[0] * (m + 1) for _ in range(order + 1)]
    c[0][m] = 1
    for j in range(order):
        for a in range(m + 1):
            nxt = -(j + 1) * c[j][a]
            if a + 1 <= m:
                nxt += (a + 1) * c[j][a + 1]
            c[j + 1][a] = nxt
    return c


def stieltjes(m: int, precision: int = DEFAULT_PRECISION,
              cutoff: int | None = None) -> mpf:
    """Stieltjes constant gamma_m for 0 <= m <= 8.

    Evaluates the defining limit
        gamma_m = lim_n [ sum_{k<=n} (log k)^m / k  -  (log n)^(m+1)/(m+1) ]
    at a finite cutoff with Euler-Maclaurin tail corrections, so the cutoff
    can stay small while the result carries the full working precision.
    """
    if not 0 <= m <= 8:
        raise DomainError("Stieltjes index must satisfy 0 <= m <= 8")
    n0 = cutoff if cutoff is not None else max(256, precision)
    J = 24 + 2 * m
    coeffs = _log_power_derivative_coeffs(m, 2 * J - 1)
    with mp.workprec(precision + 32):
        partial = mpf(0)
        for k in range(1, n0 + 1):
            partial += mp.ln(k) ** m / k
        L = mp.ln(n0)
        log_pows = [mpf(1)]
        for _ in range(m + 1):
            log_pows.append(log_pows[-1] * L)
        result = partial - log_pows[m + 1] / (m + 1)
        result -= log_pows[m] / (2 * n0)
        inv_n = mpf(1) / n0
        npow = inv_n * inv_n  # n^-(j+1) at j = 1 is n^-2
        for j in range(1, J + 1):
            deriv = mpf(0)
            for a, ca in enumerate(coeffs[2 * j - 1]):
                if ca:
                    deriv += ca * log_pows[a]
            deriv *= npow
            result -= mp.bernoulli(2 * j) / mp.factorial(2 * j) * deriv
            npow *= inv_n * inv_n
        return +result


def stieltjes_raw_partial(m: int, n: int) -> float:
    """The unaccelerated partial expression of the defining limit, in float64."""
    if not 0 <= m <= 8:
        raise DomainError("Stieltjes index must satisfy 0 <= m <= 8")
    terms = (math.log(k) ** m / k for k in range(1, n + 1))
    return math.fsum(terms) - math.log(n) ** (m + 1) / (m + 1)


# ---------------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------------

def chi(s, precision: int = DEFAULT_PRECISION) -> mpc:
    """Conversion factor chi(s) with zeta(s) = chi(s) zeta(1-s).

    Computed as pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2), which is equal to
    2^s pi^(s-1) sin(pi s/2) Gamma(1-s) but stays finite at the even
    integers s >= 2 where the sin factor cancels the Gamma pole.  Genuine
    poles sit at the odd integers s = 1, 3, 5, ... only.
    """
    z = mpc(s)
    with mp.workprec(precision + 24):
        z = mpc(z)
        w = (1 - z) / 2
        nearest = mp.floor(w.real + mpf("0.5"))
        if nearest <= 0 and abs(w - nearest) < mpf("1e-6"):
            raise PoleError("chi(s): pole at odd integer s too close")
        return +(mp.power(mp.pi, z - mpf("0.5"))
                 * mp.gamma(w) / mp.gamma(z / 2))


def functional_equation_residual(s, precision: int = DEFAULT_PRECISION) -> mpf:
    """|zeta(s) - chi(s) zeta(1-s)|; a self-test of the whole engine."""
    z = mpc(s)
    if z == 1:
        raise PoleError("s = 1 is the zeta pole")
    with mp.workprec(precision + 24):
        lhs = zeta(z, precision)
        rhs = chi(z, precision) * zeta(1 - z, precision)
        return +abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Zero polishing
# ---------------------------------------------------------------------------

def refine_zero(approx_ordinate, precision: int = DEFAULT_PRECISION,
                height_cap: float = DEFAULT_HEIGHT_CAP) -> mpf:
    """Polish a critical-line zero ordinate by Newton iteration on zeta.

    The start value must be within 0.05 of a true simple zero ordinate.
    Returns gamma with |zeta(1/2 + i gamma)| < 1e-10.
    """
    t0 = mpf(approx_ordinate)
    if t0 <= 10:
        raise DomainError("zero ordinates of interest are > 10")
    if float(t0) > height_cap:
        raise HeightRangeError(f"ordinate {t0} exceeds the cap {height_cap}")
    with mp.workprec(precision + 24):
        z = mpc(mpf("0.5"), t0)
        tol = mpf(2) ** (-(precision - 4))
        for _ in range(50):
            val, der = zeta_with_derivatives(z, 1, precision, height_cap)[:2]
            if der == 0:
                raise RefinementError("vanishing derivative during Newton step")
            step = val / der
            z = z - step
            if abs(z.imag - t0) > mpf("0.5"):
                raise RefinementError("Newton iteration left the start basin")
            if abs(step) < tol:
                break
        else:
            raise RefinementError("no convergence in 50 iterations")
        gamma = z.imag
        check = abs(zeta(mpc(mpf("0.5"), gamma), precision))
        if check >= mpf("1e-10"):
            raise RefinementError(f"polished point not a zero: |zeta| = {check}")
        return +gamma


# ---------------------------------------------------------------------------
# Vectorized float64 evaluation for contour quadrature
# ---------------------------------------------------------------------------

#: Float64 table of B_2j / (2j)!, j = 1, 2, ...; grown on demand.
_BERNOULLI_F64 = np.empty(0)


def _bernoulli_f64(J: int) -> np.ndarray:
    """B_2j / (2j)! for j = 1..J in float64."""
    global _BERNOULLI_F64
    if len(_BERNOULLI_F64) < J:
        _BERNOULLI_F64 = np.array(
            [float(mp.bernoulli(2 * j) / mp.factorial(2 * j)) for j in range(1, J + 1)]
        )
    return _BERNOULLI_F64[:J]


def zeta_f64(s: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta over an array of complex128 points.

    Double accuracy only; meant for dense contour quadrature.  (N, J) follow
    the multiprecision engine's rule, _em_parameters at 53 bits, with N
    chosen from the batch's largest |Im s| and smallest Re s, so batches
    grouped by height keep N local.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.size == 0:
        return np.zeros_like(s)
    N, J = _em_parameters(53, float(np.abs(s.imag).max()), float(s.real.min()))
    n = np.arange(1, N, dtype=np.float64)
    ln_n = np.log(n)
    flat = s.reshape(-1, 1)
    out = np.exp(-flat * ln_n).sum(axis=1)
    sf = s.reshape(-1)
    L = math.log(N)
    out += np.exp((1 - sf) * L) / (sf - 1)
    out += np.exp(-sf * L) / 2.0
    bern = _bernoulli_f64(J)
    p = sf.copy()  # P_1(s) = s
    w = np.exp((-sf - 1) * L)
    w_scale = math.exp(-2 * L)
    for j in range(1, J + 1):
        if j > 1:
            p = p * (sf + (2 * j - 3)) * (sf + (2 * j - 2))
            w = w * w_scale
        out += bern[j - 1] * p * w
    return out.reshape(s.shape)


def dirichlet_quotient_f64(s: np.ndarray) -> np.ndarray:
    """zeta(s)^3 / zeta(2s) over an array of complex128 points."""
    s = np.asarray(s, dtype=np.complex128)
    return zeta_f64(s) ** 3 / zeta_f64(2 * s)
