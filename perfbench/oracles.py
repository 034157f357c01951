"""Independent references for the benchmark's output checks.

Nothing here imports divisorlab: exact sums come from the squarefree
decomposition sum_{k <= sqrt x} mu(k) D_j(floor(x / k^2)) instead of the
segmented sieve, and analytic numbers come from mpmath's own zeta, zetazero
and stieltjes instead of the package's Euler-Maclaurin engine.
"""

from __future__ import annotations

import math
from math import isqrt

import mpmath
import numpy as np

#: d(n^2), 2^omega(n), mu(n)^2 are mu(k) * D_j summed over squares k^2, with
#: D_j the summatory function of the j-fold divisor function.
DIVISOR_ORDER = {"d_square": 3, "two_omega": 2, "mu_squared": 1}


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by the sieve of Eratosthenes."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.nonzero(is_prime)[0]


def mobius_upto(n: int) -> np.ndarray:
    """mu(k) for 0 <= k <= n, with mu(0) = 0."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_upto(n):
        p = int(p)
        mu[p:: p] *= -1
        mu[p * p:: p * p] = 0
    return mu


def divisor_summatory(y: int, j: int) -> int:
    """D_j(y) = #{(a_1, ..., a_j) : a_1 ... a_j <= y} for j = 1, 2, 3."""
    if y < 1:
        return 0
    if j == 1:
        return y
    if j == 2:
        r = isqrt(y)
        a = np.arange(1, r + 1, dtype=np.int64)
        return 2 * int((y // a).sum()) - r * r
    if j != 3:
        raise ValueError("j must be 1, 2 or 3")
    # Unordered triples a <= b <= c weighted by their distinct orderings.
    total = 0
    a = 1
    while a * a * a <= y:
        top = isqrt(y // a)
        b = np.arange(a + 1, top + 1, dtype=np.int64)
        total += 6 * int((y // (a * b) - b).sum()) + 3 * len(b)
        total += 3 * (y // (a * a) - a) + 1
        a += 1
    return total


def exact_sum(function: str, x: int, mu: np.ndarray | None = None) -> int:
    """sum_{n <= x} f(n) for f named as in the CLI's ArithmeticFunction."""
    j = DIVISOR_ORDER[function]
    r = isqrt(x)
    if mu is None or len(mu) <= r:
        mu = mobius_upto(r)
    return sum(int(mu[k]) * divisor_summatory(x // (k * k), j)
               for k in range(1, r + 1) if mu[k])


def trial_division_values(function: str, limit: int) -> list[int]:
    """f(n) for 1 <= n <= limit by trial division; checks exact_sum at small x."""
    out = []
    for n in range(1, limit + 1):
        exps, m, p = [], n, 2
        while p * p <= m:
            if m % p == 0:
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                exps.append(a)
            p += 1
        if m > 1:
            exps.append(1)
        if function == "d_square":
            out.append(math.prod(2 * a + 1 for a in exps))
        elif function == "two_omega":
            out.append(2 ** len(exps))
        else:
            out.append(int(all(a == 1 for a in exps)))
    return out


def d_square_values(limit: int) -> np.ndarray:
    """d(n^2) = prod (2 a_p + 1) for 1 <= n <= limit, prime by prime."""
    vals = np.ones(limit, dtype=np.int64)
    for p in primes_upto(limit):
        p = int(p)
        # exps[i] = v_p(p (i + 1)): one plus the multiples of p^(a-1) counted.
        exps = np.ones(limit // p, dtype=np.int64)
        q = p
        while q * p <= limit:
            exps[q - 1:: q] += 1
            q *= p
        vals[p - 1:: p] *= 2 * exps + 1
    return vals


class Analytic:
    """Analytic constants from mpmath at a fixed decimal precision."""

    def __init__(self, dps: int = 45):
        self.dps = dps
        with mpmath.workdps(dps):
            self.gamma = [mpmath.stieltjes(m) for m in range(5)]
            self.zeta2 = [mpmath.zeta(2, derivative=k) for k in range(3)]
            self.pi_squared_over_6 = mpmath.pi ** 2 / 6
            self.main = {"exact": self._main_term(exact=True),
                         "paper": self._main_term(exact=False)}
            z0, z1 = self.zeta2[0], self.zeta2[1]
            self.a2_shift = -2 * z1 / z0 ** 2
            self.companion = (1 / z0, (2 * self.gamma[0] - 1) / z0)
            self.two_omega_exact = (self.companion[0],
                                    self.companion[1] + self.a2_shift)

    def _main_term(self, exact: bool):
        """(A1, A2, A3) of the residue at s = 1 of zeta^3(s)/zeta(2s) x^s/s.

        With u = s - 1, zeta^3(s) = u^-3 P(u) and the rest is
        x e^(u log x) q(u), q = 1/((1+u) zeta(2+2u)); the residue is
        x (R0 log^2 x / 2 + R1 log x + R2) for R = P q.
        """
        g0, g1 = self.gamma[0], self.gamma[1]
        p = [mpmath.mpf(1), 3 * g0, 3 * g0 ** 2 - 3 * g1]
        z0, z1, z2 = self.zeta2
        if exact:
            # zeta(2 + 2u) = z0 + 2 z1 u + 2 z2 u^2, inverted as a series.
            i0 = 1 / z0
            i1 = -2 * z1 * i0 / z0
            i2 = -(2 * z1 * i1 + 2 * z2 * i0) / z0
        else:
            i0, i1, i2 = 1 / z0, mpmath.mpf(0), mpmath.mpf(0)
        q = [i0, i1 - i0, i2 - i1 + i0]  # times 1/(1+u) = 1 - u + u^2
        r = [sum(p[i] * q[n - i] for i in range(n + 1)) for n in range(3)]
        return r[0] / 2, r[1], r[2]

    def main_value(self, x, include_constant: bool = True):
        """x (A1 log^2 x + A2 log x + A3) in exact mode, plus 1/4 if asked."""
        a1, a2, a3 = self.main["exact"]
        with mpmath.workdps(self.dps):
            xv = mpmath.mpf(x)
            lam = mpmath.log(xv)
            value = xv * (a1 * lam ** 2 + a2 * lam + a3)
            return value + mpmath.mpf(1) / 4 if include_constant else value

    def two_omega_main(self, x):
        a1, a2 = self.two_omega_exact
        with mpmath.workdps(self.dps):
            xv = mpmath.mpf(x)
            return a1 * xv * mpmath.log(xv) + a2 * xv

    def mu_squared_main(self, x):
        with mpmath.workdps(self.dps):
            return mpmath.mpf(x) / self.zeta2[0]


def zero_coefficient(gamma, dps: int = 40):
    """A = zeta^3(rho/2) / ((rho/2) 2 zeta'(rho)) for rho = 1/2 + i gamma."""
    with mpmath.workdps(dps):
        rho = mpmath.mpc(0.5, mpmath.mpf(gamma))
        half = rho / 2
        return mpmath.zeta(half) ** 3 / (half * 2 * mpmath.zeta(rho, derivative=1))


def zero_pole_residue(k: int, x, dps: int = 40):
    """Residue of zeta^3(s)/zeta(2s) x^s/s at the k-th zero pole (true zero)."""
    with mpmath.workdps(dps):
        gamma = mpmath.zetazero(k).imag
        return zero_coefficient(gamma, dps) * mpmath.power(
            mpmath.mpf(x), mpmath.mpc(0.25, gamma / 2))


def zero_sum(x, coefficients, dps: int = 30):
    """Zero sum at x and the two sizes that bound a float64 evaluation's error.

    Returns (sum of A x^(rho/2) + conjugate, sum of the term magnitudes, sum
    of the term magnitudes weighted by 1 + |phase|).  coefficients is a list
    of (gamma, A) as mpmath numbers.
    """
    with mpmath.workdps(dps):
        lx = mpmath.log(mpmath.mpf(x))
        total = scale = phase_scale = mpmath.mpf(0)
        for gamma, a in coefficients:
            term = a * mpmath.exp(mpmath.mpc(0.25, gamma / 2) * lx)
            total += 2 * term.real
            scale += 2 * abs(term)
            phase_scale += 2 * abs(term) * (1 + abs(gamma) / 2 * lx)
        return total, scale, phase_scale


def zero_sum_f64(xs: np.ndarray, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized float64 zero sums over a grid, with their phase-weighted
    term sizes as in zero_sum."""
    gam = np.array([float(g) for g, _ in coefficients])
    amp = np.array([complex(a) for _, a in coefficients])
    lx = np.log(np.asarray(xs, dtype=np.float64))[:, None]
    terms = amp[None, :] * np.exp((0.25 + 0.5j * gam[None, :]) * lx)
    weights = 1 + 0.5 * np.abs(gam)[None, :] * lx
    return 2.0 * terms.real.sum(axis=1), 2.0 * (np.abs(terms) * weights).sum(axis=1)


def dirichlet_quotient(s, dps: int = 20):
    """zeta(s)^3 / zeta(2s) in mpmath."""
    with mpmath.workdps(dps):
        s = mpmath.mpc(s)
        return mpmath.zeta(s) ** 3 / mpmath.zeta(2 * s)


def perron_truncation_bound(x: float, c: float, T: float, d_square_values,
                            dps: int = 20) -> float:
    """Rigorous bound on |I(T) - S(x)| for the truncated Perron integral.

    Each term obeys |(1/2 pi i) int y^s/s ds - [y > 1]| <= y^c min(1, 1/(pi T
    |log y|)) with y = x/n.  Terms n <= N are summed exactly from d_square_values
    (d(n^2) for n = 1..N); the tail n > N uses |log y| >= log(N/x) and the
    remainder F(c) - sum_{n<=N} d(n^2) n^-c.
    """
    vals = np.asarray(d_square_values, dtype=np.float64)
    n = np.arange(1, len(vals) + 1, dtype=np.float64)
    y = x / n
    per = np.minimum(1.0, 1.0 / (math.pi * T * np.abs(np.log(y))))
    head = float(np.sum(vals * y ** c * per))
    big_n = len(vals)
    with mpmath.workdps(dps):
        remainder = float(dirichlet_quotient(c).real) - float(np.sum(vals * n ** -c))
    tail = max(remainder, 0.0) * x ** c / (math.pi * T * math.log(big_n / x))
    return head + tail


def correct_digits(got, ref, cap: float, scale=None) -> float:
    """Digits of got that agree with ref, relative to scale (default |ref|),
    capped at cap."""
    err = abs(got - ref)
    if err == 0:
        return cap
    return min(cap, -math.log10(float(err / (abs(ref) if scale is None else scale))))
