import functools
import math
from pathlib import Path

import numpy as np
import pytest
import mpmath
from mpmath import mp, mpf

from divisorlab import sieve, zeros
from divisorlab.zeta import dirichlet_quotient_f64

# Reference arithmetic in the tests themselves (pi^2/6, closed forms, ...)
# must not be the accuracy bottleneck.
mp.prec = 220

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
ZEROS_PATH = DATA_DIR / "zeros_first_100.txt"


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization [(p, a), ...] of n >= 1; the independent
    oracle for the sieve."""
    assert n >= 1, n
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def evaluate(function, factorization) -> int:
    """f(n) from an exact factorization [(p, a), ...] of n, as the product of
    the local factors f(p^a); with trial_factorize, the oracle for
    build_sieve's per-n values."""
    return math.prod(sieve._local_factor(function, a) for _, a in factorization)


def identity_check_range(limit: int) -> bool:
    """Verify all three convolution identities for every n <= limit.

    d(n^2) = sum_{d|n} 2^omega(d), 2^omega(n) = sum_{d|n} |mu(d)| and
    d(n)^2 = sum_{d|n} d(d^2): one value table per function from
    sieve.build_sieve, each divisor sum formed by one harmonic pass
    h[d::d] += g[d].
    """
    AF = sieve.ArithmeticFunction
    tables = {f: sieve.build_sieve(limit, f)
              for f in (AF.D_SQUARE, AF.TWO_OMEGA, AF.MU_SQUARED, AF.D_SQUARED)}

    def convolve_with_one(g: np.ndarray) -> np.ndarray:
        h = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            h[d::d] += g[d]
        return h

    pairs = [(AF.TWO_OMEGA, AF.D_SQUARE), (AF.MU_SQUARED, AF.TWO_OMEGA),
             (AF.D_SQUARE, AF.D_SQUARED)]
    return all(np.array_equal(convolve_with_one(tables[g])[1:], tables[f][1:])
               for g, f in pairs)


@functools.cache
def _reference_line(c: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Heights t and weighted values w F(c + it) i / (c + it) of the 16-point
    Gauss rule on panels 0.02 wide over 0 <= t <= T (T a multiple of 0.02)."""
    edges = np.arange(round(50 * T) + 1) / 50.0
    assert edges[-1] == T
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = np.diff(edges)[:, None] / 2
    t = ((edges[1:, None] + edges[:-1, None]) / 2 + half * nodes).ravel()
    s = c + 1j * t
    f = np.concatenate([dirichlet_quotient_f64(s[i: i + 1024])
                        for i in range(0, len(s), 1024)])
    return t, 1j * f * (half * weights).ravel() / s


def perron_reference(x: float, c: float, T: float) -> float:
    """The truncated Perron value Im(integral from c to c + iT) / pi on the
    fine panels of _reference_line, independent of perron's panel layout
    and Gauss-Kronrod rule; F is shared by every x at the same (c, T)."""
    t, wf = _reference_line(c, T)
    return float((wf * np.exp((c + 1j * t) * math.log(x))).sum().imag / math.pi)


@functools.cache
def residue_jet(j: int, mode: str) -> tuple:
    """The first j Taylor coefficients in h of (h zeta(1+h))^j / (1+h)
    times 1/zeta(2+2h), frozen at 1/zeta(2) in paper mode, at 90 digits
    from mpmath's Stieltjes constants and derivatives of zeta at 2;
    (h zeta(1+h)) = 1 + gamma_0 h - gamma_1 h^2 + ..."""

    def mul(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(j)]

    with mp.workdps(90):
        z = [mpmath.zeta(2, derivative=k) * 2**k / math.factorial(k)
             for k in range(j)]  # zeta(2 + 2h)
        q = [1 / z[0]]
        for n in range(1, j):
            q.append(-sum(z[i] * q[n - i] for i in range(1, n + 1)) / z[0]
                     if mode == "exact" else mpf(0))
        r = mul(q, [(-1) ** k for k in range(j)])  # 1/(1+h)
        e = [mpf(1), mpmath.stieltjes(0), -mpmath.stieltjes(1)][:j]
        for _ in range(j):
            r = mul(r, e)
        return tuple(r)


@pytest.fixture(scope="session")
def zeros_path() -> Path:
    return ZEROS_PATH


@pytest.fixture(scope="session")
def zero_table(zeros_path):
    return zeros.import_zeros(zeros_path)


@pytest.fixture(scope="session")
def zero_coefficients(zero_table):
    return zeros.coefficients_for_table(zero_table)
