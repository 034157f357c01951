import functools
import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from divisorlab import sieve, zeros
from divisorlab.zeta import dirichlet_quotient_f64

# Reference arithmetic in the tests themselves (pi^2/6, closed forms, ...)
# must not be the accuracy bottleneck.
mp.prec = 220

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
ZEROS_PATH = DATA_DIR / "zeros_first_100.txt"


def evaluate(function, factorization) -> int:
    """f(n) from an exact factorization [(p, a), ...] of n, as the product of
    the local factors f(p^a); with sieve.trial_factorize, the oracle for
    build_sieve's per-n values."""
    return math.prod(sieve._local_factor(function, a) for _, a in factorization)


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


@pytest.fixture(scope="session")
def zeros_path() -> Path:
    return ZEROS_PATH


@pytest.fixture(scope="session")
def zero_table(zeros_path):
    return zeros.import_zeros(zeros_path)


@pytest.fixture(scope="session")
def zero_coefficients(zero_table):
    return zeros.coefficients_for_table(zero_table)
