"""Exact prefix sums by S(x) = sum mu(k) D_j(x // k^2); one sieve call,
build_sieve(limit, rule), supplies per-n values, the D_j table and the oracle.

Each summable function f has Dirichlet series zeta^j(s) / zeta(2s), so

    sum_{n <= x} f(n) = sum_{k <= sqrt x} mu(k) D_j(floor(x / k^2)),

where D_j(y) = sum_{n <= y} d_j(n) counts ordered j-tuples with product
<= y:

    d(n^2)    : j = 3        2^omega   : j = 2
    |mu|      : j = 1        d(n)^2    : j = 4
    d         : j = 2, the k = 1 term alone (its series is zeta^2(s)).

D_j(y) is read from a cumulative table of d_j for y up to a limit Y, chosen
from the largest cut point X as max(X^(2/3), min(X, 2^16)), capped at 2^22
entries, and evaluated by the Dirichlet hyperbola method above Y.  All cut
points are handled together in one pass over the (squarefree k, cut) pairs,
a chunk of k rows at a time, each chunk at most max(_CHUNK, number of cuts)
pairs: a chunk's pairs with x // k^2 <= Y read the table in one gather, and
only the rest go one by one to the hyperbola.  Results are returned as
Python integers (every intermediate fits int64 below LIMIT_CAP).

build_sieve(limit, rule) factors every n <= limit by the primes up to
sqrt(limit) and returns the int64 array of f(0..limit), f(0) = 0.  It gives
the per-n values (dirichlet-verify, identity checks, d for the D_4
hyperbola), builds the D_j table as a cumulative sum, and stays the oracle
the tests hold the prefix sums to.

One local rule at a prime power p^a (_local_factor) serves them all: f(p^a)
is the coefficient of X^a in the Euler factor of the series,
(1 - X^2) (1 - X)^-j, or (1 - X)^-j alone for d and for d_j, that is
c_j(a) - c_j(a - 2), with c_j(m) = C(m + j - 1, j - 1) for m >= 0 and 0
below.  It gives 2a + 1 for d(n^2), 2 for 2^omega, [a = 1] for |mu|,
(a + 1)^2 for d(n)^2 and a + 1 for d.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import Iterable

from . import lazy_import
from .errors import CapacityError, DomainError

np = lazy_import("numpy")

#: Documented sieve limit cap: keeps sqrt(limit) sieving and memory planning safe.
LIMIT_CAP = 1 << 40

#: Integers build_sieve factors at a time; bounds its working arrays.
_BLOCK = 1 << 18

#: Largest D_j table (32 MiB of int64); above it the hyperbola method takes over.
_TABLE_CAP = 1 << 22

#: Entries per 2-D working array: the hyperbola method's flat term arrays
#: and the prefix sums' (k, cut) pairs.
_CHUNK = 1 << 18


class ArithmeticFunction(Enum):
    """Multiplicative functions whose prefix sums the library computes."""

    D_SQUARE = "d_square"      # d(n^2)
    TWO_OMEGA = "two_omega"    # 2^omega(n)
    MU_SQUARED = "mu_squared"  # |mu(n)|
    D = "d"                    # d(n)
    D_SQUARED = "d_squared"    # d(n)^2


#: function -> (j, whether mu(k) D_j(x // k^2) runs over all k or k = 1 only),
#: that is, whether the series is zeta^j(s) / zeta(2s) or zeta^j(s) alone.
#: The local factors and formula's main terms read it too.
_ROUTES = {
    ArithmeticFunction.D_SQUARE: (3, True),
    ArithmeticFunction.TWO_OMEGA: (2, True),
    ArithmeticFunction.MU_SQUARED: (1, True),
    ArithmeticFunction.D: (2, False),
    ArithmeticFunction.D_SQUARED: (4, True),
}


def _local_factor(rule: ArithmeticFunction | int, a):
    """f(p^a) for an int exponent a >= 0 or an int64 array of them: the
    coefficient of X^a in (1 - X^2) (1 - X)^-j, c_j(a) - c_j(a - 2), where
    the route of rule runs over all k, and c_j(a) where it does not.

    rule is an ArithmeticFunction, with (j, all k) from _ROUTES, or an int
    j >= 1 for the j-fold divisor function d_j.
    """
    j, all_k = _ROUTES[rule] if isinstance(rule, ArithmeticFunction) else (rule, False)

    def c(m):  # C(m + j - 1, j - 1), 0 for m < 0; C(m + i, i) after step i
        out = (m >= 0) * 1
        for i in range(1, j):
            out = out * (m + i) // i
        return out

    return c(a) - c(a - 2) if all_k else c(a)


def small_primes(limit: int) -> np.ndarray:
    """Primes <= limit by a plain Eratosthenes sieve."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i:: i] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def _mobius(limit: int) -> np.ndarray:
    """mu(k) for 0 <= k <= limit (mu(0) = 0)."""
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in small_primes(limit):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def _check_limit(limit: int) -> None:
    if limit < 1:
        raise DomainError("sieve limit must be >= 1")
    if limit > LIMIT_CAP:
        raise CapacityError(f"sieve limit {limit} exceeds cap 2^40")


def build_sieve(limit: int, rule: ArithmeticFunction | int) -> np.ndarray:
    """values[n] = f(n) for 0 <= n <= limit as int64, with f(0) = 0.

    rule is what _local_factor takes.  [1, limit] is factored in blocks of
    _BLOCK integers, each multiplying its local factors straight into its
    slice of the result, read from one table of f(p^a) for every exponent
    a <= limit.bit_length().
    """
    _check_limit(limit)
    factors = _local_factor(rule, np.arange(limit.bit_length() + 1, dtype=np.int64))
    values = np.ones(limit + 1, dtype=np.int64)
    values[0] = 0
    primes = small_primes(isqrt(limit)).tolist()
    for lo in range(1, limit + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, limit)
        block = values[lo: hi + 1]
        residual = np.arange(lo, hi + 1, dtype=np.int64)
        for p in primes:
            if p * p > hi:
                break
            first = -lo % p  # offset of the block's first multiple of p
            exps = np.ones((hi - lo - first) // p + 1, dtype=np.int64)
            q = p * p
            while q <= hi:  # each multiple of q = p^a is one more factor p
                exps[(-lo % q - first) // p:: q // p] += 1
                q *= p
            residual[first::p] //= p ** exps
            block[first::p] *= factors[exps]
        # what is left of n is 1 or a single prime above sqrt(hi)
        block[residual > 1] *= factors[1]
    return values


def _isqrt_array(z: np.ndarray) -> np.ndarray:
    """floor(sqrt(z)) for an int64 array below 2^53."""
    r = np.sqrt(z.astype(np.float64)).astype(np.int64)
    r -= r * r > z
    r += (r + 1) * (r + 1) <= z
    return r


def _quotient_sum(z: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  weight: np.ndarray) -> int:
    """sum_i weight[i] * sum_{lo[i] <= b <= hi[i]} floor(z[i] / b).

    The (i, b) pairs are expanded into flat arrays a few rows at a time, up
    to _CHUNK entries (or one row, at most sqrt(LIMIT_CAP) long), so memory
    stays bounded whatever the number of terms.
    """
    counts = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(counts)
    total, i = 0, 0
    while i < len(z):
        stop = max(int(np.searchsorted(ends, ends[i] - counts[i] + _CHUNK, "right")),
                   i + 1)
        c = counts[i:stop]
        row = np.repeat(np.arange(i, stop), c)
        b = lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(c) - c, c)
        total += int(np.dot(weight[row], z[row] // b))
        i = stop
    return total


def divisor_summatory(j: int, y: int) -> int:
    """D_j(y) = sum_{n <= y} d_j(n) by the Dirichlet hyperbola method, j = 1..4.

    D_j(y) counts ordered j-tuples of positive integers with product <= y.
    """
    if y < 1:
        return 0
    if j == 1:
        return y
    one = np.ones(1, dtype=np.int64)
    if j == 2:  # pairs ab <= y have a or b <= sqrt y; the square is counted twice
        s = isqrt(y)
        return 2 * _quotient_sum(y * one, one, s * one, one) - s * s
    if j == 3:
        # Sorted triples a <= b <= c <= y / (ab), weighted by their 1, 3 or 6
        # orderings: b = a gives 3 (y // a^2) - 3a + 1, and each b in
        # (a, sqrt(y/a)] gives 6 (y // ab) - 6b + 3, whose b-part sums to
        # -3 (top^2 - a^2).
        c = round(y ** (1 / 3))
        c -= c ** 3 > y
        c += (c + 1) ** 3 <= y
        a = np.arange(1, c + 1)
        z = y // a
        top = _isqrt_array(z)
        closed = int((3 * (z // a) - 3 * a + 1 - 3 * (top * top - a * a)).sum())
        return closed + 6 * _quotient_sum(z, a + 1, top, np.ones_like(a))
    if j == 4:
        # d_4 = d * d split at s = sqrt y: 2 sum_{a <= s} d(a) D_2(y // a) - D_2(s)^2
        s = isqrt(y)
        d = build_sieve(s, ArithmeticFunction.D)[1:]
        z = y // np.arange(1, s + 1)
        r = _isqrt_array(z)
        d2_sum = 2 * _quotient_sum(z, np.ones_like(z), r, d) - int(np.dot(d, r * r))
        return 2 * d2_sum - divisor_summatory(2, s) ** 2
    raise DomainError(f"divisor_summatory needs 1 <= j <= 4, got {j}")


def _table_limit(x_max: int) -> int:
    """Y, the largest argument read from the D_j table rather than computed."""
    return min(max(round(x_max ** (2 / 3)), min(x_max, 1 << 16)), _TABLE_CAP)


def _summatory_table(j: int, limit: int) -> np.ndarray:
    """table[y] = D_j(y) for 0 <= y <= limit, from one sieve pass."""
    table = build_sieve(limit, j)
    return np.cumsum(table, out=table)


def _prefix_sums(function: ArithmeticFunction, cuts: list[int]) -> dict[int, int]:
    """sum mu(k) D_j(x // k^2) at ascending cut points, a chunk of k rows at
    a time.  A pair with k^2 > x reads table[0] = 0."""
    j, all_k = _ROUTES[function]
    x_max = cuts[-1]
    y_max = _table_limit(x_max)
    table = _summatory_table(j, y_max)
    mu = _mobius(isqrt(x_max) if all_k else 1)
    ks = np.flatnonzero(mu)
    xs = np.array(cuts, dtype=np.int64)
    total = np.zeros(len(xs), dtype=np.int64)
    rows = max(1, _CHUNK // len(xs))
    for lo in range(0, len(ks), rows):
        k = ks[lo: lo + rows]
        ys = xs // (k * k)[:, None]
        near = ys <= y_max
        total += (mu[k, None] * table[np.where(near, ys, 0)]).sum(axis=0)
        for row, i in zip(*np.nonzero(~near)):
            total[i] += mu[k[row]] * divisor_summatory(j, int(ys[row, i]))
    return dict(zip(cuts, total.tolist()))


def prefix_sum(function: ArithmeticFunction, x: int) -> int:
    """Exact sum of f(n) for n <= x, as an unbounded Python integer."""
    _check_limit(x)
    return _prefix_sums(function, [int(x)])[int(x)]


def prefix_sums_at(function: ArithmeticFunction, xs: Iterable[int]) -> dict[int, int]:
    """Exact prefix sums at several cut points, from one D_j table."""
    cuts = sorted(set(int(x) for x in xs))
    if not cuts:
        return {}
    if cuts[0] < 1:
        raise DomainError("prefix sum cut points must be >= 1")
    _check_limit(cuts[-1])
    return _prefix_sums(function, cuts)

