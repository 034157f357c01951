"""Sieve correctness against trial-division and divisor-enumeration oracles."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate
from divisorlab import sieve
from divisorlab.errors import CapacityError, DomainError
from divisorlab.sieve import ArithmeticFunction as AF


def brute_divisor_count(n: int) -> int:
    """Divisor count by full enumeration; independent of any factorization."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def identity_check(n: int) -> tuple[bool, bool, bool]:
    """Truth of the three Dirichlet-convolution identities at n.

    Checked by explicit divisor enumeration and trial division:
        d(n^2)  == sum over d | n of 2^omega(d)
        2^omega == sum over d | n of |mu(d)|
        d(n)^2  == sum over d | n of d(d^2)
    """
    divs = [sieve.trial_factorize(d) for d in divisors(n)]
    fac_n = sieve.trial_factorize(n)
    lhs1 = evaluate(AF.D_SQUARE, fac_n)
    rhs1 = sum(evaluate(AF.TWO_OMEGA, f) for f in divs)
    lhs2 = evaluate(AF.TWO_OMEGA, fac_n)
    rhs2 = sum(evaluate(AF.MU_SQUARED, f) for f in divs)
    lhs3 = evaluate(AF.D_SQUARED, fac_n)
    rhs3 = sum(evaluate(AF.D_SQUARE, f) for f in divs)
    return (lhs1 == rhs1, lhs2 == rhs2, lhs3 == rhs3)


@pytest.mark.parametrize("rule", list(AF) + [1, 2, 3, 4])
def test_sieve_matches_trial_division(rule):
    values = sieve.build_sieve(10**6, rule)
    assert values.dtype == np.int64 and len(values) == 10**6 + 1
    assert values[0] == 0
    edges = [e + d for e in (2**18, 2**19) for d in (-1, 0, 1)]
    for n in list(range(1, 1001)) + edges + [999983, 10**6]:
        assert values[n] == evaluate(rule, sieve.trial_factorize(n)), n


def test_sieve_block_joins(monkeypatch):
    # blocks of 7 integers join into the same arrays and prefix sums
    expected = {rule: sieve.build_sieve(3000, rule) for rule in list(AF) + [3]}
    sums = {f: sieve.prefix_sum(f, 3000) for f in AF}
    monkeypatch.setattr(sieve, "_BLOCK", 7)
    for rule, values in expected.items():
        assert np.array_equal(sieve.build_sieve(3000, rule), values)
    assert {f: sieve.prefix_sum(f, 3000) for f in AF} == sums


@pytest.mark.parametrize(
    "n,expected",
    [(1, 1), (6, 9), (8, 7), (12, 15), (36, 25)],
)
def test_d_square_values(n, expected):
    assert evaluate(AF.D_SQUARE, sieve.trial_factorize(n)) == expected


def test_d_square_against_divisor_enumeration():
    for n in range(1, 200):
        val = evaluate(AF.D_SQUARE, sieve.trial_factorize(n))
        assert val == brute_divisor_count(n * n)


def test_evaluate_all_functions_small():
    # 360 = 2^3 3^2 5
    f = sieve.trial_factorize(360)
    assert evaluate(AF.D_SQUARE, f) == 7 * 5 * 3
    assert evaluate(AF.TWO_OMEGA, f) == 8
    assert evaluate(AF.MU_SQUARED, f) == 0
    assert evaluate(AF.D, f) == 4 * 3 * 2
    assert evaluate(AF.D_SQUARED, f) == 24 * 24


def test_prefix_sum_examples():
    assert sieve.prefix_sum(AF.D_SQUARE, 10) == 48
    assert sieve.prefix_sum(AF.MU_SQUARED, 10) == 7
    assert sieve.prefix_sum(AF.D_SQUARE, 1) == 1


@pytest.mark.parametrize("function", list(AF))
def test_prefix_sum_matches_naive_oracle(function):
    limit = 2000
    oracle = 0
    values = sieve.build_sieve(limit, function)
    for n in range(1, limit + 1):
        oracle += evaluate(function, sieve.trial_factorize(n))
        assert int(values[:n + 1].sum()) == oracle
    assert sieve.prefix_sum(function, limit) == oracle


def test_prefix_sum_increments_by_point_values():
    running = 0
    vals = sieve.build_sieve(300, AF.D_SQUARE)
    for x in range(1, 301):
        running += evaluate(AF.D_SQUARE, sieve.trial_factorize(x))
        assert running == int(vals[:x + 1].sum())


def sieve_cumsum(function, limit):
    """[S(1), ..., S(limit)] from the sieve's per-n values: the oracle."""
    return np.cumsum(sieve.build_sieve(limit, function)[1:])


def tuple_count(j: int, y: int) -> int:
    """Ordered j-tuples of positive integers with product <= y, by enumeration."""
    if j == 1:
        return y
    return sum(tuple_count(j - 1, y // a) for a in range(1, y + 1))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_divisor_summatory_counts_tuples(j):
    for y in range(0, 301):
        assert sieve.divisor_summatory(j, y) == tuple_count(j, y)


def test_divisor_summatory_chunking(monkeypatch):
    # pair expansion split into many tiny chunks gives the same counts
    expected = {(j, y): sieve.divisor_summatory(j, y)
                for j in (2, 3, 4) for y in (97, 300)}
    monkeypatch.setattr(sieve, "_CHUNK", 5)
    for (j, y), value in expected.items():
        assert sieve.divisor_summatory(j, y) == value


@settings(max_examples=20, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=30000),
    function=st.sampled_from(list(AF)),
)
def test_prefix_sum_schedule_invariance(x, function):
    oracle = int(sieve_cumsum(function, x)[-1])
    assert sieve.prefix_sum(function, x) == oracle


@pytest.mark.parametrize("function", list(AF))
def test_prefix_sums_at_dense_cuts(function):
    oracle = sieve_cumsum(function, 5000)
    got = sieve.prefix_sums_at(function, range(1, 5001))
    assert [got[x] for x in range(1, 5001)] == oracle.tolist()


def test_prefix_sums_at_sparse_cuts_to_2e6():
    limit = 2 * 10**6
    rng = np.random.default_rng(11)
    cuts = sorted(set(rng.integers(1, limit, 60).tolist()) | {1, 65536, 65537, limit})
    for function in AF:
        oracle = sieve_cumsum(function, limit)
        got = sieve.prefix_sums_at(function, cuts)
        assert got == {x: int(oracle[x - 1]) for x in cuts}, function


def test_mobius_matches_trial_division():
    # mu(k) for every k the 1e8 sums below use
    mu = sieve._mobius(10**4)
    for k in range(1, 10**4 + 1):
        exps = [a for _, a in sieve.trial_factorize(k)]
        assert mu[k] == (0 if any(a > 1 for a in exps) else (-1) ** len(exps))


@pytest.mark.parametrize("function", list(AF))
def test_table_and_hyperbola_agree_at_1e8(function, monkeypatch):
    x = 10**8
    expected = sieve.prefix_sum(function, x)
    monkeypatch.setattr(sieve, "_table_limit", lambda x_max: 2**10)
    small = sieve._prefix_sums(function, [x])[x]
    monkeypatch.setattr(sieve, "_table_limit", lambda x_max: 2**20)
    large = sieve._prefix_sums(function, [x])[x]
    assert small == large == expected
    assert isinstance(large, int)


def test_domain_and_capacity_errors():
    with pytest.raises(DomainError):
        sieve.prefix_sum(AF.D_SQUARE, 0)
    with pytest.raises(DomainError):
        sieve.prefix_sums_at(AF.D_SQUARE, [5, 0])
    with pytest.raises(DomainError):
        sieve.build_sieve(0, AF.D_SQUARE)
    with pytest.raises(CapacityError):
        sieve.build_sieve(sieve.LIMIT_CAP + 1, AF.D_SQUARE)
    with pytest.raises(CapacityError):
        sieve.prefix_sum(AF.D_SQUARE, sieve.LIMIT_CAP + 1)
    with pytest.raises(CapacityError):
        sieve.prefix_sums_at(AF.D_SQUARE, [10, sieve.LIMIT_CAP + 1])
    assert sieve.prefix_sums_at(AF.D_SQUARE, []) == {}


def test_identity_check_examples():
    assert identity_check(1) == (True, True, True)
    assert identity_check(6) == (True, True, True)
    # the n=6 numbers the identities pin down
    divs = divisors(6)
    assert sum(evaluate(AF.TWO_OMEGA, sieve.trial_factorize(d)) for d in divs) == 9
    assert sum(evaluate(AF.D_SQUARE, sieve.trial_factorize(d)) for d in divs) == 16


def test_identity_check_small_range():
    for n in range(1, 500):
        assert identity_check(n) == (True, True, True)


def test_identity_check_range_agrees_with_pointwise():
    pointwise = all(all(identity_check(n)) for n in range(1, 3001))
    assert pointwise
    assert sieve.identity_check_range(3000) == pointwise


@pytest.mark.parametrize("function", [AF.D_SQUARE, AF.TWO_OMEGA,
                                      AF.MU_SQUARED, AF.D_SQUARED])
def test_identity_check_range_rejects_a_corrupted_table(monkeypatch, function):
    """One wrong value at n = 2310 in one function's sieve table fails the
    batch check at every limit from 2310 on, and not below."""
    build_sieve = sieve.build_sieve

    def corrupted(limit, rule):
        values = build_sieve(limit, rule)
        if rule == function and limit >= 2310:
            values[2310] += 1
        return values

    monkeypatch.setattr(sieve, "build_sieve", corrupted)
    assert not sieve.identity_check_range(3000)
    assert not sieve.identity_check_range(2310)
    assert sieve.identity_check_range(2309)


def test_prefix_sums_at_multiple_cuts():
    cuts = [1, 10, 999, 1000, 8191]
    got = sieve.prefix_sums_at(AF.D_SQUARE, cuts)
    for x in cuts:
        assert got[x] == sieve.prefix_sum(AF.D_SQUARE, x)
