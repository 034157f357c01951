"""Multiprecision Riemann zeta machinery.

Everything is built on one Euler-Maclaurin continuation

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{j=1..J} B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j) + R,

with the least N + J for which Backlund's bound on |R| (a Cauchy estimate
of it on a small circle about s for a derivative jet) stays below the last
retained bit; the bound's log is taken in closed form, so each J costs O(1).
Derivatives in s come from the same pass, as exact integer sums: the
Dirichlet sum gives sum n^-s (ln n)^k, the exponentials N^-s times powers of
L = ln N, and each product its binomial sum with integer coefficients, so
the derivative values stay consistent with the base evaluation.  At s = 1
the pole term's 1/(s-1) is left out, so the jet is that of
zeta(s) - 1/(s-1), whose Taylor coefficients are the Stieltjes constants:
zeta(1+h) = 1/h + sum_m (-1)^m gamma_m h^m / m!.

The multiprecision engine works at precision + 24 bits, lifted by
-Re s log2 N left of 0, where terms grow like N^-Re s, and by log2 ln N per
derivative order: the pieces cancel by those bits where the result is small.
Once (N, J) are chosen it stays in Python integers at the scale 2^wp,
wp = the working precision plus log2 N guard bits for the sum, and each
output becomes an mpc once, at the end.  The Dirichlet sum is
multiplicative: with p the smallest prime dividing n, n^-s = p^-s (n/p)^-s
and ln n = ln p + ln(n/p), so only the primes below N pay for an exp and,
unless s is real, a cos/sin, and their fixed-point logs, which do not
depend on s, are kept per (p, wp); a composite costs one complex integer
product.  The ln n list, which only the derivative sums read, is built
apart and only for kmax > 0.  One more fixed-point exp gives E = N^-s,
which the pole term, N^-s / 2 and N^(-1-s) read as E N, E / 2 and E / N;
1/(s-1) is one integer quotient, taken at a scale at which s - 1 is exact.
The Bernoulli terms share the factor N^(-1-s), so they are summed as one
jet sum_j B_2j/(2j)! Q_j(s) with Q_j = N^(2-2j) P_j(s), scaled by N^-2 per
step, from one fixed-point coefficient table per (J, precision).  The
smallest-prime-factor table and the logs hold integers only; no mp value
outlives a call.

zeta_pair returns the jets at s and at 2s as two engine calls that read one
n^-s table, as the float64 F does: built to the larger N at the larger
fixed-point scale, its rows squared for 2s.  The multiprecision F on the
residue circles and the zero coefficients zeta^3(rho/2) / (rho/2 2 zeta'(rho))
read their values from it.

Also here: the Stieltjes constants gamma_0..gamma_8, read from one jet of
the engine at s = 1.

A vectorized float64 evaluator is provided for contour quadrature, where
thousands of nodes are needed at only double accuracy.  It picks (N, J) by
the same rule as the multiprecision engine, at 53 bits, and folds its
Bernoulli tail the same way, with Q_j and B_2j/(2j)! scaled by powers of two
to stay in range at the height cap; its coefficients are the correctly
rounded float64 values of the same exact fractions, one table per J,
summed by Horner after one exp E = N^-s.  Its Dirichlet sum is
multiplicative too: a table holds n^-s for a batch, one row per n; the prime
rows take a complex exp and each composite row is the product of the rows
of its smallest prime p and of n / p, one vectorized step per count of prime
factors.  F(s) = zeta(s)^3 / zeta(2s) is evaluated on a grid b + o, as the
Perron panels are (midpoints b, node offsets o): n^-(b + o) = n^-b n^-o
separates, as in Odlyzko and Schonhage's multiple evaluation of zeta on
arithmetic progressions (Trans. AMS 309, 1988), so F contracts a table of
31 midpoints with one of 33 offsets where a flat table would have 1023
columns; zeta(2s) reads both squared.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_int, mpf_log, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from . import DEFAULT_PRECISION, lazy_import
from .errors import DomainError, HeightRangeError, PoleError, PrecisionError

np = lazy_import("numpy")  # used by the float64 section only

#: Lowest working precision; below it the engines' guard bits are not enough.
MIN_PRECISION = 64

#: Cap on |Im s| of every multiprecision call; Riemann-Siegel large-height evaluation is out of scope.
DEFAULT_HEIGHT_CAP = 1.0e4

# Engine call counter, used by cache-instrumentation tests.
_calls = 0


def call_count() -> int:
    return _calls


def reset_call_count() -> None:
    global _calls
    _calls = 0


#: Least Dirichlet cutoff N.  Far right of the critical strip the bound
#: alone would take N down to 2, where the float64 table has no prime row.
_MIN_CUTOFF = 20

#: Radius of the circle about s on which Cauchy's estimate bounds the
#: remainder of a jet's higher coefficients.
_CAUCHY_RADIUS = 0.25

_LN2 = math.log(2.0)
_LOG_2PI = math.log(2 * math.pi)
_LOG_2_ZETA_4 = math.log(math.pi ** 4 / 45)  # 2 zeta(2J + 2) <= 2 zeta(4), J >= 1


def _cutoffs(precision: int, t_abs: float, sigma: float,
             kmax: int) -> tuple[int, int, Callable[[int], float]]:
    """(lowest, estimate, cutoff) of the (N, J) rule at sigma + i t_abs: the
    least J the bound holds for, the J the walk starts from, and J -> N_J,
    the least real N >= _MIN_CUTOFF for which Backlund's bound on the
    Euler-Maclaurin remainder is at most 2^-(precision+12), or inf where that
    N is past the float range.

    For Re w > -2J-1 (Backlund, Acta Math. 41, 1918; Edwards, Riemann's
    Zeta Function, 1974, 6.4)

        |R_J(w)| <= |w+2J+1| / (Re w+2J+1) 2 zeta(2J+2) / (2 pi)^(2J+2)
                    |w (w+1) ... (w+2J)| N^(-Re w-2J-1).

    A jet of order kmax > 0 bounds its Taylor coefficients of order up to
    kmax by Cauchy's estimate, delta^-kmax times the bound's maximum on the
    circle |w - s| = delta, where |w+k| <= |s+k| + delta and
    Re w >= sigma - delta.  For sigma + k >= 0, |s+k| + delta is at most
    |sigma + delta + k + i(|t| + delta)|, whose log f(k) increases in k, so
    the sum of the logs from k0 = ceil(-sigma) to 2J is at most the integral
    of f from k0 to 2J + 1, in closed form; the terms below k0 are summed as
    they are.  Each J then costs O(1): ln N_J is (ln of the bound at N = 1
    plus the target) / (Re w + 2J + 1).
    """
    delta = _CAUCHY_RADIUS if kmax else 0.0
    c = t_abs + delta
    cc = c * c
    k0 = max(0, math.ceil(-sigma))
    x0 = sigma + delta + k0
    target = (precision + 12) * _LN2
    const = target + _LOG_2_ZETA_4 - 2 * _LOG_2PI
    if kmax:
        const -= kmax * math.log(delta)
    if k0:
        const += sum(math.log(math.hypot(sigma + k, t_abs) + delta) for k in range(k0))
    if x0 or c:
        const -= x0 * math.log(x0 * x0 + cc) / 2 - x0 + c * math.atan2(x0, c)
    u = sigma + delta + 1  # x = sigma + delta + 2J + 1, the integral's end
    lowest = max(1, (k0 + 1) // 2, math.floor(delta - u / 2) + 1)

    def cutoff(J: int) -> float:
        x = u + 2 * J
        b = x - 2 * delta
        try:
            return max(_MIN_CUTOFF, math.exp(
                ((x + 1) * math.log(x * x + cc) / 2 - x + c * math.atan2(x, c)
                 - math.log(b) - 2 * J * _LOG_2PI + const) / b))
        except OverflowError:  # far left of 0, at J near the least
            return math.inf

    estimate = math.floor(target / 4 + math.sqrt(t_abs * target) / 4.5)
    return lowest, max(lowest, estimate), cutoff


def _em_parameters(precision: int, t_abs: float, sigma: float,
                   kmax: int = 0) -> tuple[int, int]:
    """(N, J) with the least N + J, N >= _MIN_CUTOFF, for which Backlund's
    bound on the Euler-Maclaurin remainder is at most 2^-(precision+12).

    g(J) = N_J + J, with N_J from _cutoffs, falls and then rises in J, and
    the least N + J is ceil(g) at the least integer point of g, which a unit
    walk from the estimate finds.  An N_J past the float range, inf, lies
    where g still falls, so the walk starts above it.
    """
    lowest, J, cutoff = _cutoffs(precision, t_abs, sigma, kmax)
    N, M = cutoff(J), cutoff(J + 1)
    while M == math.inf:
        J, N, M = J + 1, M, cutoff(J + 2)
    step = 1 if M + 1 < N else -1
    if step == 1:
        J, N = J + 1, M
    while J + step >= lowest:
        M = cutoff(J + step)
        if M + step >= N:
            break
        J, N = J + step, M
    return math.ceil(N), J


@functools.cache
def _bernoulli_fraction(j: int) -> tuple[int, int]:
    """B_2j / (2j)! as an exact (numerator, denominator) pair, kept per j so
    that the tables for each new J cost only their divisions."""
    p, q = mp.bernfrac(2 * j)
    return int(p), int(q) * math.factorial(2 * j)


# ---------------------------------------------------------------------------
# Taylor jets: [f(s), f'(s), f''(s)/2!, ..., f^(k)(s)/k!], truncated
# ---------------------------------------------------------------------------

def jet_mul(a, b) -> list:
    """Jet of a product (Cauchy product), truncated to the shorter jet."""
    return [sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
            for k in range(min(len(a), len(b)))]


def jet_inverse(a) -> list:
    """Jet of 1/f from the jet of f; f(s) must not vanish."""
    if a[0] == 0:
        raise DomainError("cannot invert a jet with zero leading coefficient")
    inv = 1 / a[0]
    out = [inv]
    for n in range(1, len(a)):
        out.append(-inv * sum(a[k] * out[n - k] for k in range(1, n + 1)))
    return out


@functools.cache
def _smallest_prime_factors(size: int) -> tuple[int, ...]:
    """spf[n], the smallest prime dividing n, for 2 <= n < size.

    spf[0] = 0 and spf[1] = 1.  One table per power-of-two size serves every
    Dirichlet sum with N <= size; it holds integers only.
    """
    spf = list(range(size))
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, size, p):
                if spf[m] == m:
                    spf[m] = p
    return tuple(spf)


@functools.cache
def _log_fixed(p: int, wp: int) -> int:
    """ln p as an integer at the scale 2^wp, up to a unit.  It does not depend
    on s, so it is kept per (p, wp); the cache holds integers only."""
    return to_fixed(mpf_log(from_int(p), wp + 8), wp)


def _power_fixed(sre: int, sim: int, log: int, wp: int) -> tuple[int, int]:
    """(Re, Im) of exp(-s log) at the scale 2^wp, from s = (sre + i sim) 2^-wp
    and log at the same scale: one exp and, unless s is real, one cos/sin."""
    u = exp_fixed(-(sre * log) >> wp, wp)
    if not sim:
        return u, 0
    cos, sin = cos_sin_fixed(-(sim * log) >> wp, wp)
    return (u * cos) >> wp, (u * sin) >> wp


def dirichlet_powers_fixed(s, size: int, wp: int) -> tuple[list, list]:
    """n^-s for 1 <= n < size as integers at the scale 2^wp.

    Returns the lists (Re n^-s, Im n^-s), each floor(value 2^wp) up to a few
    units; entry 0 is 0.  s is an mpc, read exactly.  Only the primes pay
    for a log, an exp and, unless s is real, a cos/sin: for a composite n
    with smallest prime factor p, n^-s = p^-s (n/p)^-s, one complex product
    or, at real s, where every Im entry is 0, one real product.
    """
    sre, sim = to_fixed(s.real._mpf_, wp), to_fixed(s.imag._mpf_, wp)
    re, im = [0] * size, [0] * size
    if size > 1:
        re[1] = 1 << wp
    spf = _smallest_prime_factors(1 << (size - 1).bit_length())
    for n in range(2, size):
        p = spf[n]
        if p == n:
            re[n], im[n] = _power_fixed(sre, sim, _log_fixed(n, wp), wp)
        elif sim:
            m = n // p
            a, b, c, d = re[p], im[p], re[m], im[m]
            re[n], im[n] = (a * c - b * d) >> wp, (a * d + b * c) >> wp
        else:
            re[n] = (re[p] * re[n // p]) >> wp
    return re, im


def dirichlet_logs_fixed(size: int, wp: int) -> list:
    """ln n for 1 <= n < size at the scale 2^wp, entry 0 is 0: the prime
    rows' _log_fixed, and ln p + ln(n/p) for a composite n, p = spf[n]."""
    ln = [0] * size
    spf = _smallest_prime_factors(1 << (size - 1).bit_length())
    for n in range(2, size):
        p = spf[n]
        ln[n] = _log_fixed(n, wp) if p == n else ln[p] + ln[n // p]
    return ln


@functools.cache
def _bernoulli_fixed(J: int, precision: int) -> tuple[int, tuple[int, ...]]:
    """(bits, floor(B_2j/(2j)! 2^bits) for j = 1..J), from the exact fractions.

    |B_2j/(2j)!| = 2 zeta(2j) (2 pi)^-2j falls with j, so bits is
    precision + 24 plus the bits by which the last entry falls below 1: every
    entry keeps more than precision + 24 significant bits.
    """
    fractions = [_bernoulli_fraction(j) for j in range(1, J + 1)]
    p, q = fractions[-1]
    bits = precision + 24 + q.bit_length() - abs(p).bit_length() + 1
    return bits, tuple((p << bits) // q for p, q in fractions)


def _from_fixed(re: int, im: int, bits: int) -> mpc:
    """re + i im scaled by 2^-bits, rounded once to the working precision."""
    return mpc(mpf((re, -bits)), mpf((im, -bits)))


def _engine_plan(z: mpc, kmax: int, precision: int) -> tuple[int, int, int, int]:
    """(N, J, working precision, fixed-point scale wp) of one engine call at z.

    Left of 0 the terms reach N^-sigma, and the k-th derivative carries
    (ln N)^k more, while the result can be of order 1 or smaller: the pieces
    cancel by that many bits, which the working precision adds to
    precision + 24.  wp adds guard bits for summing N terms.
    """
    sigma = float(z.real)
    N, J = _em_parameters(precision, abs(float(z.imag)), sigma, kmax)
    prec = (precision + 24 + math.ceil(max(0.0, -sigma) * math.log2(N))
            + kmax * math.ceil(math.log2(math.log(N))))
    return N, J, prec, prec + N.bit_length()


def zeta_with_derivatives(
    s,
    kmax: int = 0,
    precision: int = DEFAULT_PRECISION,
    _powers=None,
) -> list[mpc]:
    """[zeta(s), zeta'(s), ..., zeta^(kmax)(s)] in one Euler-Maclaurin pass.
    At s = 1, those of zeta(s) - 1/(s-1): the m-th is (-1)^m gamma_m.

    _powers is zeta_pair's: (plan, wp, re, im, ln), with plan this call's
    _engine_plan, re and im the lists of dirichlet_powers_fixed and ln, read
    only for kmax > 0, that of dirichlet_logs_fixed, each for at least the
    plan's N, at a scale wp at least the plan's.
    """
    global _calls
    _calls += 1
    if precision < MIN_PRECISION:
        raise PrecisionError(f"precision must be >= {MIN_PRECISION} bits")
    with mp.workprec(precision + 24):
        z = mpc(s)
        t_abs = abs(float(z.imag))
        if t_abs > DEFAULT_HEIGHT_CAP:
            raise HeightRangeError(
                f"|Im s| = {t_abs} exceeds the evaluation cap {DEFAULT_HEIGHT_CAP}"
            )
        if _powers is None:
            N, J, prec, wp = _engine_plan(z, kmax, precision)
            re, im = dirichlet_powers_fixed(z, N, wp)
            ln = dirichlet_logs_fixed(N, wp) if kmax else ()
        else:
            (N, J, prec, _), wp, re, im, ln = _powers
        mp.prec = prec  # until the workprec block exits
        K = kmax + 1
        one = 1 << wp
        sre, sim = to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)

        # Each piece adds its k-th derivative along -s, which is (-1)^k
        # times its k-th derivative in s, at the scale 2^wp: along -s, n^-s
        # grows at the rate ln n and N^-s at L = ln N.  The Dirichlet sum
        # sum_n n^-s (ln n)^k:
        re, im = re[:N], im[:N]
        out_re, out_im = [sum(re)], [sum(im)]
        for _ in range(kmax):
            re = [(x * log) >> wp for x, log in zip(re, ln)]
            im = [(y * log) >> wp for y, log in zip(im, ln)]
            out_re.append(sum(re))
            out_im.append(sum(im))

        L = _log_fixed(N, wp)
        lpow = [one]  # L^i
        for _ in range(K):
            lpow.append((lpow[-1] * L) >> wp)
        Ere, Eim = _power_fixed(sre, sim, L, wp)  # E = N^-s
        if z == 1:
            # N^-h/h - 1/h = (N^-h - 1)/h, h = s - 1, whose k-th derivative
            # along -s is -L^(k+1)/(k+1)
            for k in range(K):
                out_re[k] -= lpow[k + 1] // (k + 1)
        else:
            # N^(1-s)/(s-1): E N times sum_i C(k,i) L^i (k-i)! v^(k-i+1),
            # v = 1/(s-1), read at a scale at which s - 1 is exact, so that
            # near the pole v keeps wp significant bits.
            w2 = max(wp, -z.real._mpf_[2], -z.imag._mpf_[2])
            dre = to_fixed(z.real._mpf_, w2) - (1 << w2)
            dim = to_fixed(z.imag._mpf_, w2)
            den = dre * dre + dim * dim
            vre, vim = (dre << (w2 + wp)) // den, (-dim << (w2 + wp)) // den
            vpow = [(one, 0), (vre, vim)]  # v^m
            for _ in range(kmax):
                a, b = vpow[-1]
                vpow.append(((a * vre - b * vim) >> wp, (a * vim + b * vre) >> wp))
            ENre, ENim = Ere * N, Eim * N
            for k in range(K):
                xr = xi = 0
                for i in range(k + 1):
                    a, b = vpow[k - i + 1]
                    c = math.perm(k, k - i) * lpow[i]
                    xr += c * a
                    xi += c * b
                out_re[k] += (xr * ENre - xi * ENim) >> (2 * wp)
                out_im[k] += (xr * ENim + xi * ENre) >> (2 * wp)
        for k in range(K):  # N^-s / 2
            out_re[k] += (Ere * lpow[k]) >> (wp + 1)
            out_im[k] += (Eim * lpow[k]) >> (wp + 1)

        # Bernoulli corrections sum_j B_2j/(2j)! P_j(s) N^(1-s-2j), folded as
        # N^(-1-s) sum_j B_2j/(2j)! Q_j(s) with Q_j = N^(2-2j) P_j: the jet of
        # the sum, then one product.  The jet of Q_j grows by one quadratic
        # factor (s+2j-3+h)(s+2j-2+h) / N^2 = (q + dq h + h^2) / N^2 per j.
        qre = ((sre * sre - sim * sim) >> wp) + 3 * sre + 2 * one  # j = 2
        qim = ((2 * sre * sim) >> wp) + 3 * sim
        dqre, dqim = 2 * sre + 3 * one, 2 * sim
        Qre = ([sre, one] + [0] * K)[:K]  # Q_1(s + h) = s + h
        Qim = ([sim, 0] + [0] * K)[:K]
        bits, table = _bernoulli_fixed(J, precision)
        tre, tim = [0] * K, [0] * K
        NN = N * N
        for j, coeff in enumerate(table, start=1):
            if j > 1:
                for a in range(K - 1, -1, -1):  # in place, highest order first
                    xr = qre * Qre[a] - qim * Qim[a]
                    xi = qre * Qim[a] + qim * Qre[a]
                    if a >= 1:
                        xr += dqre * Qre[a - 1] - dqim * Qim[a - 1]
                        xi += dqre * Qim[a - 1] + dqim * Qre[a - 1]
                    if a >= 2:
                        xr += Qre[a - 2] << wp
                        xi += Qim[a - 2] << wp
                    Qre[a], Qim[a] = (xr >> wp) // NN, (xi >> wp) // NN
                qre, qim = qre + dqre, qim + dqim  # q of the next factor
                dqre += 4 * one
                qre, qim = qre + dqre, qim + dqim
            for a in range(K):
                tre[a] += coeff * Qre[a]
                tim[a] += coeff * Qim[a]
        # The tail's jet t_i at 2^(wp+bits), times N^(-1-s) = E / N:
        # sum_i C(k,i) i! (-1)^i t_i L^(k-i), times E / N.
        shift = 2 * wp + bits
        for k in range(K):
            xr = xi = 0
            for i in range(k + 1):
                c = (-1) ** i * math.perm(k, i) * lpow[k - i]
                xr += c * tre[i]
                xi += c * tim[i]
            out_re[k] += ((xr * Ere - xi * Eim) >> shift) // N
            out_im[k] += ((xr * Eim + xi * Ere) >> shift) // N
        return [_from_fixed(x, y, wp) if k % 2 == 0 else _from_fixed(-x, -y, wp)
                for k, (x, y) in enumerate(zip(out_re, out_im))]


def zeta_pair(s, kmax_s: int = 0, kmax_2s: int = 0,
              precision: int = DEFAULT_PRECISION) -> tuple[list[mpc], list[mpc]]:
    """The jets [zeta^(k)(s)], k <= kmax_s, and [zeta^(k)(2s)], k <= kmax_2s,
    as two engine calls that read one n^-s table.

    The table is built once, before either call, to the larger of the two
    calls' N and at the larger of their fixed-point scales; the 2s call sums
    its rows squared, n^-2s = (n^-s)^2, with the same ln n.  Raises
    PoleError at s = 1 and at 2s = 1, where the engine would return the
    regular part, and HeightRangeError past the cap on |Im 2s|.
    """
    with mp.workprec(precision + 24):
        z = mpc(s)
        double = 2 * z
    if z == 1 or double == 1:
        raise PoleError(f"zeta(s) or zeta(2s) has a pole at s = {z}")
    if abs(float(double.imag)) > DEFAULT_HEIGHT_CAP:
        raise HeightRangeError(f"|Im 2s| = {abs(float(double.imag))} exceeds "
                               f"the evaluation cap {DEFAULT_HEIGHT_CAP}")
    plan1 = _engine_plan(z, kmax_s, precision)
    plan2 = _engine_plan(double, kmax_2s, precision)
    N1, N2, wp = plan1[0], plan2[0], max(plan1[3], plan2[3])
    re, im = dirichlet_powers_fixed(z, max(N1, N2), wp)
    ln = dirichlet_logs_fixed(max(N1, N2), wp) if kmax_s or kmax_2s else ()
    re2 = [(x * x - y * y) >> wp for x, y in zip(re[:N2], im[:N2])]
    im2 = [(2 * x * y) >> wp for x, y in zip(re[:N2], im[:N2])]
    return (zeta_with_derivatives(z, kmax_s, precision, (plan1, wp, re, im, ln)),
            zeta_with_derivatives(double, kmax_2s, precision, (plan2, wp, re2, im2, ln)))


def zeta(s, precision: int = DEFAULT_PRECISION) -> mpc:
    """zeta(s) accurate to roughly 2^-(precision-8) relative."""
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    return zeta_with_derivatives(s, 0, precision)[0]


# ---------------------------------------------------------------------------
# Stieltjes constants
# ---------------------------------------------------------------------------

def stieltjes(m: int, precision: int = DEFAULT_PRECISION) -> mpf:
    """Stieltjes constant gamma_m for 0 <= m <= 8: by the Laurent series
    zeta(1+h) = 1/h + sum_m (-1)^m gamma_m h^m / m!, (-1)^m times the m-th
    derivative at s = 1 of zeta(s) - 1/(s-1), which the engine returns."""
    if not 0 <= m <= 8:
        raise DomainError("Stieltjes index must satisfy 0 <= m <= 8")
    with mp.workprec(precision + 24):
        return +((-1) ** m * zeta_with_derivatives(1, m, precision)[m].real)


# ---------------------------------------------------------------------------
# Vectorized float64 evaluation for contour quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _factor_groups(size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The primes below size, and the composites n < size grouped by their
    number of prime factors with multiplicity, 2, 3, ...

    Each group is a (3, count) int array of rows (n, p, n // p), p the
    smallest prime dividing n, ascending in n.  n // p has one prime factor
    fewer than n, so a table filled group by group finds every cofactor in
    place.  One per power-of-two size, built on first use.
    """
    spf = _smallest_prime_factors(size)
    omega = [0] * size
    groups: list[list[int]] = []
    for n in range(2, size):
        omega[n] = omega[n // spf[n]] + 1
        if omega[n] > len(groups):
            groups.append([])
        groups[omega[n] - 1].append(n)
    primes = np.array(groups[0])
    composites = []
    for group in groups[1:]:
        n = np.array(group)
        p = np.array([spf[m] for m in group])
        composites.append(np.stack([n, p, n // p]))
    return primes, tuple(composites)


def _dirichlet_powers(s: np.ndarray, size: int) -> np.ndarray:
    """table[n] = n^-s for 1 <= n < size over a flat complex128 batch.

    One row per n, so each n's values are contiguous; row 0 is left unset.
    Only the primes pay for a complex exp: a composite row is the product of
    the rows of its smallest prime p and of n // p, one vectorized product
    per group of composites with the same number of prime factors.
    """
    primes, composites = _factor_groups(1 << (size - 1).bit_length())
    table = np.empty((size, s.size), dtype=np.complex128)
    table[1] = 1.0
    primes = primes[:np.searchsorted(primes, size)]
    table[primes] = np.exp(np.multiply.outer(-np.log(primes), s))
    for n, p, cofactor in composites:
        k = np.searchsorted(n, size)
        table[n[:k]] = table[p[:k]] * table[cofactor[:k]]
    return table


def _em_tail(s: np.ndarray, N: int, J: int) -> np.ndarray:
    """zeta(s) - sum_{n<N} n^-s over a flat complex128 batch: the pole term,
    N^-s / 2 and J Bernoulli corrections.

    One exp, E = N^-s, gives all three: N^(1-s) = E N, E / 2 and
    N^(-1-s) = E / N.  The corrections are folded as in the multiprecision
    engine, N^(-1-s) sum_j B_2j/(2j)! Q_j(s) with Q_j = N^(2-2j) P_j(s), and
    summed by Horner from j = J down, each ratio Q_j / Q_(j-1) =
    (s + 2j - 3)(s + 2j - 2) step, step = N^-2.  The next ratio is this one
    less (4s + 8j - 14) step, a difference that itself falls by 8 step per
    j, so each j costs four array operations.  Q_j grows and B_2j/(2j)!
    falls like (2 pi)^(2j), past the float64 range for j near 190, so each
    ratio is carried times 2^-5 and the coefficient times 2^5j, both exact
    scalings.
    """
    E = np.exp(-s * math.log(N))
    bern = _bernoulli_f64(J)
    step = 2.0 ** -5 / (N * N)
    s_step = s * step
    ratio = (s + (2 * J - 3)) * (s_step + (2 * J - 2) * step)
    diff = 4.0 * s_step + (8 * J - 14) * step
    horner = np.full_like(s, bern[J - 1])
    for j in range(J, 1, -1):
        horner *= ratio
        horner += bern[j - 2]
        ratio -= diff
        diff -= 8.0 * step
    # Q_1 = s, carried times 2^-5 like every ratio.
    return E * (N / (s - 1) + 0.5 + horner * s * (2.0 ** -5 / N))


@functools.cache
def _bernoulli_f64(J: int) -> tuple[float, ...]:
    """B_2j/(2j)! 2^5j for j = 1..J, each the correctly rounded float64 of
    the exact fraction (Python rounds an integer quotient correctly)."""
    fractions = (_bernoulli_fraction(j) for j in range(1, J + 1))
    return tuple((p << 5 * j) / q for j, (p, q) in enumerate(fractions, start=1))


def _em_rule(s: np.ndarray) -> tuple[int, int]:
    """(N, J) for a flat batch by the shared rule at 53 bits."""
    return _em_parameters(53, float(np.abs(s.imag).max()), float(s.real.min()))


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
    flat = s.reshape(-1)
    N, J = _em_rule(flat)
    out = _dirichlet_powers(flat, N)[1:].sum(axis=0) + _em_tail(flat, N, J)
    return out.reshape(s.shape)


def dirichlet_quotient_f64(s: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
    """zeta(s)^3 / zeta(2s) over an array of complex128 points, or, with
    offsets, over the grid s[:, None] + offsets[None, :] of a flat s.

    n^-(s + o) = n^-s n^-o: each grid sum contracts an n^-s table for s
    with one for the offsets over n, and zeta(2s) the two squared.  Without
    offsets the grid has the one offset 0, whose rows are exactly 1.  (N, J)
    are chosen from the whole grid.
    """
    s = np.asarray(s, dtype=np.complex128)
    if offsets is None:
        shape, offsets = s.shape, np.zeros(1, dtype=np.complex128)
    else:
        offsets = np.asarray(offsets, dtype=np.complex128)
        shape = (s.size, offsets.size)
    if s.size * offsets.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    s = s.reshape(-1)
    points = np.add.outer(s, offsets).reshape(-1)
    double = 2 * points
    (N1, J1), (N2, J2) = _em_rule(points), _em_rule(double)
    table = _dirichlet_powers(s, max(N1, N2))
    shifts = _dirichlet_powers(offsets, max(N1, N2))
    # Elementwise sums, not BLAS (@, np.dot, tensordot): after a complex
    # 31 x 216 x 33 product OpenBLAS's worker thread kept spinning, and on a
    # 2-core host the numpy code after it took up to twice its CPU time.
    zeta_s = (table[1:N1, :, None] * shifts[1:N1, None, :]).sum(axis=0).ravel()
    np.square(table[1:N2], out=table[1:N2])
    np.square(shifts[1:N2], out=shifts[1:N2])
    zeta_2s = (table[1:N2, :, None] * shifts[1:N2, None, :]).sum(axis=0).ravel()
    zeta_s += _em_tail(points, N1, J1)
    zeta_2s += _em_tail(double, N2, J2)
    return (zeta_s ** 3 / zeta_2s).reshape(shape)
