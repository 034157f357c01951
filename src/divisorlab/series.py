"""Residue coefficients of the main terms, from three cached zeta jets.

Every analytic constant here is read from constant_jets(P), three engine
calls per precision per process: the jet at s = 1 to order 4 of
zeta(s) - 1/(s-1), whose m-th entry is (-1)^m gamma_m; the jet at s = 2 to
order 2; and zeta(0).

A sum of f(n) whose Dirichlet series is zeta^j(s) q(s), q = 1/zeta(2s), has
as main term the residue of zeta^j(s) q(s) x^s / s at the order-j pole
s = 1: j = 3 for d(n^2), 2 for 2^omega and 1 for |mu|.  With h = s - 1 it is
read off the product of j-term jets (coefficients of h^0 .. h^(j-1)):
(h zeta(1+h))^j, whose jet is (1, gamma_0, -gamma_1, ...)^j in the Stieltjes
constants (its h^(m+1) entry is (-1)^m gamma_m / m!); q(1+h); and
1/(1+h) = (1, -1, 1, ...) for the 1/s factor.  With r_i the h^i
coefficient of that product the residue is
x sum_i r_i (log x)^(j-1-i) / (j-1-i)!, so for d(n^2) it is
x (r0 (log x)^2 / 2 + r1 log x + r2).  The simple pole at s = 0 adds the
constant zeta^j(0) q(0) = zeta(0)^(j-1): 1/4 for d(n^2), -1/2 for 2^omega
and 1 for |mu|.  main_term_coefficients is that one routine for every j and
both poles, and main_term the one evaluator of such a polynomial.

Two coefficient modes are exposed.  The 'paper' mode freezes 1/zeta(2s) at
its value 1/zeta(2), which yields for d(n^2)

    x ((log x)^2 + (6g - 2) log x + 6g^2 - 6g - 6g_1 + 2) / (2 zeta(2)),

with g, g_1 the first two Stieltjes constants, and for 2^omega
x (log x + 2g - 1) / zeta(2).  The 'exact' mode expands 1/zeta(2s) fully,
which shifts the x log x and x coefficients by terms involving zeta'(2) and
zeta''(2).  Both are reported; the x log x shift of d(n^2), like the x
shift of 2^omega, has the closed form -2 zeta'(2) / zeta(2)^2.  For |mu|
both modes give x / zeta(2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import DomainError
from . import zeta as zeta_engine
from .zeta import DEFAULT_PRECISION, jet_inverse, jet_mul

#: The two coefficient modes.
MODES = ("paper", "exact")


@dataclass(frozen=True)
class MainTermCoefficients:
    """The residues of zeta^j(s) q(s) x^s / s: at s = 1 the coefficients of
    x (log x)^(j-1), ..., x log x, x (terms, highest power of log first), and
    at s = 0 the constant zeta(0)^(j-1) (at_zero)."""

    terms: tuple[mpf, ...]
    at_zero: mpf


def main_term_coefficients(j: int, mode: str,
                           precision: int = DEFAULT_PRECISION) -> MainTermCoefficients:
    """The residues of zeta^j(s) q(s) x^s / s at s = 1 and s = 0, 1 <= j <= 3.

    q = 1/zeta(2s) is frozen at 1/zeta(2) in 'paper' mode and expanded in
    'exact' mode.  The s = 1 coefficients are r_i / (j-1-i)!, r the first j
    terms of the jet product (1, gamma_0, -gamma_1, ...)^j q(1+h) / (1+h).
    At s = 0, zeta^j(0) / zeta(0) is zeta(0)^(j-1) in either mode: 1 for
    |mu|, -1/2 for 2^omega and 1/4 for d(n^2).
    """
    if not 1 <= j <= 3:
        raise DomainError("j must be 1, 2 or 3")
    if mode not in MODES:
        raise DomainError("mode must be 'paper' or 'exact'")
    at_one, at_two, at_zero = constant_jets(precision)
    with mp.workprec(precision + 16):
        e = [mpc(1)] + [at_one[m] / math.factorial(m) for m in range(j - 1)]
        if mode == "exact":
            q = jet_inverse([at_two[k] * 2**k / math.factorial(k) for k in range(j)])
        else:
            q = [1 / at_two[0]] + [mpc(0)] * (j - 1)
        r = e
        for _ in range(j - 1):
            r = jet_mul(r, e)
        r = jet_mul(jet_mul(r, q), [(-1) ** k for k in range(j)])
        return MainTermCoefficients(
            terms=tuple(+(r[i] / math.factorial(j - 1 - i)).real for i in range(j)),
            at_zero=+(at_zero[0] ** (j - 1)).real,
        )


def main_term(x, terms: tuple, constant=0) -> mpf:
    """x sum_i terms[i] (log x)^(len(terms) - 1 - i) + constant at
    DEFAULT_PRECISION + 16 bits: for d(n^2), A1 x log^2 x + A2 x log x + A3 x
    plus the s = 0 constant.  The one evaluator of every main term."""
    with mp.workprec(DEFAULT_PRECISION + 16):
        xv = mpf(x)
        if xv <= 1:
            raise DomainError("x must be > 1")
        lam = mp.ln(xv)
        top = len(terms) - 1
        return +(xv * sum(c * lam ** (top - i) for i, c in enumerate(terms))
                 + constant)


def residue_main_term(x) -> tuple[MainTermCoefficients, mpf]:
    """d(n^2)'s exact-mode residues and its residue at s = 1 at this x, at
    DEFAULT_PRECISION."""
    residues = main_term_coefficients(3, "exact")
    return residues, main_term(x, residues.terms)


@functools.cache
def constant_jets(precision: int) -> tuple[tuple, tuple, tuple]:
    """The engine's jets at s = 1 to order 4, of zeta(s) - 1/(s-1), whose
    m-th entry is (-1)^m gamma_m; at s = 2 to order 2, zeta(2), zeta'(2) and
    zeta''(2); and at s = 0, zeta(0).  One engine call each per precision
    per process, read by every constant of this module and the constants
    command."""
    return tuple(tuple(zeta_engine.zeta_with_derivatives(s, kmax, precision))
                 for s, kmax in ((1, 4), (2, 2), (0, 0)))


def a2_mode_shift(precision: int = DEFAULT_PRECISION) -> mpf:
    """Closed form of A2_exact - A2_paper: -2 zeta'(2) / zeta(2)^2.

    Obtained by direct differentiation, independently of the series route.
    """
    with mp.workprec(precision + 16):
        vals = constant_jets(precision)[1]
        return +(-2 * vals[1] / vals[0] ** 2).real
