"""Residue coefficients of the main term, from three-term Taylor jets.

The residue of zeta(s)^3 / zeta(2s) * x^s / s at the order-3 pole s = 1 needs
three Laurent coefficients.  With h = s - 1 it is read off the product of
three-term jets (coefficients of h^0, h^1, h^2): (h zeta(1+h))^3, whose jet
is (1, gamma_0, -gamma_1)^3 in the Stieltjes constants; 1/zeta(2+2h); and
1/(1+h) = (1, -1, 1) for the 1/s factor.  (1, gamma_0, -gamma_1) is read
from the zeta engine, which returns the jet of zeta(s) - 1/(s-1) at s = 1.
The h^0, h^1, h^2 coefficients r0, r1, r2 of that product give the residue
x (r0 (log x)^2 / 2 + r1 log x + r2).

Two coefficient modes are exposed.  The 'paper' mode freezes 1/zeta(2s) at
its value 1/zeta(2), which yields

    x ((log x)^2 + (6g - 2) log x + 6g^2 - 6g - 6g_1 + 2) / (2 zeta(2)),

with g, g_1 the first two Stieltjes constants.  The 'exact' mode expands
1/zeta(2s) fully, which shifts the x log x and x coefficients by terms
involving zeta'(2) and zeta''(2).  Both are reported; the x log x shift has
the closed form -2 zeta'(2) / zeta(2)^2.
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
    precision: int = DEFAULT_PRECISION,
) -> MainTermCoefficients:
    """Residue data at s = 1 in either coefficient mode.

    With r = (h zeta(1+h))^3 * q(1+h) * 1/(1+h) as a three-term jet (q the
    1/zeta(2s) factor), the residue of zeta^3(s) q(s) x^s / s at s = 1 is
        x (r0 (log x)^2 / 2 + r1 log x + r2),
    so A1 = r0 / 2, A2 = r1, A3 = r2.  Computed once per (mode, precision)
    per process: the fields are immutable mpf values.
    """
    if mode not in MODES:
        raise DomainError("mode must be 'paper' or 'exact'")
    return _main_term_coefficients(mode, precision)


@functools.cache
def _main_term_coefficients(mode: str, precision: int) -> MainTermCoefficients:
    g0, minus_g1 = zeta_engine.zeta_with_derivatives(1, 1, precision)
    with mp.workprec(precision + 16):
        e = [mpc(1), +g0, +minus_g1]
        if mode == "exact":
            ders = zeta_engine.zeta_with_derivatives(2, 2, precision)
            q = jet_inverse([ders[k] * 2**k / math.factorial(k) for k in range(3)])
        else:
            q = [1 / zeta_engine.zeta(2, precision), mpc(0), mpc(0)]
        r = jet_mul(jet_mul(jet_mul(jet_mul(e, e), e), q), [1, -1, 1])
        a1 = +(r[0] / 2).real
        a2 = +r[1].real
        a3 = +r[2].real
    return MainTermCoefficients(
        A1=a1, A2=a2, A3=a3, constant_term=residue_at_zero(precision), mode=mode
    )


def residue_main_term(
    x,
    mode: str = "exact",
    precision: int = DEFAULT_PRECISION,
) -> tuple[MainTermCoefficients, mpf]:
    """Main-term coefficients and the evaluated residue at s = 1 for this x."""
    with mp.workprec(precision + 16):
        xv = mpf(x)
        if xv <= 1:
            raise DomainError("x must be > 1")
        coeffs = main_term_coefficients(mode, precision)
        lam = mp.ln(xv)
        value = xv * (coeffs.A1 * lam**2 + coeffs.A2 * lam + coeffs.A3)
        return coeffs, +value


@functools.cache
def constant_jets(precision: int = DEFAULT_PRECISION) -> tuple[tuple, tuple]:
    """The engine's jet at s = 1 to order 4, of zeta(s) - 1/(s-1), whose
    m-th entry is (-1)^m gamma_m, and its jet at s = 2 to order 1, zeta(2)
    and zeta'(2).  One engine call each per precision per process, read by
    the companion constants, the mode shift and the constants command."""
    return (tuple(zeta_engine.zeta_with_derivatives(1, 4, precision)),
            tuple(zeta_engine.zeta_with_derivatives(2, 1, precision)))


def a2_mode_shift(precision: int = DEFAULT_PRECISION) -> mpf:
    """Closed form of A2_exact - A2_paper: -2 zeta'(2) / zeta(2)^2.

    Obtained by direct differentiation, independently of the series route.
    """
    with mp.workprec(precision + 16):
        vals = constant_jets(precision)[1]
        return +(-2 * vals[1] / vals[0] ** 2).real


def theorem_A_coefficients(precision: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """Published main-term constants of the squarefree-divisor companion sum:
    A1' = 1/zeta(2) and A2' = (2 gamma - 1)/zeta(2)."""
    with mp.workprec(precision + 16):
        at_one, at_two = constant_jets(precision)
        z2 = at_two[0].real
        g = at_one[0].real
        return +(1 / z2), +((2 * g - 1) / z2)


def two_omega_coefficients(mode: str = "exact",
                           precision: int = DEFAULT_PRECISION) -> tuple[mpf, mpf]:
    """Main-term constants for the squarefree-divisor sum in both modes.

    The published constants treat 1/zeta(2s) as locally constant at s = 1,
    exactly as in the divisor-square case; the full double-pole residue of
    zeta^2(s)/zeta(2s) x^s/s shifts the x coefficient by -2 zeta'(2)/zeta(2)^2.
    """
    if mode not in MODES:
        raise DomainError("mode must be 'paper' or 'exact'")
    a1p, a2p = theorem_A_coefficients(precision)
    if mode == "paper":
        return a1p, a2p
    with mp.workprec(precision + 16):
        return a1p, +(a2p + a2_mode_shift(precision))
