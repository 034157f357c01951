"""Numerical contour apparatus: truncated Perron integrals, small-circle
residue quadrature, truncation-decay measurement, and a rectangle residue
bookkeeping check.

F(conj s) = conj F(s), so only the upper half of each edge mirrored in the
real axis is integrated.  Every straight edge goes through one nested
segment quadrature: composite 16-point Gauss-Legendre on panels at most a
quarter period of x^(it) wide, with every requested height a panel edge,
evaluated in vectorized float64.  The integral up to each height is a prefix
sum of panel integrals, so a sweep over T evaluates F(s) once per node for
all heights together.  Perron values extend each panel's Gauss rule to the
33-point Gauss-Kronrod rule (Laurie's algorithm) and return the Kronrod
value; its gap to the embedded Gauss value, which reads the same F
evaluations, is checked at every T and reported with an error bound that
adds float64 rounding.  The rectangle evaluates the Gauss nodes only.

Circles use the trapezoid rule in multiprecision, which is spectrally
accurate on periodic contours: with N nodes, principal parts are integrated
exactly and the analytic remainder contributes O((r/R)^N) for the distance R
to the nearest other singularity.  Since the error falls geometrically,
nested levels of nodes measure their own error: each level doubles the last,
and the sum stops at the first level whose change, squared over the change
before it, is below 2^-precision.  The nodes sit at the angles 2 pi j / n.
About a real centre the nodes mirror in the real axis, so only those with
angle in [0, pi] are evaluated and each mirrored term is added as the
conjugate: a circle that stops at 64 of 128 nodes evaluates F 33 times.

Evaluation points x must be non-integers (half-integers in practice) to
avoid the Perron jump.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import ContourError, ConventionError, DomainError, QuadratureError
from . import zeta as zeta_engine
from .zeta import DEFAULT_PRECISION, dirichlet_quotient_f64

MIN_NODES = 64
#: Fewest nodes in the coarsest nested level of a circle quadrature.
MIN_LEVEL = 16
GAUSS_ORDER = 16
#: Float64 F nodes per zeta batch: a short stretch of height, so the N each
#: batch picks from its tallest node stays near its own.  Whole panels go in
#: a batch: 31 Kronrod panels (1023 nodes) or 64 Gauss panels.
_BATCH_NODES = 1024
#: float64 machine epsilon, for the rounding terms of the Perron error bound.
_EPS = 2.0 ** -52

#: Largest accepted gap between a Perron value's Gauss-Kronrod and Gauss
#: values, relative to max(1, |value|).
GAP_TOL = 1.0e-6

#: Known fixed poles of F(s) x^s / s on the desk-scale window.
_FIXED_POLES = (0.0 + 0.0j, 1.0 + 0.0j)

#: rectangle_consistency's height T, right and left abscissae and side nodes.
_RECT_T, _RECT_RIGHT, _RECT_LEFT, _RECT_NODES = 50.0, 1.25, 0.6, 2048


def _integrand_line(s: np.ndarray, x: float) -> np.ndarray:
    """F(s) x^s / s on an array of points off the poles."""
    return dirichlet_quotient_f64(s) * np.exp(s * math.log(x)) / s


def _kronrod_extension(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence coefficients of the (2n + 1)-point Kronrod extension of the
    n-point Gauss rule, by Laurie's algorithm (Math. Comp. 66, 1997).

    a, b hold 2n + 1 monic recurrence coefficients p_{k+1} = (x - a_k) p_k
    - b_k p_{k-1} of the measure, b_0 its mass; the first n of each are
    kept, the rest are overwritten with the Jacobi-Kronrod matrix's.
    """
    a, b = a.copy(), b.copy()
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k] - b[l] * s[k + 1]
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += -(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1] + b[l] * s[j + 2]
            s[j + 1] = u
        if m % 2 == 0:
            k = m // 2
            a[k + n + 1] = a[l] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            k = (m + 1) // 2
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@functools.cache
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(2 GAUSS_ORDER + 1)-point Gauss-Kronrod rule on [-1, 1]: ascending
    nodes, their Kronrod weights, and the weights of the embedded Gauss rule
    at the odd-indexed nodes.

    The Kronrod nodes and weights are the eigenvalues and squared first
    eigenvector components of the Jacobi-Kronrod matrix of the Legendre
    recurrence.  The embedded nodes are set to numpy's Newton-polished
    Gauss-Legendre nodes (they agree with the eigenvalues to about 2e-16),
    so the Gauss rule alone is exactly the GAUSS_ORDER-point one.  Built on
    first use: importing numpy.polynomial adds about 1.5 MiB and 25 ms,
    which runs that integrate no line should not pay.
    """
    n = GAUSS_ORDER
    k = np.arange(1, 2 * n + 1, dtype=float)
    a = np.zeros(2 * n + 1)
    b = np.concatenate(([2.0], k * k / (4.0 * k * k - 1.0)))
    a, b = _kronrod_extension(n, a, b)
    off = np.sqrt(b[1:])
    nodes, vectors = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    kronrod = b[0] * vectors[0] ** 2
    gauss_nodes, gauss = np.polynomial.legendre.leggauss(n)
    nodes[1::2] = gauss_nodes
    return nodes, kronrod, gauss


def _panel_integrals(start: complex, direction: complex, edges: np.ndarray,
                     x: float, kronrod: bool) -> tuple[np.ndarray, ...]:
    """integral of F(s) x^s / s ds along s = start + direction u over each
    panel edges[k] <= u <= edges[k + 1].

    Returns gauss, kronrod and the two rounding sums of perron_sweep over
    the panels.  With kronrod, F is evaluated once at each of the 33 Kronrod
    nodes per panel and all four read those values; without it, only at the
    16 embedded Gauss nodes, and the last three are None.  Edges ascend, so
    each batch of nodes sits at a similar height and the float64 zeta picks
    its N from that height.
    """
    nodes, k_weights, g_weights = _kronrod_rule()
    if not kronrod:
        nodes = nodes[1::2]
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    s = start + direction * (mid[:, None] + half[:, None] * nodes)
    f = np.empty_like(s)
    log_n = np.empty(len(s))
    panels = _BATCH_NODES // len(nodes)
    for i in range(0, len(s), panels):
        block = s[i: i + panels]
        f[i: i + panels] = _integrand_line(block.ravel(), x).reshape(block.shape)
        log_n[i: i + panels] = math.log(zeta_engine._em_rule(block.ravel())[0])
    # Elementwise sums, not BLAS products: BLAS worker threads would spin on
    # the second core after every batch.
    scale = direction * half
    if not kronrod:
        return scale * (f * g_weights).sum(axis=1), None, None, None
    size = np.abs(f) * k_weights * half[:, None]
    phase = size * np.abs(s.imag) * (math.log(x) + 3.0 * log_n)[:, None]
    return (scale * (f[:, 1::2] * g_weights).sum(axis=1),
            scale * (f * k_weights).sum(axis=1),
            size.sum(axis=1), (phase * phase).sum(axis=1))


def _segment_integrals(start: complex, direction: complex, heights: list[float],
                       x: float, nodes: int, kronrod: bool = True):
    """integral of F(s) x^s / s ds along s = start + direction u from u = 0
    to each of the ascending heights.

    Panels are at most a quarter period of x^(it) wide, narrower where needed
    so that every height spans at least nodes // GAUSS_ORDER of them, and
    each height is a panel edge.  The frequency is floored at 4: below
    x = e^4 the terms n^-it of F itself oscillate faster than x^(it).
    Returns (gauss, kronrod, rounding) arrays over the heights: gauss from
    the 16-point Gauss rule on every panel, kronrod from the 33-point
    Gauss-Kronrod rule that extends it, and perron_sweep's rounding terms;
    the last two are None unless kronrod is set.
    """
    period = 2.0 * math.pi / max(math.log(x), 4.0)
    width = min(period / 4.0, heights[0] / (nodes // GAUSS_ORDER))
    edges, ends = [0.0], []
    for h in heights:
        count = math.ceil((h - edges[-1]) / width)
        edges.extend(np.linspace(edges[-1], h, count + 1)[1:])
        ends.append(len(edges) - 2)  # prefix-sum index of the panel ending at h
    cuts = np.array(ends[:-1]) + 1

    def prefix(panels):
        # Pairwise sums between heights; a running sum over every panel
        # would add rounding like sqrt(panels) eps |value|.
        return np.cumsum([part.sum() for part in np.split(panels, cuts)])

    gauss, extended, size, phase = _panel_integrals(start, direction, np.array(edges),
                                                    x, kronrod)
    if extended is None:
        return prefix(gauss), None, None
    count = (2 * GAUSS_ORDER + 1) * (np.array(ends) + 1)
    rounding = _EPS * (np.log2(count) * prefix(size) + np.sqrt(prefix(phase)))
    return prefix(gauss), prefix(extended), rounding


def _require_half_convention(x: float) -> None:
    if float(x) == int(x):
        raise ConventionError(
            f"x = {x} is an integer; use the half-integer grid (n + 1/2) "
            "to stay off the Perron jump discontinuity"
        )


def perron_sweep(x: float, c: float, T_list,
                 nodes: int = 1024) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated Perron values I(T) for strictly ascending heights T, all
    from one pass over the nodes of the tallest upper half-line, the
    quadrature gap |K - G| at each T, and an error bound at each T.

    I(T) = Im(integral from c to c + iT) / pi, real.  K is the 33-point
    Gauss-Kronrod value, which is returned, and G the 16-point Gauss value
    embedded in it, from the same F evaluations.  A gap above
    GAP_TOL * max(1, |K|) raises QuadratureError.  Over the n Kronrod nodes up
    to T, with weights w and integrand values f, the bound is the gap plus
    (eps log2(n) sum |w f| + eps sqrt(sum (|w f| |t| (ln x + 3 ln N))^2)) / pi:
    pairwise summation (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 4) and the float64 phases t ln x of x^s and t ln p
    of F, N the Euler-Maclaurin cutoff of the node's zeta batch.
    """
    _require_half_convention(x)
    heights = [float(T) for T in T_list]
    if c <= 1:
        raise DomainError("abscissa c must exceed 1 (absolute convergence)")
    if not (heights[0] > 0 and math.isfinite(heights[-1])):
        raise DomainError("height T must be positive and finite")
    if not all(b > a for a, b in zip(heights, heights[1:])):  # False at a NaN
        raise DomainError("heights T must be strictly ascending")
    if nodes < MIN_NODES:
        raise DomainError(f"node count must be >= {MIN_NODES}")
    gauss, kronrod, rounding = _segment_integrals(c, 1j, heights, x, nodes)
    values = kronrod.imag / math.pi
    gaps = np.abs(values - gauss.imag / math.pi)
    failed = np.flatnonzero(gaps > GAP_TOL * np.maximum(1.0, np.abs(values)))
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"the Gauss-Kronrod and Gauss Perron values at T = {heights[k]} "
            f"differ by {gaps[k]:.3e} (tolerance {GAP_TOL:.1e} relative)"
        )
    return values, gaps, gaps + rounding / math.pi


def perron_truncated(x: float, c: float, T: float, nodes: int = 1024) -> complex:
    """(1/2 pi i) integral of F(s) x^s / s ds on the segment c - iT .. c + iT.

    The lower half-line is the conjugate of the upper one, so the value is
    real by construction and its imaginary part is 0.0; only the upper
    half-line is integrated, with at least `nodes` Gauss nodes extended to
    a 33-point Gauss-Kronrod rule per panel.  The gap between the Kronrod
    value and its embedded Gauss value guards the quadrature; a gap beyond
    GAP_TOL raises QuadratureError (see perron_sweep, which also returns the
    gap and an error bound).
    """
    return complex(perron_sweep(x, c, [T], nodes)[0][0])


def residue_by_circle(center, radius: float, x: float, nodes: int = 128,
                      precision: int = DEFAULT_PRECISION,
                      verify_radius: bool = False) -> mpc:
    """(1/2 pi i) contour integral of F(s) x^s / s on a circle, by trapezoid.

    Equals the residue sum of the enclosed poles.  The nodes sit at the
    angles 2 pi j / nodes.  The trapezoid sums run over nested levels:
    every 2^m-th of those nodes, from the coarsest level of at least
    MIN_LEVEL nodes, each level adding the nodes the one before lacks.  With
    d1 and d0 the changes at the last two levels, the sum stops once
    d1 <= d0 and d1^2 / d0 <= 2^-precision max(1, |value|); otherwise it
    runs to all `nodes`.  About a real centre the integrand at the mirrored
    node conj(z) is the conjugate of its value at z, so only the nodes at
    angles in [0, pi] are evaluated: a level of m nodes costs m/2 + 1 F
    evaluations if it is the coarsest and m/4 otherwise, and the value is
    real, t_0 + t_{m/2} + 2 Re sum_{0<j<m/2} t_j over m.  Each F reads
    zeta(s) and zeta(2s) from one zeta_pair; at s = 1/2, on a circle through
    the pole of zeta(2s), F is 0.  With verify_radius the integral is
    repeated at half the radius; disagreement signals that the circle and
    its half do not enclose the same poles.
    """
    if nodes < MIN_NODES:
        raise DomainError(f"node count must be >= {MIN_NODES}")
    if radius <= 0:
        raise DomainError("radius must be positive")
    for pole in _FIXED_POLES:
        if abs(abs(complex(center) - pole) - radius) < 1.0e-3:
            raise ContourError(f"circle passes within 1e-3 of the pole at {pole}")
    with mp.workprec(precision + 16):
        c0 = mpc(center)
        r = mpf(radius)
        lx = mp.ln(mpf(x))
        mirrored = c0.imag == 0
        last = nodes // 2 if mirrored else nodes - 1

        def node_sum(first: int, step: int) -> mpc:
            total = mpc(0)
            for j in range(first, last + 1, step):
                w = r * mp.expjpi(mpf(2 * j) / nodes)  # z - c0
                z = c0 + w
                if 2 * z == 1:  # 1/zeta(2s) vanishes at the pole of zeta(2s)
                    continue
                (zs,), (z2s,) = zeta_engine.zeta_pair(z, 0, 0, precision)
                term = zs ** 3 / z2s * mp.exp(z * lx) / z * w
                if mirrored:  # nodes 0 and nodes/2 are their own mirrors
                    term = term.real if 2 * j % nodes == 0 else 2 * term.real
                total += term
            return total

        step = 1  # the coarsest level takes every step-th node
        while nodes % (2 * step) == 0 and nodes // (2 * step) >= MIN_LEVEL:
            step *= 2
        total = node_sum(0, step)
        values = [total / (nodes // step)]
        tol = mpf(2) ** -precision
        while step > 1:
            step //= 2
            total += node_sum(step, 2 * step)
            values.append(total / (nodes // step))
            if len(values) >= 3:
                d1 = abs(values[-1] - values[-2])
                d0 = abs(values[-2] - values[-3])
                if d1 <= d0 and d1 * d1 <= tol * max(1, abs(values[-1])) * d0:
                    break
        result = +values[-1]
    if verify_radius:
        inner = residue_by_circle(center, radius / 2.0, x, nodes, precision)
        scale = max(mpf(1), abs(result))
        if abs(result - inner) / scale > mpf("1e-8"):
            raise ContourError(
                "radius-halving inconsistency: the circle and its half enclose "
                "different pole sets"
            )
    return result


def truncation_decay(x: float, c: float, T_list, exact_sum: int,
                     nodes: int = 1024) -> tuple[list[tuple[float, float, float, float]], float]:
    """Perron truncation error |I(T) - S(x)| over strictly ascending T, plus
    the fitted log-log slope.

    Each row is (T, |I(T) - S(x)|, quadrature gap at T, error bound at T).
    At least two heights are needed for a slope.  One nested quadrature
    serves every T; the Kronrod-Gauss check runs at each of them.
    """
    heights = [float(T) for T in T_list]
    if len(heights) < 2:
        raise DomainError("a decay fit needs at least two heights T")
    values, gaps, bounds = perron_sweep(x, c, heights, nodes)
    rows = [(T, float(abs(v - exact_sum)), float(gap), float(bound))
            for T, v, gap, bound in zip(heights, values, gaps, bounds)]
    logs_T = np.log([r[0] for r in rows])
    logs_e = np.log([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(logs_T, logs_e, 1)[0])
    return rows, slope


@dataclass(frozen=True)
class RectangleCheck:
    """Residue bookkeeping on a pole-free-edge rectangle enclosing s = 1.
    edge_magnitudes["bottom"] equals ["top"]: the sides are conjugates."""

    contour_value: float
    residue_value: float
    edge_magnitudes: dict
    discrepancy: float


def rectangle_consistency(x: float) -> RectangleCheck:
    """Counterclockwise rectangle integral versus the enclosed residue at s = 1.

    The rectangle spans left = 0.6 <= sigma <= right = 1.25 and
    |t| <= T = 50.  Since 1/2 < left < 1 < right it encloses the order-3 pole
    at s = 1 and nothing else; the zero poles on Re s = 1/4 and the pole at
    s = 0 stay outside and are tested individually by circles.  With
    up(sigma) the integral from sigma to sigma + iT and top the one from
    left + iT to right + iT, the sides are 2i Im up(right), -2i Im up(left),
    -top and conj(top).
    """
    _require_half_convention(x)
    from .series import residue_main_term

    def edge(start: complex, direction: complex, length: float, count: int) -> complex:
        return complex(_segment_integrals(start, direction, [length], x, count,
                                          kronrod=False)[0][0])

    right_edge = edge(_RECT_RIGHT, 1j, _RECT_T, _RECT_NODES).imag / math.pi
    left_edge = -edge(_RECT_LEFT, 1j, _RECT_T, _RECT_NODES).imag / math.pi
    top = edge(_RECT_LEFT + 1j * _RECT_T, 1.0, _RECT_RIGHT - _RECT_LEFT,
               _RECT_NODES // 8)
    contour = right_edge + left_edge - top.imag / math.pi
    residue_value = float(residue_main_term(x)[1])
    return RectangleCheck(
        contour_value=contour,
        residue_value=residue_value,
        edge_magnitudes={
            "right": abs(right_edge),
            "left": abs(left_edge),
            "top": abs(top) / (2.0 * math.pi),
            "bottom": abs(top) / (2.0 * math.pi),
        },
        discrepancy=abs(contour - residue_value),
    )
