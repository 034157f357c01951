"""Numerical contour apparatus: truncated Perron integrals, small-circle
residue quadrature, truncation-decay measurement, and a rectangle residue
bookkeeping check.

F(conj s) = conj F(s), so only the upper half of each edge mirrored in the
real axis is integrated.  Every straight edge goes through one nested
segment quadrature: composite 16-point Gauss-Legendre on panels at most one
period of x^(it) wide and at most their distance to the nearest pole of
F(s) x^s / s, every height a panel edge.  Each panel's Bernstein ellipse
with rho = 2 + sqrt(5) (semi-minor axis one panel width) then stays in the
region where the integrand is analytic, x^s grows on it by at most
e^(2 pi) = 535, and the 16-point rule errs by about 5.7e-19 relative, 190
times below 2^-53.  Measured, each panel's Kronrod-Gauss gap stays at
float64 rounding for panels up to three periods wide and reaches 6e-11 at
four, so one period leaves a factor of three in width.  Near s = 1 the
panels widen geometrically away from the pole, so a line close to it takes
a few dozen more panels, not a number that grows like 1 / (c - 1).  The
layout depends on x, the heights and the line alone, and is evaluated in
vectorized float64 on the grid of panel midpoints plus node offsets.  The
integral up to each height is a prefix sum of panel integrals, so a sweep
over T evaluates F(s) once per node for all heights together.  Every edge,
a Perron line or a side of the rectangle, extends each panel's Gauss rule
to the 33-point Gauss-Kronrod rule and returns the Kronrod value; its gap
to the embedded Gauss value, which reads the same F evaluations, is checked
at every height and reported with an error bound that adds float64
rounding.

Circles use the trapezoid rule in multiprecision, which is spectrally
accurate on periodic contours: with N nodes, principal parts are integrated
exactly and the analytic remainder contributes O((r/R)^N) for the distance R
to the nearest other singularity.  Since the error falls geometrically,
nested levels of nodes measure their own error: each level doubles the last,
which squares the error up to a constant, so with d1 and d0 the changes at the
last two levels the error left is about d1 (d1 / d0)^2.  The sum stops at the
first level where that is below 2^-DEFAULT_PRECISION; a circle with no such
level raises QuadratureError.  The nodes sit at the angles 2 pi j / n.
About a real centre the nodes mirror in the real axis, so only those with
angle in [0, pi] are evaluated and each mirrored term is added as the
conjugate: a circle that stops at 64 of 128 nodes evaluates F 33 times.

Evaluation points x must be positive non-integers (half-integers in
practice) to avoid the Perron jump.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import (CapacityError, ContourError, ConventionError, DomainError,
                     HeightRangeError, QuadratureError)
from . import lazy_import, series, sieve, zeta as zeta_engine
from .zeta import DEFAULT_HEIGHT_CAP, DEFAULT_PRECISION, dirichlet_quotient_f64

np = lazy_import("numpy")

MIN_NODES = 64
#: Fewest nodes in the coarsest nested level of a circle quadrature.
MIN_LEVEL = 16
GAUSS_ORDER = 16
#: Fewest panels below a straight edge's first height (16 loosens bounds near s = 1).
MIN_PANELS = 64
#: Float64 F nodes per zeta batch: a short stretch of height, so the N each
#: batch picks from its tallest node stays near its own.  A batch is whole
#: panels of one width, 31 Kronrod panels (1023 nodes), read by F as n^-s
#: tables of 31 midpoints and 33 offsets; at x = 1000.5 a batch of the
#: decay line's panels spans 24.2 in t.
_BATCH_NODES = 1024
#: Most panels on one straight edge, checked before any array is allocated:
#: a pass over them keeps four sums per panel, 12 MiB, and the nodes of one
#: batch at a time.  A line to the height cap 1e4 stays below it while ln x
#: is below 82.
_MAX_PANELS = 2 ** 18
#: float64 machine epsilon, for the rounding terms of the Perron error bound.
_EPS = 2.0 ** -52

#: Largest accepted gap between a Perron value's Gauss-Kronrod and Gauss
#: values, relative to max(1, |value|).
GAP_TOL = 1.0e-6

#: rectangle_consistency's height T and right and left abscissae.
_RECT_T, _RECT_RIGHT, _RECT_LEFT = 50.0, 1.25, 0.85


def _real_poles_near(center: complex, radius: float) -> list[complex]:
    """Real poles of F(s) x^s / s that a circle can pass within 1e-3 of.

    The real poles are s = 1, 0 and the negative odd integers, where
    zeta(2s) vanishes and zeta(s) does not; at the negative even integers F
    has a double zero.  On each side of Re c, |c - p| is monotone in real p,
    so the real pole nearest the circle brackets a point where the circle
    meets the real line, Re c -+ sqrt(r^2 - Im c^2) (Re c if it misses the
    line): the list is -1, 0, 1 and the odd integers bracketing either point.
    """
    half = math.sqrt(max(radius - abs(center.imag), 0.0) * (radius + abs(center.imag)))
    poles = {-1, 0, 1}
    for crossing in (center.real - half, center.real + half):
        if -math.inf < crossing < -1:
            odd = 2 * math.floor((crossing + 1) / 2) - 1
            poles |= {odd, odd + 2}
    return [complex(p) for p in sorted(poles)]


@functools.cache
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(2 GAUSS_ORDER + 1)-point Gauss-Kronrod rule on [-1, 1]: ascending
    nodes, their Kronrod weights, and the weights of the embedded Gauss rule
    at the odd-indexed nodes.

    With n = GAUSS_ORDER, two conditions fix it: the new nodes are the roots
    of E = P_(n+1) + sum_(k<=n) c_k P_k, orthogonal to P_n P_m for m <= n
    (integrals of degree <= 3n + 1, exact by the (2n + 2)-point Gauss rule),
    and the rule is exact on P_0 .. P_2n.  For Legendre weight the roots of
    E interlace with the Gauss nodes (Szego 1935; Monegato, SIAM Review 24,
    1982), so each is bisected in its own gap.  The embedded rule is numpy's.
    Built on first use: importing numpy.polynomial adds about 1.5 MiB and
    25 ms, which runs that integrate no line should not pay.
    """
    n, legendre = GAUSS_ORDER, np.polynomial.legendre
    gauss_nodes, gauss = legendre.leggauss(n)
    t, w = legendre.leggauss(2 * n + 2)
    p = legendre.legvander(t, n + 1)
    # Elementwise sums, not BLAS products: see dirichlet_quotient_f64.
    moments = ((w * p[:, n])[:, None, None] * p[:, :n + 1, None] * p[:, None, :]).sum(axis=0)
    stieltjes = np.append(np.linalg.solve(moments[:, :n + 1], -moments[:, n + 1]), 1.0)
    lo, hi = np.append(-1.0, gauss_nodes), np.append(gauss_nodes, 1.0)
    sign = np.sign(legendre.legval(lo, stieltjes))
    for _ in range(60):
        mid = (lo + hi) / 2
        right = np.sign(legendre.legval(mid, stieltjes)) == sign
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    nodes = np.sort(np.concatenate(((lo + hi) / 2, gauss_nodes)))
    kronrod = np.linalg.solve(legendre.legvander(nodes, 2 * n).T, 2.0 * np.eye(2 * n + 1)[0])
    return nodes, kronrod, gauss


def _panel_integrals(start: complex, direction: complex, stretches,
                     x: float) -> tuple[np.ndarray, ...]:
    """integral of F(s) x^s / s ds along s = start + direction u over each
    panel, where each stretch (lo, hi, count) of u is cut into count panels
    of one width.

    Returns gauss, kronrod and the two rounding sums of perron_sweep over
    the panels, in order, all four read from one F evaluation at each of
    the 33 Kronrod nodes per panel.  F is evaluated per batch of panels
    within one stretch, on the grid of their midpoints plus the node
    offsets they share, and each batch is reduced to its panel sums before
    the next.  Stretches ascend, so each batch sits at a similar height and
    the float64 zeta picks its N there.
    """
    nodes, k_weights, g_weights = _kronrod_rule()
    rows = _BATCH_NODES // len(nodes)
    log_x = math.log(x)
    panels = sum(count for _, _, count in stretches)
    (gauss, kronrod), (size, phase) = np.empty((2, panels), complex), np.empty((2, panels))
    first = 0
    for lo, hi, count in stretches:
        h = (hi - lo) / (2 * count)
        scale = direction * h
        offsets = scale * nodes
        mid = start + direction * (lo + h * np.arange(1, 2 * count, 2))
        for i in range(0, count, rows):
            base = mid[i: i + rows]
            batch = slice(first + i, first + i + len(base))
            grid = np.add.outer(base, offsets)
            f = dirichlet_quotient_f64(base, offsets) * np.exp(grid * log_x) / grid
            log_n = math.log(zeta_engine._em_rule(grid.ravel())[0])
            # Elementwise sums, not BLAS products: see dirichlet_quotient_f64.
            gauss[batch] = scale * (f[:, 1::2] * g_weights).sum(axis=1)
            kronrod[batch] = scale * (f * k_weights).sum(axis=1)
            weighted = np.abs(f) * k_weights * h
            turns = weighted * np.abs(grid.imag) * (log_x + 3.0 * log_n)
            size[batch] = weighted.sum(axis=1)
            phase[batch] = (turns * turns).sum(axis=1)
        first += count
    return gauss, kronrod, size, phase


def _pole_distance(start: complex, direction: complex, lo: float, hi: float) -> float:
    """Distance from the segment s = start + direction u, lo <= u <= hi, of a
    unit direction, to the nearest pole of F(s) x^s / s: s = 1, or the
    half-plane Re s <= 1/2, which holds s = 0 and every pole rho/2 of
    1/zeta(2s) whether or not the Riemann hypothesis holds."""
    edge = min((start + direction * lo).real, (start + direction * hi).real) - 0.5
    u = min(max(((1.0 - start) * direction.conjugate()).real, lo), hi)
    return min(edge, abs(start + direction * u - 1.0))


def _layout(start: complex, direction: complex, heights: list[float],
            x: float) -> tuple[list[tuple[float, float, int]], np.ndarray]:
    """Panels of the segment s = start + direction u from u = 0 to the last
    of the ascending heights, for a unit direction and a segment right of
    Re s = 1/2: stretches (lo, hi, count), each cut into count panels of one
    width, and the number of panels below each height.

    Every height is a stretch edge.  A panel is at most one period of
    x^(it) wide, at most its stretch's _pole_distance, and narrow enough
    that the first height spans at least MIN_PANELS panels.  One period
    makes omega h = pi on a panel of half-width h, so x^(it) grows by at
    most e^(2 pi) on its Bernstein ellipse and the 16-point Gauss error
    stays near 5.7e-19 relative; measured, the Kronrod-Gauss gap of each
    panel stays at float64 rounding up to three periods (at x = 1000.5 to
    1e9 + 0.5, Re s = 2 and 3, T <= 400) and reaches 6e-11 at four, 5e-6
    at six.  The terms n^-it of F, which oscillate faster than x^(it) for
    small x, are held by the pole distance, since the ellipse stays right
    of Re s = 1/2, where F is analytic.
    Where the pole distance d at u is below that width and still grows past
    u + 2d, two panels of width d cover u..u + 2d and the rest of the
    stretch starts over there, so the panels widen geometrically away from
    s = 1.  More than _MAX_PANELS panels raise CapacityError.
    """
    period = 2.0 * math.pi / abs(math.log(x))
    widest = min(period, heights[0] / MIN_PANELS)
    stretches, ends, panels = [], [], 0
    for lo, hi in zip([0.0, *heights], heights):
        while lo < hi:
            near = _pole_distance(start, direction, lo, hi)
            cut = lo + 2.0 * near
            if near < widest and cut < hi and _pole_distance(start, direction,
                                                             cut, hi) > near:
                stretches.append((lo, cut, 2))
            else:
                cut = hi
                stretches.append((lo, hi, math.ceil((hi - lo) / min(widest, near))))
            panels += stretches[-1][2]
            lo = cut
        if panels > _MAX_PANELS:
            raise CapacityError(f"the segment from {start} needs {panels} panels up "
                                f"to u = {hi} at x = {x}, above the cap {_MAX_PANELS}")
        ends.append(panels)
    return stretches, np.array(ends)


def _segment_integrals(start: complex, direction: complex, heights: list[float],
                       x: float, edge: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """integral of F(s) x^s / s ds along s = start + direction u from u = 0
    to each of the ascending heights, on the panels of _layout.

    Returns (kronrod, gaps, bounds) arrays over the heights: the 33-point
    Gauss-Kronrod values, and for the part Im(value) / pi that a Perron
    line or a rectangle side contributes, the gap to the embedded 16-point
    Gauss value and the error bound of perron_sweep.  A gap above
    GAP_TOL * max(1, |Im(value)| / pi) or a non-finite bound raises
    QuadratureError, which names the edge: "<edge> = <height>".
    """
    stretches, ends = _layout(start, direction, heights, x)

    def prefix(panels):
        # Pairwise sums between heights; a running sum over every panel
        # would add rounding like sqrt(panels) eps |value|.
        return np.cumsum([part.sum() for part in np.split(panels, ends[:-1])])

    count = (2 * GAUSS_ORDER + 1) * ends
    with np.errstate(over="ignore", invalid="ignore"):  # at large c; checked below
        gauss, kronrod, size, phase = map(prefix, _panel_integrals(start, direction,
                                                                   stretches, x))
        values = kronrod.imag / math.pi
        gaps = np.abs(values - gauss.imag / math.pi)
        bounds = gaps + _EPS * (np.log2(count) * size + np.sqrt(phase)) / math.pi
    # not (gap <= tolerance), so that a NaN gap fails too.
    failed = np.flatnonzero(~(gaps <= GAP_TOL * np.maximum(1.0, np.abs(values)))
                            | ~np.isfinite(bounds))
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"the Gauss-Kronrod and Gauss values on {edge} = {heights[k]} "
            f"differ by {gaps[k]:.3e} (tolerance {GAP_TOL:.1e} relative), "
            f"error bound {bounds[k]:.3e}"
        )
    return kronrod, gaps, bounds


def _require_half_convention(x: float) -> None:
    if not 0 < x < math.inf:
        raise DomainError(f"x = {x} must be positive and finite")
    if float(x) == int(x):
        raise ConventionError(
            f"x = {x} is an integer; use the half-integer grid (n + 1/2) "
            "to stay off the Perron jump discontinuity"
        )


def perron_sweep(x: float, c: float, T_list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated Perron values I(T) for strictly ascending heights T, all
    from one pass over the nodes of the tallest upper half-line, the
    quadrature gap |K - G| at each T, and an error bound at each T.

    I(T) = Im(integral from c to c + iT) / pi, real.  K is the 33-point
    Gauss-Kronrod value, which is returned, and G the 16-point Gauss value
    embedded in it, from the same F evaluations.  A gap above
    GAP_TOL * max(1, |K|) or a non-finite bound raises QuadratureError, a T
    above DEFAULT_HEIGHT_CAP HeightRangeError.  Over the n Kronrod nodes up
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
    if not (heights and heights[0] > 0 and math.isfinite(heights[-1])):
        raise DomainError("height T must be positive and finite")
    if not all(b > a for a, b in zip(heights, heights[1:])):  # False at a NaN
        raise DomainError("heights T must be strictly ascending")
    if heights[-1] > DEFAULT_HEIGHT_CAP:
        raise HeightRangeError(f"T = {heights[-1]} exceeds the cap {DEFAULT_HEIGHT_CAP}")
    kronrod, gaps, bounds = _segment_integrals(c, 1j, heights, x,
                                               f"the line Re s = {c} up to T")
    return kronrod.imag / math.pi, gaps, bounds


def perron_truncated(x: float, c: float, T: float) -> complex:
    """(1/2 pi i) integral of F(s) x^s / s ds on the segment c - iT .. c + iT.

    The lower half-line is the conjugate of the upper one, so the value is
    real by construction and its imaginary part is 0.0; only the upper
    half-line is integrated, by perron_sweep, which also returns the
    Gauss-Kronrod gap it checks and an error bound.
    """
    return complex(perron_sweep(x, c, [T])[0][0])


def residue_by_circle(center, radius: float, x: float, nodes: int = 128,
                      verify_radius: bool = False) -> mpc:
    """(1/2 pi i) contour integral of F(s) x^s / s on a circle, by trapezoid.

    Equals the residue sum of the enclosed poles.  The nodes sit at the
    angles 2 pi j / nodes; `nodes` must be a multiple of 4, at least
    MIN_NODES.  The trapezoid sums run over nested levels: every 2^m-th of
    those nodes, from the coarsest level of at least MIN_LEVEL nodes, each
    level adding the nodes the one before lacks, so there are at least
    three.  With d1 and d0 the changes at the last two levels, the sum stops
    once d1 <= d0 and d1^3 / d0^2 <= 2^-DEFAULT_PRECISION max(1, |value|),
    the precision F is evaluated at; a circle whose levels run out first
    raises QuadratureError.  About a real centre the integrand at the
    mirrored node conj(z) is the conjugate of its value at z, so only the
    nodes at angles in [0, pi] are evaluated: a level of m nodes costs
    m/2 + 1 F evaluations if it is the coarsest and m/4 otherwise, and the
    value is real, t_0 + t_{m/2} + 2 Re sum_{0<j<m/2} t_j over m.  Each F reads zeta(s) and zeta(2s) from one zeta_pair; at
    s = 1/2, on a circle through the pole of zeta(2s), F is 0.  A circle
    passing within 1e-3 of s = 1, 0 or a negative odd integer raises
    ContourError before any evaluation.  With verify_radius the integral is
    repeated at half the radius; disagreement signals that the circle and
    its half do not enclose the same poles.
    """
    if not 0 < x < math.inf:
        raise DomainError(f"x = {x} must be positive and finite")
    if nodes < MIN_NODES or nodes % 4:
        raise DomainError(f"node count must be a multiple of 4 and >= {MIN_NODES}, "
                          f"got {nodes}")
    if radius <= 0:
        raise DomainError("radius must be positive")
    for pole in _real_poles_near(complex(center), radius):
        if abs(abs(complex(center) - pole) - radius) < 1.0e-3:
            raise ContourError(f"circle passes within 1e-3 of the pole at {pole}")
    with mp.workprec(DEFAULT_PRECISION + 16):
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
                (zs,), (z2s,) = zeta_engine.zeta_pair(z, 0, 0, DEFAULT_PRECISION)
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
        tol = mpf(2) ** -DEFAULT_PRECISION
        while step > 1:
            step //= 2
            total += node_sum(step, 2 * step)
            values.append(total / (nodes // step))
            if len(values) >= 3:
                d1 = abs(values[-1] - values[-2])
                d0 = abs(values[-2] - values[-3])
                if d1 <= d0 and d1 ** 3 <= tol * max(1, abs(values[-1])) * d0 ** 2:
                    break
        else:
            raise QuadratureError(
                f"the circle's trapezoid levels did not settle within nodes = "
                f"{nodes}: the last level changed the value by {mp.nstr(d1, 3)}")
        result = +values[-1]
    if verify_radius:
        inner = residue_by_circle(center, radius / 2.0, x, nodes)
        scale = max(mpf(1), abs(result))
        if abs(result - inner) / scale > mpf("1e-8"):
            raise ContourError(
                "radius-halving inconsistency: the circle and its half enclose "
                "different pole sets"
            )
    return result


def truncation_decay(x: float, c: float,
                     T_list) -> tuple[list[tuple[float, float, float, float]], float]:
    """Perron truncation error |I(T) - S(x)| over strictly ascending T, plus
    the fitted log-log slope.

    Each row is (T, |I(T) - S(x)|, quadrature gap at T, error bound at T).
    At least two heights are needed for a slope.  One nested quadrature
    serves every T; the Kronrod-Gauss check runs at each of them.  The exact
    S(x) is sieved after the sweep, so bad arguments are rejected first.
    """
    heights = [float(T) for T in T_list]
    if len(heights) < 2:
        raise DomainError("a decay fit needs at least two heights T")
    values, gaps, bounds = perron_sweep(x, c, heights)
    n = math.floor(x)  # S(x) = 0 for 0 < x < 1
    exact = sieve.prefix_sum(sieve.ArithmeticFunction.D_SQUARE, n) if n else 0
    rows = [(T, float(abs(v - exact)), float(gap), float(bound))
            for T, v, gap, bound in zip(heights, values, gaps, bounds)]
    logs_T = np.log([r[0] for r in rows])
    logs_e = np.log([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(logs_T, logs_e, 1)[0])
    return rows, slope


@dataclass(frozen=True)
class RectangleCheck:
    """Residue bookkeeping on a pole-free-edge rectangle enclosing s = 1.
    error_bound is the sum of the right, left and top sides' perron_sweep
    error bounds, and bounds the contour value's quadrature error."""

    contour_value: float
    residue_value: float
    discrepancy: float
    error_bound: float


def rectangle_consistency(x: float) -> RectangleCheck:
    """Counterclockwise rectangle integral versus the enclosed residue at s = 1.

    The rectangle spans left = 0.85 <= sigma <= right = 1.25 and
    |t| <= T = 50.  Since 1/2 < left < 1 < right it encloses the order-3 pole
    at s = 1 and nothing else; the zero poles on Re s = 1/4 and the pole at
    s = 0 stay outside and are tested individually by circles.  With
    up(sigma) the integral from sigma to sigma + iT and top the one from
    left + iT to right + iT, the sides are 2i Im up(right), -2i Im up(left),
    -top and conj(top).  Each of the three is a Perron line's quadrature,
    with its gap check and error bound; a side whose gap fails raises
    QuadratureError naming it.
    """
    _require_half_convention(x)

    def side(name: str, start: complex, direction: complex, length: float):
        kronrod, _, bounds = _segment_integrals(start, direction, [length], x,
                                                f"the rectangle's {name} side, length L")
        return complex(kronrod[0]), float(bounds[0])

    right, right_bound = side("right", _RECT_RIGHT, 1j, _RECT_T)
    left, left_bound = side("left", _RECT_LEFT, 1j, _RECT_T)
    top, top_bound = side("top", _RECT_LEFT + 1j * _RECT_T, 1.0, _RECT_RIGHT - _RECT_LEFT)
    contour = right.imag / math.pi - left.imag / math.pi - top.imag / math.pi
    residue_value = float(series.residue_main_term(x)[1])
    return RectangleCheck(
        contour_value=contour,
        residue_value=residue_value,
        discrepancy=abs(contour - residue_value),
        error_bound=right_bound + left_bound + top_bound,
    )
