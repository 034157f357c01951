"""Numerical contour apparatus: truncated Perron integrals, small-circle
residue quadrature, truncation-decay measurement, and a rectangle residue
bookkeeping check.

Every straight edge -- each half-line of a Perron segment and each side of
the rectangle -- goes through one nested segment quadrature: composite
16-point Gauss-Legendre on panels at most a quarter period of x^(it) wide,
with every requested height a panel edge, evaluated in vectorized float64.
The integral up to each height is a prefix sum of panel integrals, so a
sweep over T evaluates F(s) once per node for all heights together.  Perron
values carry a node-doubling check at every T: the panels are bisected and
the two results must agree.  Circles use the trapezoid rule in
multiprecision, which is spectrally accurate on periodic contours: with N
nodes, principal parts are integrated exactly and the analytic remainder
contributes O((r/R)^N) for the distance R to the nearest other singularity.

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
from .zeta import dirichlet_quotient_f64

MIN_NODES = 64
DEFAULT_PRECISION = 128
GAUSS_ORDER = 16
#: Panels per float64 zeta batch (1024 nodes): a short stretch of height,
#: so the N each batch picks from its tallest node stays near its own.
_BATCH_PANELS = 64

#: Known fixed poles of F(s) x^s / s on the desk-scale window.
_FIXED_POLES = (0.0 + 0.0j, 1.0 + 0.0j)


def _integrand_line(s: np.ndarray, x: float) -> np.ndarray:
    """F(s) x^s / s on an array of points off the poles."""
    return dirichlet_quotient_f64(s) * np.exp(s * math.log(x)) / s


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """GAUSS_ORDER-point Gauss-Legendre nodes and weights on [-1, 1].

    Built on first use: importing numpy.polynomial adds about 1.5 MiB and
    25 ms, which runs that integrate no line should not pay.
    """
    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _panel_integrals(start: complex, direction: complex, edges: np.ndarray,
                     x: float) -> np.ndarray:
    """integral of F(s) x^s / s ds along s = start + direction u over each
    panel edges[k] <= u <= edges[k + 1].

    Edges ascend, so each batch of nodes sits at a similar height and the
    float64 zeta picks its N from that height.
    """
    nodes, weights = _gauss_rule()
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    s = start + direction * (mid[:, None] + half[:, None] * nodes)
    f = np.empty_like(s)
    for i in range(0, len(s), _BATCH_PANELS):
        block = s[i: i + _BATCH_PANELS]
        f[i: i + _BATCH_PANELS] = _integrand_line(block.ravel(), x).reshape(block.shape)
    # An elementwise sum, not a BLAS product: BLAS worker threads would spin
    # on the second core after every batch.
    return direction * half * (f * weights).sum(axis=1)


def _segment_integrals(start: complex, direction: complex, heights: list[float],
                       x: float, nodes: int, bisect: bool = True):
    """integral of F(s) x^s / s ds along s = start + direction u from u = 0
    to each of the ascending heights.

    Panels are at most a quarter period of x^(it) wide, narrower where needed
    so that every height spans at least nodes // GAUSS_ORDER of them, and
    each height is a panel edge.  Returns (coarse, fine) arrays over the
    heights; fine comes from the same panels bisected, and is None unless
    bisect is set.
    """
    period = 2.0 * math.pi / max(math.log(x), 1.0)
    width = min(period / 4.0, heights[0] / (nodes // GAUSS_ORDER))
    edges, ends = [0.0], []
    for h in heights:
        count = math.ceil((h - edges[-1]) / width)
        edges.extend(np.linspace(edges[-1], h, count + 1)[1:])
        ends.append(len(edges) - 2)  # prefix-sum index of the panel ending at h
    edges = np.array(edges)
    coarse = np.cumsum(_panel_integrals(start, direction, edges, x))[ends]
    if not bisect:
        return coarse, None
    fine_edges = np.empty(2 * len(edges) - 1)
    fine_edges[0::2] = edges
    fine_edges[1::2] = (edges[1:] + edges[:-1]) / 2.0
    halves = _panel_integrals(start, direction, fine_edges, x)
    fine = np.cumsum(halves[0::2] + halves[1::2])[ends]
    return coarse, fine


def _require_half_convention(x: float) -> None:
    if float(x) == int(x):
        raise ConventionError(
            f"x = {x} is an integer; use the half-integer grid (n + 1/2) "
            "to stay off the Perron jump discontinuity"
        )


def _perron_sweep(x: float, c: float, T_list, nodes: int,
                  tol: float) -> np.ndarray:
    """Truncated Perron values I(T) for strictly ascending heights T, all
    from one pass over the nodes of the tallest segment."""
    _require_half_convention(x)
    heights = [float(T) for T in T_list]
    if c <= 1:
        raise DomainError("abscissa c must exceed 1 (absolute convergence)")
    if not heights[0] > 0:
        raise DomainError("height T must be positive")
    if any(b <= a for a, b in zip(heights, heights[1:])):
        raise DomainError("heights T must be strictly ascending")
    if nodes < MIN_NODES:
        raise DomainError(f"node count must be >= {MIN_NODES}")
    # c - iT .. c + iT is the upward half-line minus the downward one.
    up_coarse, up_fine = _segment_integrals(c, 1j, heights, x, nodes)
    down_coarse, down_fine = _segment_integrals(c, -1j, heights, x, nodes)
    coarse = (up_coarse - down_coarse) / (2j * math.pi)
    fine = (up_fine - down_fine) / (2j * math.pi)
    gap = np.abs(fine - coarse)
    failed = np.flatnonzero(gap > tol * np.maximum(1.0, np.abs(fine)))
    if failed.size:
        k = failed[0]
        raise QuadratureError(
            f"node doubling changed the Perron value at T = {heights[k]} by "
            f"{gap[k]:.3e} (tolerance {tol:.1e} relative)"
        )
    return fine


def perron_truncated(x: float, c: float, T: float, nodes: int = 1024,
                     tol: float = 1.0e-6) -> complex:
    """(1/2 pi i) integral of F(s) x^s / s ds on the segment c - iT .. c + iT.

    The two half-lines are integrated independently (no conjugate-symmetry
    shortcut), so the smallness of the imaginary part is a real check; each
    gets at least `nodes` Gauss nodes.  A node-doubling comparison guards
    the quadrature; disagreement beyond tol raises QuadratureError.
    """
    return complex(_perron_sweep(x, c, [T], nodes, tol)[0])


def residue_by_circle(center, radius: float, x: float, nodes: int = 128,
                      precision: int = DEFAULT_PRECISION,
                      verify_radius: bool = False) -> mpc:
    """(1/2 pi i) contour integral of F(s) x^s / s on a circle, by trapezoid.

    Equals the residue sum of the enclosed poles.  With verify_radius the
    integral is repeated at half the radius; disagreement signals that the
    circle and its half do not enclose the same poles.
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
        total = mpc(0)
        # Half-step node offset keeps nodes off the real axis, where the
        # zeta(2s) pole at s = 1/2 would otherwise be hit exactly.
        for j in range(nodes):
            z = c0 + r * mp.expjpi(mpf(2 * j + 1) / nodes)
            f = (zeta_engine.zeta(z, precision) ** 3
                 / zeta_engine.zeta(2 * z, precision)
                 * mp.exp(z * lx) / z)
            total += f * (z - c0)
        result = +(total / nodes)
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
                     nodes: int = 1024) -> tuple[list[tuple[float, float]], float]:
    """Perron truncation error |I(T) - S(x)| over strictly ascending T, plus
    the fitted log-log slope.

    At least two heights are needed for a slope.  One nested quadrature
    serves every T; the node-doubling check runs at each of them.
    """
    heights = [float(T) for T in T_list]
    if len(heights) < 2:
        raise DomainError("a decay fit needs at least two heights T")
    values = _perron_sweep(x, c, heights, nodes, tol=1.0e-6)
    rows = [(T, float(abs(v.real - exact_sum))) for T, v in zip(heights, values)]
    logs_T = np.log([r[0] for r in rows])
    logs_e = np.log([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(logs_T, logs_e, 1)[0])
    return rows, slope


@dataclass(frozen=True)
class RectangleCheck:
    """Residue bookkeeping on a pole-free-edge rectangle enclosing s = 1."""

    contour_value: float
    residue_value: float
    edge_magnitudes: dict
    discrepancy: float


def rectangle_consistency(x: float, T: float = 50.0, right: float = 1.25,
                          left: float = 0.6, nodes: int = 2048,
                          residue_value: float | None = None) -> RectangleCheck:
    """Counterclockwise rectangle integral versus the enclosed residue at s = 1.

    The left edge sits at sigma = left > 1/2, so the rectangle encloses the
    order-3 pole at s = 1 and nothing else; the zero poles on Re s = 1/4 and
    the pole at s = 0 stay outside and are tested individually by circles.
    """
    _require_half_convention(x)
    if T <= 0:
        raise DomainError("height T must be positive")
    if not 0.5 < left < 1.0 < right:
        raise ContourError(
            "rectangle must satisfy 1/2 < left < 1 < right to enclose s = 1 only"
        )

    def edge(start: complex, direction: complex, length: float, count: int) -> complex:
        coarse, _ = _segment_integrals(start, direction, [length], x, count,
                                       bisect=False)
        return complex(coarse[0])

    h_nodes = max(nodes // 8, 128)
    right_edge = edge(right, 1j, T, nodes) - edge(right, -1j, T, nodes)
    left_edge = edge(left, -1j, T, nodes) - edge(left, 1j, T, nodes)
    top_edge = -edge(left + 1j * T, 1.0, right - left, h_nodes)
    bottom_edge = edge(left - 1j * T, 1.0, right - left, h_nodes)
    two_pi_i = 2.0j * math.pi
    contour = (right_edge + left_edge + top_edge + bottom_edge) / two_pi_i
    if residue_value is None:
        from .series import residue_main_term

        _, value = residue_main_term(x, mode="exact")
        residue_value = float(value)
    return RectangleCheck(
        contour_value=contour.real,
        residue_value=residue_value,
        edge_magnitudes={
            "right": abs(right_edge / two_pi_i),
            "left": abs(left_edge / two_pi_i),
            "top": abs(top_edge / two_pi_i),
            "bottom": abs(bottom_edge / two_pi_i),
        },
        discrepancy=abs(contour.real - residue_value)
        + abs(contour.imag),
    )
