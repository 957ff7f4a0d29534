"""Discrete left/right Riemann-Liouville integrals, fractional derivatives,
trace functionals, and the singular junction mode on a uniform grid.

All operators share one product quadrature: functions are treated as
piecewise constant on cells, the left-sided rules taking the left-node value
per cell and the right-sided rules (by reflection) the right-node value.
The right Caputo composition is not discretized independently; it is defined
by transposition against the left Riemann-Liouville derivative, so the
integration-by-parts identities hold at machine precision on the grid, not
just in the limit.  Order ``alpha = 1`` reduces every operator to its
classical counterpart (identity integral, backward difference, point traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D

__all__ = [
    "SingularMode",
    "frac_integral_weights",
    "apply_left_integral",
    "apply_right_integral",
    "left_integral_op",
    "right_integral_op",
    "left_rl_derivative",
    "right_caputo_apply",
    "right_caputo_nodal",
    "trace_functional",
]


def _check_order(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha}")


def frac_integral_weights(alpha: float, h: float, M: int) -> np.ndarray:
    """Product-rule weights ``w_k = h^alpha/Gamma(alpha+1) * ((k+1)^alpha - k^alpha)``,
    ``k = 0..M``, of a fractional integral of order ``alpha`` on a uniform mesh
    of size ``h``: ``w_k`` is the exact integral of the kernel
    ``(x - t)^(alpha-1)/Gamma(alpha)`` over the cell ``k`` cells from the
    evaluation node, so convolution with ``w`` integrates piecewise-constant
    data exactly."""
    _check_order(alpha)
    if h <= 0.0:
        raise ValueError(f"mesh size must be positive, got {h}")
    if M < 1:
        raise ValueError(f"need at least one cell, got {M}")
    k = np.arange(M + 1, dtype=float)
    return (h**alpha / math.gamma(alpha + 1.0)) * ((k + 1.0) ** alpha - k**alpha)


def apply_left_integral(weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Left fractional integral at the nodes of piecewise-constant data.

    Cell values are the left-node samples; ``out[0] = 0`` and
    ``out[j] = sum_k w[k] * samples[j-1-k]``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != weights.shape:
        raise ValueError(
            f"expected {weights.shape[0]} nodal samples, got {samples.shape[0]}"
        )
    M = len(samples) - 1
    out = np.zeros(M + 1)
    out[1:] = np.convolve(weights[:M], samples[:-1])[:M]
    return out


def apply_right_integral(weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Right fractional integral, the mirror of the left one under
    ``x -> a + b - x``; cell values are the right-node samples, ``out[M] = 0``.
    """
    return apply_left_integral(weights, np.asarray(samples)[::-1])[::-1]


def left_integral_op(weights: np.ndarray) -> np.ndarray:
    """Matrix form of :func:`apply_left_integral`: lower triangular, row ``j``
    hits cells ``< j``."""
    k = np.arange(len(weights))
    return np.tril(np.concatenate(([0.0], weights[:-1]))[k[:, None] - k])


def right_integral_op(weights: np.ndarray) -> np.ndarray:
    """Mirror image of the left operator: ``R T_left R`` with ``R`` the index
    reversal, which for the Toeplitz rule equals the transpose."""
    return left_integral_op(weights)[::-1, ::-1]


def left_rl_derivative(alpha: float, grid: Grid1D) -> np.ndarray:
    """Left Riemann-Liouville derivative: backward difference of the order
    ``1 - alpha`` left integral, one value per cell.

    Returns an ``M x (M+1)`` matrix.  For ``alpha = 1`` this is the plain
    backward difference.  The integral's matrix is Toeplitz, ``T[j, k] =
    t[j - k]`` with ``t`` zero at negative offsets, so the derivative is too:
    ``D[j, k] = (t[j + 1 - k] - t[j - k]) / h``, gathered from the differences
    of ``t`` without forming ``T``.
    """
    _check_order(alpha)
    if alpha == 1.0:
        t = np.zeros(grid.M + 1)  # order 0: the identity
        t[0] = 1.0
    else:
        w = frac_integral_weights(1.0 - alpha, grid.h, grid.M)
        t = np.concatenate(([0.0], w[:-1]))
    diff = np.diff(t, prepend=0.0) / grid.h
    # row j is diff[j + 1], ..., diff[0] followed by zeros: a window of the
    # reversed differences padded with M zeros
    padded = np.concatenate((diff[::-1], np.zeros(grid.M)))
    return sliding_window_view(padded, grid.M + 1)[grid.M - 1 :: -1].copy()


def trace_functional(alpha: float, grid: Grid1D, endpoint: str) -> np.ndarray:
    """Row vector evaluating the order ``1 - alpha`` left integral at an endpoint.

    At ``b`` this is the last quadrature row of ``I^(1-alpha)``.  At ``a`` the
    integral of any bounded nodal function vanishes, so the row is zero for
    ``alpha < 1``; the nonzero trace at ``a`` is carried entirely by the
    singular-mode coefficient, which assembly appends as an extra column.
    For ``alpha = 1`` both traces are point evaluations.
    """
    _check_order(alpha)
    if endpoint not in ("a", "b"):
        raise ValueError(f"endpoint must be 'a' or 'b', got {endpoint!r}")
    row = np.zeros(grid.nnodes)
    if alpha == 1.0:
        row[-1 if endpoint == "b" else 0] = 1.0
        return row
    if endpoint == "b":
        w = frac_integral_weights(1.0 - alpha, grid.h, grid.M)
        row[: grid.M] = w[grid.M - 1 :: -1][: grid.M]
    return row


def right_caputo_apply(alpha: float, grid: Grid1D, flux_samples: np.ndarray) -> np.ndarray:
    """Right Caputo derivative of a cell-valued flux ``g = beta * D y``,
    defined by transposition against the left derivative:

        <phi, C g>_h = -[g * I^(1-alpha) phi]_a^b + <g, D phi>_h

    for every nodal ``phi``, with the endpoint values of ``g`` taken from the
    first and last cell.  Constructing the operator this way (rather than by
    an independent quadrature) makes the integration-by-parts formula an
    identity of the discretization.
    """
    _check_order(alpha)
    g = np.asarray(flux_samples, dtype=float)
    if g.shape[0] != grid.M:
        raise ValueError(f"expected {grid.M} cell fluxes, got {g.shape[0]}")
    return _right_caputo(alpha, grid, g, g[0], g[-1])


def right_caputo_nodal(alpha: float, grid: Grid1D, samples: np.ndarray) -> np.ndarray:
    """Right Caputo derivative of a nodal function, by the same transposition:

        <phi, C y>_h = -[y * I^(1-alpha) phi]_a^b + <y, D phi>_h,

    with ``y`` entering the volume term through its left-node cell values and
    the bracket through its true endpoint samples.
    """
    _check_order(alpha)
    y = np.asarray(samples, dtype=float)
    if y.shape[0] != grid.nnodes:
        raise ValueError(f"expected {grid.nnodes} nodal samples, got {y.shape[0]}")
    return _right_caputo(alpha, grid, y[:-1], y[0], y[-1])


def _right_caputo(alpha: float, grid: Grid1D, cells, at_a, at_b) -> np.ndarray:
    """The nodal ``C`` with ``<phi, C>_h = -[v * I^(1-alpha) phi]_a^b + <cells, D phi>_h``
    for every nodal ``phi``, ``v`` taking the endpoint values ``at_a``, ``at_b``."""
    D = left_rl_derivative(alpha, grid)
    rhs = grid.h * (D.T @ cells)
    rhs -= at_b * trace_functional(alpha, grid, "b")
    rhs += at_a * trace_functional(alpha, grid, "a")
    return rhs / grid.trapezoid_weights()


@dataclass(frozen=True)
class SingularMode:
    """Nodal samples of ``sigma(x) = (x-a)^(alpha-1)/Gamma(alpha)``, the mode
    whose order ``1 - alpha`` left integral is the constant one.

    The infinite value at the first node is replaced by the cell average of
    ``sigma`` over the first cell, ``h^(alpha-1)/Gamma(alpha+1)``; the samples
    only ever enter L2 pairings (mass and tracking terms).  The fractional
    operators act on the mode analytically: its left integral of order
    ``1 - alpha`` is the one vector, its left derivative is zero on every
    cell, and both endpoint traces equal ``trace_value``.
    """

    alpha: float
    grid: Grid1D
    samples: np.ndarray = field(repr=False)
    trace_value: float = 1.0


def singular_mode(alpha: float, grid: Grid1D) -> SingularMode:
    _check_order(alpha)
    x = grid.nodes - grid.a
    samples = np.empty(grid.nnodes)
    samples[0] = grid.h ** (alpha - 1.0) / math.gamma(alpha + 1.0)
    samples[1:] = x[1:] ** (alpha - 1.0) / math.gamma(alpha)
    return SingularMode(alpha=alpha, grid=grid, samples=samples)
