"""Product-rule weights of the fractional integral, the left
Riemann-Liouville derivative, trace functionals, the right Caputo derivative
and the singular junction mode on a uniform grid.

All operators share one product quadrature: functions are treated as
piecewise constant on cells, taking the left-node value per cell.  The
integral itself is never formed: the derivative is gathered from the
differences of its Toeplitz column, and the trace at ``b`` is its last row.
The right Caputo composition is not discretized independently; it is defined
by transposition against the left Riemann-Liouville derivative, so the
integration-by-parts identities hold at machine precision on the grid, not
just in the limit.  Order ``alpha = 1`` reduces every operator to its
classical counterpart (identity integral, backward difference, point traces).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Grid1D

__all__ = [
    "frac_integral_weights",
    "left_rl_derivative",
    "right_caputo_nodal",
    "singular_mode",
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


def left_rl_derivative(alpha: float, grid: Grid1D) -> np.ndarray:
    """Left Riemann-Liouville derivative: backward difference of the order
    ``1 - alpha`` left integral, one value per cell.

    Returns an ``M x (M+1)`` matrix.  For ``alpha = 1`` this is the plain
    backward difference.  The integral's matrix is Toeplitz, ``T[j, k] =
    t[j - k]`` with ``t`` zero at negative offsets, so the derivative is too:
    ``D[j, k] = (t[j + 1 - k] - t[j - k]) / h``, gathered from the differences
    of ``t`` without forming ``T``.
    """
    ((_, D),) = _derivative_blocks(alpha, grid, grid.M)
    return D


def _derivative_blocks(alpha: float, grid: Grid1D, rows: int):
    """The rows of :func:`left_rl_derivative` in blocks of at most ``rows``:
    yields ``(start, D[start:start + len(block)])``, each block gathered when
    it is read, so a caller of small blocks never holds the ``M x (M+1)``
    matrix."""
    _check_order(alpha)
    M = grid.M
    if alpha == 1.0:
        t = np.zeros(M + 1)  # order 0: the identity
        t[0] = 1.0
    else:
        w = frac_integral_weights(1.0 - alpha, grid.h, M)
        t = np.concatenate(([0.0], w[:-1]))
    diff = np.diff(t, prepend=0.0) / grid.h
    # row j is diff[j + 1], ..., diff[0] followed by zeros: window M - 1 - j
    # of the reversed differences padded with M zeros
    windows = sliding_window_view(np.concatenate((diff[::-1], np.zeros(M))), M + 1)
    for start in range(0, M, rows):
        stop = min(start + rows, M)
        yield start, windows[M - stop : M - start][::-1].copy()


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


def right_caputo_nodal(alpha: float, grid: Grid1D, samples: np.ndarray) -> np.ndarray:
    """Right Caputo derivative of a nodal function, by the same transposition:

        <phi, C y>_h = -[y * I^(1-alpha) phi]_a^b + <y, D phi>_h

    for every nodal ``phi``, with ``y`` entering the volume term through its
    left-node cell values and the bracket through its true endpoint samples.
    A cell-valued flux ``g = beta * D y`` enters as ``np.append(g, g[-1])``:
    its cells in the volume term, its first and last cell in the bracket.
    """
    _check_order(alpha)
    y = np.asarray(samples, dtype=float)
    if y.shape[0] != grid.nnodes:
        raise ValueError(f"expected {grid.nnodes} nodal samples, got {y.shape[0]}")
    D = left_rl_derivative(alpha, grid)
    rhs = grid.h * (D.T @ y[:-1])
    rhs -= y[-1] * trace_functional(alpha, grid, "b")
    rhs += y[0] * trace_functional(alpha, grid, "a")
    return rhs / grid.trapezoid_weights()


def singular_mode(alpha: float, grid: Grid1D) -> np.ndarray:
    """Nodal samples of ``sigma(x) = (x-a)^(alpha-1)/Gamma(alpha)``, the mode
    whose order ``1 - alpha`` left integral is the constant one.

    The infinite value at the first node is replaced by the cell average of
    ``sigma`` over the first cell, ``h^(alpha-1)/Gamma(alpha+1)``; the samples
    only ever enter L2 pairings: the rows of :func:`~fracstar.sturm.junction_rows`,
    which the solver reads, and a state's samples (outputs, tracking terms).
    The fractional operators act on the mode analytically: its left integral
    of order ``1 - alpha`` is the one vector, its left derivative is zero on
    every cell, and both endpoint traces are one.
    """
    _check_order(alpha)
    x = grid.nodes - grid.a
    samples = np.empty(grid.nnodes)
    samples[0] = grid.h ** (alpha - 1.0) / math.gamma(alpha + 1.0)
    samples[1:] = x[1:] ** (alpha - 1.0) / math.gamma(alpha)
    return samples
