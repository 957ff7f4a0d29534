"""Assembly of the symmetric discrete Sturm-Liouville operator on one edge.

The stiffness is built Galerkin-style from the coercive bilinear form
``(beta D y, D z) + (q y, z)`` with the product-rule derivative of
:mod:`fracstar.fracops`, so symmetry and coercivity are structural.  When the
singular junction mode is included, the degree-of-freedom vector gains one
coefficient: the mode contributes nothing to the derivative term (its
fractional derivative vanishes identically) and enters mass-type pairings
through its regularized nodal samples.
"""

from typing import NamedTuple

import numpy as np

from .errors import CoefficientError, checked
from .fracops import left_rl_derivative, singular_mode, trace_functional
from .grids import Grid1D

__all__ = ["EdgeCoefficients", "EdgeOperator", "assemble_stiffness"]


@checked
class EdgeCoefficients(NamedTuple):
    """Nodal samples of the diffusion weight ``beta`` and reaction ``q``,
    together with their certified lower bounds."""

    beta: np.ndarray
    q: np.ndarray
    beta0: float
    q0: float

    def _check(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        q = np.asarray(self.q, dtype=float)
        # stated positively: a NaN bound fails ``>=`` where it would pass ``<``
        if not (np.isfinite(beta).all() and beta.min() >= self.beta0 > 0.0):
            raise CoefficientError(
                f"beta must be finite with beta >= beta0 > 0, got min(beta)={beta.min()}, "
                f"beta0={self.beta0}"
            )
        if not (np.isfinite(q).all() and q.min() >= self.q0 > 0.0):
            raise CoefficientError(
                f"q must be finite with q >= q0 > 0, got min(q)={q.min()}, q0={self.q0}"
            )

    @classmethod
    def constant(cls, grid: Grid1D, beta: float, q: float) -> "EdgeCoefficients":
        return cls(
            beta=np.full(grid.nnodes, float(beta)),
            q=np.full(grid.nnodes, float(q)),
            beta0=float(beta),
            q0=float(q),
        )


class EdgeOperator(NamedTuple):
    """Assembled discrete operator for a single edge.

    ``K`` and ``W`` act on the extended DOF vector (nodal samples, then the
    optional singular coefficient).  ``W`` is the lumped trapezoid mass; it is
    diagonal without the singular DOF and gains one coupling row/column with
    it.  ``trace_b`` evaluates the order ``1 - alpha`` integral at the tip
    (the mode's entry is one), ``mode`` holds the singular mode's nodal
    samples (with the singular DOF), and ``free`` lists the unconstrained
    DOFs (node 0 is pinned for ``alpha = 1``, where the endpoint condition at
    ``a`` becomes pointwise).
    """

    alpha: float
    grid: Grid1D
    coeffs: EdgeCoefficients
    has_singular_dof: bool
    mode: np.ndarray | None
    K: np.ndarray
    W: np.ndarray
    trace_b: np.ndarray
    free: np.ndarray


def _cell_beta(coeffs: EdgeCoefficients) -> np.ndarray:
    beta = np.asarray(coeffs.beta, dtype=float)
    return 0.5 * (beta[:-1] + beta[1:])


# Rows per strip of _symmetrize: a strip's transient is this many rows of K.
_STRIP = 64


def _symmetrize(K: np.ndarray) -> None:
    """``K <- 0.5 (K + K^T)`` in place, a strip of rows at a time.

    ``K += K.T`` would copy all of ``K.T``, since the operands overlap.  The
    strip of rows ``I`` pairs ``K[I, s:]`` with ``K[s:, I]`` (``s`` the
    strip's first row) before it writes either, so every entry is the
    rounded ``0.5 (K[a, b] + K[b, a])`` of the entries as they were, bitwise
    the dense formula."""
    n = len(K)
    for s in range(0, n, _STRIP):
        rows = slice(s, min(s + _STRIP, n))
        strip = K[rows, s:] + K[s:, rows].T
        strip *= 0.5
        K[rows, s:] = strip
        K[s:, rows] = strip.T


def assemble_stiffness(
    alpha: float,
    grid: Grid1D,
    coeffs: EdgeCoefficients,
    include_singular_dof: bool = False,
) -> EdgeOperator:
    """Assemble stiffness, mass and tip trace for one edge."""
    if np.asarray(coeffs.beta).shape[0] != grid.nnodes:
        raise ValueError("coefficient samples do not match the grid")
    nn = grid.nnodes
    ndof = nn + (1 if include_singular_dof else 0)

    mode = singular_mode(alpha, grid) if include_singular_dof else None

    # Derivative on the extended vector; the mode has zero fractional
    # derivative, hence a zero column in D.
    D = np.zeros((grid.M, ndof))
    D[:, :nn] = left_rl_derivative(alpha, grid)

    # The mass-type terms ``E^T diag(d) E`` with the extension ``E = [I | s]``
    # to sample space are a diagonal ``d`` bordered by ``d s`` and the corner
    # ``(s d) @ s``, filled directly.  The scaled operand in C order keeps
    # BLAS's summation order of ``D^T diag(h beta) D``, so every entry of K
    # and W but the corner is bitwise that of the dense products.
    wtrap = grid.trapezoid_weights()
    wq = wtrap * np.asarray(coeffs.q, dtype=float)
    K = np.multiply(D.T, grid.h * _cell_beta(coeffs), order="C") @ D
    W = np.zeros((ndof, ndof))
    diag = np.arange(nn)
    K[diag, diag] += wq
    W[diag, diag] = wtrap
    if mode is not None:
        for A, d in ((K, wq), (W, wtrap)):
            A[:nn, -1] += d * mode
            A[-1, :nn] += d * mode
            A[-1, -1] += (mode * d) @ mode
    _symmetrize(K)

    trace_b = np.ones(ndof)  # the mode's order 1 - alpha integral is one
    trace_b[:nn] = trace_functional(alpha, grid, "b")

    free = np.arange(ndof)
    if alpha == 1.0:
        free = free[1:]

    return EdgeOperator(
        alpha=alpha,
        grid=grid,
        coeffs=coeffs,
        has_singular_dof=include_singular_dof,
        mode=mode,
        K=K,
        W=W,
        trace_b=trace_b,
        free=free,
    )

