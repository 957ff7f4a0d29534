"""Assembly of the symmetric discrete Sturm-Liouville operator on one edge.

The stiffness is built Galerkin-style from the coercive bilinear form
``(beta D y, D z) + (q y, z)`` with the product-rule derivative of
:mod:`fracstar.fracops`, so symmetry and coercivity are structural.  It acts
on the edge's nodes.  On a star graph the degree-of-freedom vector gains the
junction mode's coefficient: the mode contributes nothing to the derivative
term (its fractional derivative vanishes identically) and enters mass-type
pairings through its regularized nodal samples, so it only borders the mass
and the reaction by one row and column each.  :func:`junction_rows` forms
that border, the one place that pairs the mode in ``L2``.
"""

from typing import NamedTuple

import numpy as np

from .errors import CoefficientError, checked
from .fracops import left_rl_derivative, singular_mode, trace_functional
from .grids import Grid1D

__all__ = [
    "EdgeCoefficients", "EdgeOperator", "JunctionRows", "assemble_stiffness", "junction_rows",
]


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
    """Assembled discrete operator for a single edge, on its nodes.

    ``K`` is the stiffness with the lumped reaction on its diagonal; the
    lumped mass is ``grid.trapezoid_weights()``.  ``trace_b`` evaluates the
    order ``1 - alpha`` integral at the tip, and ``free`` lists the
    unconstrained nodes (node 0 is pinned for ``alpha = 1``, where the
    endpoint condition at ``a`` becomes pointwise).  The junction mode's
    pairings are :func:`junction_rows`.
    """

    alpha: float
    grid: Grid1D
    coeffs: EdgeCoefficients
    K: np.ndarray
    trace_b: np.ndarray
    free: np.ndarray


class JunctionRows(NamedTuple):
    """The junction mode of one edge and its rows of the extended mass and
    stiffness.  With the extension ``E = [I | mode]`` from the nodes and the
    mode's coefficient to samples, ``w`` is the last row of
    ``E^T diag(w_trap) E`` and ``k`` that of ``E^T diag(w_trap q) E``: each is
    ``d * mode`` followed by the corner ``(mode * d) @ mode``.  The mode has
    no fractional derivative, so the stiffness term adds nothing to ``k``, and
    its tip trace is one.  The graph solver pairs the mode with nodal data and
    states through ``w`` and ``k`` alone; ``mode`` forms samples."""

    mode: np.ndarray
    w: np.ndarray
    k: np.ndarray


def _weights(grid: Grid1D, coeffs: EdgeCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """The lumped mass and reaction weights ``w_trap`` and ``w_trap q``."""
    if not (np.shape(coeffs.beta) == np.shape(coeffs.q) == (grid.nnodes,)):
        raise ValueError("coefficient samples do not match the grid")
    wtrap = grid.trapezoid_weights()
    return wtrap, wtrap * np.asarray(coeffs.q, dtype=float)


def assemble_stiffness(alpha: float, grid: Grid1D, coeffs: EdgeCoefficients) -> EdgeOperator:
    """Assemble the nodal stiffness and tip trace for one edge.

    ``K = S^T S + diag(w_trap q)`` with ``S = diag(sqrt(h beta_cell)) D``,
    ``D`` the derivative of :func:`~fracstar.fracops.left_rl_derivative`
    scaled in place.  numpy forms the product of an array with its own
    transpose by a symmetric rank-k update, so ``K`` is exactly symmetric,
    and ``D`` is the one array held beside it."""
    _, wq = _weights(grid, coeffs)
    D = left_rl_derivative(alpha, grid)
    beta = np.asarray(coeffs.beta, dtype=float)
    D *= np.sqrt(grid.h * (0.5 * (beta[:-1] + beta[1:])))[:, None]
    K = D.T @ D
    diag = np.arange(grid.nnodes)
    K[diag, diag] += wq
    return EdgeOperator(
        alpha=alpha, grid=grid, coeffs=coeffs, K=K, trace_b=trace_functional(alpha, grid, "b"),
        free=np.arange(1 if alpha == 1.0 else 0, grid.nnodes),
    )


def junction_rows(alpha: float, grid: Grid1D, coeffs: EdgeCoefficients) -> JunctionRows:
    """The junction mode's rows of the extended mass and stiffness, formed
    directly: ``E^T diag(d) E`` is ``diag(d)`` bordered by ``d * mode`` and
    the corner ``(mode * d) @ mode``."""
    mode = singular_mode(alpha, grid)
    w, k = (np.append(d * mode, (mode * d) @ mode) for d in _weights(grid, coeffs))
    return JunctionRows(mode=mode, w=w, k=k)
