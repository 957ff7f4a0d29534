"""Assembly of the symmetric discrete Sturm-Liouville operator on one edge.

The stiffness is built Galerkin-style from the coercive bilinear form
``(beta D y, D z) + (q y, z)`` with the product-rule derivative of
:mod:`fracstar.fracops`, so symmetry and coercivity are structural.  When the
singular junction mode is included, the degree-of-freedom vector gains one
coefficient: the mode contributes nothing to the derivative term (its
fractional derivative vanishes identically) and enters mass-type pairings
through its regularized nodal samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientError
from .fracops import SingularMode, left_rl_derivative, singular_mode, trace_functional
from .grids import Grid1D

__all__ = ["EdgeCoefficients", "EdgeOperator", "assemble_stiffness"]


@dataclass(frozen=True)
class EdgeCoefficients:
    """Nodal samples of the diffusion weight ``beta`` and reaction ``q``,
    together with their certified lower bounds."""

    beta: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    beta0: float
    q0: float

    def __post_init__(self) -> None:
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

    @classmethod
    def from_callables(cls, grid: Grid1D, beta, q) -> "EdgeCoefficients":
        bs = np.array([beta(x) for x in grid.nodes], dtype=float)
        qs = np.array([q(x) for x in grid.nodes], dtype=float)
        return cls(beta=bs, q=qs, beta0=float(bs.min()), q0=float(qs.min()))


@dataclass(frozen=True)
class EdgeOperator:
    """Assembled discrete operator for a single edge.

    ``K`` and ``W`` act on the extended DOF vector (nodal samples, then the
    optional singular coefficient).  ``W`` is the lumped trapezoid mass; it is
    diagonal without the singular DOF and gains one coupling row/column with
    it.  ``trace_a``/``trace_b`` evaluate the order ``1 - alpha`` integral at
    the endpoints, ``flux_probe`` is a fixed vector with ``trace_b . probe = 1``
    and ``trace_a . probe = 0`` used to read the natural boundary flux off a
    residual, and ``free`` lists the unconstrained DOFs (node 0 is pinned for
    ``alpha = 1``, where the endpoint condition at ``a`` becomes pointwise).
    """

    alpha: float
    grid: Grid1D
    coeffs: EdgeCoefficients
    has_singular_dof: bool
    mode: SingularMode | None
    K: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    trace_a: np.ndarray = field(repr=False)
    trace_b: np.ndarray = field(repr=False)
    flux_probe: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.K.shape[0]


def _cell_beta(coeffs: EdgeCoefficients) -> np.ndarray:
    beta = np.asarray(coeffs.beta, dtype=float)
    return 0.5 * (beta[:-1] + beta[1:])


def assemble_stiffness(
    alpha: float,
    grid: Grid1D,
    coeffs: EdgeCoefficients,
    include_singular_dof: bool = False,
) -> EdgeOperator:
    """Assemble stiffness, mass, traces and flux probe for one edge."""
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
        s = mode.samples
        for A, d in ((K, wq), (W, wtrap)):
            A[:nn, -1] += d * s
            A[-1, :nn] += d * s
            A[-1, -1] += (s * d) @ s
    K += K.T
    K *= 0.5

    trace_a = np.zeros(ndof)
    trace_b = np.zeros(ndof)
    trace_a[:nn] = trace_functional(alpha, grid, "a")
    trace_b[:nn] = trace_functional(alpha, grid, "b")
    if mode is not None:
        trace_a[-1] = mode.trace_value
        trace_b[-1] = mode.trace_value

    probe = np.zeros(ndof)
    if alpha == 1.0:
        probe[nn - 1] = 1.0
    else:
        probe[nn - 2] = 1.0 / trace_b[nn - 2]

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
        D=D,
        trace_a=trace_a,
        trace_b=trace_b,
        flux_probe=probe,
        free=free,
    )

