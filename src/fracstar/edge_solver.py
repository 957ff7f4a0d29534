"""The single edge as the one-edge star graph.

A single edge with a free Neumann tip at ``b`` is the star graph with
``n = 1``, ``m = 0`` and no junction mode.  The functions here build that
problem from an :class:`EdgeOperator`'s order, grid and coefficients, solve
it with :mod:`fracstar.graph_solver` and report the result on the edge as a
:class:`Trajectory`.

The edge adjoint solves ``-p_t + A p = y_d - y`` with ``p(T) = 0``: it is the
graph adjoint (source ``y - y_d``) negated.  Its ``trace_b`` series is scaled
so that ``N u_k - series_k`` is the exact gradient of the discrete cost in the
trapezoid inner product (the ``t = 0`` entry is zero: a fully implicit step
never sees the control at ``t = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph_solver import (
    GraphTrajectory,
    StarGraphProblem,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import TimeGrid, Grid1D
from .sturm import EdgeCoefficients, EdgeOperator

__all__ = ["Trajectory", "solve_forward_edge", "solve_adjoint_edge"]


@dataclass
class Trajectory:
    """Space-time state on one edge with its boundary series.

    ``trace_b`` holds ``(I^(1-alpha) y)(b^-, t_k)``; for adjoint solutions it
    is the gradient-consistent series described in the module docstring.
    ``flux_b`` recovers ``(beta D^alpha y)(b^-, t_k)`` from the step residual
    (index 0 carries no step information and is set to zero).
    """

    y: np.ndarray = field(repr=False)
    grid: Grid1D
    time_grid: TimeGrid
    trace_b: np.ndarray = field(repr=False)
    flux_b: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    estimate_ratio: float = 0.0
    estimate_bound: float = 0.0
    estimate_ratio_T: float = 0.0
    estimate_bound_T: float = 0.0

    @property
    def samples(self) -> list[np.ndarray]:
        """The state as the per-edge samples of the one-edge graph."""
        return [self.y]


def edge_problem(
    edge_op: EdgeOperator,
    time_grid: TimeGrid,
    f: np.ndarray | None,
    y0: np.ndarray,
    y_d: np.ndarray | None = None,
) -> StarGraphProblem:
    """The one-edge graph (``m = 0``, no junction mode) of an edge operator."""
    if edge_op.has_singular_dof:
        raise ValueError(
            "single-edge problems omit the singular DOF; assemble with "
            "include_singular_dof=False"
        )
    return StarGraphProblem(
        alpha=edge_op.alpha, time_grid=time_grid, grids=[edge_op.grid],
        coeffs=[edge_op.coeffs], f=[f], y0=[y0], y_d=[y_d], m=0,
    )


def edge_bounds(coeffs: EdgeCoefficients, grid: Grid1D) -> tuple[float, float]:
    """Closed-form edge a-priori bounds ``1/m + 2(b-a+1)/m^2`` (energy norm)
    and ``1 + 2(b-a+1)/m`` (final time), ``m = min(beta0, q0)``."""
    m = min(coeffs.beta0, coeffs.q0)
    span = grid.b - grid.a
    return 1.0 / m + 2.0 * (span + 1.0) / m**2, 1.0 + 2.0 * (span + 1.0) / m


def edge_state(
    edge_op: EdgeOperator,
    problem: StarGraphProblem,
    traj: GraphTrajectory,
    v: np.ndarray | None,
) -> Trajectory:
    """A one-edge graph forward solution on the edge, with the edge a-priori
    estimate: the data counts the initial datum, the source and the energy of
    the Neumann control ``v``."""
    tg, y = problem.time_grid, traj.samples[0]
    bound, bound_T = edge_bounds(edge_op.coeffs, edge_op.grid)
    # without control the graph solver has measured the same ratios
    ratio, ratio_T = traj.estimate_ratio, traj.estimate_ratio_T
    if v is not None and np.any(v):
        nt, dt = tg.Nt, tg.dt
        wtrap = edge_op.grid.trapezoid_weights()
        f = np.zeros_like(y) if problem.f[0] is None else np.asarray(problem.f[0], float)
        lhs = dt * sum(
            y[k] @ (wtrap * y[k]) + edge_op.grid.h * np.sum((edge_op.D @ y[k]) ** 2)
            for k in range(1, nt + 1)
        )
        data = (
            y[0] @ (wtrap * y[0])
            + dt * np.einsum("kj,j,kj->", f[1:], wtrap, f[1:])
            + dt * np.sum(np.asarray(v, dtype=float)[1:] ** 2)
        )
        ratio = lhs / data if data > 0.0 else 0.0
        ratio_T = y[nt] @ (wtrap * y[nt]) / data if data > 0.0 else 0.0
    return Trajectory(
        y, edge_op.grid, tg, traj.tip_trace[:, 0], traj.tip_flux[:, 0], traj.energy,
        ratio, bound, ratio_T, bound_T,
    )


def edge_adjoint(problem: StarGraphProblem, adj: GraphTrajectory) -> Trajectory:
    """A one-edge graph adjoint on the edge: negated to the edge sign
    convention (source ``y_d - y``)."""
    return Trajectory(
        -adj.samples[0], problem.grids[0], problem.time_grid,
        -adj.neumann_trace_series[:, 0], -adj.tip_flux[:, 0], adj.energy,
    )


def solve_forward_edge(
    edge_op: EdgeOperator,
    time_grid: TimeGrid,
    f: np.ndarray | None,
    y0: np.ndarray,
    v: np.ndarray | None,
) -> Trajectory:
    """March the edge problem with Neumann control ``v`` at ``b`` and report
    the a-priori energy ratio against its closed-form bound."""
    problem = edge_problem(edge_op, time_grid, f, y0)
    return edge_state(edge_op, problem, solve_forward_graph(problem, None, v), v)


def solve_adjoint_edge(
    edge_op: EdgeOperator,
    time_grid: TimeGrid,
    y: Trajectory,
    y_d: np.ndarray | None,
) -> Trajectory:
    """Backward solve of ``-p_t + A p = y_d - y`` with ``p(T) = 0``.

    The returned ``trace_b`` series is the exact discrete-gradient ingredient
    for the trapezoid cost: ``series_k = (dt/omega_k) * trace_b . p^k`` with
    ``series_0 = 0``.
    """
    shape = (time_grid.Nt + 1, edge_op.grid.nnodes)
    if y.y.shape != shape:
        raise ValueError(f"state must have shape {shape}, got {y.y.shape}")
    problem = edge_problem(edge_op, time_grid, None, y.y[0], y_d)
    return edge_adjoint(problem, solve_adjoint_graph(problem, y))
