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
    GraphSystem,
    GraphTrajectory,
    StarGraphProblem,
    assemble_graph_system,
    diagnose_adjoint,
    diagnose_forward,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import TimeGrid, Grid1D
from .sturm import EdgeOperator

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


def edge_state(system: GraphSystem, traj: GraphTrajectory, v: np.ndarray | None) -> Trajectory:
    """A one-edge graph forward solution with Neumann control ``v`` on the
    edge, with its diagnostics: the edge a-priori estimate counts the initial
    datum, the source and the energy of ``v`` in the data."""
    d = diagnose_forward(system, traj, None, v)
    return Trajectory(
        traj.samples[0], system.problem.grids[0], system.problem.time_grid,
        traj.tip_trace[:, 0], d.tip_flux[:, 0], d.energy,
        d.estimate_ratio, d.estimate_bound, d.estimate_ratio_T, d.estimate_bound_T,
    )


def edge_adjoint(system: GraphSystem, adj: GraphTrajectory, y) -> Trajectory:
    """A one-edge graph adjoint of the forward solution ``y`` on the edge,
    negated to the edge sign convention (source ``y_d - y``)."""
    d = diagnose_adjoint(system, adj, y)
    return Trajectory(
        -adj.samples[0], system.problem.grids[0], system.problem.time_grid,
        -adj.neumann_trace_series[:, 0], -d.tip_flux[:, 0], d.energy,
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
    system = assemble_graph_system(problem)
    return edge_state(system, solve_forward_graph(problem, None, v, system), v)


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
    system = assemble_graph_system(problem)
    return edge_adjoint(system, solve_adjoint_graph(problem, y, system), y)
