"""The single edge as the one-edge star graph.

A single edge with a free Neumann tip at ``b`` is the star graph with
``n = 1`` and ``m = 0`` (a single edge has no junction mode).  The functions
here build that problem from an :class:`EdgeOperator`'s order, grid and
coefficients, solve it with :mod:`fracstar.graph_solver` and report the edge's
state and tip series as a :class:`Trajectory`.  An
:class:`EdgeControlProblem` is the edge's data for
:func:`~fracstar.validation.finite_difference_gradient`, which costs it as
the one-edge graph.  Its tip flux is its Neumann control; every other
property of the edge (its energy and a-priori ratios) is measured by
:func:`~fracstar.graph_solver.diagnose_forward` and
:func:`~fracstar.graph_solver.diagnose_adjoint`.

The edge adjoint solves ``-p_t + A p = y_d - y`` with ``p(T) = 0``: it is the
graph adjoint (source ``y - y_d``) negated.  Its ``trace_b`` series is scaled
so that ``N u_k - series_k`` is the exact gradient of the discrete cost in the
trapezoid inner product (the ``t = 0`` entry is zero: a fully implicit step
never sees the control at ``t = 0``).
"""

from typing import NamedTuple

import numpy as np

from .graph_solver import (
    StarGraphProblem,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import TimeGrid
from .sturm import EdgeOperator

__all__ = ["EdgeControlProblem", "Trajectory", "solve_forward_edge", "solve_adjoint_edge"]


class EdgeControlProblem(NamedTuple):
    """Single-edge tracking problem: Neumann control at ``b``, data fixed."""

    edge_op: EdgeOperator
    time_grid: TimeGrid
    f: np.ndarray | None
    y0: np.ndarray


class Trajectory(NamedTuple):
    """Space-time state on one edge with its tip series.

    ``trace_b`` holds ``(I^(1-alpha) y)(b^-, t_k)``; for adjoint solutions it
    is the gradient-consistent series described in the module docstring.
    """

    y: np.ndarray
    trace_b: np.ndarray

    @property
    def dofs(self) -> np.ndarray:
        """The state as the DOF rows of the one-edge graph (no junction mode)."""
        return self.y


def edge_problem(
    edge_op: EdgeOperator,
    time_grid: TimeGrid,
    f: np.ndarray | None,
    y0: np.ndarray,
    y_d: np.ndarray | None = None,
) -> StarGraphProblem:
    """The one-edge graph (``m = 0``) of an edge operator."""
    return StarGraphProblem(
        alpha=edge_op.alpha, time_grid=time_grid, grids=[edge_op.grid],
        coeffs=[edge_op.coeffs], f=[f], y0=[y0], y_d=[y_d], m=0,
    )


def solve_forward_edge(
    edge_op: EdgeOperator,
    time_grid: TimeGrid,
    f: np.ndarray | None,
    y0: np.ndarray,
    v: np.ndarray | None,
) -> Trajectory:
    """March the edge problem with Neumann control ``v`` at ``b``."""
    problem = edge_problem(edge_op, time_grid, f, y0)
    traj = solve_forward_graph(problem, None, v)
    return Trajectory(traj.samples[0], traj.tip_trace[:, 0])


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
    adj = solve_adjoint_graph(problem, y)
    return Trajectory(-adj.samples[0], -adj.neumann_trace_series[:, 0])
