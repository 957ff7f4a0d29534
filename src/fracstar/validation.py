"""Independent oracles for the test and acceptance suites.

These deliberately avoid the production assembly and time stepping: the
space-time oracle reads the problem alone, forms each edge's operator, tip
trace row and free nodes, and every step's loads, in dense global arrays of
its own, assembles every implicit-Euler step into one dense block system and
solves it in a single factorization (a single edge is checked as the one-edge
graph).  It shares with production only the DOF layout and the input checks.
"""

import numpy as np

from .control import CostConfig, cost_graph
from .edge_solver import EdgeControlProblem, edge_problem
from .errors import SizeGuardError
from .fracops import singular_mode
from .graph_solver import (
    StarGraphProblem,
    _control_array,
    _dofmap,
    _edge_data,
    assemble_graph_system,
    solve_forward_graph,
)
from .sturm import assemble_stiffness

__all__ = [
    "dense_edge_operators",
    "dense_oracle_solve_graph",
    "finite_difference_gradient",
]

_MAX_DOFS = 200
_MAX_STEPS = 64


def _guard(ndof: int, nt: int) -> None:
    if ndof > _MAX_DOFS:
        raise SizeGuardError(f"oracle limit: {ndof} > {_MAX_DOFS} spatial DOFs")
    if nt > _MAX_STEPS:
        raise SizeGuardError(f"oracle limit: {nt} > {_MAX_STEPS} time steps")


def dense_edge_operators(problem: StarGraphProblem) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's stiffness and mass, assembled from ``problem`` and
    scattered into the global DOF layout: arrays ``K``, ``W`` of shape
    ``(n, ndof, ndof)`` whose sums over the first axis are the global
    matrices.  The junction mode is paired here, not by
    :func:`~fracstar.sturm.junction_rows`: with the extension
    ``E = [I | singular_mode]`` to sample space, an edge's mass is
    ``E^T diag(w) E`` and its stiffness the nodal ``K`` plus the border of
    ``E^T diag(w q) E``."""
    dm = _dofmap(problem)
    n, ndof = problem.n, dm.ndof
    K = np.zeros((n, ndof, ndof))
    W = np.zeros((n, ndof, ndof))
    for i, (grid, coeffs) in enumerate(zip(problem.grids, problem.coeffs)):
        nn = grid.nnodes
        E = np.eye(nn)
        if problem.include_junction_mode:
            E = np.column_stack([E, singular_mode(problem.alpha, grid)])
        w = grid.trapezoid_weights()
        idx = np.r_[dm.edge_slice(i), dm.junction]
        Ki = (E.T * (w * coeffs.q)) @ E
        Ki[:nn, :nn] = assemble_stiffness(problem.alpha, grid, coeffs).K
        K[i][np.ix_(idx, idx)] = Ki
        W[i][np.ix_(idx, idx)] = (E.T * w) @ E
    return K, W


def dense_oracle_solve_graph(
    problem: StarGraphProblem,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
):
    """All-at-once solve of the graph scheme, every step's KKT block stacked
    into one dense matrix; returns ``(dofs, multipliers)``.  A step loads
    ``W`` times the sources on the nodes (``E [f; 0] = f``, so this is
    ``E^T diag(w) f``) and the Neumann controls times their trace rows."""
    nt, dt = problem.time_grid.Nt, problem.time_grid.dt
    n, m = problem.n, problem.m
    dm = _dofmap(problem)
    ndof = dm.ndof
    _guard(ndof, nt)

    u = _control_array(u, problem.n_dirichlet_channels, nt, "dirichlet")
    v = _control_array(v, problem.n_neumann_channels, nt, "neumann")
    f, y0 = _edge_data(problem, "f"), _edge_data(problem, "y0")

    K, W = (ops.sum(axis=0) for ops in dense_edge_operators(problem))
    B = np.zeros((n, ndof))
    F = np.zeros((nt + 1, ndof))
    Y0 = np.zeros(ndof)
    free = []
    for i, (grid, coeffs) in enumerate(zip(problem.grids, problem.coeffs)):
        op = assemble_stiffness(problem.alpha, grid, coeffs)
        B[i, dm.edge_slice(i)] = op.trace_b
        B[i, dm.junction] = 1.0  # the junction mode's tip trace
        free.append(op.free + dm.offsets[i])
        F[:, dm.edge_slice(i)] = f[i]
        Y0[dm.edge_slice(i)] = y0[i]
    Y0[dm.junction] = problem.c0
    fr = np.r_[(*free, dm.junction)]
    loads = F @ W.T + v.T @ B[m:]

    nf, blk = len(fr), len(fr) + m
    Wf, Bf = W[np.ix_(fr, fr)], B[:m, fr]
    A = Wf / dt + K[np.ix_(fr, fr)]

    big = np.zeros((nt * blk, nt * blk))
    rhs = np.zeros(nt * blk)
    for k in range(1, nt + 1):
        r0 = (k - 1) * blk
        big[r0 : r0 + nf, r0 : r0 + nf] = A
        big[r0 : r0 + nf, r0 + nf : r0 + blk] = Bf.T
        big[r0 + nf : r0 + blk, r0 : r0 + nf] = Bf
        rhs[r0 : r0 + nf] = loads[k, fr]
        if m > 1:
            rhs[r0 + nf + 1 : r0 + blk] = u[:, k]
        if k == 1:
            rhs[r0 : r0 + nf] += (W[fr] / dt) @ Y0
        else:
            big[r0 : r0 + nf, r0 - blk : r0 - blk + nf] = -Wf / dt
    sol = np.linalg.solve(big, rhs)

    dofs = np.zeros((nt + 1, ndof))
    dofs[0] = Y0
    mult = np.zeros((nt + 1, m))
    for k in range(1, nt + 1):
        r0 = (k - 1) * blk
        dofs[k, fr] = sol[r0 : r0 + nf]
        mult[k] = -sol[r0 + nf : r0 + blk]
    return dofs, mult


def finite_difference_gradient(
    problem,
    cfg: CostConfig,
    u: np.ndarray,
    delta: np.ndarray,
    h: float,
) -> float:
    """Central difference of the tracking cost along ``delta``.  An
    :class:`~fracstar.edge_solver.EdgeControlProblem` is costed as its
    one-edge graph with target ``cfg.y_d``.  The cost is quadratic in the controls, so the difference is the
    exact directional derivative for every finite step ``h >= 1e-7``, and
    ``h = 1`` leaves only the roundoff of the two costs."""
    if not 1e-7 <= h < np.inf:
        raise ValueError(f"finite-difference step must be finite and at least 1e-7, got {h}")
    u = np.asarray(u, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if isinstance(problem, EdgeControlProblem):
        problem = edge_problem(
            problem.edge_op, problem.time_grid, problem.f, problem.y0, cfg.y_d
        )
        cfg = cfg._replace(y_d=None)
    nd = problem.n_dirichlet_channels
    system = assemble_graph_system(problem)

    def objective(ctrl: np.ndarray) -> float:
        state = solve_forward_graph(problem, ctrl[:nd], ctrl[nd:], system=system)
        return cost_graph(state, ctrl, problem, cfg)

    return (objective(u + h * delta) - objective(u - h * delta)) / (2.0 * h)
