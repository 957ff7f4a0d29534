"""Independent oracles for the test and acceptance suites.

These deliberately avoid the production time-stepping code: the space-time
oracle assembles each edge's operator from ``system.problem`` itself (the
assembled system keeps only propagators), scatters them into dense global
matrices of its own, assembles every implicit-Euler step into one dense block
system and solves it in a single factorization (a single edge is checked as
the one-edge graph), and the classical-limit solver builds its own P1
finite-element heat discretization (consistent mass, midpoint diffusion
sampling) from scratch.
"""

from __future__ import annotations

import numpy as np

from .control import CostConfig, as_graph_problem, cost_graph
from .errors import SizeGuardError
from .graph_solver import (
    GraphSystem,
    StarGraphProblem,
    assemble_graph_system,
    solve_forward_graph,
)
from .grids import Grid1D, TimeGrid
from .sturm import assemble_stiffness

__all__ = [
    "dense_edge_operators",
    "dense_oracle_solve_graph",
    "classical_limit_solver",
    "finite_difference_gradient",
]

_MAX_DOFS = 200
_MAX_STEPS = 64


def _guard(ndof: int, nt: int) -> None:
    if ndof > _MAX_DOFS:
        raise SizeGuardError(f"oracle limit: {ndof} > {_MAX_DOFS} spatial DOFs")
    if nt > _MAX_STEPS:
        raise SizeGuardError(f"oracle limit: {nt} > {_MAX_STEPS} time steps")


def dense_edge_operators(system: GraphSystem) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's stiffness and mass, assembled from ``system.problem`` and
    scattered into the global DOF layout: arrays ``K``, ``W`` of shape
    ``(n, ndof, ndof)`` whose sums over the first axis are the global
    matrices."""
    pr, dm = system.problem, system.dofmap
    n, ndof = pr.n, system.ndof
    K = np.zeros((n, ndof, ndof))
    W = np.zeros((n, ndof, ndof))
    for i, grid in enumerate(pr.grids):
        op = assemble_stiffness(
            pr.alpha, grid, pr.coeffs[i], include_singular_dof=pr.include_junction_mode
        )
        idx = np.r_[dm.edge_slice(i), dm.junction]
        K[i][np.ix_(idx, idx)] = op.K
        W[i][np.ix_(idx, idx)] = op.W
    return K, W


def dense_oracle_solve_graph(
    problem: StarGraphProblem,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    system: GraphSystem | None = None,
):
    """All-at-once solve of the graph scheme, every step's KKT block stacked
    into one dense matrix; returns ``(dofs, multipliers)``."""
    if system is None:
        system = assemble_graph_system(problem)
    nt, dt = problem.time_grid.Nt, problem.time_grid.dt
    n, m = problem.n, problem.m
    dm = system.dofmap
    _guard(system.ndof, nt)

    nd = problem.n_dirichlet_channels
    u = np.zeros((nd, nt + 1)) if u is None else np.asarray(u, dtype=float)
    nv = problem.n_neumann_channels
    v = np.zeros((nv, nt + 1)) if v is None else np.asarray(v, dtype=float)

    K, W = (ops.sum(axis=0) for ops in dense_edge_operators(system))
    fr = system.free
    nf = len(fr)
    blk = nf + m
    A = W[np.ix_(fr, fr)] / dt + K[np.ix_(fr, fr)]
    Bf = system.trace_b_rows[:m, fr]
    Wf = W[np.ix_(fr, fr)]

    Y0 = np.zeros(system.ndof)
    for i in range(n):
        Y0[dm.edge_slice(i)] = np.asarray(problem.y0[i], dtype=float)
    if dm.c_index is not None:
        Y0[dm.c_index] = problem.c0

    fsrc = [
        np.zeros((nt + 1, problem.grids[i].nnodes))
        if problem.f[i] is None
        else np.asarray(problem.f[i], dtype=float)
        for i in range(n)
    ]

    big = np.zeros((nt * blk, nt * blk))
    rhs = np.zeros(nt * blk)
    for k in range(1, nt + 1):
        r0 = (k - 1) * blk
        big[r0 : r0 + nf, r0 : r0 + nf] = A
        big[r0 : r0 + nf, r0 + nf : r0 + blk] = Bf.T
        big[r0 + nf : r0 + blk, r0 : r0 + nf] = Bf
        load = system.load_from_samples([fsrc[i][k] for i in range(n)])
        if nv > 0:
            load += system.trace_b_rows[m:].T @ v[:, k]
        rhs[r0 : r0 + nf] = load[fr]
        if m > 1:
            rhs[r0 + nf + 1 : r0 + blk] = u[:, k]
        if k == 1:
            rhs[r0 : r0 + nf] += (W[fr] / dt) @ Y0
        else:
            big[r0 : r0 + nf, r0 - blk : r0 - blk + nf] = -Wf / dt
    sol = np.linalg.solve(big, rhs)

    dofs = np.zeros((nt + 1, system.ndof))
    dofs[0] = Y0
    mult = np.zeros((nt + 1, m))
    for k in range(1, nt + 1):
        r0 = (k - 1) * blk
        dofs[k, fr] = sol[r0 : r0 + nf]
        mult[k] = -sol[r0 + nf : r0 + blk]
    return dofs, mult


def classical_limit_solver(
    grid: Grid1D,
    time_grid: TimeGrid,
    beta,
    q,
    f: np.ndarray | None,
    y0: np.ndarray,
    v: np.ndarray | None,
) -> np.ndarray:
    """Tridiagonal implicit-Euler heat solver for ``y_t - (beta y')' + q y = f``
    with ``y(a) = 0`` and natural flux ``(beta y')(b) = v``.

    ``beta`` and ``q`` may be callables (sampled at midpoints/nodes) or nodal
    arrays.  Standard P1 elements with consistent mass; shares no code with
    the production stepper.
    """
    nt, dt = time_grid.Nt, time_grid.dt
    M, h = grid.M, grid.h
    x = grid.nodes
    f = np.zeros((nt + 1, M + 1)) if f is None else np.asarray(f, dtype=float)
    v = np.zeros(nt + 1) if v is None else np.asarray(v, dtype=float)
    y0 = np.asarray(y0, dtype=float)

    if callable(beta):
        beta_mid = np.array([beta(0.5 * (x[j] + x[j + 1])) for j in range(M)])
    else:
        b = np.asarray(beta, dtype=float)
        beta_mid = 0.5 * (b[:-1] + b[1:])
    q_nodes = (
        np.array([q(xj) for xj in x]) if callable(q) else np.asarray(q, dtype=float)
    )

    # P1 stiffness + lumped reaction, consistent tridiagonal mass.
    lo_K = -beta_mid / h
    di_K = np.zeros(M + 1)
    di_K[:-1] += beta_mid / h
    di_K[1:] += beta_mid / h
    wl = np.full(M + 1, h)
    wl[0] = wl[-1] = 0.5 * h
    di_K += q_nodes * wl

    di_M = np.zeros(M + 1)
    di_M[:-1] += h / 3.0
    di_M[1:] += h / 3.0
    off_M = np.full(M, h / 6.0)

    def mass_apply(w: np.ndarray) -> np.ndarray:
        out = di_M * w
        out[:-1] += off_M * w[1:]
        out[1:] += off_M * w[:-1]
        return out

    # Dirichlet at a: drop node 0.
    off = off_M[1:] / dt + lo_K[1:]
    A = np.diag(di_M[1:] / dt + di_K[1:]) + np.diag(off, 1) + np.diag(off, -1)

    y = np.zeros((nt + 1, M + 1))
    y[0] = y0
    for k in range(1, nt + 1):
        rhs = (mass_apply(y[k - 1]) / dt + mass_apply(f[k]))[1:]
        rhs[-1] += v[k]
        y[k, 1:] = np.linalg.solve(A, rhs)
    return y


def finite_difference_gradient(
    problem,
    cfg: CostConfig,
    u: np.ndarray,
    delta: np.ndarray,
    h: float,
) -> float:
    """Central difference of the tracking cost along ``delta``; edge problems
    are costed as the one-edge graph, as :func:`~fracstar.control.optimize`
    does."""
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"finite-difference step must lie in [1e-7, 1e-3], got {h}")
    u = np.asarray(u, dtype=float)
    delta = np.asarray(delta, dtype=float)
    graph, graph_cfg = as_graph_problem(problem, cfg)
    nd = graph.n_dirichlet_channels
    system = assemble_graph_system(graph)

    def objective(ctrl: np.ndarray) -> float:
        state = solve_forward_graph(graph, ctrl[:nd], ctrl[nd:], system=system)
        return cost_graph(state, ctrl, graph, graph_cfg)

    return (objective(u + h * delta) - objective(u - h * delta)) / (2.0 * h)
