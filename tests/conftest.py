import contextlib
import os
import tracemalloc

import numpy as np
import pytest

import fracstar._csvio
import fracstar.graph_solver
from fracstar import (
    EdgeCoefficients,
    Grid1D,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    diagnose_forward,
    solve_forward_graph,
    trace_functional,
)
from fracstar.edge_solver import edge_problem
from fracstar.graph_solver import _add_loads
from fracstar.validation import dense_edge_operators


def random_coeffs(rng, grid, beta0=1.0, q0=0.5):
    return EdgeCoefficients(
        beta=beta0 + rng.random(grid.nnodes),
        q=q0 + rng.random(grid.nnodes),
        beta0=beta0,
        q0=q0,
    )


def random_edge(rng, alpha=0.6, M=10, Nt=8, a=0.0, b=1.0, T=0.9):
    grid = Grid1D(a, b, M)
    tg = TimeGrid(T, Nt)
    coeffs = random_coeffs(rng, grid)
    op = assemble_stiffness(alpha, grid, coeffs)
    f = rng.standard_normal((Nt + 1, grid.nnodes))
    y0 = rng.standard_normal(grid.nnodes)
    v = rng.standard_normal(Nt + 1)
    return op, tg, f, y0, v


def diagnose_edge(op, tg, f, y0, v):
    """The edge problem solved as the one-edge graph, with the diagnostics
    that measure the edge's energy and a-priori ratios."""
    problem = edge_problem(op, tg, f, y0)
    system = assemble_graph_system(problem)
    traj = solve_forward_graph(problem, None, v, system)
    return traj, diagnose_forward(system, traj, None, v)


def edge_operators(problem):
    """Each edge's nodal operator, assembled as the graph assembly assembles
    it (the assembled system keeps only its propagators and junction rows)."""
    return [
        assemble_stiffness(problem.alpha, grid, coeffs)
        for grid, coeffs in zip(problem.grids, problem.coeffs)
    ]


def extended_operators(system):
    """Each edge's stiffness and mass ``(K_i, W_i)`` on its DOF vector (its
    nodal block, then ``c`` if the junction mode is present), cut from the
    oracle's :func:`~fracstar.validation.dense_edge_operators`."""
    dm = system.dofmap
    out = []
    for i, (K, W) in enumerate(zip(*dense_edge_operators(system.problem))):
        idx = np.r_[dm.edge_slice(i), dm.junction]
        out.append((K[np.ix_(idx, idx)], W[np.ix_(idx, idx)]))
    return out


def free_dofs(system):
    """The free DOFs of ``system``'s layout: each edge's free nodes, as
    :func:`~fracstar.sturm.assemble_stiffness` lists them, then ``c`` if the
    junction mode is present."""
    dm = system.dofmap
    ops = edge_operators(system.problem)
    return np.r_[(*(op.free + off for op, off in zip(ops, dm.offsets)), dm.junction)]


def edge_dofs(system, Y, i):
    """Edge ``i``'s DOF vector of the rows ``Y`` in its extended layout
    (:func:`extended_operators`): its nodal block, then ``c`` if the junction
    mode is present."""
    dm = system.dofmap
    return np.concatenate([Y[..., dm.edge_slice(i)], Y[..., dm.junction]], axis=-1)


def trace_at_a(op, problem):
    """The edge's trace at ``a`` in its extended DOF layout: the order
    ``1 - alpha`` integral's row on the nodes, and one on the mode where the
    ``problem`` has it."""
    row = trace_functional(op.alpha, op.grid, "a")
    return np.append(row, 1.0) if problem.include_junction_mode else row


def flux_probe(op):
    """The nodal vector that reads the tip flux ``(beta D^alpha y)(b^-)`` off
    a residual on the edge's nodes: zero but for ``1/trace_b[nn - 2]`` at node
    ``nn - 2`` (the trace at ``b`` reads no last node), or one at the tip
    node for ``alpha = 1``, so that ``trace_b . probe = 1``."""
    nn = op.grid.nnodes
    probe = np.zeros(nn)
    if op.alpha == 1.0:
        probe[-1] = 1.0
    else:
        probe[-2] = 1.0 / op.trace_b[nn - 2]
    return probe


def tip_fluxes(system, y, f):
    """Every edge's tip flux at steps ``1..Nt`` of the forward solution
    ``y``, read by its :func:`flux_probe` off the dense step residual
    ``W (x_k - x_{k-1})/dt + K x_k - l_k``, where the per-edge sources ``f``
    load ``l_k``.  The residual leaves out the controls and the
    multipliers: those are what it measures."""
    pr, dm = system.problem, system.dofmap
    K, W = (ops.sum(axis=0) for ops in dense_edge_operators(system.problem))
    x = y.dofs[1:]
    r = np.diff(y.dofs, axis=0) / pr.time_grid.dt @ W + x @ K
    r -= _add_loads(system, [fi[1:] for fi in f])
    return np.column_stack([
        r[:, dm.edge_slice(i)] @ flux_probe(op) for i, op in enumerate(edge_operators(pr))
    ])


def sample_misfits(problem, y):
    """Reference: each edge's misfit ``y - y_d`` formed as samples, as the
    solver formed it before it paired states in the extended mass; where
    there is no target, the samples themselves."""
    return [s if yd is None else s - yd for s, yd in zip(list(y.samples), problem.y_d)]


def sample_pairing(problem, a, b):
    """Reference: ``sum_k omega_k <a_k, b_k>`` of two lists of per-edge
    sample series, in the lumped trapezoid pairing on each edge's nodes and
    the trapezoid rule in time.  With ``a = b =`` :func:`sample_misfits` it
    is twice the cost's former tracking term."""
    omega = problem.time_grid.trapezoid_weights()
    return sum(
        float(np.einsum("k,kj,j,kj->", omega, ai, grid.trapezoid_weights(), bi))
        for ai, bi, grid in zip(a, b, problem.grids)
    )


def sample_adjoint_load(system, y):
    """Reference: the adjoint's load ``omega_k/dt E^T W (y - y_d)`` of every
    step, from :func:`sample_misfits`."""
    tg = system.problem.time_grid
    load = _add_loads(system, sample_misfits(system.problem, y))
    return load * (tg.trapezoid_weights() / tg.dt)[:, None]


def random_graph(
    rng,
    alpha=0.6,
    n=3,
    m=2,
    Nt=6,
    Ms=(6, 5, 7),
    bs=(1.0, 0.8, 1.2),
    T=0.9,
    with_data=True,
    constant_coeffs=False,
):
    tg = TimeGrid(T, Nt)
    grids = [Grid1D(0.0, bs[i], Ms[i]) for i in range(n)]
    if constant_coeffs:
        coeffs = [EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids]
    else:
        coeffs = [random_coeffs(rng, g) for g in grids]
    if with_data:
        f = [rng.standard_normal((Nt + 1, g.nnodes)) for g in grids]
        y0 = [rng.standard_normal(g.nnodes) for g in grids]
    else:
        f = [None] * n
        y0 = [np.zeros(g.nnodes) for g in grids]
    y_d = [rng.standard_normal((Nt + 1, g.nnodes)) for g in grids]
    return StarGraphProblem(
        alpha=alpha,
        time_grid=tg,
        grids=grids,
        coeffs=coeffs,
        f=f,
        y0=y0,
        y_d=y_d,
        m=m,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def factorizations(monkeypatch):
    """The edge Cholesky factorizations of the step matrix made while the test
    runs, one entry each: an assembly makes one per edge."""
    calls = []
    cholesky = fracstar.graph_solver.cholesky

    def counted(*args, **kwargs):
        calls.append(1)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(fracstar.graph_solver, "cholesky", counted)
    return calls


@pytest.fixture
def traced_peak():
    """Measure a call under ``tracemalloc``: ``traced_peak(fn, *args)``
    returns ``(result, retained, peak)``, the bytes that the call leaves
    allocated and the most it held at once, both counted from its start."""

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, retained, peak

    return measure


@contextlib.contextmanager
def splitting():
    """Split every CSV conversion between three processes, whatever its size
    and however many CPUs the machine has (a two-core one has fewer)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracstar._csvio, "SPLIT_MIN_VALUES", 1)
        mp.setattr(fracstar._csvio, "cpus", lambda: 3)
        yield


def assert_no_child_processes():
    """Every child process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
