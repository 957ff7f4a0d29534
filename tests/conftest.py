import tracemalloc

import numpy as np
import pytest

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
)
from fracstar.edge_solver import edge_problem


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
    that measure the edge's tip flux, energy and a-priori ratios."""
    problem = edge_problem(op, tg, f, y0)
    system = assemble_graph_system(problem)
    traj = solve_forward_graph(problem, None, v, system)
    return traj, diagnose_forward(system, traj, None, v)


def edge_operators(problem):
    """Each edge's operator, assembled as the graph assembly assembles it
    (the assembled system keeps only its propagators and readout vectors)."""
    return [
        assemble_stiffness(
            problem.alpha, grid, coeffs,
            include_singular_dof=problem.include_junction_mode,
        )
        for grid, coeffs in zip(problem.grids, problem.coeffs)
    ]


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
