import numpy as np
import pytest

import fracstar.graph_solver
from fracstar import (
    EdgeCoefficients,
    Grid1D,
    StarGraphProblem,
    TimeGrid,
    assemble_stiffness,
)


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
    """The step-matrix factorizations made while the test runs, one entry each."""
    calls = []
    lu_factor = fracstar.graph_solver.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(fracstar.graph_solver, "lu_factor", counted)
    return calls
