import numpy as np
import pytest

from fracstar import (
    AdmissibleSet,
    CostConfig,
    EdgeControlProblem,
    Grid1D,
    SizeGuardError,
    TimeGrid,
    optimize,
)
from fracstar.control import as_graph_problem
from fracstar.edge_solver import edge_problem
from fracstar.validation import (
    classical_limit_solver,
    dense_oracle_solve_graph,
    finite_difference_gradient,
)
from conftest import random_edge, random_graph


class TestSizeGuards:
    def test_too_many_dofs(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=220, Nt=4)
        with pytest.raises(SizeGuardError):
            dense_oracle_solve_graph(edge_problem(op, tg, f, y0), None, v[None])

    def test_too_many_steps(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=8, Nt=80)
        with pytest.raises(SizeGuardError):
            dense_oracle_solve_graph(edge_problem(op, tg, f, y0), None, v[None])

    def test_graph_guard(self, rng):
        pr = random_graph(rng, Nt=66, Ms=(6, 6, 6))
        with pytest.raises(SizeGuardError):
            dense_oracle_solve_graph(pr)


class TestDispatch:
    """Edge problems go to the one-edge graph; graph problems pass through."""

    def test_edge_problem_dispatch(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=8, Nt=4)
        problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        cfg = CostConfig(n_tikhonov=0.7, y_d=rng.standard_normal((5, 9)))
        graph, gcfg = as_graph_problem(problem, cfg)
        assert (graph.n, graph.m, graph.include_junction_mode) == (1, 0, False)
        assert graph.y_d[0] is cfg.y_d
        np.testing.assert_array_equal(gcfg.weights_for(graph), [0.7])
        dofs, mult = dense_oracle_solve_graph(graph, None, v[None])
        assert dofs.shape == (5, 9) and mult.shape == (5, 0)
        with pytest.raises(ValueError):
            as_graph_problem(problem, CostConfig())

    def test_graph_problem_dispatch(self, rng):
        pr = random_graph(rng, Nt=4)
        cfg = CostConfig()
        graph, gcfg = as_graph_problem(pr, cfg)
        assert graph is pr and gcfg is cfg
        dofs, mult = dense_oracle_solve_graph(pr)
        assert dofs.shape[0] == 5

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            optimize(object(), CostConfig(), AdmissibleSet.unconstrained())

    def test_zero_data_zero_solution(self, rng):
        pr = random_graph(rng, Nt=4, with_data=False)
        dofs, mult = dense_oracle_solve_graph(pr)
        assert np.abs(dofs).max() == 0.0 and np.abs(mult).max() == 0.0


class TestClassicalSolver:
    def test_steady_state_manufactured(self):
        # q = 1, beta = 1, f = 1 constant in time: y -> steady solution of
        # -y'' + y = 1, y(0) = 0, y'(1) = 0, namely 1 - cosh(1-x)/cosh(1)
        grid = Grid1D(0.0, 1.0, 64)
        tg = TimeGrid(30.0, 600)
        f = np.ones((601, 65))
        y0 = np.zeros(65)
        y = classical_limit_solver(grid, tg, lambda s: 1.0, lambda s: 1.0, f, y0, None)
        x = grid.nodes
        exact = 1.0 - np.cosh(1.0 - x) / np.cosh(1.0)
        assert np.abs(y[-1] - exact).max() <= 5e-4

    def test_neumann_flux_steady(self):
        # f = 0, q small, flux v = 1: steady flux balance beta y' = v at b
        grid = Grid1D(0.0, 1.0, 128)
        tg = TimeGrid(50.0, 500)
        v = np.ones(501)
        y = classical_limit_solver(
            grid, tg, lambda s: 2.0, lambda s: 0.05, None, np.zeros(129), v
        )
        slope = (y[-1][-1] - y[-1][-2]) / grid.h
        assert abs(2.0 * slope - 1.0) <= 5e-2


class TestFiniteDifference:
    def test_step_bounds(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=6, Nt=4)
        problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        cfg = CostConfig(y_d=np.zeros((5, 7)))
        u = np.zeros((1, 5))
        d = np.ones((1, 5))
        with pytest.raises(ValueError):
            finite_difference_gradient(problem, cfg, u, d, 1e-8)
        with pytest.raises(ValueError):
            finite_difference_gradient(problem, cfg, u, d, 1e-2)

    def test_quadratic_cost_is_exact(self, rng):
        # the cost is quadratic in the control, so the central difference is
        # exact up to roundoff whatever the step
        op, tg, f, y0, _ = random_edge(rng, M=6, Nt=5)
        problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        cfg = CostConfig(n_tikhonov=0.5, y_d=rng.standard_normal((6, 7)))
        u = rng.standard_normal((1, 6))
        d = rng.standard_normal((1, 6))
        g1 = finite_difference_gradient(problem, cfg, u, d, 1e-4)
        g2 = finite_difference_gradient(problem, cfg, u, d, 1e-6)
        assert abs(g1 - g2) <= 1e-6 * max(1.0, abs(g1))
