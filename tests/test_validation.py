import numpy as np
import pytest

import fracstar.graph_solver
import fracstar.validation
from fracstar import (
    AdmissibleSet,
    CostConfig,
    EdgeControlProblem,
    SizeGuardError,
    cost_graph,
    optimize,
    solve_forward_graph,
)
from fracstar.edge_solver import edge_problem
from fracstar.validation import dense_oracle_solve_graph, finite_difference_gradient
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
    """An edge problem reaches the cost only through
    ``finite_difference_gradient``, as its one-edge graph with the target
    ``cfg.y_d``; graph problems pass through, and ``optimize`` takes graph
    problems alone."""

    def test_edge_problem_dispatch(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=8, Nt=4)
        problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        y_d = rng.standard_normal((5, 9))
        graph = edge_problem(op, tg, f, y0, y_d)
        assert (graph.n, graph.m, graph.include_junction_mode) == (1, 0, False)
        assert graph.y_d[0] is y_d
        np.testing.assert_array_equal(CostConfig(n_tikhonov=0.7).weights_for(graph), [0.7])
        dofs, mult = dense_oracle_solve_graph(graph, None, v[None])
        assert dofs.shape == (5, 9) and mult.shape == (5, 0)
        u, d = rng.standard_normal((2, 1, 5))
        fd = finite_difference_gradient(problem, CostConfig(0.7, y_d=y_d), u, d, 1.0)
        assert fd == finite_difference_gradient(graph, CostConfig(0.7), u, d, 1.0)
        # without a target the edge is costed as the graph without one
        fd = finite_difference_gradient(problem, CostConfig(0.7), u, d, 1.0)
        untargeted = edge_problem(op, tg, f, y0)
        assert fd == finite_difference_gradient(untargeted, CostConfig(0.7), u, d, 1.0)

    def test_graph_problem_dispatch(self, rng):
        pr = random_graph(rng, Nt=4)
        cfg = CostConfig()
        u, d = rng.standard_normal((2, 2, 5))

        def cost(ctrl):
            return cost_graph(solve_forward_graph(pr, ctrl[:1], ctrl[1:]), ctrl, pr, cfg)

        assert finite_difference_gradient(pr, cfg, u, d, 1.0) == (cost(u + d) - cost(u - d)) / 2.0
        with pytest.raises(ValueError, match="y_d is ignored"):
            finite_difference_gradient(pr, CostConfig(y_d=np.zeros((5, 7))), u, d, 1.0)
        dofs, mult = dense_oracle_solve_graph(pr)
        assert dofs.shape[0] == 5

    def test_unknown_type(self, rng):
        with pytest.raises(TypeError, match="cannot optimize a object"):
            optimize(object(), CostConfig(), AdmissibleSet())
        op, tg, f, y0, _ = random_edge(rng, M=6, Nt=4)
        edge = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        with pytest.raises(TypeError, match="cannot optimize a EdgeControlProblem"):
            optimize(edge, CostConfig(), AdmissibleSet())

    @pytest.mark.parametrize(
        "u_shape, v_shape",
        [((2, 4), None), ((1, 5), None), ((3, 5), None), ((5,), None), (None, (2, 5)), (None, (4,))],
    )
    def test_controls_are_checked_as_the_solver_checks_them(self, rng, u_shape, v_shape):
        # two Dirichlet channels and one Neumann channel on five times
        pr = random_graph(rng, n=4, m=3, Nt=4, Ms=(4, 5, 6, 4), bs=(1.0, 0.8, 1.2, 0.9))
        u = None if u_shape is None else rng.standard_normal(u_shape)
        v = None if v_shape is None else rng.standard_normal(v_shape)
        with pytest.raises(ValueError, match="controls must have shape") as expected:
            solve_forward_graph(pr, u, v)
        with pytest.raises(ValueError) as got:
            dense_oracle_solve_graph(pr, u, v)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "shape", [(6, 7), (4, 7), (5, 8)], ids=["extra-row", "missing-row", "extra-column"]
    )
    def test_sources_are_checked_as_the_solver_checks_them(self, rng, shape):
        # edge 1 has 7 nodes and the problem 5 times
        pr = random_graph(rng, Nt=4)
        pr = pr._replace(f=[rng.standard_normal(shape), *pr.f[1:]])
        with pytest.raises(ValueError, match="edge 1 source must have shape") as expected:
            solve_forward_graph(pr)
        with pytest.raises(ValueError) as got:
            dense_oracle_solve_graph(pr)
        assert str(got.value) == str(expected.value)

    def test_one_channel_series_may_be_one_dimensional(self, rng):
        # as the solver, the oracle takes a single channel's series as 1-D
        pr = random_graph(rng, Nt=4)
        u, v = rng.standard_normal((2, 5))
        flat = dense_oracle_solve_graph(pr, u, v)
        rows = dense_oracle_solve_graph(pr, u[None], v[None])
        for a, b in zip(flat, rows):
            assert a.tobytes() == b.tobytes()

    def test_zero_data_zero_solution(self, rng):
        pr = random_graph(rng, Nt=4, with_data=False)
        dofs, mult = dense_oracle_solve_graph(pr)
        assert np.abs(dofs).max() == 0.0 and np.abs(mult).max() == 0.0


class TestIndependence:
    def test_oracle_runs_no_production_assembly_load_or_march(self, rng, monkeypatch):
        # a graph with sources, a Dirichlet and a Neumann control, and the
        # one-edge graph at alpha = 1, whose free set skips the pinned node
        graph = random_graph(rng)
        u, v = rng.standard_normal((2, 1, graph.time_grid.Nt + 1))
        op, tg, f, y0, ve = random_edge(rng, alpha=1.0, M=8, Nt=4)
        cases = [(graph, u, v), (edge_problem(op, tg, f, y0), None, ve[None])]
        refs = [solve_forward_graph(*case) for case in cases]

        def production(*args, **kwargs):
            raise AssertionError("the oracle ran the production solver")

        for module in (fracstar.graph_solver, fracstar.validation):
            for name in ("assemble_graph_system", "_add_loads", "_march"):
                monkeypatch.setattr(module, name, production, raising=False)
        for case, ref in zip(cases, refs):
            dofs, mult = dense_oracle_solve_graph(*case)
            np.testing.assert_allclose(dofs, ref.dofs, rtol=0.0, atol=1e-11)
            np.testing.assert_allclose(mult, ref.multipliers, rtol=0.0, atol=1e-11)


class TestFiniteDifference:
    def test_step_bounds(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=6, Nt=4)
        problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
        cfg = CostConfig(y_d=np.zeros((5, 7)))
        u = np.zeros((1, 5))
        d = np.ones((1, 5))
        # any finite step from 1e-7 up: the cost is quadratic in the controls
        for h in (1e-8, 0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and at least 1e-7"):
                finite_difference_gradient(problem, cfg, u, d, h)
        for h in (1e-7, 1e-2, 1.0, 1e3):
            assert np.isfinite(finite_difference_gradient(problem, cfg, u, d, h))

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
