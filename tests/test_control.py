import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fracstar.control
import fracstar.graph_solver
from fracstar import (
    AdmissibleSet,
    CostConfig,
    EdgeCoefficients,
    GraphTrajectory,
    Grid1D,
    TimeGrid,
    SolverFailure,
    StarGraphProblem,
    assemble_graph_system,
    assemble_stiffness,
    cost_graph,
    diagnose_forward,
    gradient_graph,
    optimize,
    reduced_hessian,
    solve_adjoint_graph,
    solve_forward_edge,
    solve_forward_graph,
)
from fracstar.edge_solver import edge_problem
from fracstar.validation import dense_oracle_solve_graph, finite_difference_gradient
from conftest import random_edge, random_graph


def tracking_problem(alpha=0.6, M=20, Nt=24, N=1.0):
    grid = Grid1D(0.0, 1.0, M)
    tg = TimeGrid(1.0, Nt)
    coeffs = EdgeCoefficients.constant(grid, 1.0, 1.0)
    op = assemble_stiffness(alpha, grid, coeffs)
    x = grid.nodes
    y_d = np.outer(np.sin(np.pi * tg.times), x * (1.5 - x))
    return edge_problem(op, tg, None, np.zeros(grid.nnodes), y_d), CostConfig(n_tikhonov=N)


@pytest.fixture
def marches(monkeypatch):
    """The forward and adjoint marches made while the test runs, one entry
    each."""
    calls = []
    march = fracstar.graph_solver._march

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(fracstar.graph_solver, "_march", counted)
    return calls


def one_edge_graph(op, tg, f, y0, y_d, N):
    """The edge's one-edge graph with target ``y_d``, its control weighted by ``N``."""
    return edge_problem(op, tg, f, y0, y_d), CostConfig(n_tikhonov=N)


def project(admissible, series):
    """The optimizer's projection of one channel's control ``series``."""
    return fracstar.control._projection([admissible], len(series) - 1)(series[None])[0]


class TestProjection:
    def test_unconstrained_is_identity(self, rng):
        x = rng.standard_normal(12)
        assert project(AdmissibleSet(), x).tobytes() == x.tobytes()

    def test_box_clamps(self):
        out = project(AdmissibleSet(0.0, 1.0), np.full(7, 2.0))
        np.testing.assert_array_equal(out, np.ones(7))

    def test_idempotent(self, rng):
        box = AdmissibleSet(-0.3, 0.7)
        x = rng.standard_normal(25)
        once = project(box, x)
        np.testing.assert_array_equal(project(box, once), once)

    @given(
        x=arrays(np.float64, 16, elements=st.floats(-50, 50)),
        y=arrays(np.float64, 16, elements=st.floats(-50, 50)),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive(self, x, y):
        box = AdmissibleSet(-1.0, 2.0)
        assert np.linalg.norm(project(box, x) - project(box, y)) <= (
            np.linalg.norm(x - y) + 1e-12
        )

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSet(1.0, 0.0)

    def test_replace_is_checked(self):
        assert AdmissibleSet(0.0, 1.0)._replace(lo=None).lo is None
        with pytest.raises(ValueError, match="lo <= hi"):
            AdmissibleSet(0.0, 1.0)._replace(lo=2.0)

    def test_nan_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSet(np.nan, 1.0)
        with pytest.raises(ValueError):
            AdmissibleSet(0.0, np.nan)

    @given(
        kinds=st.lists(
            st.sampled_from(["free", "scalar", "series"]), min_size=1, max_size=5
        ),
        nt=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_clip_equals_the_channel_projections(self, kinds, nt, seed):
        # optimize projects all channels with one np.clip against broadcast
        # bounds: bitwise each channel's np.clip, NaN candidates included
        rng = np.random.default_rng(seed)
        sets = []
        for kind in kinds:
            if kind == "free":
                sets.append(AdmissibleSet())
                continue
            shape = () if kind == "scalar" else (nt + 1,)
            lo = rng.uniform(-2.0, 0.0, shape)
            lo = float(lo) if kind == "scalar" else lo
            sets.append(AdmissibleSet(lo, lo + rng.uniform(0.0, 2.0, shape)))
        cand = 3.0 * rng.standard_normal((len(sets), nt + 1))
        cand[rng.random(cand.shape) < 0.2] = np.nan
        cand[rng.random(cand.shape) < 0.1] = rng.choice([np.inf, -np.inf, -0.0])
        ref = np.stack([c if s.lo is None and s.hi is None else np.clip(c, s.lo, s.hi)
                        for s, c in zip(sets, cand)])
        got = fracstar.control._projection(sets, nt)(cand)
        assert got.tobytes() == ref.tobytes()

    def test_series_bounds(self, rng):
        # pointwise-in-time box with series bounds
        lo = -np.linspace(0.0, 1.0, 9)
        hi = np.linspace(0.0, 1.0, 9)
        box = AdmissibleSet(lo, hi)
        out = project(box, np.full(9, 5.0))
        np.testing.assert_array_equal(out, hi)
        with pytest.raises(ValueError):
            AdmissibleSet(hi, lo)


    @pytest.mark.parametrize("lo, hi, name", [
        (np.zeros(3), np.ones(3), "lo"),
        (0.0, np.ones(3), "hi"),
        (np.zeros(1), 1.0, "lo"),
    ])
    def test_series_of_the_wrong_length_is_rejected(self, rng, lo, hi, name):
        # a series bound is the channel's whole series, (Nt + 1,); a shorter
        # one is not broadcast, and the error names the channel
        pr = random_graph(rng, Nt=8)
        sets = [AdmissibleSet(), AdmissibleSet(lo, hi)]
        with pytest.raises(ValueError, match=rf"channel 2 box bound {name} .* \(9,\)"):
            optimize(pr, CostConfig(), sets)


class TestCost:
    def test_target_of_wrong_shape_is_rejected(self, rng):
        # the cost reads the misfit as the adjoint does: a target constant in
        # time, shape (nnodes,), would broadcast where the adjoint rejects it
        pr = random_graph(rng)
        y = solve_forward_graph(pr)
        flat = pr._replace(y_d=[pr.y_d[0][0], *pr.y_d[1:]])
        with pytest.raises(ValueError, match="edge 1 target has wrong shape"):
            cost_graph(y, np.zeros((pr.n_channels, 7)), flat, CostConfig())

    def test_controls_of_another_shape_are_rejected(self, rng):
        # the cost used to ignore a row too many, and a short time axis ended
        # in numpy's matmul error (cost) or broadcast error (gradient): one
        # check names the shape the channels need
        pr = random_graph(rng)
        y = solve_forward_graph(pr)
        p = solve_adjoint_graph(pr, y)
        for shape in ((pr.n_channels + 1, 7), (pr.n_channels, 6)):
            message = (
                rf"channel controls must have shape \({pr.n_channels}, 7\), "
                rf"got \({shape[0]}, {shape[1]}\)"
            )
            with pytest.raises(ValueError, match=message):
                cost_graph(y, np.ones(shape), pr, CostConfig())
            with pytest.raises(ValueError, match=message):
                gradient_graph(np.ones(shape), p, pr, CostConfig())

    def test_weights_must_be_positive_and_finite(self):
        with pytest.raises(ValueError):
            CostConfig(n_tikhonov=np.nan)
        with pytest.raises(ValueError):
            CostConfig(channel_weights=[1.0, np.nan])
        with pytest.raises(ValueError, match="Tikhonov weight"):
            CostConfig()._replace(n_tikhonov=0.0)
        with pytest.raises(ValueError, match="channel weights"):
            CostConfig()._replace(channel_weights=[0.0])

    def test_edge_problem_rejects_channel_weights(self):
        # one rule on every problem: channel_weights weight the one-edge
        # graph's channel as n_tikhonov does, and beside an n_tikhonov they
        # would leave ignored they are refused
        problem, _ = tracking_problem(M=8, Nt=8)
        weighted = CostConfig(channel_weights=[50.0]).weights_for(problem)
        assert weighted.tobytes() == CostConfig(n_tikhonov=50.0).weights_for(problem).tobytes()
        both = CostConfig(n_tikhonov=2.0, channel_weights=[50.0])
        with pytest.raises(ValueError, match="n_tikhonov is ignored beside channel_weights"):
            both.weights_for(problem)
        with pytest.raises(ValueError, match="n_tikhonov is ignored beside channel_weights"):
            optimize(problem, both, AdmissibleSet())

    @pytest.mark.parametrize(
        "fields",
        [{"n_tikhonov": 50.0, "channel_weights": [1.0, 1.0]}, {"y_d": np.ones((7, 7))}],
        ids=["n_tikhonov", "y_d"],
    )
    def test_graph_problem_rejects_edge_fields(self, rng, fields):
        # a field the cost would ignore is refused: n_tikhonov beside
        # channel_weights, and a target, which lives on the problem
        cfg = CostConfig(**fields)
        field = next(iter(fields))
        pr = random_graph(rng, Nt=6)
        traj = solve_forward_graph(pr)
        adj = solve_adjoint_graph(pr, traj)
        ctrl = np.zeros((pr.n_channels, 7))
        match = f"{field} is ignored"
        with pytest.raises(ValueError, match=match):
            cfg.weights_for(pr)
        with pytest.raises(ValueError, match=match):
            cost_graph(traj, ctrl, pr, cfg)
        with pytest.raises(ValueError, match=match):
            gradient_graph(ctrl, adj, pr, cfg)
        with pytest.raises(ValueError, match=match):
            optimize(pr, cfg, AdmissibleSet())

    def test_zero_cost_at_match(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        traj = solve_forward_edge(op, tg, f, y0, v)
        graph, gcfg = one_edge_graph(op, tg, f, y0, traj.y.copy(), 2.0)
        assert cost_graph(traj, np.zeros((1, tg.Nt + 1)), graph, gcfg) == 0.0

    def test_pure_control_penalty(self, rng):
        op, tg, f, y0, _ = random_edge(rng, Nt=10, T=1.0)
        traj = solve_forward_edge(op, tg, f, y0, None)
        graph, gcfg = one_edge_graph(op, tg, f, y0, traj.y.copy(), 2.0)
        # (N/2) * T with N = 2, T = 1
        assert abs(cost_graph(traj, np.ones((1, 11)), graph, gcfg) - 1.0) <= 1e-14

    def test_matches_naive_quadrature(self, rng):
        op, tg, f, y0, v = random_edge(rng, M=7, Nt=6)
        traj = solve_forward_edge(op, tg, f, y0, v)
        y_d = rng.standard_normal(traj.y.shape)
        graph, gcfg = one_edge_graph(op, tg, f, y0, y_d, 0.3)
        got = cost_graph(traj, v[None], graph, gcfg)
        om = tg.trapezoid_weights()
        wx = op.grid.trapezoid_weights()
        naive = 0.0
        for k in range(tg.Nt + 1):
            for j in range(op.grid.nnodes):
                naive += 0.5 * om[k] * wx[j] * (traj.y[k, j] - y_d[k, j]) ** 2
            naive += 0.5 * 0.3 * om[k] * v[k] ** 2
        assert abs(got - naive) <= 1e-13 * max(1.0, abs(naive))


class TestGradients:
    def test_zero_adjoint_gives_tikhonov_term(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        traj = solve_forward_edge(op, tg, f, y0, v)
        graph, gcfg = one_edge_graph(op, tg, f, y0, traj.y, 1.7)
        adj = solve_adjoint_graph(graph, traj)
        g = gradient_graph(v[None], adj, graph, gcfg)
        np.testing.assert_allclose(g, 1.7 * v[None], atol=1e-15)

    def test_graph_zero_adjoint_gives_weighted_controls(self, rng):
        pr = random_graph(rng, Nt=6)
        traj = solve_forward_graph(pr)
        pr = pr._replace(y_d=[s.copy() for s in traj.samples])
        adj = solve_adjoint_graph(pr, traj)
        cfg = CostConfig(channel_weights=np.array([2.0, 3.0]))
        ctrl = rng.standard_normal((2, 7))
        g = gradient_graph(ctrl, adj, pr, cfg)
        np.testing.assert_allclose(g[0], 2.0 * ctrl[0], atol=1e-15)
        np.testing.assert_allclose(g[1], 3.0 * ctrl[1], atol=1e-15)
        # without channel_weights, n_tikhonov weights every channel
        g = gradient_graph(ctrl, adj, pr, CostConfig(n_tikhonov=2.5))
        np.testing.assert_allclose(g, 2.5 * ctrl, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.4, 1.0])
    def test_edge_fd_check(self, alpha, rng):
        problem, cfg = tracking_problem(alpha=alpha, M=12, Nt=10, N=0.8)
        u = rng.standard_normal((1, 11))
        adj = solve_adjoint_graph(problem, solve_forward_graph(problem, None, u))
        g = gradient_graph(u, adj, problem, cfg)
        om = problem.time_grid.trapezoid_weights()
        for _ in range(5):
            delta = rng.standard_normal((1, 11))
            fd = finite_difference_gradient(problem, cfg, u, delta, 1e-5)
            adj_dir = float(np.einsum("jk,k,jk->", g, om, delta))
            assert abs(fd - adj_dir) <= 1e-4 * max(1.0, abs(fd))

    def test_graph_fd_check(self, rng):
        pr = random_graph(rng, Nt=8, Ms=(8, 7, 9))
        cfg = CostConfig()
        ctrl = rng.standard_normal((2, 9))
        state = solve_forward_graph(pr, ctrl[:1], ctrl[1:])
        adj = solve_adjoint_graph(pr, state)
        g = gradient_graph(ctrl, adj, pr, cfg)
        om = pr.time_grid.trapezoid_weights()
        for _ in range(5):
            delta = rng.standard_normal((2, 9))
            fd = finite_difference_gradient(pr, cfg, ctrl, delta, 1e-5)
            adj_dir = float(np.einsum("jk,k,jk->", g, om, delta))
            assert abs(fd - adj_dir) <= 1e-4 * max(1.0, abs(fd))

    def test_sign_audit(self, rng):
        # perturbing each channel moves the cost in the direction the
        # gradient predicts
        pr = random_graph(rng, Nt=8)
        cfg = CostConfig()
        ctrl = rng.standard_normal((2, 9))
        state = solve_forward_graph(pr, ctrl[:1], ctrl[1:])
        adj = solve_adjoint_graph(pr, state)
        g = gradient_graph(ctrl, adj, pr, cfg)
        om = pr.time_grid.trapezoid_weights()
        base = cost_graph(state, ctrl, pr, cfg)
        for j in range(2):
            delta = np.zeros_like(ctrl)
            delta[j] = rng.standard_normal(9)
            pred = float(np.einsum("jk,k,jk->", g, om, delta))
            eps = 1e-6
            pert = ctrl + eps * delta
            sp = solve_forward_graph(pr, pert[:1], pert[1:])
            change = cost_graph(sp, pert, pr, cfg) - base
            assert np.sign(change) == np.sign(pred)


class TestOptimize:
    def test_zero_target_keeps_zero_control(self, rng):
        problem, cfg = tracking_problem(N=1.0)
        problem = problem._replace(y_d=[solve_forward_graph(problem).samples[0]])
        res = optimize(problem, cfg, AdmissibleSet(), tol=1e-10)
        assert res.converged
        assert np.abs(res.controls).max() <= 1e-10

    def test_unconstrained_stationarity(self):
        problem, cfg = tracking_problem()
        res = optimize(problem, cfg, AdmissibleSet(), tol=1e-8,
                       max_iter=500)
        assert res.converged and res.reason == "stationarity"
        om = problem.time_grid.trapezoid_weights()
        # the one-edge graph's adjoint: the edge adjoint negated
        resid = cfg.n_tikhonov * res.controls[0] + res.adjoint.neumann_trace_series[:, 0]
        rel = np.sqrt(om @ resid**2) / max(1.0, np.sqrt(om @ res.controls[0] ** 2))
        assert rel <= 1e-6

    def test_cost_history_nonincreasing(self):
        problem, cfg = tracking_problem(N=0.05)
        res = optimize(problem, cfg, AdmissibleSet(-0.5, 0.5), tol=1e-9,
                       max_iter=300)
        assert np.all(np.diff(res.cost_history) <= 0.0)

    @pytest.mark.parametrize("N", [0.45, 0.49, 0.6, 0.95])
    def test_line_search_resolves_tight_tolerances(self, N):
        # at tol = 1e-9 the accepted decreases fall below the roundoff of the
        # cost; the line search measures them from the gradients instead
        problem, cfg = tracking_problem(N=N)
        res = optimize(problem, cfg, AdmissibleSet(-0.3, 0.3), tol=1e-9,
                       max_iter=300)
        assert res.converged and res.reason == "stationarity"
        assert np.all(np.diff(res.cost_history) <= 0.0)
        state = solve_forward_graph(problem, None, res.controls)
        cost = cost_graph(state, res.controls, problem, cfg)
        assert res.cost_history[-1] == pytest.approx(cost, rel=1e-12)

    def test_fixed_point_matches_projected_gradient(self):
        problem, cfg = tracking_problem(N=1.0)
        r1 = optimize(problem, cfg, AdmissibleSet(), tol=1e-9,
                      max_iter=400)
        r2 = optimize(problem, cfg, AdmissibleSet(),
                      algo="fixed_point", tol=1e-9, max_iter=400)
        assert r2.converged
        om = problem.time_grid.trapezoid_weights()
        d = np.sqrt(om @ (r1.controls[0] - r2.controls[0]) ** 2)
        assert d <= 1e-7

    def test_fixed_point_damped_for_small_weight(self):
        problem, cfg = tracking_problem(N=0.2)
        res = optimize(problem, cfg, AdmissibleSet(),
                       algo="fixed_point", tol=1e-8, max_iter=800)
        assert res.converged

    def test_max_iter_flags_nonconverged(self):
        problem, cfg = tracking_problem(N=1e-4)
        res = optimize(problem, cfg, AdmissibleSet(), tol=1e-14,
                       max_iter=3)
        assert not res.converged
        assert res.reason in ("max_iter", "rounding-limited")

    def test_control_recovery_small_tikhonov(self):
        # target manufactured from a known in-box control; small penalty
        # biases the recovery by well under five percent
        grid = Grid1D(0.0, 1.0, 24)
        tg = TimeGrid(1.0, 32)
        op = assemble_stiffness(0.5, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
        u_star = 0.8 * np.sin(np.pi * tg.times) ** 2
        truth = solve_forward_edge(op, tg, None, np.zeros(grid.nnodes), u_star)
        cfg = CostConfig(n_tikhonov=1e-4)
        problem = edge_problem(op, tg, None, np.zeros(grid.nnodes), truth.y)
        res = optimize(problem, cfg, AdmissibleSet(-1.0, 1.0), tol=1e-12,
                       max_iter=800)
        om = tg.trapezoid_weights()
        rel = np.sqrt(om @ (res.controls[0] - u_star) ** 2) / np.sqrt(
            om @ u_star**2
        )
        assert rel <= 0.05

    def test_uniqueness_two_starts(self, rng):
        problem, cfg = tracking_problem()
        tol = 1e-8
        r1 = optimize(problem, cfg, AdmissibleSet(), tol=tol,
                      max_iter=500)
        r2 = optimize(problem, cfg, AdmissibleSet(), tol=tol,
                      max_iter=500, u0=rng.standard_normal((1, 25)))
        om = problem.time_grid.trapezoid_weights()
        d = np.sqrt(om @ (r1.controls[0] - r2.controls[0]) ** 2)
        assert d <= 10 * tol

    def test_start_shape_checked(self):
        # a transposed start is refused, not reshaped into another control
        problem, cfg = tracking_problem(M=8, Nt=8)
        with pytest.raises(ValueError, match=r"\(1, 9\)"):
            optimize(problem, cfg, AdmissibleSet(), u0=np.zeros((9, 1)))

    def test_tikhonov_monotonicity(self):
        # sweep from the heavily damped end, warm-starting each run
        problem, _ = tracking_problem(M=8, Nt=8)
        om = problem.time_grid.trapezoid_weights()
        norms = []
        u0 = None
        for N in (1e2, 1e1, 1e0, 1e-1, 1e-2, 1e-3):
            cfg = CostConfig(n_tikhonov=N)
            res = optimize(problem, cfg, AdmissibleSet(), tol=1e-6,
                           max_iter=4000, u0=u0)
            u0 = res.controls
            norms.append(np.sqrt(om @ res.controls[0] ** 2))
        # norms collected for decreasing N must be nondecreasing
        assert np.all(np.diff(norms) >= -1e-8)

    def test_graph_box_vi_audit(self, rng):
        pr = random_graph(rng, Nt=12, Ms=(10, 9, 11), with_data=False,
                          constant_coeffs=True)
        for i, g in enumerate(pr.grids):
            x = g.nodes
            pr.y_d[i] = np.outer(np.sin(np.pi * pr.time_grid.times), np.cos(x)) * 1.5
        cfg = CostConfig()
        box = AdmissibleSet(-0.2, 0.2)
        res = optimize(pr, cfg, box, tol=1e-10, max_iter=400)
        g = gradient_graph(res.controls, res.adjoint, pr, cfg)
        om = pr.time_grid.trapezoid_weights()
        for _ in range(100):
            vfeas = rng.uniform(-0.2, 0.2, size=res.controls.shape)
            val = float(np.einsum("jk,k,jk->", g, om, vfeas - res.controls))
            assert val >= -1e-8

    def test_one_edge_graph_matches_edge_problem(self):
        # the edge's one-edge graph weighted by n_tikhonov, and the n = 1,
        # m = 0 graph written out by hand, weighted by channel_weights
        problem, cfg = tracking_problem(N=0.5)
        graph = StarGraphProblem(
            alpha=problem.alpha, time_grid=problem.time_grid, grids=problem.grids,
            coeffs=problem.coeffs, f=[None], y0=problem.y0, y_d=problem.y_d, m=0,
        )
        gcfg = CostConfig(channel_weights=np.array([0.5]))
        np.testing.assert_array_equal(cfg.weights_for(problem), [0.5])
        np.testing.assert_array_equal(gcfg.weights_for(graph), [0.5])
        np.testing.assert_array_equal(CostConfig().weights_for(graph), [1.0])
        box = AdmissibleSet(-0.3, 0.3)
        r_edge = optimize(problem, cfg, box, tol=1e-9, max_iter=300)
        r_graph = optimize(graph, gcfg, box, tol=1e-9, max_iter=300)
        assert r_edge.converged and r_graph.converged
        assert np.abs(r_edge.controls - r_graph.controls).max() <= 1e-12
        # both report the one-edge graph's state and adjoint
        assert isinstance(r_edge.state, GraphTrajectory)
        assert isinstance(r_edge.adjoint, GraphTrajectory)
        np.testing.assert_allclose(
            r_edge.adjoint.neumann_trace_series, r_graph.adjoint.neumann_trace_series,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            r_edge.state.samples[0], r_graph.state.samples[0], atol=1e-12
        )

    def test_problem_without_channels_rejected(self):
        problem, _ = tracking_problem()
        clamped = problem._replace(m=1)
        with pytest.raises(ValueError, match="no control channel"):
            optimize(clamped, CostConfig(), AdmissibleSet())

    def test_max_iter_measures_final_iterate(self):
        problem, cfg = tracking_problem(N=1e-2)
        box = AdmissibleSet(-0.5, 0.5)
        res = optimize(problem, cfg, box, tol=1e-14, max_iter=2)
        assert not res.converged and res.reason == "max_iter"
        assert len(res.residual_history) == len(res.cost_history) == 3
        # stationarity and adjoint recomputed from the returned controls
        adj = solve_adjoint_graph(problem, solve_forward_graph(problem, None, res.controls))
        g = gradient_graph(res.controls, adj, problem, cfg)
        om = problem.time_grid.trapezoid_weights()
        step = res.controls[0] - np.clip(res.controls[0] - g[0], box.lo, box.hi)
        resid = np.sqrt(om @ step**2) / max(1.0, np.sqrt(om @ res.controls[0] ** 2))
        assert res.residual_history[-1] == pytest.approx(resid, rel=1e-12)
        assert res.residual_history[-1] != res.residual_history[-2]
        np.testing.assert_allclose(
            res.adjoint.neumann_trace_series, adj.neumann_trace_series, atol=1e-12
        )

    def test_non_finite_start_cost_raises_solver_failure(self):
        # the states stay finite, their squares in the cost do not
        problem, cfg = tracking_problem(M=8, Nt=6)
        huge = problem._replace(y0=[np.full(problem.grids[0].nnodes, 1e308)])
        with pytest.raises(SolverFailure, match="non-finite cost inf of the initial controls"):
            optimize(huge, cfg, AdmissibleSet(-1.0, 1.0))

    def test_non_finite_final_gradient_raises_solver_failure(self, monkeypatch):
        problem, cfg = tracking_problem(M=8, Nt=6)
        gradient, calls = fracstar.control.gradient_graph, []

        def poisoned(*args):
            # the start's gradient is measured first, the returned controls' last
            calls.append(1)
            g = gradient(*args)
            if len(calls) > 1:
                g[0, -1] = np.nan
            return g

        monkeypatch.setattr(fracstar.control, "gradient_graph", poisoned)
        with pytest.raises(SolverFailure, match="at the returned controls"):
            optimize(problem, cfg, AdmissibleSet(-1.0, 1.0), max_iter=1)
        assert len(calls) == 2

    def test_diagnostics_stay_off_the_optimizer_loop(self, rng, monkeypatch):
        calls = []
        for module in [m for name, m in sys.modules.items() if name.startswith("fracstar")]:
            for name in ("diagnose_forward", "diagnose_adjoint"):
                fn = getattr(module, name, None)
                if fn is not None:
                    def counted(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        pr = random_graph(rng, Nt=6)
        res = optimize(pr, CostConfig(), AdmissibleSet(-0.2, 0.2), max_iter=5)
        assert res.iterations >= 2 and calls == []
        # nor is an edge result diagnosed, however long it ran
        problem, cfg = tracking_problem(N=1e-2)
        box = AdmissibleSet(-0.5, 0.5)
        for max_iter in (2, 6):
            res = optimize(problem, cfg, box, tol=1e-14, max_iter=max_iter)
            assert res.iterations == max_iter and calls == []

    def test_optimizer_and_adjoint_marches_stream_nothing(self, rng, monkeypatch):
        # only the CLI's forward solve streams its rows to a writer
        streams = []
        march = fracstar.graph_solver._march

        def recorded(system, start, loads, traces, what, stream=None, **kwargs):
            streams.append(stream)
            return march(system, start, loads, traces, what, stream, **kwargs)

        monkeypatch.setattr(fracstar.graph_solver, "_march", recorded)
        pr = random_graph(rng, Nt=6)
        for algo in ("projected_gradient", "fixed_point"):
            optimize(pr, CostConfig(), AdmissibleSet(-0.2, 0.2), algo, max_iter=3)
        system = assemble_graph_system(pr)
        reduced_hessian(system, CostConfig())
        solve_adjoint_graph(pr, solve_forward_graph(pr, system=system), system)
        assert len(streams) > 10 and streams == [None] * len(streams)

    def test_unknown_algorithm(self, monkeypatch):
        problem, cfg = tracking_problem()
        with pytest.raises(ValueError):
            optimize(problem, cfg, AdmissibleSet(), algo="newton")
        # zero data and zero target: the start is already stationary, and the
        # name is still checked, before any assembly
        grid = Grid1D(0.0, 1.0, 8)
        op = assemble_stiffness(0.6, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
        problem = edge_problem(op, TimeGrid(1.0, 8), None, np.zeros(9), np.zeros((9, 9)))
        cfg = CostConfig(n_tikhonov=1.0)
        box = AdmissibleSet(-1.0, 1.0)
        res = optimize(problem, cfg, box)
        assert res.converged and res.iterations == 1

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the algorithm was checked")

        monkeypatch.setattr(fracstar.control, "assemble_graph_system", no_assembly)
        with pytest.raises(ValueError, match="unknown algorithm 'newton'"):
            optimize(problem, cfg, box, algo="newton")

    def test_one_factorization_per_optimize(self, rng, factorizations):
        problem, cfg = tracking_problem(N=1e-2)
        res = optimize(problem, cfg, AdmissibleSet(-0.5, 0.5), max_iter=40)
        assert res.iterations > 1 and len(factorizations) == 1
        factorizations.clear()
        pr = random_graph(rng, Nt=6)
        res = optimize(pr, CostConfig(), AdmissibleSet(-0.2, 0.2), max_iter=40)
        assert res.iterations > 1 and len(factorizations) == pr.n

    def test_given_system_is_used_and_must_be_the_problems(self, rng, factorizations):
        pr = random_graph(rng, Nt=6)
        box = AdmissibleSet(-0.2, 0.2)
        fresh = optimize(pr, CostConfig(), box, max_iter=40)
        system = assemble_graph_system(pr)
        factorizations.clear()
        given_system = optimize(pr, CostConfig(), box, max_iter=40, system=system)
        assert factorizations == []  # no assembly of its own
        assert given_system.controls.tobytes() == fresh.controls.tobytes()
        # an equal problem is not the one the system was assembled for
        with pytest.raises(ValueError, match="assembled for another problem"):
            optimize(pr._replace(), CostConfig(), box, max_iter=40, system=system)


class TestReducedHessian:
    """The reduced Hessian against the adjoint: the gradient it predicts from
    the gradient at zero controls is the marched one, on random graphs and
    on the one-edge graph."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 6), min_size=1, max_size=4),
        m_from_top=st.integers(0, 3),
        Nt=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_the_adjoint(self, alpha, Ms, m_from_top, Nt, seed):
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = 0 if n == 1 else max(2, n - m_from_top)
        bs = tuple(rng.uniform(0.5, 1.5, n))
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=bs)
        nch, nd = pr.n_channels, pr.n_dirichlet_channels
        cfg = CostConfig(channel_weights=rng.uniform(0.1, 2.0, nch))
        system = assemble_graph_system(pr)
        Q = reduced_hessian(system, cfg)
        assert Q.shape == (nch * Nt, nch * Nt)
        assert np.abs(Q - Q.T).max() <= 1e-13 * np.abs(Q).max()

        def marched(u):
            y = solve_forward_graph(pr, u[:nd], u[nd:], system)
            return gradient_graph(u, solve_adjoint_graph(pr, y, system), pr, cfg)

        om = pr.time_grid.trapezoid_weights()
        b = om[1:] * marched(np.zeros((nch, Nt + 1)))[:, 1:]
        for _ in range(2):
            u = rng.standard_normal((nch, Nt + 1))
            g = marched(u)
            pred = np.empty_like(u)
            pred[:, 0] = cfg.channel_weights * u[:, 0]
            pred[:, 1:] = (Q @ u[:, 1:].ravel() + b.ravel()).reshape(nch, Nt) / om[1:]
            assert np.abs(pred - g).max() <= 1e-12 * np.abs(g).max()

    def test_marches_do_not_grow_with_the_iterations(self, rng, marches):
        # n_ch impulse responses, the start's and the result's two marches
        problem, cfg = tracking_problem(N=1e-2)
        pr = random_graph(rng, Nt=6)
        for prob, c, box in (
            (problem, cfg, AdmissibleSet(-0.5, 0.5)),
            (pr, CostConfig(), AdmissibleSet(-0.2, 0.2)),
        ):
            nch = prob.n_channels
            for algo, max_iter in (("projected_gradient", 5), ("projected_gradient", 60),
                                   ("fixed_point", 60)):
                marches.clear()
                res = optimize(prob, c, box, algo, tol=1e-14, max_iter=max_iter)
                assert res.iterations >= min(max_iter, 10)
                assert len(marches) <= nch + 4

    @pytest.mark.parametrize("algo", ["projected_gradient", "fixed_point"])
    def test_per_iteration_marches_above_the_limit(self, rng, monkeypatch, marches, algo):
        # above the size limit each gradient costs a forward and an adjoint
        # march, and the iterates are the same
        problem, cfg = tracking_problem(N=0.2)
        pr = random_graph(rng, Nt=6)
        box = AdmissibleSet(-0.2, 0.2)
        cases = [(problem, cfg), (pr, CostConfig())]
        results = [optimize(p, c, box, algo, tol=1e-9, max_iter=300) for p, c in cases]
        monkeypatch.setattr(fracstar.control, "_DENSE_LIMIT", 0)
        for (prob, c), dense in zip(cases, results):
            marches.clear()
            swept = optimize(prob, c, box, algo, tol=1e-9, max_iter=300)
            assert dense.converged and swept.converged
            assert len(marches) >= 2 * swept.iterations
            assert swept.iterations == dense.iterations
            scale = np.abs(dense.controls).max()
            assert np.abs(swept.controls - dense.controls).max() <= 1e-12 * scale
            assert swept.residual_history[-1] == pytest.approx(
                dense.residual_history[-1], rel=1e-6
            )


    def test_convergence_is_shown_by_the_marches(self, monkeypatch, marches):
        # with a perturbed Hessian the reduced gradient vanishes at the wrong
        # controls; the measured one does not, and the iteration goes on from
        # it to the true optimum
        problem, cfg = tracking_problem(N=0.2)
        box = AdmissibleSet(-0.2, 0.2)
        exact = optimize(problem, cfg, box, tol=1e-9, max_iter=300)
        hessian = fracstar.control.reduced_hessian
        monkeypatch.setattr(
            fracstar.control, "reduced_hessian", lambda *args: 1.05 * hessian(*args)
        )
        marches.clear()
        res = optimize(problem, cfg, box, tol=1e-9, max_iter=300)
        assert res.converged and res.residual_history[-1] <= 1e-9
        assert len(marches) > 1 + 4
        adj = solve_adjoint_graph(problem, solve_forward_graph(problem, None, res.controls))
        np.testing.assert_array_equal(
            gradient_graph(res.controls, adj, problem, cfg),
            gradient_graph(res.controls, res.adjoint, problem, cfg),
        )
        om = problem.time_grid.trapezoid_weights()
        assert np.sqrt(om @ (res.controls[0] - exact.controls[0]) ** 2) <= 1e-7

    def test_each_response_is_held_once(self, rng, traced_peak):
        # each march's weighted samples go into H one edge at a time: above
        # its inputs the Hessian holds H, one march, and about one edge's
        # samples beside them, never a copy of all of a march's samples
        n, M, Nt = 3, 200, 40
        pr = random_graph(rng, n=n, m=2, Nt=Nt, Ms=(M,) * n, bs=(1.0, 0.8, 1.2))
        system = assemble_graph_system(pr)
        nch, nd = pr.n_channels, pr.n_dirichlet_channels
        still = pr._replace(f=[None] * n, y0=[np.zeros(g.nnodes) for g in pr.grids], c0=0.0)
        impulse = np.zeros((nch, Nt + 1))
        impulse[0, 1] = 1.0
        _, _, march = traced_peak(solve_forward_graph, still, impulse[:nd], impulse[nd:], system)
        Q, _, peak = traced_peak(reduced_hessian, system, CostConfig())
        H = 8 * nch * Nt * sum(g.nnodes for g in pr.grids)
        edge = 8 * (Nt + 1) * (M + 1)
        assert Q.nbytes < edge
        assert peak < H + march + 2 * edge


class TestActiveBoxProperties:
    """Box-constrained optimality on graphs with Dirichlet tips, the box cut
    from the unconstrained optimum so that it is active."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        m_from_top=st.integers(0, 2),
        Nt=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_dirichlet_tips_with_active_boxes(self, alpha, Ms, m_from_top, Nt, seed):
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = max(2, n - m_from_top)
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=(1.0,) * n)
        # the paper's projection formula, to 1e-9
        cfg, tol = CostConfig(), 1e-9
        free = optimize(
            pr, cfg, AdmissibleSet(), "fixed_point", tol, max_iter=2000
        )
        assert free.converged
        hi = 0.5 * float(np.abs(free.controls).max())
        box = AdmissibleSet(-hi, hi)
        res = optimize(pr, cfg, box, "fixed_point", tol, max_iter=2000)
        u = res.controls
        assert res.converged and res.residual_history[-1] <= tol
        assert np.all(np.abs(u) <= hi)

        # the variational inequality: g <= 0 at the upper bound, g >= 0 at
        # the lower one, g = 0 in between; the stationarity measure bounds
        # each entry by tol * max(1, ||u||) / sqrt(omega_k)
        g = gradient_graph(u, res.adjoint, pr, cfg)
        om = pr.time_grid.trapezoid_weights()
        atol = 2.0 * tol * max(1.0, np.sqrt(np.einsum("jk,k,jk->", u, om, u)))
        atol /= np.sqrt(om.min())
        at_hi, at_lo = u == hi, u == -hi
        assert np.any(at_hi | at_lo)
        assert np.all(g[at_hi] <= atol) and np.all(g[at_lo] >= -atol)
        assert np.abs(g[~(at_hi | at_lo)]).max(initial=0.0) <= atol

        nd = pr.n_dirichlet_channels
        dofs, mult = dense_oracle_solve_graph(pr, u[:nd], u[nd:])
        assert np.abs(res.state.dofs - dofs).max() <= 1e-11
        assert np.abs(res.state.multipliers - mult).max() <= 1e-11
        d = diagnose_forward(assemble_graph_system(pr), res.state, u[:nd], u[nd:])
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9
        assert d.constraint_residual <= 1e-10
