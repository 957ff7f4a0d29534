import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstar import (
    Grid1D,
    SolverFailure,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    left_rl_derivative,
    solve_adjoint_edge,
    solve_forward_edge,
    solve_forward_graph,
)
from fracstar.edge_solver import edge_problem
from fracstar.validation import dense_oracle_solve_graph
from conftest import diagnose_edge, random_coeffs, random_edge, tip_fluxes
from exact import heat, relative_l2q


class TestForward:
    def test_zero_data_gives_zero(self, rng):
        op, tg, _, _, _ = random_edge(rng)
        traj = solve_forward_edge(op, tg, None, np.zeros(op.grid.nnodes), None)
        assert np.abs(traj.y).max() == 0.0

    def test_initial_row_preserved(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        traj = solve_forward_edge(op, tg, f, y0, v)
        np.testing.assert_array_equal(traj.y[0], y0)
        assert np.all(np.isfinite(traj.y))

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_energy_decay_unforced(self, alpha, rng):
        op, tg, _, y0, _ = random_edge(rng, alpha=alpha, M=16, Nt=24)
        if alpha == 1.0:
            y0[0] = 0.0
        _, d = diagnose_edge(op, tg, None, y0, None)
        assert np.all(np.diff(d.energy) <= 1e-13)

    def test_apriori_estimate_within_bound(self, rng):
        for _ in range(5):
            op, tg, f, y0, v = random_edge(rng, alpha=0.55, M=12, Nt=16)
            _, d = diagnose_edge(op, tg, f, y0, v)
            assert d.estimate_ratio <= d.estimate_bound
            assert d.estimate_ratio_T <= d.estimate_bound_T

    def test_uncontrolled_ratio_is_the_edge_ratio(self, rng):
        # without control the graph solver's ratio is reported with the edge bound
        op, tg, f, y0, _ = random_edge(rng, alpha=0.55, M=12, Nt=16)
        traj, d = diagnose_edge(op, tg, f, y0, None)
        y, dt = traj.samples[0], tg.dt
        wx, D = op.grid.trapezoid_weights(), left_rl_derivative(op.alpha, op.grid)
        lhs = dt * sum(
            y[k] @ (wx * y[k]) + op.grid.h * np.sum((D @ y[k]) ** 2)
            for k in range(1, tg.Nt + 1)
        )
        data = y0 @ (wx * y0) + dt * sum(f[k] @ (wx * f[k]) for k in range(1, tg.Nt + 1))
        assert d.estimate_ratio == pytest.approx(lhs / data, rel=1e-12)
        assert d.estimate_ratio_T == pytest.approx(y[-1] @ (wx * y[-1]) / data, rel=1e-12)
        m = min(op.coeffs.beta0, op.coeffs.q0)
        assert d.estimate_bound == 1.0 / m + 2.0 * (op.grid.b - op.grid.a + 1.0) / m / m

    def test_flux_series_recovers_control(self, rng):
        # the tip flux read off the step residuals is the Neumann control
        op, tg, f, y0, v = random_edge(rng, alpha=0.65)
        problem = edge_problem(op, tg, f, y0)
        system = assemble_graph_system(problem)
        traj = solve_forward_graph(problem, None, v, system)
        assert np.abs(tip_fluxes(system, traj, [f])[:, 0] - v[1:]).max() <= 1e-10

    def test_unconditional_stability_under_dt_doubling(self, rng):
        op, _, _, y0, _ = random_edge(rng, alpha=0.5, M=16)
        sup = []
        for Nt in (64, 32, 16, 8, 4, 2):
            tg = TimeGrid(1.0, Nt)
            v = np.ones(Nt + 1)
            traj = solve_forward_edge(op, tg, None, y0, v)
            sup.append(np.abs(traj.y).max())
        assert max(sup) <= 10.0 * max(np.abs(y0).max(), 1.0)

    def test_shape_errors(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        with pytest.raises(ValueError):
            solve_forward_edge(op, tg, f[:, :-1], y0, v)
        with pytest.raises(ValueError):
            solve_forward_edge(op, tg, f, y0[:-1], v)
        with pytest.raises(ValueError):
            solve_forward_edge(op, tg, f, y0, v[:-1])

    def test_rejects_singular_dof_operator(self, rng):
        grid = Grid1D(0.0, 1.0, 8)
        op = assemble_stiffness(0.5, grid, random_coeffs(rng, grid), True)
        with pytest.raises(ValueError):
            solve_forward_edge(op, TimeGrid(1.0, 4), None, np.zeros(9), None)


class TestClassicalLimit:
    """At ``alpha = 1`` the scheme is implicit Euler for the heat equation,
    checked against ``y = tau(t) sin x``."""

    def test_constant_coefficients_agree(self):
        one = lambda s: 1.0
        op, tg, f, y, v = heat(64, 256, one, lambda s: 0.0, one)
        traj = solve_forward_edge(op, tg, f, y[0], v)
        assert relative_l2q(traj.y, y, op.grid, tg) <= 2.5e-3

    def test_variable_coefficients_halve_under_refinement(self):
        # parabolic refinement: the error falls by four, space and time alike
        beta = lambda s: 1.0 + 0.5 * s
        q = lambda s: 1.0 + 0.25 * np.sin(3.0 * s)
        errs = []
        for M, Nt in ((32, 128), (64, 512)):
            op, tg, f, y, v = heat(M, Nt, beta, lambda s: 0.5, q)
            traj = solve_forward_edge(op, tg, f, y[0], v)
            errs.append(relative_l2q(traj.y, y, op.grid, tg))
        assert errs[1] <= 2e-3
        assert errs[0] >= 3.5 * errs[1]


class TestOracle:
    @pytest.mark.parametrize("alpha", [0.35, 0.7, 1.0])
    def test_matches_dense_space_time_solve(self, alpha, rng):
        op, tg, f, y0, v = random_edge(rng, alpha=alpha, M=8, Nt=4)
        if alpha == 1.0:
            y0[0] = 0.0
        traj = solve_forward_edge(op, tg, f, y0, v)
        oracle, _ = dense_oracle_solve_graph(edge_problem(op, tg, f, y0), None, v[None])
        assert np.abs(traj.y - oracle).max() <= 1e-12


class TestOneEdgeGraphProperties:
    """The edge API over the corners of its inputs: orders down to 1e-3 and
    exactly 1 (pinned node), the coarsest meshes and a single time step."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        M=st.integers(2, 12),
        Nt=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_and_duality(self, alpha, M, Nt, seed):
        rng = np.random.default_rng(seed)
        op, tg, f, y0, v = random_edge(rng, alpha=alpha, M=M, Nt=Nt)
        y = solve_forward_edge(op, tg, f, y0, v)
        oracle, _ = dense_oracle_solve_graph(edge_problem(op, tg, f, y0), None, v[None])
        assert np.abs(y.y - oracle).max() <= 1e-11

        # <y_d - y, z>_Q == <v', trace series> for z driven by v' alone
        y_d = rng.standard_normal(y.y.shape)
        p = solve_adjoint_edge(op, tg, y, y_d)
        vprime = rng.standard_normal(Nt + 1)
        z = solve_forward_edge(op, tg, None, np.zeros(op.grid.nnodes), vprime)
        om = tg.trapezoid_weights()
        lhs = np.einsum("k,kj,j,kj->", om, y_d - y.y, op.grid.trapezoid_weights(), z.y)
        assert abs(lhs - om @ (vprime * p.trace_b)) <= 1e-10

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        M=st.integers(2, 12),
        Nt=st.integers(1, 8),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_adjoint_non_finite_raises_solver_failure(self, alpha, M, Nt, bad, seed):
        rng = np.random.default_rng(seed)
        op, tg, f, y0, v = random_edge(rng, alpha=alpha, M=M, Nt=Nt)
        y = solve_forward_edge(op, tg, f, y0, v)
        y_d = rng.standard_normal(y.y.shape)
        # a free node at a time the backward sweep solves for
        y_d[rng.integers(1, Nt + 1), rng.integers(1, M + 1)] = bad
        with pytest.raises(SolverFailure):
            solve_adjoint_edge(op, tg, y, y_d)


class TestAdjoint:
    def test_zero_misfit_gives_zero(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        traj = solve_forward_edge(op, tg, f, y0, v)
        adj = solve_adjoint_edge(op, tg, traj, traj.y)
        assert np.abs(adj.y).max() == 0.0
        assert np.abs(adj.trace_b).max() == 0.0

    def test_adjoint_uses_forward_matrix(self, rng):
        # time-reversal consistency: the backward steps satisfy the forward
        # stepper's matrix identity (W/dt + K) p^k = (W/dt) p^{k+1} + source
        op, tg, f, y0, v = random_edge(rng, alpha=0.5, M=10, Nt=6)
        traj = solve_forward_edge(op, tg, f, y0, v)
        y_d = np.asarray(np.random.default_rng(1).standard_normal(traj.y.shape))
        adj = solve_adjoint_edge(op, tg, traj, y_d)
        dt = tg.dt
        omega = tg.trapezoid_weights()
        wtr = op.grid.trapezoid_weights()
        A = op.W / dt + op.K
        for k in range(1, tg.Nt + 1):
            pnext = adj.y[k + 1] if k < tg.Nt else np.zeros(op.K.shape[0])
            resid = (
                A @ adj.y[k]
                - (op.W / dt) @ pnext
                - (omega[k] / dt) * wtr * (y_d[k] - traj.y[k])
            )
            assert np.abs(resid).max() <= 1e-11

    def test_duality_identity(self, rng):
        # <y_d - y, z>_Q == <v', trace series> for z driven by the control
        # alone; holds to roundoff by the transposition construction
        for seed in range(20):
            local = np.random.default_rng(seed)
            op, tg, f, y0, v = random_edge(local, alpha=0.45, M=9, Nt=11)
            y = solve_forward_edge(op, tg, f, np.zeros(op.grid.nnodes), v)
            y_d = local.standard_normal(y.y.shape)
            p = solve_adjoint_edge(op, tg, y, y_d)
            vprime = local.standard_normal(tg.Nt + 1)
            z = solve_forward_edge(op, tg, None, np.zeros(op.grid.nnodes), vprime)
            om = tg.trapezoid_weights()
            wx = op.grid.trapezoid_weights()
            lhs = np.einsum("k,kj,j,kj->", om, y_d - y.y, wx, z.y)
            rhs = om @ (vprime * p.trace_b)
            assert abs(lhs - rhs) <= 1e-8

    def test_gradient_series_time_zero_is_zero(self, rng):
        op, tg, f, y0, v = random_edge(rng)
        traj = solve_forward_edge(op, tg, f, y0, v)
        adj = solve_adjoint_edge(op, tg, traj, np.zeros_like(traj.y))
        assert adj.trace_b[0] == 0.0
