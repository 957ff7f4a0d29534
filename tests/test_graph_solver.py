import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import fracstar.graph_solver
from fracstar import (
    EdgeCoefficients,
    Grid1D,
    SolverFailure,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    diagnose_adjoint,
    diagnose_forward,
    solve_adjoint_graph,
    solve_forward_graph,
    solve_forward_edge,
)
from fracstar.validation import dense_edge_operators, dense_oracle_solve_graph
from conftest import diagnose_edge, edge_operators, random_coeffs, random_graph


def classical_star_heat(problem, u, v):
    """Hand-assembled classical metric-graph heat stepper (alpha = 1,
    constant coefficients): shared vertex unknown, continuity by
    construction, Kirchhoff naturally, Dirichlet tips eliminated."""
    tg = problem.time_grid
    nt, dt = tg.Nt, tg.dt
    n, m = problem.n, problem.m
    grids = problem.grids
    beta = [problem.coeffs[i].beta[0] for i in range(n)]
    q = [problem.coeffs[i].q[0] for i in range(n)]

    # unknown layout: vertex value, then nodes 1..M_i per edge (tip dropped
    # on Dirichlet-controlled edges, where the value is known data)
    index = {}
    pos = 1
    for i in range(n):
        top = grids[i].M if i >= m else grids[i].M - 1
        for j in range(1, top + 1):
            index[(i, j)] = pos
            pos += 1
    N = pos

    A = np.zeros((N, N))
    lump = np.zeros(N)
    lump[0] = sum(grids[i].h / 2.0 for i in range(n))
    A[0, 0] += sum(beta[i] / grids[i].h + q[i] * grids[i].h / 2.0 for i in range(n))
    for i in range(n):
        h, M = grids[i].h, grids[i].M
        A[0, index[(i, 1)]] -= beta[i] / h
        for j in range(1, M + 1):
            if (i, j) not in index:
                continue
            r = index[(i, j)]
            w = h if j < M else h / 2.0
            lump[r] = w
            A[r, r] += q[i] * w
            for jn in (j - 1, j + 1):
                if jn < 0 or jn > M:
                    continue
                A[r, r] += beta[i] / h
                col = 0 if jn == 0 else index.get((i, jn))
                if col is not None:
                    A[r, col] -= beta[i] / h

    S = np.diag(lump) / dt + A
    states = [np.zeros((nt + 1, g.nnodes)) for g in grids]
    for i in range(n):
        states[i][0] = problem.y0[i]
    x = np.zeros(N)
    x[0] = problem.c0
    for i in range(n):
        for j in range(1, grids[i].M + 1):
            if (i, j) in index:
                x[index[(i, j)]] = problem.y0[i][j]

    fsrc = [
        np.zeros((nt + 1, g.nnodes)) if problem.f[i] is None else problem.f[i]
        for i, g in enumerate(grids)
    ]
    for k in range(1, nt + 1):
        rhs = lump * x / dt
        rhs[0] += sum(grids[i].h / 2.0 * fsrc[i][k][0] for i in range(n))
        for i in range(n):
            h, M = grids[i].h, grids[i].M
            for j in range(1, M + 1):
                if (i, j) not in index:
                    continue
                w = h if j < M else h / 2.0
                rhs[index[(i, j)]] += w * fsrc[i][k][j]
            if i >= m:
                rhs[index[(i, M)]] += v[i - m, k]
            else:
                tip = 0.0 if i == 0 else u[i - 1, k]
                rhs[index[(i, M - 1)]] += beta[i] / h * tip
        x = np.linalg.solve(S, rhs)
        for i in range(n):
            M = grids[i].M
            states[i][k, 0] = x[0]
            for j in range(1, M + 1):
                if (i, j) in index:
                    states[i][k, j] = x[index[(i, j)]]
            if i < m:
                states[i][k, M] = 0.0 if i == 0 else u[i - 1, k]
    return states


def step_solve(system, b):
    """One step of the graph stepper from a zero state: solves the bordered
    step matrix for ``b``, free DOFs first, then the multipliers."""
    fr, nf = system.free, len(system.free)
    load = np.zeros((1, system.ndof))
    load[0, fr] = b[:nf]
    x, mult = fracstar.graph_solver._march(
        system, np.zeros(system.ndof), load, b[None, nf:], "step"
    )
    return np.r_[x[0, fr], -mult[0]]


class TestProblemValidation:
    def test_split_bounds(self, rng):
        with pytest.raises(ValueError):
            random_graph(rng, n=3, m=1)
        with pytest.raises(ValueError):
            random_graph(rng, n=3, m=4)

    def test_junction_mode_follows_from_n(self, rng):
        # the keyword is accepted with the value n implies, and only with it
        for pr in (random_graph(rng, n=3), random_graph(rng, n=1, m=0, Ms=(6,))):
            mode = pr.n >= 2
            assert pr.include_junction_mode is mode
            same = dataclasses.replace(pr, include_junction_mode=mode)
            assert same.include_junction_mode is mode
            with pytest.raises(ValueError, match="follows from n"):
                dataclasses.replace(pr, include_junction_mode=not mode)

    def test_shared_left_endpoint(self, rng):
        tg = TimeGrid(1.0, 4)
        grids = [Grid1D(0.0, 1.0, 4), Grid1D(0.1, 1.0, 4)]
        coeffs = [EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids]
        with pytest.raises(ValueError):
            StarGraphProblem(
                alpha=0.5, time_grid=tg, grids=grids, coeffs=coeffs,
                f=[None, None], y0=[np.zeros(5), np.zeros(5)],
                y_d=[None, None], m=2,
            )


class TestAssembly:
    def test_degenerate_single_edge_bordered(self, rng):
        grid = Grid1D(0.0, 1.0, 10)
        coeffs = random_coeffs(rng, grid)
        pr = StarGraphProblem(
            alpha=0.55, time_grid=TimeGrid(1.0, 4), grids=[grid], coeffs=[coeffs],
            f=[None], y0=[np.zeros(11)], y_d=[None], m=1,
            include_junction_mode=False,
        )
        sys_ = assemble_graph_system(pr)
        op = assemble_stiffness(0.55, grid, coeffs)
        np.testing.assert_array_equal(dense_edge_operators(sys_)[0].sum(axis=0), op.K)
        np.testing.assert_array_equal(sys_.trace_b_rows[0], op.trace_b)

    def test_readouts_are_the_edge_operators_vectors(self, rng):
        # what the diagnostics read is bitwise what the edge operator gives
        for alpha, n, m in ((0.6, 3, 2), (1.0, 3, 3), (0.4, 1, 0)):
            pr = random_graph(rng, alpha=alpha, n=n, m=m)
            sys_ = assemble_graph_system(pr)
            for edge, op in zip(sys_.readouts, edge_operators(pr), strict=True):
                pairs = [
                    (edge.probe, op.flux_probe[: op.grid.nnodes]),
                    (edge.w_probe, op.W @ op.flux_probe),
                    (edge.k_probe, op.K @ op.flux_probe),
                ]
                if n == 1:
                    assert edge.mode is edge.w_junction is edge.k_junction is None
                else:
                    pairs += [
                        (edge.mode, op.mode.samples),
                        (edge.w_junction, op.W[-1]),
                        (edge.k_junction, op.K[-1]),
                    ]
                for got, ref in pairs:
                    assert got.tobytes() == ref.tobytes()

    def test_block_symmetry(self, rng):
        pr = random_graph(rng)
        sys_ = assemble_graph_system(pr)
        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_))
        assert np.abs(K - K.T).max() == 0.0
        assert np.abs(W - W.T).max() == 0.0
        assert sys_.dofmap.ndof == sum(g.nnodes for g in pr.grids) + 1
        assert sys_.trace_b_rows[: pr.m].shape == (pr.m, sys_.dofmap.ndof)

    def test_saddle_structure_entrywise(self, rng):
        # bordered KKT matrix: symmetric (1,1) block, constraint rows as the
        # border, zero multiplier block
        pr = random_graph(rng)
        sys_ = assemble_graph_system(pr)
        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_))
        dt = pr.time_grid.dt
        fr = sys_.free
        A = W[np.ix_(fr, fr)] / dt + K[np.ix_(fr, fr)]
        Bf = sys_.trace_b_rows[: pr.m, fr]
        S = np.block([[A, Bf.T], [Bf, np.zeros((pr.m, pr.m))]])
        np.testing.assert_array_equal(S, S.T)
        nf = len(fr)
        np.testing.assert_array_equal(S[nf:, nf:], 0.0)
        np.testing.assert_array_equal(S[:nf, nf:], Bf.T)
        assert np.linalg.eigvalsh(A).min() > 0.0
        # the factorization stored by assembly is the factorization of S
        z = rng.standard_normal(len(S))
        np.testing.assert_allclose(step_solve(sys_, S @ z), z, atol=1e-10)

    def test_factorization_failures_raise_solver_failure(self, rng, monkeypatch):
        pr = random_graph(rng)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("broken")

        # the edge Cholesky factors, and the edge and Schur complement inverses
        for name in ("cholesky", "inv"):
            with monkeypatch.context() as patch:
                patch.setattr(fracstar.graph_solver, name, broken)
                with pytest.raises(
                    SolverFailure, match="saddle-point factorization failed"
                ):
                    assemble_graph_system(pr)

        inv = fracstar.graph_solver.inv

        def non_finite(*args, **kwargs):
            out = inv(*args, **kwargs)
            out[-1, -1] = np.nan
            return out

        monkeypatch.setattr(fracstar.graph_solver, "inv", non_finite)
        sys_ = assemble_graph_system(pr)
        with pytest.raises(SolverFailure, match="non-finite forward solve"):
            solve_forward_graph(pr, system=sys_)

    def test_no_full_size_inverse(self, rng, monkeypatch):
        # each edge block is inverted through its Cholesky factor: inv sees
        # only triangular leaf blocks, then the (1 + m) Schur complement
        sizes = []
        inv = fracstar.graph_solver.inv

        def recorded(a):
            sizes.append(len(a))
            return inv(a)

        monkeypatch.setattr(fracstar.graph_solver, "inv", recorded)
        n, m, M = 4, 3, 256
        pr = random_graph(rng, n=n, m=m, Nt=4, Ms=(M,) * n, bs=(1.0,) * n)
        assemble_graph_system(pr)
        assert sizes[-1] == 1 + m
        assert 0 < max(sizes[:-1]) <= fracstar.graph_solver._LEAF

    def test_alpha_one_against_classical_star(self, rng):
        pr = random_graph(
            rng, alpha=1.0, Nt=8, Ms=(8, 6, 7), constant_coeffs=True
        )
        for y0 in pr.y0:
            y0[0] = 0.0  # vertex value carried by the shared DOF
        u = rng.standard_normal((1, 9))
        v = rng.standard_normal((1, 9))
        traj = solve_forward_graph(pr, u, v)
        ref = classical_star_heat(pr, u, v)
        for i in range(3):
            assert np.abs(traj.samples[i] - ref[i]).max() <= 1e-11


class TestForward:
    def test_zero_data_gives_zero(self, rng):
        pr = random_graph(rng, with_data=False)
        traj = solve_forward_graph(pr)
        assert np.abs(traj.dofs).max() == 0.0

    def test_energy_decay_homogeneous(self, rng):
        pr = random_graph(rng, with_data=True, Nt=16)
        pr.f = [None] * pr.n
        sys_ = assemble_graph_system(pr)
        d = diagnose_forward(sys_, solve_forward_graph(pr, system=sys_))
        assert np.all(np.diff(d.energy) <= 1e-13)

    def test_apriori_estimates_within_bounds(self, rng):
        for _ in range(5):
            pr = random_graph(rng, Nt=10)
            sys_ = assemble_graph_system(pr)
            d = diagnose_forward(sys_, solve_forward_graph(pr, system=sys_))
            assert 0.0 < d.estimate_ratio <= d.estimate_bound
            assert 0.0 < d.estimate_ratio_T <= d.estimate_bound_T

    def test_junction_flux_balance(self, rng):
        pr = random_graph(rng, Nt=9)
        u = rng.standard_normal((1, 10))
        v = rng.standard_normal((1, 10))
        sys_ = assemble_graph_system(pr)
        d = diagnose_forward(sys_, solve_forward_graph(pr, u, v, sys_), u, v)
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9

    def test_trace_continuity_bitwise(self, rng):
        pr = random_graph(rng)
        u = rng.standard_normal((1, 7))
        traj = solve_forward_graph(pr, u, None)
        sys_ = assemble_graph_system(pr)
        for i, op in enumerate(edge_operators(pr)):
            traces = sys_.edge_dofs(traj.dofs, i) @ op.trace_a
            assert np.all(traces == traj.c)

    def test_dirichlet_constraints_hit(self, rng):
        pr = random_graph(rng, n=4, m=3, Ms=(6, 5, 7, 6), bs=(1.0, 0.8, 1.2, 0.9))
        u = rng.standard_normal((2, 7))
        v = rng.standard_normal((1, 7))
        sys_ = assemble_graph_system(pr)
        d = diagnose_forward(sys_, solve_forward_graph(pr, u, v, sys_), u, v)
        assert d.constraint_residual <= 1e-10

    def test_tip_flux_matches_multipliers_and_controls(self, rng):
        pr = random_graph(rng)
        u = rng.standard_normal((1, 7))
        v = rng.standard_normal((1, 7))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, v, sys_)
        d = diagnose_forward(sys_, traj, u, v)
        np.testing.assert_allclose(
            d.tip_flux[1:, : pr.m], traj.multipliers[1:], atol=1e-9
        )
        np.testing.assert_allclose(d.tip_flux[1:, pr.m], v[0, 1:], atol=1e-9)

    def test_readout_matches_per_step_residuals(self, rng):
        # reference: each step's residual formed on its own against the state
        # the step marched from; the diagnostics form all steps at once
        pr = random_graph(rng, Nt=7)
        u = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, u, v, sys_)
        p = solve_adjoint_graph(pr, y, sys_)
        dy, dp = diagnose_forward(sys_, y, u, v), diagnose_adjoint(sys_, p, y)
        dt, om = pr.time_grid.dt, pr.time_grid.trapezoid_weights()
        c = sys_.dofmap.c_index
        Ks, Ws = dense_edge_operators(sys_)
        K, W, kc, wc = Ks.sum(axis=0), Ws.sum(axis=0), Ks[:, c], Ws[:, c]
        ops = edge_operators(pr)
        for k in range(1, 8):
            misfit = [yi[k] - ydi[k] for yi, ydi in zip(y.samples, pr.y_d)]
            p_next = p.dofs[k + 1] if k < 7 else np.zeros(sys_.ndof)
            for x, prev, g, known, d in (
                (y.dofs[k], y.dofs[k - 1], [fi[k] for fi in pr.f],
                 np.r_[y.multipliers[k], v[:, k]], dy),
                (p.dofs[k], p_next, [om[k] / dt * gi for gi in misfit],
                 np.r_[p.multipliers[k], 0.0], dp),
            ):
                rate = (x - prev) / dt
                r = W @ rate + K @ x - sys_.load_from_samples(g)
                tip = [
                    r[sys_.dofmap.edge_slice(i)] @ op.flux_probe[: op.grid.nnodes]
                    for i, op in enumerate(ops)
                ]
                np.testing.assert_allclose(d.tip_flux[k], tip, atol=1e-12)
                load_c = [
                    op.mode.samples @ (op.grid.trapezoid_weights() * gi)
                    for op, gi in zip(ops, g)
                ]
                junction = known - (kc @ x + wc @ rate - load_c)
                np.testing.assert_allclose(d.junction_flux[k], junction, atol=1e-12)
                assert abs(d.junction_flux[k].sum() - (known.sum() - r[c])) <= 1e-12

    def test_sweeps_share_the_assembled_factorization(self, rng, factorizations):
        pr = random_graph(rng)
        sys_ = assemble_graph_system(pr)
        assert len(factorizations) == pr.n
        u = rng.standard_normal((pr.m - 1, pr.time_grid.Nt + 1))
        y = solve_forward_graph(pr, u, None, sys_)
        solve_adjoint_graph(pr, y, sys_)
        solve_forward_graph(pr, None, None, sys_)
        assert len(factorizations) == pr.n

    def test_no_dense_global_array(self, rng, traced_peak):
        # assembly, a sweep and its diagnostics on a wide star stay below the
        # memory of one ndof x ndof matrix
        n, M = 8, 128
        pr = random_graph(rng, n=n, m=4, Nt=16, Ms=(M,) * n, bs=(1.0,) * n)
        u = rng.standard_normal((3, 17))
        v = rng.standard_normal((4, 17))

        def solve_and_diagnose():
            sys_ = assemble_graph_system(pr)
            diagnose_forward(sys_, solve_forward_graph(pr, u, v, sys_), u, v)
            return sys_

        sys_, _, peak = traced_peak(solve_and_diagnose)
        assert sys_.ndof == 1033
        assert peak < 8 * sys_.ndof**2

    def test_assembly_releases_each_edge_before_the_next(self, rng, traced_peak):
        # assembly keeps one propagator per edge and, at any time, the dense
        # matrices of at most one edge beside the propagators already made
        n, M = 4, 256
        pr = random_graph(rng, n=n, m=3, Nt=4, Ms=(M,) * n, bs=(1.0,) * n)
        _, retained, peak = traced_peak(assemble_graph_system, pr)
        block = 8 * (M + 1) ** 2
        assert retained <= (n + 1) * block
        assert peak < (n + 4) * block

    def test_stored_step_holds_one_square_array_per_edge(self, rng):
        # the step data are one n_i x n_i propagator per edge plus arrays of
        # O(ndof (1 + m)) entries: no second per-edge copy is kept, and no
        # edge's K, W or D
        n, M, m = 8, 128, 4
        pr = random_graph(rng, n=n, m=m, Nt=4, Ms=(M,) * n, bs=(1.0,) * n)
        sys_ = assemble_graph_system(pr)

        def arrays(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, (list, tuple)):
                return [a for item in value for a in arrays(item)]
            if dataclasses.is_dataclass(value):
                return arrays([getattr(value, f.name) for f in dataclasses.fields(value)])
            return []

        square, other, readout = [], 0, 0
        for f in dataclasses.fields(sys_):
            if f.name == "problem":  # the input the system keeps
                continue
            for a in arrays(getattr(sys_, f.name)):
                if a.ndim == 2 and min(a.shape) >= M:  # as large as an edge block
                    square.append(a)
                elif f.name == "readouts":
                    readout += a.size
                else:
                    other += a.size
        assert len(square) == n
        assert all(a.shape == (M + 1, M + 1) for a in square)
        assert other <= sys_.ndof * (n + 4 * (1 + m))
        # the diagnostics' vectors: at most six per edge
        assert readout <= 6 * sum(g.nnodes + 1 for g in pr.grids)

    def test_degenerate_reduces_to_edge_solver(self, rng):
        grid = Grid1D(0.0, 1.0, 10)
        tg = TimeGrid(0.8, 12)
        coeffs = random_coeffs(rng, grid)
        f = rng.standard_normal((13, 11))
        y0 = rng.standard_normal(11)
        v = rng.standard_normal(13)
        pr = StarGraphProblem(
            alpha=0.55, time_grid=tg, grids=[grid], coeffs=[coeffs],
            f=[f], y0=[y0], y_d=[None], m=0, include_junction_mode=False,
        )
        sys_ = assemble_graph_system(pr)
        tG = solve_forward_graph(pr, None, v[None, :], sys_)
        dG = diagnose_forward(sys_, tG, None, v[None, :])
        op = assemble_stiffness(0.55, grid, coeffs)
        tE = solve_forward_edge(op, tg, f, y0, v)
        # solve_forward_edge is an adapter over the graph stepper: check its
        # mapping bitwise and the state against the space-time oracle
        np.testing.assert_array_equal(tE.y, tG.samples[0])
        np.testing.assert_array_equal(tE.trace_b, tG.tip_trace[:, 0])
        # the edge's diagnostics are those of the one-edge graph it solves
        _, dE = diagnose_edge(op, tg, f, y0, v)
        np.testing.assert_array_equal(dE.tip_flux, dG.tip_flux)
        np.testing.assert_array_equal(dE.energy, dG.energy)
        assert (dE.estimate_ratio, dE.estimate_bound) == (
            dG.estimate_ratio, dG.estimate_bound
        )
        ref, _ = dense_oracle_solve_graph(pr, None, v[None, :])
        assert np.abs(tE.y - ref).max() <= 1e-11


class TestOracle:
    @pytest.mark.parametrize("alpha", [0.4, 0.75, 1.0])
    def test_matches_dense_space_time_solve(self, alpha, rng):
        pr = random_graph(rng, alpha=alpha, Nt=4, Ms=(6, 6, 6))
        u = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 5))
        traj = solve_forward_graph(pr, u, v)
        dofs, mult = dense_oracle_solve_graph(pr, u, v)
        assert np.abs(traj.dofs - dofs).max() <= 1e-11
        assert np.abs(traj.multipliers - mult).max() <= 1e-11


class TestAdjoint:
    def test_zero_misfit_gives_zero(self, rng):
        pr = random_graph(rng)
        traj = solve_forward_graph(pr)
        pr.y_d = [s.copy() for s in traj.samples]
        adj = solve_adjoint_graph(pr, traj)
        assert np.abs(adj.dofs).max() == 0.0

    def test_boundary_series_regularity_bounded(self, rng):
        # discrete analogue of the tip-derivative trace bound: the measured
        # ratio stays uniformly bounded over random data at fixed mesh
        ratios = []
        for seed in range(10):
            local = np.random.default_rng(seed)
            pr = random_graph(local, Nt=8)
            sys_ = assemble_graph_system(pr)
            traj = solve_forward_graph(pr, system=sys_)
            adj = solve_adjoint_graph(pr, traj, sys_)
            ratios.append(diagnose_adjoint(sys_, adj, traj).boundary_regularity_ratio)
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 50.0

    def test_transposition_duality(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed + 100)
            pr = random_graph(local, Nt=7)
            u = local.standard_normal((1, 8))
            v = local.standard_normal((1, 8))
            y = solve_forward_graph(pr, u, v)
            p = solve_adjoint_graph(pr, y)
            zpr = StarGraphProblem(
                alpha=pr.alpha, time_grid=pr.time_grid, grids=pr.grids,
                coeffs=pr.coeffs, f=[None] * pr.n,
                y0=[np.zeros(g.nnodes) for g in pr.grids], y_d=pr.y_d, m=pr.m,
            )
            up = local.standard_normal((1, 8))
            vp = local.standard_normal((1, 8))
            z = solve_forward_graph(zpr, up, vp)
            om = pr.time_grid.trapezoid_weights()
            lhs = sum(
                np.einsum(
                    "k,kj,j,kj->", om, y.samples[i] - pr.y_d[i],
                    pr.grids[i].trapezoid_weights(), z.samples[i],
                )
                for i in range(pr.n)
            )
            rhs = om @ (vp[0] * p.neumann_trace_series[:, 0])
            rhs -= om @ (up[0] * p.dirichlet_flux_series[:, 1])
            assert abs(lhs - rhs) <= 1e-8

    def test_adjoint_junction_balance(self, rng):
        pr = random_graph(rng, Nt=8)
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, system=sys_)
        d = diagnose_adjoint(sys_, solve_adjoint_graph(pr, traj, sys_), traj)
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9
        assert d.constraint_residual <= 1e-10


class TestCornerCases:
    def test_strongly_fractional_order(self, rng):
        # alpha near zero: the regularized mode carries a large h^(2a-1) mass
        # but the solves stay finite and balanced
        pr = random_graph(rng, alpha=0.1, Nt=6)
        u = rng.standard_normal((1, 7))
        v = rng.standard_normal((1, 7))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, v, sys_)
        d = diagnose_forward(sys_, traj, u, v)
        assert np.all(np.isfinite(traj.dofs))
        assert d.constraint_residual <= 1e-9
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9
        dofs, _ = dense_oracle_solve_graph(pr, u, v)
        assert np.abs(traj.dofs - dofs).max() <= 1e-10

    def test_all_dirichlet_graph(self, rng):
        # m = n: no Neumann channels at all
        pr = random_graph(rng, n=3, m=3, Nt=6)
        u = rng.standard_normal((2, 7))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, None, sys_)
        assert diagnose_forward(sys_, traj, u).constraint_residual <= 1e-10
        adj = solve_adjoint_graph(pr, traj)
        assert adj.neumann_trace_series.shape == (7, 0)
        assert np.all(np.isfinite(adj.dirichlet_flux_series))

    def test_two_edge_graph(self, rng):
        pr = random_graph(rng, n=2, m=2, Nt=5, Ms=(6, 7), bs=(1.0, 0.7))
        u = rng.standard_normal((1, 6))
        sys_ = assemble_graph_system(pr)
        d = diagnose_forward(sys_, solve_forward_graph(pr, u, None, sys_), u)
        assert d.constraint_residual <= 1e-10
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9

    def test_offset_interval(self, rng):
        # edges need not start at zero
        tg = TimeGrid(0.6, 5)
        grids = [Grid1D(0.5, 1.5, 6), Grid1D(0.5, 1.2, 7)]
        coeffs = [EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids]
        pr = StarGraphProblem(
            alpha=0.6, time_grid=tg, grids=grids, coeffs=coeffs,
            f=[rng.standard_normal((6, 7)), rng.standard_normal((6, 8))],
            y0=[rng.standard_normal(7), rng.standard_normal(8)],
            y_d=[None, None], m=2,
        )
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, system=sys_)
        assert np.all(np.isfinite(traj.dofs))
        d = diagnose_forward(sys_, traj)
        assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9


class TestGraphCornerProperties:
    """The graph stepper and its diagnostics over the corners of the inputs:
    uneven edge meshes, a single time step, all-Dirichlet graphs (m = n), a
    nonzero initial junction coefficient and orders down to 1e-3 and exactly
    1 (pinned nodes)."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 8), min_size=2, max_size=4),
        m_from_top=st.integers(0, 2),
        Nt=st.one_of(st.just(1), st.integers(1, 4)),
        c0=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_oracle_duality_and_junction_balance(self, alpha, Ms, m_from_top, Nt, c0, seed):
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = max(2, n - m_from_top)
        bs = tuple(rng.uniform(0.5, 1.5, n))
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=bs)
        pr.c0 = c0
        u = rng.standard_normal((m - 1, Nt + 1))
        v = rng.standard_normal((n - m, Nt + 1))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, u, v, sys_)
        dofs, mult = dense_oracle_solve_graph(pr, u, v, sys_)
        assert np.abs(y.dofs - dofs).max() <= 1e-11
        assert np.abs(y.multipliers - mult).max() <= 1e-11

        # <y - y_d, z>_Q equals the controls of z paired with the adjoint's
        # boundary series, for z driven by those controls alone
        p = solve_adjoint_graph(pr, y, sys_)
        up = rng.standard_normal(u.shape)
        vp = rng.standard_normal(v.shape)
        zero = StarGraphProblem(
            alpha=alpha, time_grid=pr.time_grid, grids=pr.grids, coeffs=pr.coeffs,
            f=[None] * n, y0=[np.zeros(g.nnodes) for g in pr.grids], y_d=pr.y_d, m=m,
        )
        z = solve_forward_graph(zero, up, vp, sys_)
        om = pr.time_grid.trapezoid_weights()
        lhs = sum(
            np.einsum("k,kj,j,kj->", om, y.samples[i] - pr.y_d[i],
                      pr.grids[i].trapezoid_weights(), z.samples[i])
            for i in range(n)
        )
        rhs = np.einsum("jk,k,kj->", vp, om, p.neumann_trace_series)
        rhs -= np.einsum("jk,k,kj->", up, om, p.dirichlet_flux_series[:, 1:])
        assert abs(lhs - rhs) <= 1e-8

        for d in (diagnose_forward(sys_, y, u, v), diagnose_adjoint(sys_, p, y)):
            assert np.abs(d.junction_flux[1:].sum(axis=1)).max() <= 1e-9

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 8), min_size=1, max_size=4),
        m_choice=st.integers(0, 2),
        Nt=st.one_of(st.just(1), st.integers(1, 4)),
        c0=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_march_equals_dense_bordered_solve(self, alpha, Ms, m_choice, Nt, c0, seed):
        # the per-edge stepper against an LU of the whole bordered step
        # matrix [[W_ff/dt + K_ff, B_f^T], [B_f, 0]] built from the edge
        # operators; n = 1 takes m = 0 and m = 1, larger graphs m = n too
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = min(m_choice, 1) if n == 1 else [n, max(2, n - 1), 2][m_choice]
        bs = tuple(rng.uniform(0.5, 1.5, n))
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=bs)
        pr.c0 = c0
        sys_ = assemble_graph_system(pr)
        dm, dt = sys_.dofmap, pr.time_grid.dt
        start = np.zeros(sys_.ndof)
        for i in range(n):
            start[dm.edge_slice(i)] = pr.y0[i]
        start[dm.junction] = c0
        loads = rng.standard_normal((Nt, sys_.ndof))
        traces = rng.standard_normal((Nt, m))
        x, mult = fracstar.graph_solver._march(sys_, start, loads, traces, "forward")

        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_))
        fr = sys_.free
        nf = len(fr)
        Bf = sys_.trace_b_rows[: pr.m, fr]
        S = np.block(
            [[W[np.ix_(fr, fr)] / dt + K[np.ix_(fr, fr)], Bf.T], [Bf, np.zeros((m, m))]]
        )
        lu = lu_factor(S)
        prev = start
        for j in range(Nt):
            sol = lu_solve(lu, np.r_[(W @ prev / dt + loads[j])[fr], traces[j]])
            ref = np.zeros(sys_.ndof)
            ref[fr] = sol[:nf]
            assert np.abs(x[j] - ref).max() <= 1e-12
            assert np.abs(mult[j] + sol[nf:]).max(initial=0.0) <= 1e-12
            prev = ref

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 150), min_size=1, max_size=3),
        Nt=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    # blocks of the leaf size and one more: alpha = 1 pins node 0
    @example(alpha=1.0, Ms=[64, 65], Nt=1, seed=0)
    @example(alpha=0.5, Ms=[63, 64], Nt=1, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_propagators_are_scaled_inverses(self, alpha, Ms, Nt, seed):
        # P_i = A_i^{-1} diag(mass_i/dt), inverted through the Cholesky
        # factor, against numpy's inverse of the block.  Any computed inverse
        # errs by up to about cond(A_i) eps, so the 1e-13 relative bound
        # grows with the condition number above 1e3 (alpha near 1, fine h).
        rng = np.random.default_rng(seed)
        n = len(Ms)
        bs = tuple(rng.uniform(0.5, 1.5, n))
        m = 0 if n == 1 else 2
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=bs)
        sys_ = assemble_graph_system(pr)
        dt = pr.time_grid.dt
        for op, (gs, prop) in zip(edge_operators(pr), sys_.edge_propagators):
            fs = slice(int(op.free[0]), op.grid.nnodes)
            block = op.W[fs, fs] / dt + op.K[fs, fs]
            ref = np.linalg.inv(block) * (sys_.mass[gs] / dt)
            tol = 1e-13 * max(1.0, np.linalg.cond(block) / 1e3)
            assert np.abs(prop - ref).max() <= tol * np.abs(ref).max()

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        m_from_top=st.integers(0, 2),
        Nt=st.integers(1, 4),
        where=st.sampled_from(["f", "y0", "c0", "u", "v"]),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_forward_data_raises_solver_failure(
        self, alpha, Ms, m_from_top, Nt, where, bad, seed
    ):
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = max(2, n - m_from_top)
        assume(where != "v" or m < n)
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=(1.0,) * n)
        u = rng.standard_normal((m - 1, Nt + 1))
        v = rng.standard_normal((n - m, Nt + 1))
        i = int(rng.integers(n))
        k = int(rng.integers(1, Nt + 1))  # a step the sweep solves
        if where == "f":
            pr.f[i][k, rng.integers(Ms[i] + 1)] = bad
        elif where == "y0":
            pr.y0[i][rng.integers(Ms[i] + 1)] = bad
        elif where == "c0":
            pr.c0 = bad
        elif where == "u":
            u[rng.integers(m - 1), k] = bad
        else:
            v[rng.integers(n - m), k] = bad
        with pytest.raises(SolverFailure, match="non-finite forward right-hand side"):
            solve_forward_graph(pr, u, v)
