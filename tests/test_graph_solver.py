import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import fracstar.graph_solver
from fracstar import (
    CostConfig,
    EdgeCoefficients,
    Grid1D,
    SolverFailure,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    cost_graph,
    diagnose_adjoint,
    diagnose_forward,
    JunctionRows,
    junction_rows,
    reduced_hessian,
    solve_adjoint_graph,
    solve_forward_graph,
    solve_forward_edge,
)
from fracstar.fracops import left_rl_derivative, singular_mode
from fracstar.validation import dense_edge_operators, dense_oracle_solve_graph
from conftest import (
    diagnose_edge,
    edge_dofs,
    edge_operators,
    extended_operators,
    flux_probe,
    free_dofs,
    random_coeffs,
    random_graph,
    tip_fluxes,
    trace_at_a,
)


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
    fr = free_dofs(system)
    nf = len(fr)
    row = np.zeros((1, system.ndof))  # the step's load, overwritten by its state
    row[0, fr] = b[:nf]
    mult = fracstar.graph_solver._march(
        system, np.zeros(system.ndof), row, b[None, nf:], "step"
    )
    return np.r_[row[0, fr], -mult[0]]


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
            same = pr._replace(include_junction_mode=mode)
            assert same.include_junction_mode is mode
            with pytest.raises(ValueError, match="follows from n"):
                pr._replace(include_junction_mode=not mode)

    def test_replace_is_checked(self, rng):
        pr = random_graph(rng, n=3)
        assert pr._replace(m=3).n_dirichlet_channels == 2
        with pytest.raises(ValueError, match="need 2 <= m <= n"):
            pr._replace(m=1)
        with pytest.raises(ValueError, match="inconsistent lengths"):
            pr._replace(f=[None])

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

    def test_no_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            StarGraphProblem(
                alpha=0.5, time_grid=TimeGrid(1.0, 4), grids=[], coeffs=[],
                f=[], y0=[], y_d=[], m=0,
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
        np.testing.assert_array_equal(dense_edge_operators(sys_.problem)[0].sum(axis=0), op.K)
        np.testing.assert_array_equal(sys_.trace_b_rows[0], op.trace_b)

    def test_readouts_are_the_edge_operators_vectors(self, rng):
        # what the diagnostics read is bitwise what sturm's junction rows
        # give; without the junction mode the system keeps none
        for alpha, n, m in ((0.6, 3, 2), (1.0, 3, 3), (0.4, 1, 0)):
            pr = random_graph(rng, alpha=alpha, n=n, m=m)
            sys_ = assemble_graph_system(pr)
            if n == 1:
                assert sys_.junctions == []
                continue
            refs = [junction_rows(alpha, g, c) for g, c in zip(pr.grids, pr.coeffs)]
            for got, ref in zip(sys_.junctions, refs, strict=True):
                for field in ref._fields:
                    assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()

    def test_block_symmetry(self, rng):
        pr = random_graph(rng)
        sys_ = assemble_graph_system(pr)
        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_.problem))
        assert np.abs(K - K.T).max() == 0.0
        assert np.abs(W - W.T).max() == 0.0
        assert sys_.dofmap.ndof == sum(g.nnodes for g in pr.grids) + 1
        assert sys_.trace_b_rows[: pr.m].shape == (pr.m, sys_.dofmap.ndof)

    def test_saddle_structure_entrywise(self, rng):
        # bordered KKT matrix: symmetric (1,1) block, constraint rows as the
        # border, zero multiplier block
        pr = random_graph(rng)
        sys_ = assemble_graph_system(pr)
        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_.problem))
        dt = pr.time_grid.dt
        fr = free_dofs(sys_)
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

    def test_overflowing_assembly_raises_solver_failure(self, rng):
        # the cell averages of beta overflow; warnings are errors in this
        # suite, so a numpy warning would raise here instead
        pr = random_graph(rng)
        pr.coeffs[1] = EdgeCoefficients.constant(pr.grids[1], 1e308, 1.0)
        with pytest.raises(SolverFailure, match="assembly failed: overflow"):
            assemble_graph_system(pr)

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
        pr = pr._replace(f=[None] * pr.n)
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
            traces = edge_dofs(sys_, traj.dofs, i) @ trace_at_a(op, pr)
            assert np.all(traces == traj.c)

    def test_dirichlet_constraints_hit(self, rng):
        pr = random_graph(rng, n=4, m=3, Ms=(6, 5, 7, 6), bs=(1.0, 0.8, 1.2, 0.9))
        u = rng.standard_normal((2, 7))
        v = rng.standard_normal((1, 7))
        sys_ = assemble_graph_system(pr)
        d = diagnose_forward(sys_, solve_forward_graph(pr, u, v, sys_), u, v)
        assert d.constraint_residual <= 1e-10

    def test_tip_flux_matches_multipliers_and_controls(self, rng):
        # the tip fluxes read off the step residuals are the multipliers on
        # Dirichlet tips and the controls on Neumann tips
        pr = random_graph(rng)
        u = rng.standard_normal((1, 7))
        v = rng.standard_normal((1, 7))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, v, sys_)
        tip = tip_fluxes(sys_, traj, pr.f)
        np.testing.assert_allclose(tip[:, : pr.m], traj.multipliers[1:], atol=1e-9)
        np.testing.assert_allclose(tip[:, pr.m], v[0, 1:], atol=1e-9)

    def test_readout_matches_per_step_residuals(self, rng):
        # reference: each step's residual formed on its own against the state
        # the step marched from; the diagnostics form all steps at once, and
        # the tip fluxes it gives are the multipliers and controls imposed
        pr = random_graph(rng, Nt=7)
        u = rng.standard_normal((1, 8))
        v = rng.standard_normal((1, 8))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, u, v, sys_)
        p = solve_adjoint_graph(pr, y, sys_)
        dy, dp = diagnose_forward(sys_, y, u, v), diagnose_adjoint(sys_, p, y)
        dt, om = pr.time_grid.dt, pr.time_grid.trapezoid_weights()
        c = sys_.dofmap.c_index
        Ks, Ws = dense_edge_operators(sys_.problem)
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
                r = W @ rate + K @ x - fracstar.graph_solver._add_loads(sys_, g)
                tip = [r[sys_.dofmap.edge_slice(i)] @ flux_probe(op) for i, op in enumerate(ops)]
                np.testing.assert_allclose(tip, known, atol=1e-12)
                load_c = [
                    singular_mode(pr.alpha, op.grid) @ (op.grid.trapezoid_weights() * gi)
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

    def test_a_sweep_takes_a_system_of_its_operator_alone(self, rng):
        # a system assembled for another dt, alpha, step count or coefficients
        # is refused; one whose problem differs in its data alone serves
        pr = random_graph(rng)
        pr = pr._replace(f=[None] * pr.n, y_d=[None] * pr.n)
        sys_ = assemble_graph_system(pr)
        tg = pr.time_grid
        for change in (
            {"time_grid": TimeGrid(2.0 * tg.T, tg.Nt)},
            {"alpha": 0.9},
            {"time_grid": TimeGrid(tg.T, tg.Nt + 2)},
            {"coeffs": [c._replace(q=2.0 * c.q) for c in pr.coeffs]},
        ):
            other = pr._replace(**change)
            y = solve_forward_graph(other)
            with pytest.raises(ValueError, match="assembled for another operator"):
                solve_forward_graph(other, system=sys_)
            with pytest.raises(ValueError, match="assembled for another operator"):
                solve_adjoint_graph(other, y, system=sys_)
        new = random_graph(rng)
        data = pr._replace(
            f=new.f, y0=new.y0, y_d=new.y_d, c0=0.3,
            coeffs=[c._replace(beta=c.beta.copy(), q=c.q.copy()) for c in pr.coeffs],
        )
        u, v = rng.standard_normal((2, 1, tg.Nt + 1))
        own = assemble_graph_system(data)
        y, ref = solve_forward_graph(data, u, v, sys_), solve_forward_graph(data, u, v, own)
        assert y.dofs.tobytes() == ref.dofs.tobytes()
        p, ref = solve_adjoint_graph(data, y, sys_), solve_adjoint_graph(data, y, own)
        assert p.dofs.tobytes() == ref.dofs.tobytes()

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
        # matrices of at most one edge beside the propagators already made:
        # its D and K while K is assembled (D is scaled in place, and K is
        # its product with itself), then K's step block and its factors
        n, M = 4, 256
        pr = random_graph(rng, n=n, m=3, Nt=4, Ms=(M,) * n, bs=(1.0,) * n)
        _, retained, peak = traced_peak(assemble_graph_system, pr)
        block = 8 * (M + 1) ** 2
        assert retained <= (n + 1) * block
        assert peak < (n - 1 + 4.25) * block

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
            if isinstance(value, (list, tuple)):  # NamedTuple records too
                return [a for item in value for a in arrays(item)]
            return []

        square, other, readout = [], 0, 0
        for name in sys_._fields:
            if name == "problem":  # the input the system keeps
                continue
            for a in arrays(getattr(sys_, name)):
                if a.ndim == 2 and min(a.shape) >= M:  # as large as an edge block
                    square.append(a)
                elif name == "junctions":
                    readout += a.size
                else:
                    other += a.size
        assert len(square) == n
        assert all(a.shape == (M + 1, M + 1) for a in square)
        assert other <= sys_.ndof * (n + 4 * (1 + m))
        # the diagnostics' vectors: at most three per edge
        assert readout <= 3 * sum(g.nnodes + 1 for g in pr.grids)

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
        # the edge's diagnostics are those of the one-edge graph it solves,
        # whose tip flux is its control; it has no junction to balance
        tEG, dE = diagnose_edge(op, tg, f, y0, v)
        tip = tip_fluxes(sys_, tG, [f])
        assert tip.tobytes() == tip_fluxes(sys_, tEG, [f]).tobytes()
        assert np.abs(tip[:, 0] - v[1:]).max() <= 1e-10
        assert not dE.junction_flux.any() and not dG.junction_flux.any()
        np.testing.assert_array_equal(dE.energy, dG.energy)
        assert (dE.estimate_ratio, dE.estimate_bound) == (
            dG.estimate_ratio, dG.estimate_bound
        )
        ref, _ = dense_oracle_solve_graph(pr, None, v[None, :])
        assert np.abs(tE.y - ref).max() <= 1e-11


class TestStreamedForward:
    """A forward march given a ``stream`` fills the stream's rows, hands each
    step over once and as soon as it is final, and returns those rows."""

    class Stream:
        def __init__(self, shape, final):
            self.rows, self.final, self.stops = np.zeros(shape), final, []

        def send(self, stop):
            # every row handed over holds its final value
            assert self.rows[:stop].tobytes() == self.final[:stop].tobytes()
            self.stops.append(stop)

    @pytest.mark.parametrize("n, m, Nt", [(3, 2, 7), (3, 3, 1), (1, 0, 5)])
    def test_each_step_is_handed_over_once(self, rng, n, m, Nt):
        pr = random_graph(rng, n=n, m=m, Nt=Nt)
        system = assemble_graph_system(pr)
        u = rng.standard_normal((pr.n_dirichlet_channels, Nt + 1))
        v = rng.standard_normal((pr.n_neumann_channels, Nt + 1))
        plain = solve_forward_graph(pr, u, v, system)
        stream = self.Stream((Nt + 1, system.ndof), plain.dofs)
        traj = solve_forward_graph(pr, u, v, system, stream=stream)
        assert stream.stops == list(range(2, Nt + 2))
        assert traj.dofs is stream.rows
        for a, b in [(traj.dofs, plain.dofs), (traj.multipliers, plain.multipliers),
                     *zip(traj.samples, plain.samples)]:
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


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
        pr = pr._replace(y_d=[s.copy() for s in traj.samples])
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

    @pytest.mark.parametrize("alpha, measured", [(0.3, (0.45, 0.43)), (0.4, (0.29, 0.27))])
    def test_junction_coefficient_vanishes_from_rest_at_small_alpha(self, alpha, measured):
        # for alpha <= 1/2 the mode is not in L2: its mass corner grows like
        # h^(2 alpha - 1), and from rest max|c| tends to zero under refinement,
        # at about h^(1 - 2 alpha).  Criterion 11's graph, driven by its
        # Dirichlet tip; each order in h (M 64 -> 256 -> 1024) is gated at its
        # measured value less 0.15 (at alpha = 0.6 they are 0.08 and 0.05)
        tg = TimeGrid(1.0, 16)
        largest = []
        for M in (64, 256, 1024):
            grids = [Grid1D(0.0, L, M) for L in (1.0, 0.8, 1.2)]
            pr = StarGraphProblem(
                alpha=alpha, time_grid=tg, grids=grids,
                coeffs=[EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids],
                f=[None] * 3, y0=[np.zeros(g.nnodes) for g in grids], y_d=[None] * 3, m=2,
            )
            largest.append(np.abs(solve_forward_graph(pr, np.sin(3.0 * tg.times)).c).max())
        rates = np.log(np.array(largest[:-1]) / largest[1:]) / np.log(4.0)
        assert np.all(rates >= np.array(measured) - 0.15), rates


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
        pr = pr._replace(c0=c0)
        u = rng.standard_normal((m - 1, Nt + 1))
        v = rng.standard_normal((n - m, Nt + 1))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, u, v, sys_)
        dofs, mult = dense_oracle_solve_graph(pr, u, v)
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
        pr = pr._replace(c0=c0)
        sys_ = assemble_graph_system(pr)
        dm, dt = sys_.dofmap, pr.time_grid.dt
        start = np.zeros(sys_.ndof)
        for i in range(n):
            start[dm.edge_slice(i)] = pr.y0[i]
        start[dm.junction] = c0
        loads = rng.standard_normal((Nt, sys_.ndof))
        traces = rng.standard_normal((Nt, m))
        # the march overwrites each step's load with its state: rows 1.. of x
        x = np.vstack([start, loads])
        mult = fracstar.graph_solver._march(sys_, x[0], x[1:], traces, "forward")

        K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_.problem))
        fr = free_dofs(sys_)
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
            assert np.abs(x[j + 1] - ref).max() <= 1e-12  # row 0 is the start
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
            block = np.diag(op.grid.trapezoid_weights()[fs]) / dt + op.K[fs, fs]
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
            pr = pr._replace(c0=bad)
        elif where == "u":
            u[rng.integers(m - 1), k] = bad
        else:
            v[rng.integers(n - m), k] = bad
        with pytest.raises(SolverFailure, match="non-finite forward right-hand side"):
            solve_forward_graph(pr, u, v)


# The diagnostics as they were formed from copies of the trajectory: the
# step rates, each edge's DOF vectors and its samples.  The reference for the
# diagnostics read off the DOF rows by products.


def copied_readout(system, y, prev, g, known, traces):
    """The fluxes, energy and constraint residual, with the scales their
    rounding is relative to: the largest sum of the magnitudes of a flux's
    terms, each row's product by W counted twice (for the rate's two rows),
    and of the terms of a squared energy.  The tip fluxes are read by each
    edge's flux probe, to be checked against the ``known`` ones imposed."""
    pr, dt = system.problem, system.problem.time_grid.dt
    x = y.dofs[1:]
    rate = (x - prev) / dt
    tip = np.empty((len(x), pr.n))
    junction = np.zeros_like(tip)
    flux_scale = 0.0
    ops = zip(extended_operators(system), edge_operators(pr), g)
    for i, ((K, W), op, gi) in enumerate(ops):
        xi, ri = edge_dofs(system, x, i), edge_dofs(system, rate, i)
        pi = edge_dofs(system, prev, i)
        wg = op.grid.trapezoid_weights() * gi
        probe = flux_probe(op)
        w_probe, k_probe = W[:, : len(probe)] @ probe, K[:, : len(probe)] @ probe
        tip[:, i] = ri @ w_probe + xi @ k_probe - wg @ probe
        terms = [(w_probe, k_probe, probe)]
        if pr.include_junction_mode:
            mode = singular_mode(pr.alpha, op.grid)
            junction[:, i] = known[:, i] - (ri @ W[-1] + xi @ K[-1] - wg @ mode)
            terms.append((W[-1], K[-1], mode))
        for w, k, load in terms:
            size = (np.abs(xi) + np.abs(pi)) @ np.abs(w) / dt + np.abs(xi) @ np.abs(k)
            flux_scale = max(flux_scale, (size + np.abs(wg) @ np.abs(load)).max())
    samples = list(system.samples(y.dofs))
    squared = sum(
        np.einsum("kj,j,kj->k", s, grid.trapezoid_weights(), s)
        for s, grid in zip(samples, pr.grids)
    )
    energy_scale = 0.0
    for i, grid in enumerate(pr.grids):
        xi = np.abs(edge_dofs(system, y.dofs, i))
        if pr.include_junction_mode:
            xi[:, :-1] += xi[:, -1:] * np.abs(singular_mode(pr.alpha, grid))
        nodal = xi[:, : grid.nnodes]
        energy_scale += np.einsum("kj,j,kj->k", nodal, grid.trapezoid_weights(), nodal)
    cres = float(np.abs(y.tip_trace[1:, : pr.m] - traces).max()) if pr.m > 0 else 0.0
    first = np.zeros((1, pr.n))
    return (tip, known, np.vstack([first, junction]), np.sqrt(squared), cres,
            flux_scale, np.max(energy_scale))


def copied_apriori_ratios(system, y, squared, f, v):
    """The state terms are the squared energies ``squared``, which
    :func:`assert_readouts_agree` checks against the samples' norms; the
    derivative and data terms are formed from copies."""
    pr, dm, dt = system.problem, system.dofmap, system.problem.time_grid.dt
    derivative = 0.0
    data = squared[0] + dt * float(np.sum(v[:, 1:] ** 2))
    for i, grid in enumerate(pr.grids):
        w = grid.trapezoid_weights()
        Dy = y.dofs[1:, dm.edge_slice(i)] @ left_rl_derivative(pr.alpha, grid).T
        derivative += grid.h * np.sum(Dy**2)
        data += dt * np.einsum("kj,j,kj->", f[i][1:], w, f[i][1:])
    if data <= 0.0:
        return 0.0, 0.0
    return float(dt * (np.sum(squared[1:]) + derivative) / data), float(squared[-1] / data)


def copied_diagnose_forward(system, y, u, v, squared):
    pr = system.problem
    nt = pr.time_grid.Nt
    f = [np.zeros((nt + 1, g.nnodes)) if fi is None else fi for fi, g in zip(pr.f, pr.grids)]
    ratios = (0.0, 0.0)
    if pr.m == 0 or not (np.any(u) or np.any(v)):
        ratios = copied_apriori_ratios(system, y, squared, f, v)
    known = np.hstack([y.multipliers[1:], v[:, 1:].T])
    traces = np.zeros((nt, pr.m))
    traces[:, 1:] = u[:, 1:].T
    return copied_readout(system, y, y.dofs[:-1], [fi[1:] for fi in f], known, traces), ratios


def copied_diagnose_adjoint(system, p, y):
    pr, tg = system.problem, system.problem.time_grid
    omega = tg.trapezoid_weights()
    src = [s - yd for s, yd in zip(list(system.samples(y.dofs)), pr.y_d)]
    misfit = sum(
        float(np.einsum("k,kj,j,kj->", omega, s, grid.trapezoid_weights(), s))
        for s, grid in zip(src, pr.grids)
    )
    reg = 0.0
    if misfit > 0.0 and pr.m > 0:
        beta_b = np.array([pr.coeffs[i].beta[-1] for i in range(pr.m)])
        reg = float(np.sum(omega[:, None] * (p.dirichlet_flux_series / beta_b) ** 2) / misfit)
    g = [(omega[1:] / tg.dt)[:, None] * s[1:] for s in src]
    prev = np.vstack([p.dofs[2:], np.zeros((1, system.ndof))])
    known = np.hstack([p.multipliers[1:], np.zeros((tg.Nt, pr.n - pr.m))])
    return copied_readout(system, p, prev, g, known, np.zeros((tg.Nt, pr.m))), reg


def assert_readouts_agree(d, ref):
    """The junction fluxes agree, and the probed tip fluxes equal the imposed
    ones, to 1e-12 relative to the scale of their terms; the squared
    energies agree to 1e-12 relative to that of theirs."""
    tip, known, junction, energy, cres, flux_scale, energy_scale = ref
    assert np.abs(tip - known).max() <= 1e-12 * flux_scale
    assert np.abs(d.junction_flux - junction).max() <= 1e-12 * flux_scale
    assert np.abs(d.energy**2 - energy**2).max() <= 1e-12 * energy_scale
    assert d.constraint_residual == cres


class TestDiagnosticsByProducts:
    """The diagnostics read off the DOF rows by products equal the formulas
    on copies of the trajectory they replace, and a solve keeps one
    trajectory-sized array."""

    @given(
        alpha=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
        Ms=st.lists(st.integers(2, 9), min_size=1, max_size=4),
        m_choice=st.integers(0, 2),
        Nt=st.one_of(st.just(1), st.integers(1, 6)),
        controlled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=1.0, Ms=[3, 5, 8], m_choice=0, Nt=1, controlled=False, seed=0)
    @example(alpha=0.5, Ms=[4], m_choice=0, Nt=1, controlled=True, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_products_equal_the_copy_based_formulas(
        self, alpha, Ms, m_choice, Nt, controlled, seed
    ):
        # alpha = 1 pins node 0; n = 1 takes m = 0 and m = 1, graphs m = n too
        rng = np.random.default_rng(seed)
        n = len(Ms)
        m = min(m_choice, 1) if n == 1 else [n, 2, max(2, n - 1)][m_choice]
        bs = tuple(rng.uniform(0.5, 1.5, n))
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=Nt, Ms=Ms, bs=bs,
                          with_data=bool(rng.integers(2)))
        pr = pr._replace(c0=float(rng.standard_normal()))
        scale = 1.0 if controlled else 0.0
        u = scale * rng.standard_normal((pr.n_dirichlet_channels, Nt + 1))
        v = scale * rng.standard_normal((pr.n_neumann_channels, Nt + 1))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, u, v, sys_)
        p = solve_adjoint_graph(pr, y, sys_)

        d = diagnose_forward(sys_, y, u, v)
        ref, ratios = copied_diagnose_forward(sys_, y, u, v, d.energy**2)
        assert_readouts_agree(d, ref)
        # the ratios keep the copies' sums, so they agree bitwise
        assert (d.estimate_ratio, d.estimate_ratio_T) == ratios

        d = diagnose_adjoint(sys_, p, y)
        ref, reg = copied_diagnose_adjoint(sys_, p, y)
        assert_readouts_agree(d, ref)
        assert d.boundary_regularity_ratio == reg

    def test_a_solve_keeps_one_trajectory_and_a_diagnosis_half_of_one(
        self, rng, traced_peak
    ):
        # with Nt >> M the trajectory outweighs every other array of a solve;
        # the tip traces and the multipliers take (n + m)/ndof = 7% of it
        n, M, Nt = 3, 24, 2000
        pr = random_graph(rng, n=n, m=2, Nt=Nt, Ms=(M,) * n, bs=(1.0, 0.8, 1.2))
        sys_ = assemble_graph_system(pr)
        traj, retained, _ = traced_peak(solve_forward_graph, pr, None, None, sys_)
        assert traj.dofs.shape == (Nt + 1, n * (M + 1) + 1)
        assert retained <= 1.1 * traj.dofs.nbytes
        # every diagnostic, the a-priori ratios included, above its inputs
        d, _, peak = traced_peak(diagnose_forward, sys_, traj)
        assert d.estimate_ratio > 0.0
        assert peak < 0.5 * traj.dofs.nbytes

    def test_each_sweep_holds_one_trajectory(self, rng, traced_peak):
        # the loads are formed and scaled in the rows the march fills, and the
        # adjoint marches through its own rows: above its inputs a sweep holds
        # its trajectory and transients of about one edge's share of it
        n, M, Nt = 3, 24, 2000
        pr = random_graph(rng, n=n, m=2, Nt=Nt, Ms=(M,) * n, bs=(1.0, 0.8, 1.2))
        sys_ = assemble_graph_system(pr)
        u = rng.standard_normal((1, Nt + 1))
        v = rng.standard_normal((1, Nt + 1))
        for controls in ((None, None), (u, v)):
            y, _, peak = traced_peak(solve_forward_graph, pr, *controls, sys_)
            assert peak < 2 * y.dofs.nbytes
        p, _, peak = traced_peak(solve_adjoint_graph, pr, y, sys_)
        assert p.dofs.flags.c_contiguous
        assert peak < 2 * p.dofs.nbytes

    def test_a_priori_ratios_hold_a_block_of_d(self, rng, traced_peak):
        # with M >> Nt an edge's M x (M + 1) derivative outweighs the
        # trajectory: D y is formed from a block of D's rows at a time
        n, M, Nt = 2, 1024, 4
        pr = random_graph(rng, n=n, m=2, Nt=Nt, Ms=(M,) * n, bs=(1.0, 1.0))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, system=sys_)
        d, _, peak = traced_peak(diagnose_forward, sys_, y)
        assert d.estimate_ratio > 0.0
        assert peak < 0.25 * 8 * M * (M + 1)

    @pytest.mark.parametrize("n, m", [(1, 0), (3, 2)])
    def test_samples_are_formed_when_read(self, rng, n, m):
        pr = random_graph(rng, n=n, m=m, Ms=(6, 5, 7)[:n], bs=(1.0, 0.8, 1.2)[:n])
        pr = pr._replace(c0=0.7)
        sys_ = assemble_graph_system(pr)
        dm = sys_.dofmap
        y = solve_forward_graph(pr, system=sys_)
        for traj in (y, solve_adjoint_graph(pr, y, sys_)):
            samples = traj.samples
            assert len(samples) == n
            for i in range(-n, n):
                s, k = samples[i], i % n
                assert s.tobytes() == sys_.samples(traj.dofs)[k].tobytes()
                nodal = traj.dofs[:, dm.edge_slice(k)]
                if dm.c_index is not None:
                    mode = singular_mode(pr.alpha, pr.grids[k])
                    nodal = nodal + np.multiply.outer(traj.c, mode)
                assert s.tobytes() == nodal.tobytes()
                # a new array on each read: a write to it does not persist
                assert not np.shares_memory(s, traj.dofs)
                s += 1.0
                assert samples[i].tobytes() == nodal.tobytes()
            assert [s.tobytes() for s in samples] == [
                sys_.samples(traj.dofs)[k].tobytes() for k in range(n)
            ]
            assert [s.tobytes() for s in samples[::-1]] == [
                s.tobytes() for s in reversed(samples)
            ]
            for bad in (n, -n - 1):
                with pytest.raises(IndexError):
                    samples[bad]

    def test_each_reader_forms_an_edge_once(self, rng, monkeypatch):
        # numpy's stacking reads a sequence twice: the readers take a list
        reads = []
        getitem = fracstar.graph_solver.EdgeSamples.__getitem__

        def counted(self, i):
            samples = getitem(self, i)  # an iteration's end raises, forming nothing
            reads.append(i)
            return samples

        monkeypatch.setattr(fracstar.graph_solver.EdgeSamples, "__getitem__", counted)
        pr = random_graph(rng, n=3, m=2)
        sys_ = assemble_graph_system(pr)
        controls = rng.standard_normal((pr.n_channels, pr.time_grid.Nt + 1))
        y = solve_forward_graph(pr, controls[:1], controls[1:], sys_)
        free = solve_forward_graph(pr, system=sys_)  # its a-priori ratios are measured
        p = solve_adjoint_graph(pr, y, sys_)
        reads.clear()
        for read in (
            lambda: cost_graph(y, controls, pr, CostConfig()),
            lambda: solve_adjoint_graph(pr, y, sys_),
            lambda: diagnose_adjoint(sys_, p, y),
        ):
            reads.clear()
            read()
            assert sorted(reads) == [0, 1, 2]
        # the a-priori ratios take the energy's norms and the nodal blocks
        reads.clear()
        diagnose_forward(sys_, free)
        assert reads == []
        reads.clear()
        reduced_hessian(sys_, CostConfig())
        assert sorted(reads) == sorted([0, 1, 2] * pr.n_channels)

    def test_sweeps_and_diagnostics_pair_the_mode_through_its_rows(self, rng):
        # a system whose modes are NaN but whose junction rows are real gives
        # the real system's numbers bitwise: the sweeps and the diagnostics
        # read the mode's pairings off JunctionRows.w and .k alone
        pr = random_graph(rng, n=3, m=2)
        sys_ = assemble_graph_system(pr)
        blind = sys_._replace(junctions=[
            JunctionRows(np.full_like(rows.mode, np.nan), rows.w, rows.k)
            for rows in sys_.junctions
        ])
        controls = rng.standard_normal((pr.n_channels, pr.time_grid.Nt + 1))
        u, v = controls[:1], controls[1:]

        def same(a, b):
            for name, x, z in zip(a._fields, a, b):
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == z.tobytes(), name
                elif not isinstance(x, fracstar.graph_solver.EdgeSamples):
                    assert x == z, name

        for args in ((u, v), (None, None)):  # the a-priori ratios without control
            y = solve_forward_graph(pr, *args, sys_)
            same(solve_forward_graph(pr, *args, blind), y)
            same(diagnose_forward(blind, y, *args), diagnose_forward(sys_, y, *args))
            p = solve_adjoint_graph(pr, y, sys_)
            same(solve_adjoint_graph(pr, y, blind), p)
            same(diagnose_adjoint(blind, p, y), diagnose_adjoint(sys_, p, y))
