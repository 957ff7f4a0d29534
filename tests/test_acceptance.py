"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -s``).
"""

import math
import time

import numpy as np

from fracstar import (
    AdmissibleSet,
    CostConfig,
    EdgeCoefficients,
    Grid1D,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    diagnose_adjoint,
    diagnose_forward,
    gradient_graph,
    left_rl_derivative,
    optimize,
    reduced_hessian,
    right_caputo_nodal,
    solve_adjoint_edge,
    solve_adjoint_graph,
    solve_forward_edge,
    solve_forward_graph,
    trace_functional,
)
from fracstar.edge_solver import edge_problem
from fracstar.validation import (
    dense_edge_operators,
    dense_oracle_solve_graph,
    finite_difference_gradient,
)
from conftest import (
    diagnose_edge,
    edge_dofs,
    edge_operators,
    random_coeffs,
    random_edge,
    random_graph,
    trace_at_a,
)
from exact import Exact, heat, relative_l2q


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_integration_by_parts():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(101)
    for alpha in (0.3, 0.5, 0.7, 1.0):
        for _ in range(50):
            M = int(rng.integers(8, 65))
            grid = Grid1D(0.0, float(rng.uniform(0.5, 2.0)), M)
            wtr = grid.trapezoid_weights()
            D = left_rl_derivative(alpha, grid)
            rb = trace_functional(alpha, grid, "b")
            ra = trace_functional(alpha, grid, "a")
            y = rng.standard_normal(M + 1)
            phi = rng.standard_normal(M + 1)
            bracket = y[-1] * (rb @ phi) - y[0] * (ra @ phi)
            vol = grid.h * (y[:-1] @ (D @ phi))
            # integ1: <phi, D^a_b- y> = -[y I^(1-a) phi] + <y, D^a_a+ phi>
            lhs1 = phi @ (wtr * right_caputo_nodal(alpha, grid, y))
            worst = max(worst, abs(lhs1 - (-bracket + vol)))
            # integ2: the rearrangement <y, D^a_a+ phi> = [..] + <phi, D^a_b- y>
            worst = max(worst, abs(vol - (bracket + lhs1)))
            # integ1&2: the weighted-flux composition
            beta = 1.0 + rng.random(M + 1)
            g = 0.5 * (beta[:-1] + beta[1:]) * (D @ y)
            lhs3 = phi @ (wtr * right_caputo_nodal(alpha, grid, np.append(g, g[-1])))
            bracket3 = g[-1] * (rb @ phi) - g[0] * (ra @ phi)
            worst = max(worst, abs(lhs3 - (-bracket3 + grid.h * (g @ (D @ phi)))))
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max IBP residual {worst:.2e} <= 1e-12 over 4x50 random pairs "
        f"({elapsed:.2f} s)",
    )


def test_criterion_02_power_rule_convergence():
    t0 = time.time()
    worst_order = np.inf
    for alpha in (0.3, 0.5, 0.7):
        errs = []
        for M in (16, 32, 64, 128):
            grid = Grid1D(0.0, 1.0, M)
            vals = left_rl_derivative(alpha, grid) @ (grid.nodes**alpha)
            mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
            errs.append(np.abs(vals - math.gamma(alpha + 1.0))[mids >= 0.125].max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        worst_order = min(worst_order, orders.min())
    elapsed = time.time() - t0
    report(
        2,
        worst_order >= 0.9 and elapsed < 1.0,
        f"observed order {worst_order:.2f} >= 0.9 for the power rule "
        f"({elapsed:.2f} s)",
    )


def test_criterion_03_classical_limit():
    # alpha = 1 against y = tau(t) sin x with variable coefficients, refined
    # parabolically: space and time errors both fall by four
    t0 = time.time()
    beta = lambda s: 1.0 + 0.5 * s
    q = lambda s: 1.0 + 0.25 * np.sin(3.0 * s)
    errs = []
    for M, Nt in ((32, 128), (64, 512)):
        op, tg, f, y, v = heat(M, Nt, beta, lambda s: 0.5, q)
        traj = solve_forward_edge(op, tg, f, y[0], v)
        errs.append(relative_l2q(traj.y, y, op.grid, tg))
    coarse, fine = errs
    elapsed = time.time() - t0
    report(
        3,
        fine <= 2e-3 and coarse >= 3.5 * fine and elapsed < 10.0,
        f"relative L2(Q) error {fine:.2e} <= 2e-3 at M=64/Nt=512, "
        f"refinement ratio {coarse / fine:.2f} >= 3.5 ({elapsed:.1f} s)",
    )


def test_criterion_04_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_edge = 0.0
    for alpha in (0.4, 0.75, 1.0):
        op, tg, f, y0, v = random_edge(rng, alpha=alpha, M=8, Nt=4)
        if alpha == 1.0:
            y0[0] = 0.0
        traj = solve_forward_edge(op, tg, f, y0, v)
        # the edge's oracle is the graph oracle on the one-edge graph
        oracle, _ = dense_oracle_solve_graph(edge_problem(op, tg, f, y0), None, v[None])
        worst_edge = max(worst_edge, float(np.abs(traj.y - oracle).max()))
    worst_graph = 0.0
    for alpha in (0.4, 0.75, 1.0):
        pr = random_graph(rng, alpha=alpha, Nt=4, Ms=(6, 6, 6))
        u = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 5))
        traj = solve_forward_graph(pr, u, v)
        dofs, mult = dense_oracle_solve_graph(pr, u, v)
        worst_graph = max(worst_graph, float(np.abs(traj.dofs - dofs).max()))
        worst_graph = max(worst_graph, float(np.abs(traj.multipliers - mult).max()))
    elapsed = time.time() - t0
    report(
        4,
        worst_edge <= 1e-11 and worst_graph <= 1e-11 and elapsed < 5.0,
        f"stepper vs space-time oracle: edge {worst_edge:.2e}, graph "
        f"{worst_graph:.2e} <= 1e-11 ({elapsed:.1f} s)",
    )


def test_criterion_05_energy_decay_and_estimates():
    t0 = time.time()
    decay_ok = True
    worst_margin = np.inf
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        # decay: unforced, uncontrolled
        op, tg, _, y0, _ = random_edge(rng, alpha=float(rng.uniform(0.3, 1.0)), M=16, Nt=24)
        if op.alpha == 1.0:
            y0[0] = 0.0
        _, d = diagnose_edge(op, tg, None, y0, None)
        decay_ok &= bool(np.all(np.diff(d.energy) <= 1e-12))
        # nonhomogeneous estimate against the closed-form constant
        op, tg, f, y0, v = random_edge(rng, alpha=0.55, M=16, Nt=24)
        _, d = diagnose_edge(op, tg, f, y0, v)
        worst_margin = min(worst_margin, d.estimate_bound - d.estimate_ratio)
        worst_margin = min(worst_margin, d.estimate_bound_T - d.estimate_ratio_T)
        # homogeneous graph estimates and decay
        pr = random_graph(rng, alpha=float(rng.uniform(0.3, 0.99)), Nt=16)
        sys_ = assemble_graph_system(pr)
        g = diagnose_forward(sys_, solve_forward_graph(pr, system=sys_))
        worst_margin = min(worst_margin, g.estimate_bound - g.estimate_ratio)
        worst_margin = min(worst_margin, g.estimate_bound_T - g.estimate_ratio_T)
        pr = pr._replace(f=[None] * pr.n)
        sys_ = sys_._replace(problem=pr)
        g = diagnose_forward(sys_, solve_forward_graph(pr, system=sys_))
        decay_ok &= bool(np.all(np.diff(g.energy) <= 1e-12))
    # the implicit-Euler energy equality of every step, unforced, with zero
    # controls and clamped Dirichlet tips:
    # |y_k|^2/2 - |y_{k-1}|^2/2 + |y_k - y_{k-1}|^2/2 + dt <K y_k, y_k> = 0 in W
    worst_eq = 0.0
    rng = np.random.default_rng(505)
    for n, m in ((1, 0), (3, 2), (4, 4)):
        for alpha in (0.35, 0.7, 1.0):
            pr = random_graph(
                rng, alpha=alpha, n=n, m=m, Nt=16, Ms=(24,) * n, bs=(1.0, 0.8, 1.2, 0.9)[:n]
            )
            pr = pr._replace(
                f=[None] * n, c0=float(rng.standard_normal()) if n >= 2 else 0.0
            )
            if alpha == 1.0:
                for y0 in pr.y0:
                    y0[0] = 0.0
            sys_ = assemble_graph_system(pr)
            y = solve_forward_graph(pr, system=sys_).dofs
            K, W = (ops.sum(axis=0) for ops in dense_edge_operators(sys_.problem))
            half = 0.5 * np.einsum("ki,ij,kj->k", y, W, y)
            step = np.diff(y, axis=0)
            terms = np.stack([
                half[1:],
                -half[:-1],
                0.5 * np.einsum("ki,ij,kj->k", step, W, step),
                pr.time_grid.dt * np.einsum("ki,ij,kj->k", y[1:], K, y[1:]),
            ])
            resid = np.abs(terms.sum(axis=0)) / np.abs(terms).max(axis=0)
            worst_eq = max(worst_eq, float(resid.max()))
    # the same equality loaded by a source and the controls: pairing the
    # saddle step with y_k adds dt <l_k, y_k>, the source's work and each
    # Neumann control times its tip trace, and the multipliers' work against
    # the prescribed traces; so every tip's flux works against its trace.
    # The march and the dense oracle each satisfy it
    worst_loaded = 0.0
    for n, m, alpha in ((1, 0, 0.6), (3, 2, 0.6), (3, 2, 1.0)):
        pr = random_graph(rng, alpha=alpha, n=n, m=m, Nt=12, Ms=(12,) * n,
                          bs=(1.0, 0.8, 1.2)[:n])
        if alpha == 1.0:
            for y0 in pr.y0:
                y0[0] = 0.0
        u = rng.standard_normal((pr.n_dirichlet_channels, 13))
        v = rng.standard_normal((pr.n_neumann_channels, 13))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, v, sys_)
        for dofs, mult in ((traj.dofs, traj.multipliers),
                           dense_oracle_solve_graph(pr, u, v)):
            worst_loaded = max(worst_loaded, loaded_energy_residual(sys_, dofs, mult, u, v))
    elapsed = time.time() - t0
    report(
        5,
        decay_ok and worst_margin >= 0.0 and max(worst_eq, worst_loaded) <= 1e-12
        and elapsed < 10.0,
        f"monotone energy decay and estimate ratios within bounds "
        f"(smallest margin {worst_margin:.2f}) over 20 seeds; per-step energy "
        f"equality {worst_eq:.2e}, loaded {worst_loaded:.2e}, <= 1e-12 of its "
        f"largest term ({elapsed:.1f} s)",
    )


def loaded_energy_residual(system, dofs, mult, u, v):
    """The largest per-step residual of the loaded energy equality
    ``|y_k|^2/2 - |y_{k-1}|^2/2 + |y_k - y_{k-1}|^2/2 + dt <K y_k, y_k>
    = dt <f_k, y_k> + dt v_k . tr_k + dt lambda_k . d_k`` in ``W``, relative
    to its largest term: ``tr_k`` the Neumann tips' traces, ``lambda_k`` the
    multipliers and ``d_k`` the traces they prescribe (the root's zero, then
    ``u``)."""
    pr = system.problem
    dt, m = pr.time_grid.dt, pr.m
    K, W = (ops.sum(axis=0) for ops in dense_edge_operators(system.problem))
    y, step = dofs[1:], np.diff(dofs, axis=0)
    half = 0.5 * np.einsum("ki,ij,kj->k", dofs, W, dofs)
    source = sum(
        np.einsum("kj,j,kj->k", fi[1:], grid.trapezoid_weights(), s[1:])
        for fi, grid, s in zip(pr.f, pr.grids, system.samples(dofs))
    )
    prescribed = np.hstack([np.zeros((len(y), min(m, 1))), u[:, 1:].T])
    tips = y @ system.trace_b_rows.T
    terms = np.stack([
        half[1:],
        -half[:-1],
        0.5 * np.einsum("ki,ij,kj->k", step, W, step),
        dt * np.einsum("ki,ij,kj->k", y, K, y),
        -dt * source,
        -dt * np.einsum("kj,jk->k", tips[:, m:], v[:, 1:]),
        -dt * np.einsum("kj,kj->k", mult[1:], prescribed),
    ])
    return float((np.abs(terms.sum(axis=0)) / np.abs(terms).max(axis=0)).max())


def test_criterion_06_adjoint_gradient_fd():
    t0 = time.time()
    h = 1e-5
    worst = worst_exact = 0.0
    # single edge
    rng = np.random.default_rng(606)
    grid = Grid1D(0.0, 1.0, 16)
    tg = TimeGrid(1.0, 24)
    op = assemble_stiffness(0.6, grid, random_coeffs(rng, grid))
    f = rng.standard_normal((25, 17))
    y0 = rng.standard_normal(17)
    problem = edge_problem(op, tg, f, y0, rng.standard_normal((25, 17)))
    cfg = CostConfig(n_tikhonov=0.8)
    u = rng.standard_normal((1, 25))
    state = solve_forward_edge(op, tg, f, y0, u[0])
    adj = solve_adjoint_edge(op, tg, state, problem.y_d[0])
    # optimality integrand of the edge problem: N u - (I^(1-alpha) p)(b)
    g = cfg.n_tikhonov * u[0] - adj.trace_b
    om = tg.trapezoid_weights()
    for _ in range(10):
        delta = rng.standard_normal((1, 25))
        adj_dir = g @ (om * delta[0])
        fd = finite_difference_gradient(problem, cfg, u, delta, h)
        worst = max(worst, abs(fd - adj_dir) / max(1.0, abs(fd)))
        fd = finite_difference_gradient(problem, cfg, u, delta, 1.0)
        worst_exact = max(worst_exact, abs(fd - adj_dir) / max(1.0, abs(fd)))
    # graph
    pr = random_graph(rng, alpha=0.65, Nt=12, Ms=(10, 9, 11))
    gcfg = CostConfig()
    ctrl = rng.standard_normal((2, 13))
    gstate = solve_forward_graph(pr, ctrl[:1], ctrl[1:])
    gadj = solve_adjoint_graph(pr, gstate)
    gg = gradient_graph(ctrl, gadj, pr, gcfg)
    omg = pr.time_grid.trapezoid_weights()
    for _ in range(10):
        delta = rng.standard_normal((2, 13))
        fd = finite_difference_gradient(pr, gcfg, ctrl, delta, h)
        adj_dir = float(np.einsum("jk,k,jk->", gg, omg, delta))
        worst = max(worst, abs(fd - adj_dir) / max(1.0, abs(fd)))
        fd = finite_difference_gradient(pr, gcfg, ctrl, delta, 1.0)
        worst_exact = max(worst_exact, abs(fd - adj_dir) / max(1.0, abs(fd)))
    elapsed = time.time() - t0
    report(
        6,
        worst <= 1e-4 and worst_exact <= 1e-12 and elapsed < 60.0,
        f"adjoint vs central-difference gradients: max relative error "
        f"{worst:.2e} <= 1e-4 at h = 1e-5, {worst_exact:.2e} <= 1e-12 at h = 1 "
        f"(the cost is quadratic, so the difference is exact) ({elapsed:.1f} s)",
    )


def test_criterion_07_optimality_systems():
    t0 = time.time()
    # unconstrained single edge: projection formula holds at termination
    grid = Grid1D(0.0, 1.0, 32)
    tg = TimeGrid(1.0, 64)
    op = assemble_stiffness(0.6, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
    x = grid.nodes
    y_d = np.outer(np.sin(np.pi * tg.times), x * (1.5 - x))
    problem = edge_problem(op, tg, None, np.zeros(33), y_d)
    cfg = CostConfig(n_tikhonov=1.0)
    res = optimize(problem, cfg, AdmissibleSet(), tol=1e-8, max_iter=500)
    om = tg.trapezoid_weights()
    # the graph adjoint is the edge adjoint negated
    resid = cfg.n_tikhonov * res.controls[0] + res.adjoint.neumann_trace_series[:, 0]
    edge_metric = float(
        np.sqrt(om @ resid**2) / max(1.0, np.sqrt(om @ res.controls[0] ** 2))
    )

    # box-constrained graph at M_i = 32, Nt = 64, n = 3: Monte-Carlo audit of
    # the variational inequality
    rng = np.random.default_rng(707)
    ngrid = [Grid1D(0.0, b, 32) for b in (1.0, 0.9, 1.1)]
    ntg = TimeGrid(1.0, 64)
    yd = [
        np.outer(np.sin(np.pi * ntg.times), np.cos(np.pi * g.nodes / (2 * g.b))) * 2.0
        for g in ngrid
    ]
    pr = StarGraphProblem(
        alpha=0.7,
        time_grid=ntg,
        grids=ngrid,
        coeffs=[EdgeCoefficients.constant(g, 1.0, 1.0) for g in ngrid],
        f=[None] * 3,
        y0=[np.zeros(g.nnodes) for g in ngrid],
        y_d=yd,
        m=2,
    )
    gcfg = CostConfig()
    box = AdmissibleSet(-0.15, 0.15)
    gres = optimize(pr, gcfg, box, tol=1e-9, max_iter=400)
    gg = gradient_graph(gres.controls, gres.adjoint, pr, gcfg)
    omg = ntg.trapezoid_weights()
    worst_vi = np.inf
    for _ in range(100):
        vfeas = rng.uniform(-0.15, 0.15, size=gres.controls.shape)
        worst_vi = min(
            worst_vi,
            float(np.einsum("jk,k,jk->", gg, omg, vfeas - gres.controls)),
        )
    active = float(np.mean(np.abs(np.abs(gres.controls[:, 1:]) - 0.15) < 1e-12))
    elapsed = time.time() - t0
    report(
        7,
        edge_metric <= 1e-6 and worst_vi >= -1e-8 and elapsed < 300.0,
        f"edge projection residual {edge_metric:.2e} <= 1e-6; graph VI audit "
        f"min {worst_vi:.2e} >= -1e-8 with {100 * active:.0f}% active box "
        f"({elapsed:.1f} s)",
    )


def test_criterion_08_junction_physics():
    t0 = time.time()
    worst_flux = 0.0
    continuity_exact = True
    for seed in range(8):
        rng = np.random.default_rng(800 + seed)
        alpha = [0.35, 0.5, 0.75, 1.0][seed % 4]
        pr = random_graph(rng, alpha=alpha, Nt=12, Ms=(9, 8, 10))
        if alpha == 1.0:
            for y0 in pr.y0:
                y0[0] = 0.0
        u = rng.standard_normal((1, 13))
        v = rng.standard_normal((1, 13))
        sys_ = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, u, v, sys_)
        junction = diagnose_forward(sys_, traj, u, v).junction_flux
        worst_flux = max(worst_flux, float(np.abs(junction[1:].sum(axis=1)).max()))
        for i, op in enumerate(edge_operators(pr)):
            traces = edge_dofs(sys_, traj.dofs, i) @ trace_at_a(op, pr)
            continuity_exact &= bool(np.all(traces == traj.c))
    elapsed = time.time() - t0
    report(
        8,
        worst_flux <= 1e-12 and continuity_exact,
        f"junction flux balance {worst_flux:.2e} <= 1e-12 per step; trace "
        f"continuity bitwise exact ({elapsed:.1f} s)",
    )


def test_criterion_09_boundary_regularity():
    t0 = time.time()
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        pr = random_graph(rng, alpha=0.6, Nt=16, Ms=(12, 10, 14))
        sys_ = assemble_graph_system(pr)
        y = solve_forward_graph(pr, system=sys_)
        p = solve_adjoint_graph(pr, y, sys_)
        ratios.append(diagnose_adjoint(sys_, p, y).boundary_regularity_ratio)
    # frozen bound: three orders of magnitude above the measured spread at
    # this discretization (observed max 0.02)
    bound = 10.0
    elapsed = time.time() - t0
    report(
        9,
        np.all(np.isfinite(ratios)) and max(ratios) <= bound,
        f"tip-derivative trace ratio bounded: max {max(ratios):.3f} <= {bound} "
        f"over 20 instances ({elapsed:.1f} s)",
    )


def test_criterion_10_uniqueness_probe():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    grid = Grid1D(0.0, 1.0, 20)
    tg = TimeGrid(1.0, 32)
    op = assemble_stiffness(0.55, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
    y_d = np.outer(np.sin(np.pi * tg.times), grid.nodes * (1.2 - grid.nodes))
    problem = edge_problem(op, tg, None, np.zeros(21), y_d)
    cfg = CostConfig(n_tikhonov=1.0)
    tol = 1e-8
    r1 = optimize(problem, cfg, AdmissibleSet(), tol=tol, max_iter=500)
    r2 = optimize(
        problem, cfg, AdmissibleSet(), tol=tol, max_iter=500,
        u0=rng.standard_normal((1, 33)),
    )
    om = tg.trapezoid_weights()
    dist = float(np.sqrt(om @ (r1.controls[0] - r2.controls[0]) ** 2))
    # the certificate: the reduced Hessian of the one-edge graph is positive
    # definite (its Cholesky factor exists), and no eigenvalue falls below the
    # Tikhonov part min(w omega) of its diagonal, so the cost is strictly convex
    Q = reduced_hessian(assemble_graph_system(problem), cfg)
    np.linalg.cholesky(Q)
    eig = np.linalg.eigvalsh(Q)
    floor = float(np.min(np.outer(cfg.weights_for(problem), om[1:])))
    elapsed = time.time() - t0
    report(
        10,
        r1.converged and r2.converged and dist <= 10 * tol
        and eig[0] >= floor - 1e-12 * eig[-1],
        f"controls from two starts differ by {dist:.2e} <= {10 * tol:.0e}; "
        f"smallest Hessian eigenvalue {eig[0]:.3e} >= min(w omega) {floor:.3e} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_11_convergence_orders():
    # the orders of the state against the closed-form family of exact.py at
    # the finest pair, each gated at its measured order less 0.15; a junction
    # edge's node 0 holds c h^(alpha-1)/Gamma(alpha+1), which grows by design,
    # so the graph's samples are measured off it
    t0 = time.time()
    space = ((128, 4), (256, 4))  # (M, Nt); y0 is the steady state
    graph = dict(lengths=[1.0, 0.8, 1.2], kappa=[1.0, 0.5, -1.4 / 1.2], r=1, m=2)
    passed, lines = True, []

    def gate(label, make, levels, measured):
        nonlocal passed
        coarse, fine = (make(M, TimeGrid(1.0, Nt)).errors() for M, Nt in levels)
        orders = np.log2(coarse / fine)
        passed &= bool(np.all(orders >= np.asarray(measured) - 0.15))
        lines.append(f"{label} " + "/".join(f"{o:.2f}" for o in orders))

    for alpha, measured in ((0.4, (0.83, 0.85)), (0.6, (0.96, 0.97)), (0.8, (1.01, 1.02))):
        for mu, order in zip((0.0, 0.5), measured):
            gate(
                f"edge {alpha} mu={mu}",
                lambda M, tg: Exact(alpha, [1.0], M, tg, [1.0], 1, [mu]),
                space, order,
            )
    exact = max(
        Exact(1.0, [1.0], 256, TimeGrid(1.0, 4), [1.0], 1, [mu]).errors()[0]
        for mu in (0.0, 0.5)
    )
    passed &= exact <= 1e-12
    lines.append(f"edge 1.0 r=1 error {exact:.1e}")
    gate("edge 1.0 r=2", lambda M, tg: Exact(1.0, [1.0], M, tg, [1.0], 2), space, 2.00)
    # regular part, |c - c*| and the samples off node 0
    for alpha, measured in ((0.4, (0.83, 0.72, 0.69)), (0.6, (0.96, 0.69, 0.89)),
                            (0.8, (1.01, 1.11, 0.99))):
        gate(f"graph {alpha}", lambda M, tg: Exact(alpha, M=M, time_grid=tg, **graph),
             space, measured)
    # the same at the asymptotic pair, where the orders of c have settled
    for alpha, measured in ((0.4, (0.85, 0.85, 0.77)), (0.6, (0.98, 0.86, 0.94)),
                            (0.8, (1.02, 1.18, 1.01))):
        gate(f"graph {alpha} M=512->1024",
             lambda M, tg: Exact(alpha, M=M, time_grid=tg, **graph),
             ((512, 4), (1024, 4)), measured)
    # tau(t) drives the Dirichlet control and the source in time
    gate(
        "graph 0.6 tau Nt=M/2",
        lambda M, tg: Exact(0.6, M=M, time_grid=tg, varying=True, **graph),
        ((128, 64), (256, 128)), (0.99, 0.97, 0.94),
    )
    # at alpha = 1 and r = 1 space is exact: the error is implicit Euler's
    gate(
        "time 1.0 Nt=64->128",
        lambda M, tg: Exact(1.0, [1.0], M, tg, [1.0], 1, varying=True),
        ((16, 64), (16, 128)), 1.02,
    )
    elapsed = time.time() - t0
    report(
        11,
        passed and elapsed < 10.0,
        "orders at the finest pair >= measured - 0.15: " + "; ".join(lines)
        + f" ({elapsed:.1f} s)",
    )
