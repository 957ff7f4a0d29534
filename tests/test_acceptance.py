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
    EdgeControlProblem,
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
    right_caputo_apply,
    right_caputo_nodal,
    solve_adjoint_edge,
    solve_adjoint_graph,
    solve_forward_edge,
    solve_forward_graph,
    trace_functional,
)
from fracstar.edge_solver import edge_problem
from fracstar.validation import (
    classical_limit_solver,
    dense_oracle_solve_graph,
    finite_difference_gradient,
)
from conftest import (
    diagnose_edge,
    edge_operators,
    random_coeffs,
    random_edge,
    random_graph,
)


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
            lhs3 = phi @ (wtr * right_caputo_apply(alpha, grid, g))
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
    t0 = time.time()

    def run(M, Nt):
        beta = lambda s: 1.0 + 0.5 * s
        q = lambda s: 1.0 + 0.25 * np.sin(3.0 * s)
        grid = Grid1D(0.0, 1.0, M)
        tg = TimeGrid(1.0, Nt)
        op = assemble_stiffness(1.0, grid, EdgeCoefficients.from_callables(grid, beta, q))
        x = grid.nodes
        y0 = np.sin(0.5 * np.pi * x) ** 2 * x
        f = np.outer(np.ones(Nt + 1), np.cos(2.0 * np.pi * x))
        v = 0.3 * np.sin(2.0 * np.pi * tg.times)
        traj = solve_forward_edge(op, tg, f, y0, v)
        yc = classical_limit_solver(grid, tg, beta, q, f, y0, v)
        wx, om = grid.trapezoid_weights(), tg.trapezoid_weights()
        d = traj.y - yc
        return np.sqrt(
            np.einsum("k,kj,j,kj->", om, d, wx, d)
            / np.einsum("k,kj,j,kj->", om, yc, wx, yc)
        )

    coarse = run(32, 128)
    fine = run(64, 256)
    elapsed = time.time() - t0
    report(
        3,
        fine <= 0.02 and fine <= 0.5 * coarse and elapsed < 10.0,
        f"relative L2(Q) deviation {fine:.2e} <= 2% at M=64/Nt=256, "
        f"refinement ratio {coarse / fine:.2f} >= 2 ({elapsed:.1f} s)",
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
        pr.f = [None] * pr.n
        g = diagnose_forward(sys_, solve_forward_graph(pr, system=sys_))
        decay_ok &= bool(np.all(np.diff(g.energy) <= 1e-12))
    elapsed = time.time() - t0
    report(
        5,
        decay_ok and worst_margin >= 0.0 and elapsed < 10.0,
        f"monotone energy decay and estimate ratios within bounds "
        f"(smallest margin {worst_margin:.2f}) over 20 seeds ({elapsed:.1f} s)",
    )


def test_criterion_06_adjoint_gradient_fd():
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    # single edge
    rng = np.random.default_rng(606)
    grid = Grid1D(0.0, 1.0, 16)
    tg = TimeGrid(1.0, 24)
    op = assemble_stiffness(0.6, grid, random_coeffs(rng, grid))
    f = rng.standard_normal((25, 17))
    y0 = rng.standard_normal(17)
    problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=f, y0=y0)
    cfg = CostConfig(n_tikhonov=0.8, y_d=rng.standard_normal((25, 17)))
    u = rng.standard_normal((1, 25))
    state = solve_forward_edge(op, tg, f, y0, u[0])
    adj = solve_adjoint_edge(op, tg, state, cfg.y_d)
    # optimality integrand of the edge problem: N u - (I^(1-alpha) p)(b)
    g = cfg.n_tikhonov * u[0] - adj.trace_b
    om = tg.trapezoid_weights()
    for _ in range(10):
        delta = rng.standard_normal((1, 25))
        fd = finite_difference_gradient(problem, cfg, u, delta, h)
        worst = max(worst, abs(fd - g @ (om * delta[0])) / max(1.0, abs(fd)))
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
    elapsed = time.time() - t0
    report(
        6,
        worst <= 1e-4 and elapsed < 60.0,
        f"adjoint vs central-difference gradients: max relative error "
        f"{worst:.2e} <= 1e-4 ({elapsed:.1f} s)",
    )


def test_criterion_07_optimality_systems():
    t0 = time.time()
    # unconstrained single edge: projection formula holds at termination
    grid = Grid1D(0.0, 1.0, 32)
    tg = TimeGrid(1.0, 64)
    op = assemble_stiffness(0.6, grid, EdgeCoefficients.constant(grid, 1.0, 1.0))
    x = grid.nodes
    y_d = np.outer(np.sin(np.pi * tg.times), x * (1.5 - x))
    problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=None, y0=np.zeros(33))
    cfg = CostConfig(n_tikhonov=1.0, y_d=y_d)
    res = optimize(problem, cfg, AdmissibleSet.unconstrained(), tol=1e-8, max_iter=500)
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
    box = AdmissibleSet.box(-0.15, 0.15)
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
            traces = sys_.edge_dofs(traj.dofs, i) @ op.trace_a
            continuity_exact &= bool(np.all(traces == traj.c))
    elapsed = time.time() - t0
    report(
        8,
        worst_flux <= 1e-9 and continuity_exact,
        f"junction flux balance {worst_flux:.2e} <= 1e-9 per step; trace "
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
    problem = EdgeControlProblem(edge_op=op, time_grid=tg, f=None, y0=np.zeros(21))
    cfg = CostConfig(n_tikhonov=1.0, y_d=y_d)
    tol = 1e-8
    r1 = optimize(problem, cfg, AdmissibleSet.unconstrained(), tol=tol, max_iter=500)
    r2 = optimize(
        problem, cfg, AdmissibleSet.unconstrained(), tol=tol, max_iter=500,
        u0=rng.standard_normal((1, 33)),
    )
    om = tg.trapezoid_weights()
    dist = float(np.sqrt(om @ (r1.controls[0] - r2.controls[0]) ** 2))
    elapsed = time.time() - t0
    report(
        10,
        r1.converged and r2.converged and dist <= 10 * tol,
        f"controls from two starts differ by {dist:.2e} <= {10 * tol:.0e} "
        f"({elapsed:.1f} s)",
    )
