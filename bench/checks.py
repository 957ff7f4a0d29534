"""Correctness checks of the benchmark's outputs.

``check_outputs`` checks one CLI op from the files it wrote.  ``oracle_checks``
solves a down-sized copy of a workload in-process and checks it against the
dense space-time oracle and against finite differences of the cost; it uses
only names that the library keeps public, imported when the checks run so
that the caller can first put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from workloads import ALPHA, T_FINAL, Workload, make_data

JUNCTION_TOL = 1e-9
CONSTRAINT_TOL = 1e-10
ORACLE_TOL = 1e-11
# Central differences are exact on the quadratic cost up to rounding of
# order eps/h ~ 1e-11, so 1e-6 leaves a wide margin and still catches a
# wrong adjoint.
FD_TOL = 1e-6
FD_STEP = 1e-5
# Down-sized copies stay far below the oracle's limits of 200 DOFs and 64
# steps: the oracle's dense matrix has (steps * DOFs)^2 entries.
ORACLE_CELLS = 8
ORACLE_STEPS = 16

_NUM = r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf))"


def _find(pattern: str, text: str) -> list[str] | None:
    m = re.search(pattern, text)
    return list(m.groups()) if m else None


def _read_csv(path: Path, columns: int, rows: int, problems: list[str]) -> np.ndarray | None:
    if not path.exists():
        problems.append(f"{path.name} missing")
        return None
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        problems.append(f"{path.name} unreadable: {exc}")
        return None
    if data.shape != (rows, columns):
        problems.append(f"{path.name} has shape {data.shape}, expected {(rows, columns)}")
        return None
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name} holds non-finite values")
        return None
    return data


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], dict]:
    """Check the files of one op; return ``(problems, properties)``."""
    problems: list[str] = []
    props: dict = {}
    report = (out / "report.txt").read_text() if (out / "report.txt").exists() else ""
    if not report:
        problems.append("report.txt missing or empty")
    _read_csv(out / "state.csv", 4, (wl.nt + 1) * wl.n * (wl.m_cells + 1), problems)

    if wl.command == "solve-forward":
        for kind in ("energy norm", "final time"):
            got = _find(rf"a-priori estimate, {kind}:\s*measured {_NUM} <= bound {_NUM}", report)
            if got is None or not float(got[0]) <= float(got[1]):
                problems.append(f"a-priori ratio ({kind}) above its bound: {got}")
        got = _find(rf"junction flux balance, max residual:\s*{_NUM}", report)
        if got is None or not float(got[0]) <= JUNCTION_TOL:
            problems.append(f"junction flux balance {got} > {JUNCTION_TOL}")
        got = _find(rf"dirichlet constraint, max residual:\s*{_NUM}", report)
        if got is None or not float(got[0]) <= CONSTRAINT_TOL:
            problems.append(f"dirichlet constraint residual {got} > {CONSTRAINT_TOL}")
        return problems, props

    got = _find(r"iterations (\d+), converged True \(stationarity\)", report)
    if got is None:
        problems.append("optimizer did not stop with converged True (stationarity)")
    else:
        props["iterations"] = int(got[0])
    got = _find(rf"stationarity {_NUM}", report)
    if got is None or not float(got[0]) <= wl.tol:
        problems.append(f"final stationarity {got} > tol {wl.tol}")
    ctrl = _read_csv(out / "controls.csv", 3, (wl.nt + 1) * len(wl.channels), problems)
    if ctrl is not None:
        values = ctrl[:, 2]
        if np.any(np.abs(values) > wl.box):
            problems.append(f"controls leave the box [-{wl.box}, {wl.box}]")
        props["active_frac"] = float(np.mean(np.abs(values) == wl.box))
    return problems, props


def _problem(wl: Workload, data: dict):
    """Library problem and cost of a workload, built without the CLI."""
    from fracstar import (
        CostConfig,
        EdgeCoefficients,
        Grid1D,
        StarGraphProblem,
        TimeGrid,
    )

    tg = TimeGrid(T_FINAL, wl.nt)
    grids = [Grid1D(0.0, length, wl.m_cells) for length in wl.lengths]
    coeffs = [EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids]
    if wl.is_graph:
        problem = StarGraphProblem(
            alpha=ALPHA,
            time_grid=tg,
            grids=grids,
            coeffs=coeffs,
            f=data["f"],
            y0=data["y0"],
            y_d=data["yd"] or [None] * wl.n,
            m=wl.m_split,
        )
        cfg = CostConfig(channel_weights=np.full(wl.n - 1, wl.tikhonov))
    else:
        # The single edge with a free Neumann tip is the one-edge graph
        # with m = 0 and no junction mode.
        problem = StarGraphProblem(
            alpha=ALPHA,
            time_grid=tg,
            grids=grids,
            coeffs=coeffs,
            f=data["f"],
            y0=data["y0"],
            y_d=data["yd"],
            m=0,
            include_junction_mode=False,
        )
        cfg = CostConfig(n_tikhonov=wl.tikhonov, y_d=data["yd"][0])
    return problem, cfg


def oracle_checks(wl: Workload, seed: int) -> list[tuple[str, bool, str]]:
    """Oracle agreement and adjoint-gradient checks on a down-sized copy."""
    from fracstar import (
        EdgeControlProblem,
        assemble_stiffness,
        solve_adjoint_edge,
        solve_adjoint_graph,
        solve_forward_edge,
        solve_forward_graph,
    )
    from fracstar.validation import dense_oracle_solve_graph, finite_difference_gradient

    small = wl.resized(ORACLE_CELLS, ORACLE_STEPS)
    data = make_data(small, seed)
    graph, cfg = _problem(small, data)
    rng = np.random.default_rng([seed, 7])
    nch = len(small.channels)
    ctrl = rng.standard_normal((nch, small.nt + 1))
    omega = graph.time_grid.trapezoid_weights()
    nd = graph.n_dirichlet_channels

    if small.is_graph:
        problem = graph
        traj = solve_forward_graph(graph, ctrl[:nd], ctrl[nd:])
        dofs, mult = dense_oracle_solve_graph(graph, ctrl[:nd], ctrl[nd:])
        err = max(
            float(np.abs(traj.dofs - dofs).max()),
            float(np.abs(traj.multipliers - mult).max()),
        )
        adj = solve_adjoint_graph(graph, traj)
        # Optimality integrands of the graph problem: w u - (beta D p)(b) on
        # Dirichlet channels, w u + (I^(1-alpha) p)(b) on Neumann ones.
        grad = small.tikhonov * ctrl
        grad[:nd] -= adj.dirichlet_flux_series[:, 1:].T
        grad[nd:] += adj.neumann_trace_series.T
    else:
        op = assemble_stiffness(ALPHA, graph.grids[0], graph.coeffs[0])
        problem = EdgeControlProblem(
            edge_op=op, time_grid=graph.time_grid, f=data["f"][0], y0=data["y0"][0]
        )
        traj = solve_forward_edge(op, graph.time_grid, data["f"][0], data["y0"][0], ctrl[0])
        dofs, _ = dense_oracle_solve_graph(graph, None, ctrl)
        err = float(np.abs(traj.y - dofs).max())
        adj = solve_adjoint_edge(op, graph.time_grid, traj, cfg.y_d)
        # Optimality integrand of the edge problem: N u - (I^(1-alpha) p)(b).
        grad = small.tikhonov * ctrl - adj.trace_b[None, :]

    worst = 0.0
    for _ in range(3):
        delta = rng.standard_normal(ctrl.shape)
        fd = finite_difference_gradient(problem, cfg, ctrl, delta, FD_STEP)
        exact = float(np.einsum("jk,k,jk->", grad, omega, delta))
        worst = max(worst, abs(fd - exact) / max(1.0, abs(fd)))
    size = f"{small.ndof} DOFs x {small.nt} steps"
    return [
        ("oracle", err <= ORACLE_TOL, f"max deviation {err:.2e} ({size})"),
        ("adjoint-fd", worst <= FD_TOL, f"max relative error {worst:.2e} ({size})"),
    ]
