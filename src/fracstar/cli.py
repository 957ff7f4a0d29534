"""Command-line driver.

Problem files are INI-style key-value text::

    [problem]
    alpha = 0.6
    T = 1.0
    nt = 64
    n = 3
    m_split = 2

    [edge.1]
    a = 0.0
    b = 1.0
    m_cells = 32
    beta = const:1.0
    q = const:1.0
    f = zero
    y0 = zero
    ydtarget = const:0.5

    [control.2]
    kind = dirichlet
    uad = box:-1.0:1.0
    weight = 1.0

    [optimizer]
    algo = projected_gradient
    tol = 1e-6
    max_iter = 200
    tikhonov_n = 1.0

Single-edge problems use ``n = 1`` (or omit ``n``/``m_split``) with one
Neumann control section ``[control.1]``; they are solved as the one-edge
graph (``m_split = 0``) whose control penalty is ``tikhonov_n`` (a
``[control.1] weight``, if given, must equal it).  Data tokens
are ``zero``, ``const:<v>`` or ``file:<path.csv>``; CSV sources/targets hold
``nt+1`` rows of ``m_cells+1`` comma-separated values, initial data a single
row.

Commands: ``solve-forward``, ``solve-adjoint``, ``optimize``, ``validate``.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .control import AdmissibleSet, CostConfig, gradient_graph, optimize
from .errors import ConfigError, SizeGuardError, SolverFailure
from .fracops import left_rl_derivative, right_caputo_nodal, trace_functional
from .graph_solver import (
    StarGraphProblem,
    assemble_graph_system,
    diagnose_adjoint,
    diagnose_forward,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import Grid1D, TimeGrid
from .sturm import EdgeCoefficients
from .validation import dense_oracle_solve_graph

FMT = "{:.17g}"


@dataclass
class EdgeConfig:
    a: float
    b: float
    m_cells: int
    beta: float
    q: float
    f: str
    y0: str
    ydtarget: str


@dataclass
class ControlConfig:
    kind: str
    uad: AdmissibleSet
    weight: float


@dataclass
class RunConfig:
    """Validated mirror of a problem file."""

    alpha: float
    T: float
    nt: int
    n: int
    m_split: int
    edges: list[EdgeConfig]
    controls: dict[int, ControlConfig]
    algo: str
    tol: float
    max_iter: int
    tikhonov_n: float
    base_dir: Path = field(default_factory=Path)

    @property
    def is_graph(self) -> bool:
        return self.n >= 2


def _parse_coeff(token: str, key: str, errors: list[str]) -> float:
    token = token.strip()
    if token.startswith("const:"):
        token = token[len("const:") :]
    try:
        return float(token)
    except ValueError:
        errors.append(f"{key}: cannot parse coefficient token {token!r}")
        return 1.0


def _check_data_token(token: str, key: str, base: Path, errors: list[str]) -> str:
    token = token.strip()
    if token == "zero" or token.startswith("const:"):
        if token.startswith("const:"):
            try:
                float(token[len("const:") :])
            except ValueError:
                errors.append(f"{key}: bad constant in token {token!r}")
        return token
    if token.startswith("file:"):
        path = base / token[len("file:") :]
        if not path.exists():
            errors.append(f"{key}: referenced file {path} does not exist")
        return token
    errors.append(f"{key}: unknown data token {token!r}")
    return "zero"


def _parse_uad(token: str, key: str, errors: list[str]) -> AdmissibleSet:
    token = token.strip()
    if token == "unconstrained":
        return AdmissibleSet.unconstrained()
    if token.startswith("box:"):
        parts = token.split(":")
        if len(parts) == 3:
            try:
                lo, hi = float(parts[1]), float(parts[2])
                if lo > hi:
                    errors.append(f"{key}: box bounds reversed ({lo} > {hi})")
                    return AdmissibleSet.unconstrained()
                return AdmissibleSet.box(lo, hi)
            except ValueError:
                pass
    errors.append(f"{key}: bad admissible-set token {token!r}")
    return AdmissibleSet.unconstrained()


def parse_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a problem file; raises :class:`ConfigError`
    carrying every violation found, not just the first."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"problem file {path} does not exist"])
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from None

    errors: list[str] = []
    prob = cp["problem"] if cp.has_section("problem") else {}
    if not cp.has_section("problem"):
        errors.append("missing [problem] section")

    def fget(sec, key, default=None, kind=float):
        raw = sec.get(key)
        if raw is None:
            if default is None:
                errors.append(f"missing required key {key!r}")
                return kind(1)
            return default
        try:
            return kind(raw)
        except (TypeError, ValueError):
            errors.append(f"key {key!r}: cannot parse {raw!r}")
            return kind(1)

    alpha = fget(prob, "alpha")
    T = fget(prob, "T")
    nt = fget(prob, "nt", kind=int)
    n = fget(prob, "n", default=1, kind=int)
    m_split = fget(prob, "m_split", default=0, kind=int)

    if not 0.0 < alpha <= 1.0:
        errors.append(f"alpha must lie in (0, 1], got {alpha}")
    if T <= 0.0:
        errors.append(f"T must be positive, got {T}")
    if nt < 1:
        errors.append(f"nt must be at least 1, got {nt}")
    if n < 1:
        errors.append(f"n must be at least 1, got {n}")
    if n >= 2 and not 2 <= m_split <= n:
        errors.append(f"graph requires 2 <= m_split <= n, got m_split={m_split}, n={n}")

    edges: list[EdgeConfig] = []
    for i in range(1, max(n, 1) + 1):
        sec_name = f"edge.{i}"
        if not cp.has_section(sec_name):
            errors.append(f"missing section [{sec_name}]")
            edges.append(EdgeConfig(0.0, 1.0, 8, 1.0, 1.0, "zero", "zero", "zero"))
            continue
        sec = cp[sec_name]
        a = fget(sec, "a")
        b = fget(sec, "b")
        mc = fget(sec, "m_cells", kind=int)
        beta = _parse_coeff(sec.get("beta", "1.0"), f"{sec_name}.beta", errors)
        q = _parse_coeff(sec.get("q", "1.0"), f"{sec_name}.q", errors)
        if b <= a:
            errors.append(f"{sec_name}: empty interval [{a}, {b}]")
        if mc < 2:
            errors.append(f"{sec_name}: m_cells must be at least 2, got {mc}")
        if beta <= 0.0:
            errors.append(
                f"{sec_name}: beta = {beta} violates the positivity assumption "
                "(beta >= beta0 > 0)"
            )
        if q <= 0.0:
            errors.append(
                f"{sec_name}: q = {q} violates the positivity assumption (q >= q0 > 0)"
            )
        fj = _check_data_token(sec.get("f", "zero"), f"{sec_name}.f", path.parent, errors)
        y0 = _check_data_token(sec.get("y0", "zero"), f"{sec_name}.y0", path.parent, errors)
        yd = _check_data_token(
            sec.get("ydtarget", "zero"), f"{sec_name}.ydtarget", path.parent, errors
        )
        edges.append(EdgeConfig(a, b, mc, beta, q, fj, y0, yd))

    if n >= 2:
        a0 = edges[0].a
        if any(e.a != a0 for e in edges):
            errors.append("all edges of a star graph must share the left endpoint a")

    controls: dict[int, ControlConfig] = {}
    channel_range = range(2, n + 1) if n >= 2 else range(1, 2)
    for i in channel_range:
        sec_name = f"control.{i}"
        expected = "neumann" if (n == 1 or i > m_split) else "dirichlet"
        if not cp.has_section(sec_name):
            controls[i] = ControlConfig(expected, AdmissibleSet.unconstrained(), 1.0)
            continue
        sec = cp[sec_name]
        kind = sec.get("kind", "").strip().lower() or expected
        if kind not in ("dirichlet", "neumann"):
            errors.append(f"{sec_name}: kind must be dirichlet or neumann, got {kind!r}")
        elif kind != expected:
            errors.append(
                f"{sec_name}: edge {i} must be {expected}-controlled for m_split={m_split}"
            )
        uad = _parse_uad(sec.get("uad", "unconstrained"), f"{sec_name}.uad", errors)
        weight = fget(sec, "weight", default=1.0)
        if weight <= 0.0:
            errors.append(f"{sec_name}: weight must be positive, got {weight}")
        controls[i] = ControlConfig(kind, uad, weight)

    named = {"problem", "optimizer"} | {f"edge.{i}" for i in range(1, len(edges) + 1)}
    named |= {f"control.{i}" for i in channel_range}
    for sec_name in cp.sections():
        if sec_name not in named:
            errors.append(f"section [{sec_name}] names nothing in a problem with n = {n}")

    opt = cp["optimizer"] if cp.has_section("optimizer") else {}
    algo = (opt.get("algo", "projected_gradient") or "projected_gradient").strip()
    if algo not in ("projected_gradient", "fixed_point"):
        errors.append(f"optimizer.algo must be projected_gradient or fixed_point, got {algo!r}")
    tol = fget(opt, "tol", default=1e-6)
    max_iter = fget(opt, "max_iter", default=200, kind=int)
    tikhonov_n = fget(opt, "tikhonov_n", default=1.0)
    if tol <= 0.0:
        errors.append(f"optimizer.tol must be positive, got {tol}")
    if max_iter < 1:
        errors.append(f"optimizer.max_iter must be at least 1, got {max_iter}")
    if tikhonov_n <= 0.0:
        errors.append(f"optimizer.tikhonov_n must be positive, got {tikhonov_n}")
    if n == 1:
        # a single edge is penalized by tikhonov_n; a weight given must agree
        sec = cp["control.1"] if cp.has_section("control.1") else {}
        if "weight" in sec and controls[1].weight != tikhonov_n:
            errors.append(
                f"control.1: weight = {controls[1].weight} differs from "
                f"optimizer.tikhonov_n = {tikhonov_n}, the penalty of a single edge"
            )
        controls[1].weight = tikhonov_n

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        alpha=alpha,
        T=T,
        nt=nt,
        n=n,
        m_split=m_split if n >= 2 else 0,
        edges=edges,
        controls=controls,
        algo=algo,
        tol=tol,
        max_iter=max_iter,
        tikhonov_n=tikhonov_n,
        base_dir=path.parent,
    )


def _data_array(token: str, base: Path, shape: tuple, key: str, errors: list[str]):
    """The data array of a token, or zeros with a violation added to ``errors``."""
    if token == "zero":
        return np.zeros(shape)
    if token.startswith("const:"):
        data, source = np.full(shape, float(token[len("const:") :])), f"data token {token!r}"
    else:
        path = base / token[len("file:") :]
        source = f"data file {path}"
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=len(shape))
        except (OSError, ValueError) as exc:
            errors.append(f"{key}: cannot read {source}: {exc}")
            return np.zeros(shape)
        if data.shape != shape:
            errors.append(f"{key}: {source} has shape {data.shape}, expected {shape}")
            return np.zeros(shape)
    if not np.all(np.isfinite(data)):
        errors.append(f"{key}: {source} holds non-finite values")
    return data


def _build(cfg: RunConfig):
    """Star-graph problem, cost and per-channel admissible sets of a problem
    file, or a :class:`ConfigError` naming every unusable data file.  A single
    edge is the one-edge graph (``m_split = 0``, channel 1) whose control
    weight :func:`parse_config` has set to ``tikhonov_n``."""
    tg = TimeGrid(cfg.T, cfg.nt)
    grids, coeffs, fs, y0s, yds = [], [], [], [], []
    errors: list[str] = []
    for i, e in enumerate(cfg.edges, start=1):
        grid = Grid1D(e.a, e.b, e.m_cells)
        grids.append(grid)
        coeffs.append(EdgeCoefficients.constant(grid, e.beta, e.q))
        shape_xt = (cfg.nt + 1, grid.nnodes)
        fs.append(_data_array(e.f, cfg.base_dir, shape_xt, f"[edge.{i}] f", errors))
        y0s.append(_data_array(e.y0, cfg.base_dir, (grid.nnodes,), f"[edge.{i}] y0", errors))
        yds.append(_data_array(e.ydtarget, cfg.base_dir, shape_xt, f"[edge.{i}] ydtarget", errors))
    if errors:
        raise ConfigError(errors)
    problem = StarGraphProblem(
        alpha=cfg.alpha,
        time_grid=tg,
        grids=grids,
        coeffs=coeffs,
        f=fs,
        y0=y0s,
        y_d=yds,
        m=cfg.m_split,
    )
    weights = [ctl.weight for ctl in cfg.controls.values()]
    cost_cfg = CostConfig(channel_weights=np.array(weights))
    sets = [ctl.uad for ctl in cfg.controls.values()]
    return problem, cost_cfg, sets


def _write_csv(path: Path, header: str, lead, labels, values) -> None:
    """Write ``header``, then one block of rows per entry of ``lead``: row
    ``r`` of block ``k`` is ``lead[k] + labels[r]`` followed by ``values[k, r]``
    with 17 significant digits.  ``lead`` and ``labels`` are text that carries
    its own separators, so each time and node is formatted once."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for key, row in zip(lead, values):
            cells = zip(labels, row.tolist())
            fh.write("".join([f"{key}{label}{v:.17g}\n" for label, v in cells]))


def _report_lines(kind, ratio, bound, ratio_T, bound_T, extra=()):
    lines = [
        f"{kind} a-priori estimate, energy norm: measured {FMT.format(ratio)}"
        f" <= bound {FMT.format(bound)}",
        f"{kind} a-priori estimate, final time:  measured {FMT.format(ratio_T)}"
        f" <= bound {FMT.format(bound_T)}",
    ]
    lines.extend(extra)
    return lines


def _finish(out: Path, problem: StarGraphProblem, states, report: list[str]) -> None:
    """Write the per-edge states to ``state.csv`` and the report to
    ``report.txt``, and echo the report."""
    times = [f"{t:.17g}," for t in problem.time_grid.times.tolist()]
    nodes = [
        f"{i + 1},{x:.17g},"
        for i, g in enumerate(problem.grids)
        for x in g.nodes.tolist()
    ]
    _write_csv(out / "state.csv", "t,edge,x,y", times, nodes, np.hstack(states))
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))


def _cmd_solve_forward(cfg: RunConfig, out: Path) -> int:
    problem, _, _ = _build(cfg)
    system = assemble_graph_system(problem)
    traj = solve_forward_graph(problem, system=system)
    d = diagnose_forward(system, traj)
    extra = []
    if cfg.is_graph:
        junction = float(np.abs(d.junction_flux.sum(axis=1)).max())
        extra = [
            f"junction flux balance, max residual: {FMT.format(junction)}",
            f"dirichlet constraint, max residual:  {FMT.format(d.constraint_residual)}",
        ]
    report = _report_lines(
        "graph" if cfg.is_graph else "edge", d.estimate_ratio, d.estimate_bound,
        d.estimate_ratio_T, d.estimate_bound_T, extra,
    )
    _finish(out, problem, traj.samples, report)
    return 0


def _cmd_solve_adjoint(cfg: RunConfig, out: Path) -> int:
    problem, _, _ = _build(cfg)
    system = assemble_graph_system(problem)
    fwd = solve_forward_graph(problem, system=system)
    adj = solve_adjoint_graph(problem, fwd, system=system)
    report = ["adjoint solve complete (source y - y_d)"]
    if problem.m > 0:
        ratio = diagnose_adjoint(system, adj, fwd).boundary_regularity_ratio
        report.append(f"boundary regularity ratio: {FMT.format(ratio)}")
    _finish(out, problem, adj.samples, report)
    return 0


def _cmd_optimize(cfg: RunConfig, out: Path) -> int:
    problem, cost_cfg, sets = _build(cfg)
    result = optimize(
        problem, cost_cfg, sets, algo=cfg.algo, tol=cfg.tol, max_iter=cfg.max_iter
    )
    times = [f"{t:.17g}," for t in problem.time_grid.times.tolist()]
    channels = [f"{ch}," for ch in cfg.controls]
    _write_csv(
        out / "controls.csv", "t,channel,value", times, channels, result.controls.T
    )
    iterates = [f"{it},{c:.17g}," for it, c in enumerate(result.cost_history.tolist())]
    _write_csv(
        out / "convergence.csv", "iter,cost,stationarity", iterates, [""],
        result.residual_history[:, None],
    )
    report = [
        f"optimizer: {cfg.algo}, iterations {result.iterations}, "
        f"converged {result.converged} ({result.reason})",
        f"final cost {FMT.format(result.cost_history[-1])}, "
        f"stationarity {FMT.format(result.residual_history[-1])}",
    ]
    _finish(out, problem, result.state.samples, report)
    if not result.converged:
        print(f"warning: not converged ({result.reason})", file=sys.stderr)
    return 0 if result.converged or result.reason == "max_iter" else 3


def _cmd_validate(cfg: RunConfig, out: Path) -> int:
    rng = np.random.default_rng(20240901)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")

    grid0 = Grid1D(cfg.edges[0].a, cfg.edges[0].b, cfg.edges[0].m_cells)
    alpha = cfg.alpha

    # integration by parts, built by transposition
    D = left_rl_derivative(alpha, grid0)
    wtr = grid0.trapezoid_weights()
    rb = trace_functional(alpha, grid0, "b")
    ra = trace_functional(alpha, grid0, "a")
    worst = 0.0
    for _ in range(10):
        yv = rng.standard_normal(grid0.nnodes)
        phi = rng.standard_normal(grid0.nnodes)
        cy = right_caputo_nodal(alpha, grid0, yv)
        lhs = float(phi @ (wtr * cy))
        rhs = (
            -(yv[-1] * (rb @ phi) - yv[0] * (ra @ phi))
            + grid0.h * float(yv[:-1] @ (D @ phi))
        )
        worst = max(worst, abs(lhs - rhs))
    record("integration-by-parts", worst <= 1e-12, f"max residual {worst:.3e}")

    # trace telescoping
    worst = 0.0
    for _ in range(10):
        yv = rng.standard_normal(grid0.nnodes)
        worst = max(
            worst, abs((rb - ra) @ yv - grid0.h * float(np.sum(D @ yv)))
        )
    record("trace-telescoping", worst <= 1e-12, f"max residual {worst:.3e}")

    problem, cost_cfg, _ = _build(cfg)
    system = assemble_graph_system(problem)
    fwd = solve_forward_graph(problem, system=system)
    diag = diagnose_forward(system, fwd)
    try:
        dofs, _ = dense_oracle_solve_graph(problem, system=system)
        err = float(np.abs(fwd.dofs - dofs).max())
        record("oracle-equivalence", err <= 1e-11, f"max deviation {err:.3e}")
    except SizeGuardError as exc:
        print(f"SKIP  oracle-equivalence: {exc}")
    jf = float(np.abs(diag.junction_flux[1:].sum(axis=1)).max())
    record("junction-balance", jf <= 1e-9, f"max residual {jf:.3e}")
    record(
        "dirichlet-constraints",
        diag.constraint_residual <= 1e-10,
        f"max residual {diag.constraint_residual:.3e}",
    )
    decayed = bool(np.all(np.diff(diag.energy) <= 1e-12)) if np.all(
        [fi is None or not np.any(fi) for fi in problem.f]
    ) else True
    record("energy-decay", decayed, "monotone" if decayed else "violated")

    # duality of the forward/adjoint pair: the misfit paired with the state z
    # of zero data and random controls equals the controls paired with the
    # channel-wise boundary series of the adjoint
    tg = problem.time_grid
    omega = tg.trapezoid_weights()
    ctrl = rng.standard_normal((problem.n_channels, tg.Nt + 1))
    target = replace(problem, y_d=[rng.standard_normal(s.shape) for s in fwd.samples])
    adj = solve_adjoint_graph(target, fwd, system=system)
    zero = replace(
        problem,
        f=[None] * problem.n,
        y0=[np.zeros(g.nnodes) for g in problem.grids],
        c0=0.0,
    )
    nd = problem.n_dirichlet_channels
    z = solve_forward_graph(zero, ctrl[:nd], ctrl[nd:], system=system)
    lhs = sum(
        float(np.einsum("k,kj,j,kj->", omega, fwd.samples[i] - target.y_d[i],
                        g.trapezoid_weights(), z.samples[i]))
        for i, g in enumerate(problem.grids)
    )
    grad = gradient_graph(np.zeros_like(ctrl), adj, problem, cost_cfg)
    rhs = float(np.einsum("jk,k,jk->", ctrl, omega, grad))
    record("duality", abs(lhs - rhs) <= 1e-8, f"residual {abs(lhs - rhs):.3e}")

    failed = [name for name, ok, _ in checks if not ok]
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" for name, ok, detail in checks
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    return 4 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracstar",
        description="Fractional Sturm-Liouville solver and boundary-control driver",
    )
    parser.add_argument("--output-dir", default=".", help="directory for CSV/report output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-forward", "solve-adjoint", "optimize", "validate"):
        p = sub.add_parser(name)
        p.add_argument("problem_file")
    args = parser.parse_args(argv)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = parse_config(args.problem_file)
        if args.command == "solve-forward":
            return _cmd_solve_forward(cfg, out)
        if args.command == "solve-adjoint":
            return _cmd_solve_adjoint(cfg, out)
        if args.command == "optimize":
            return _cmd_optimize(cfg, out)
        return _cmd_validate(cfg, out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
