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

Single-edge problems use ``n = 1`` (or omit ``n``) with one Neumann control
section ``[control.1]``; they are solved as the one-edge graph, so
``m_split`` is 0 or omitted there, and their control penalty is
``tikhonov_n`` (a ``[control.1] weight``, if given, must equal it).  Data
tokens are ``zero``, ``const:<v>`` or ``file:<path.csv>``; CSV
sources/targets hold ``nt+1`` rows of ``m_cells+1`` comma-separated values,
initial data a single row.

:func:`parse_config` reads a file in one pass, straight into the solver's
problem, cost and admissible sets, and reports every violation, data files
included, in one :class:`ConfigError`.  A key its section does not define
is a violation, and so are NaN and infinite values (a box bound may be
infinite as long as the box holds a real value).  An edge's messages start
with ``[edge.i] key``.

Commands: ``solve-forward``, ``solve-adjoint``, ``optimize``, ``validate``.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from dataclasses import dataclass, replace
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


@dataclass
class RunConfig:
    """A checked problem file in the solver's own types: the problem, its
    cost, one admissible set per control channel (``channels`` holds their
    section numbers) and the optimizer settings."""

    problem: StarGraphProblem
    cost: CostConfig
    sets: list[AdmissibleSet]
    channels: list[int]
    algo: str
    tol: float
    max_iter: int


def _data(token: str, key: str, base: Path, shape: tuple, errors: list[str]):
    """The array of a data token ``zero | const:<v> | file:<path.csv>``, or
    ``None`` with the violation added to ``errors``.  A ``None`` size in
    ``shape`` is one an invalid grid or ``nt`` leaves unknown: a file is then
    read and checked for finite values, but not for its shape."""
    token = token.strip()
    known = None not in shape
    if token == "zero":
        return np.zeros(shape) if known else None
    if token.startswith("const:"):
        source = f"data token {token!r}"
        try:
            data = np.full(shape if known else (), float(token[len("const:") :]))
        except ValueError:
            errors.append(f"{key}: bad constant in token {token!r}")
            return None
    elif token.startswith("file:"):
        path = base / token[len("file:") :]
        source = f"data file {path}"
        try:
            # an empty file warns; it is reported below, as a violation
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, delimiter=",", ndmin=len(shape))
        except (OSError, ValueError) as exc:
            errors.append(f"{key}: cannot read {source}: {exc}")
            return None
        if data.size == 0:
            errors.append(f"{key}: {source} holds no data")
            return None
        if known and data.shape != shape:
            errors.append(f"{key}: {source} has shape {data.shape}, expected {shape}")
            return None
    else:
        errors.append(f"{key}: unknown data token {token!r}")
        return None
    if not np.all(np.isfinite(data)):
        errors.append(f"{key}: {source} holds non-finite values")
        return None
    return data if known else None


def _parse_uad(token: str, key: str, errors: list[str]) -> AdmissibleSet | None:
    token = token.strip()
    if token == "unconstrained":
        return AdmissibleSet.unconstrained()
    parts = token.split(":")
    if parts[0] == "box" and len(parts) == 3:
        try:
            return AdmissibleSet.box(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            errors.append(f"{key}: bad admissible-set token {token!r} ({exc})")
            return None
    errors.append(f"{key}: bad admissible-set token {token!r}")
    return None


def _finite(v: float) -> bool:
    return -np.inf < v < np.inf


def _positive(v: float) -> bool:
    return 0.0 < v < np.inf


def _coefficient(token: str) -> float:
    """A constant coefficient, written ``<v>`` or ``const:<v>``."""
    return float(token.removeprefix("const:"))


# the keys each section defines
_PROBLEM_KEYS = ("alpha", "T", "nt", "n", "m_split")
_EDGE_KEYS = ("a", "b", "m_cells", "beta", "q", "f", "y0", "ydtarget")
_CONTROL_KEYS = ("kind", "uad", "weight")
_OPTIMIZER_KEYS = ("algo", "tol", "max_iter", "tikhonov_n")


def parse_config(path: str | Path) -> RunConfig:
    """Read a problem file in one pass into the solver's types: every key is
    checked and every data file loaded.  Raises :class:`ConfigError` carrying
    every violation found, not just the first."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"problem file {path} does not exist"])
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from None

    errors: list[str] = []

    def section(name):
        return cp[name] if cp.has_section(name) else {}

    def number(sec, label, key, ok, rule, default=None, kind=float):
        """The value of ``key`` if it parses and ``ok`` holds for it, else
        ``None`` with the violation recorded; ``default`` if it is absent."""
        raw = sec.get(key)
        if raw is None:
            if default is None:
                errors.append(f"{label}missing required key {key!r}")
            return default
        try:
            value = kind(raw)
        except ValueError:
            errors.append(f"{label}{key}: cannot parse {raw!r}")
            return None
        if not ok(value):
            errors.append(f"{label}{key} must {rule}, got {value}")
            return None
        return value

    prob = section("problem")
    if not cp.has_section("problem"):
        errors.append("missing [problem] section")
    alpha = number(prob, "", "alpha", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    T = number(prob, "", "T", _positive, "be positive and finite")
    nt = number(prob, "", "nt", lambda v: v >= 1, "be at least 1", kind=int)
    given_n = number(prob, "", "n", lambda v: v >= 1, "be at least 1", default=1, kind=int)
    n = given_n or 1
    # m_split is checked against a valid n only
    m_split = number(
        prob, "", "m_split",
        lambda v: given_n is None or (v == 0 if n == 1 else 2 <= v <= n),
        "be 0 on a single edge (n = 1)" if n == 1
        else f"satisfy 2 <= m_split <= n on a graph with n = {n}",
        default=0, kind=int,
    )
    # a single edge is the one-edge graph with m = 0; channels 2..m are Dirichlet
    m = 0 if n == 1 or m_split is None else m_split
    time_grid = None if T is None or nt is None else TimeGrid(T, nt)
    rows = None if nt is None else nt + 1
    base = path.parent

    grids, coeffs, fs, y0s, yds = [], [], [], [], []
    for i in range(1, n + 1):
        if not cp.has_section(f"edge.{i}"):
            errors.append(f"missing section [edge.{i}]")
            continue
        sec, label = cp[f"edge.{i}"], f"[edge.{i}] "
        a = number(sec, label, "a", _finite, "be finite")
        b = number(sec, label, "b", _finite, "be finite")
        m_cells = number(sec, label, "m_cells", lambda v: v >= 2, "be at least 2", kind=int)
        rule = "be positive and finite (the positivity assumption {0} >= {0}0 > 0)"
        beta = number(sec, label, "beta", _positive, rule.format("beta"), 1.0, _coefficient)
        q = number(sec, label, "q", _positive, rule.format("q"), 1.0, _coefficient)
        grid = None
        if a is not None and b is not None:
            if not a < b:
                errors.append(f"{label}empty interval [{a}, {b}]")
            elif m_cells is not None:
                grid = Grid1D(a, b, m_cells)
                grids.append(grid)
                if beta is not None and q is not None:
                    coeffs.append(EdgeCoefficients.constant(grid, beta, q))
        nodes = None if grid is None else grid.nnodes
        fs.append(_data(sec.get("f", "zero"), f"{label}f", base, (rows, nodes), errors))
        y0s.append(_data(sec.get("y0", "zero"), f"{label}y0", base, (nodes,), errors))
        yd = sec.get("ydtarget", "zero")
        yds.append(_data(yd, f"{label}ydtarget", base, (rows, nodes), errors))

    if len({g.a for g in grids}) > 1:
        errors.append("all edges of a star graph must share the left endpoint a")

    channels = list(range(2, n + 1)) if n >= 2 else [1]
    sets, weights = [], []
    for i in channels:
        sec, label = section(f"control.{i}"), f"control.{i}: "
        expected = "dirichlet" if i <= m else "neumann"
        kind = sec.get("kind", "").strip().lower() or expected
        if kind not in ("dirichlet", "neumann"):
            errors.append(f"{label}kind must be dirichlet or neumann, got {kind!r}")
        elif kind != expected and m_split is not None:
            errors.append(f"{label}edge {i} must be {expected}-controlled for m_split={m_split}")
        sets.append(_parse_uad(sec.get("uad", "unconstrained"), f"control.{i}.uad", errors))
        weights.append(number(sec, label, "weight", _positive, "be positive and finite", 1.0))

    named = {"problem": _PROBLEM_KEYS, "optimizer": _OPTIMIZER_KEYS}
    named |= {f"edge.{i}": _EDGE_KEYS for i in range(1, n + 1)}
    named |= {f"control.{i}": _CONTROL_KEYS for i in channels}
    for name in cp.sections():
        if name not in named:
            # checked against a valid n only, as m_split is
            if given_n is not None:
                errors.append(f"section [{name}] names nothing in a problem with n = {n}")
            continue
        for key in cp[name]:  # lower-cased by ConfigParser
            if key not in [k.lower() for k in named[name]]:
                known = ", ".join(named[name])
                errors.append(f"[{name}] {key}: unknown key (known: {known})")

    opt = section("optimizer")
    algo = (opt.get("algo", "projected_gradient") or "projected_gradient").strip()
    if algo not in ("projected_gradient", "fixed_point"):
        errors.append(f"optimizer.algo must be projected_gradient or fixed_point, got {algo!r}")
    label, rule = "optimizer.", "be positive and finite"
    tol = number(opt, label, "tol", _positive, rule, 1e-6)
    max_iter = number(opt, label, "max_iter", lambda v: v >= 1, "be at least 1", 200, int)
    tikhonov_n = number(opt, label, "tikhonov_n", _positive, rule, 1.0)
    if n == 1:
        # a single edge is penalized by tikhonov_n; a weight given must agree
        given = "weight" in section("control.1")
        if given and None not in (weights[0], tikhonov_n) and weights[0] != tikhonov_n:
            errors.append(
                f"control.1: weight = {weights[0]} differs from "
                f"optimizer.tikhonov_n = {tikhonov_n}, the penalty of a single edge"
            )
        weights = [tikhonov_n]

    if errors:
        raise ConfigError(errors)
    problem = StarGraphProblem(
        alpha=alpha, time_grid=time_grid, grids=grids, coeffs=coeffs, f=fs, y0=y0s, y_d=yds, m=m
    )
    cost = CostConfig(channel_weights=np.array(weights))
    return RunConfig(problem, cost, sets, channels, algo, tol, max_iter)


def _write_csv(path: Path, header: str, lead, labels, values) -> None:
    """Write ``header``, then one block of rows per entry of ``lead``: row
    ``r`` of block ``k`` is ``lead[k] + labels[r]`` followed by ``values[k, r]``
    with 17 significant digits.  ``lead`` and ``labels`` are text that carries
    its own separators, so each time and node is formatted once; a block is
    formatted by one ``%`` template built from them."""
    labels = [label.replace("%", "%%") for label in labels]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for key, row in zip(lead, values):
            key = key.replace("%", "%%")
            template = key + ("%.17g\n" + key).join(labels) + "%.17g\n"
            fh.write(template % tuple(row.tolist()))


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
    problem = cfg.problem
    system = assemble_graph_system(problem)
    traj = solve_forward_graph(problem, system=system)
    d = diagnose_forward(system, traj)
    kind = "graph" if problem.n >= 2 else "edge"
    report = []
    for name, pad, ratio, bound in (
        ("energy norm", "", d.estimate_ratio, d.estimate_bound),
        ("final time", " ", d.estimate_ratio_T, d.estimate_bound_T),
    ):
        # the relation that holds, and a warning where the bound does not
        holds = ratio <= bound
        report.append(
            f"{kind} a-priori estimate, {name}: {pad}measured {ratio:.17g}"
            f" {'<=' if holds else '>'} bound {bound:.17g}"
        )
        if not holds:
            print(
                f"warning: {kind} a-priori estimate, {name}: measured {ratio:.17g}"
                f" exceeds bound {bound:.17g}",
                file=sys.stderr,
            )
    if problem.n >= 2:
        junction = float(np.abs(d.junction_flux.sum(axis=1)).max())
        report += [
            f"junction flux balance, max residual: {junction:.17g}",
            f"dirichlet constraint, max residual:  {d.constraint_residual:.17g}",
        ]
    _finish(out, problem, traj.samples, report)
    return 0


def _cmd_solve_adjoint(cfg: RunConfig, out: Path) -> int:
    problem = cfg.problem
    system = assemble_graph_system(problem)
    fwd = solve_forward_graph(problem, system=system)
    adj = solve_adjoint_graph(problem, fwd, system=system)
    report = ["adjoint solve complete (source y - y_d)"]
    if problem.m > 0:
        ratio = diagnose_adjoint(system, adj, fwd).boundary_regularity_ratio
        report.append(f"boundary regularity ratio: {ratio:.17g}")
    _finish(out, problem, adj.samples, report)
    return 0


def _cmd_optimize(cfg: RunConfig, out: Path) -> int:
    problem = cfg.problem
    result = optimize(
        problem, cfg.cost, cfg.sets, algo=cfg.algo, tol=cfg.tol, max_iter=cfg.max_iter
    )
    times = [f"{t:.17g}," for t in problem.time_grid.times.tolist()]
    channels = [f"{ch}," for ch in cfg.channels]
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
        f"final cost {result.cost_history[-1]:.17g}, "
        f"stationarity {result.residual_history[-1]:.17g}",
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

    problem, cost_cfg = cfg.problem, cfg.cost
    grid0, alpha = problem.grids[0], problem.alpha

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
    if any(fi is not None and np.any(fi) for fi in problem.f):
        print("SKIP  energy-decay: the source f is nonzero")
    else:
        decayed = bool(np.all(np.diff(diag.energy) <= 1e-12))
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
