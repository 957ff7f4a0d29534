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

Values are read literally (``%`` is not special), and a ``;`` after
whitespace starts a comment.  Single-edge problems use ``n = 1`` (or omit
``n``) with one Neumann control section ``[control.1]``; they are solved as
the one-edge graph, so ``m_split`` is 0 or omitted there.  Every channel is
penalized by its ``weight``, which defaults to ``tikhonov_n`` (itself 1 by
default); a ``weight`` and a ``tikhonov_n`` both written must be equal.
Data tokens are ``zero``, ``const:<v>`` or ``file:<path.csv>``; CSV
sources/targets hold ``nt+1`` rows of ``m_cells+1`` comma-separated values,
initial data a single row.

:func:`parse_config` reads a file in one pass, straight into the solver's
problem, its assembled system, cost and admissible sets, and reports every
violation, data files included, in one :class:`ConfigError`.  A key its
section does not define is a violation, and so are NaN and infinite values
(a box bound may be infinite as long as the box holds a real value).  An
edge's messages start with ``[edge.i] key``.

Commands: ``solve-forward``, ``solve-adjoint``, ``optimize``, ``validate``.
Exit codes: 0 success, 2 config or output error, 3 solver failure, 4
validation failure.

Large data files are parsed, and a large ``state.csv`` formatted, by this
process and forked workers, one per CPU, at most 8 in all
(:mod:`fracstar._csvio`).  The workers take the files one by one while this
process assembles, and it reads the ones left once it has assembled;
``solve-forward`` hands the workers each time step as the march finishes it,
and formats the steps left when it closes.  The arrays and bytes are one
process's.

A CLI process (the ``fracstar`` command or ``python -m fracstar.cli``) enters
through :func:`run`.  Unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS`` is set, it runs numpy's bundled OpenBLAS on one thread,
since the last digits of the outputs depend on the thread count.  It also
freezes the garbage collector's view of the heap once the modules are
imported (:func:`gc.freeze`): the collections at exit then skip everything
import built, and the forked CSV workers start from a frozen heap.
:func:`main` called from Python freezes nothing and leaves the BLAS threads
alone.
"""

import argparse
import configparser
import gc
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._csvio import RowWriter, read_csv_files
from .control import ALGORITHMS, AdmissibleSet, CostConfig, gradient_graph, optimize
from .errors import ConfigError, SizeGuardError, SolverFailure
from .fracops import left_rl_derivative, right_caputo_nodal, trace_functional
from .graph_solver import (
    GraphSystem,
    StarGraphProblem,
    _misfit,
    assemble_graph_system,
    diagnose_adjoint,
    diagnose_forward,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import Grid1D, TimeGrid
from .sturm import EdgeCoefficients


class RunConfig(NamedTuple):
    """A checked problem file in the solver's own types: the problem, its
    cost, one admissible set per control channel (``channels`` holds their
    section numbers), the optimizer settings and the assembled system."""

    problem: StarGraphProblem
    cost: CostConfig
    sets: list[AdmissibleSet]
    channels: list[int]
    algo: str
    tol: float
    max_iter: int
    system: GraphSystem


def _data_file(token: str, base: Path) -> Path | None:
    """The path a ``file:<path.csv>`` data token names, else ``None``."""
    token = token.strip()
    return base / token[len("file:") :] if token.startswith("file:") else None


def _data(token: str, key: str, base: Path, files: dict, shape: tuple, errors: list[str]):
    """The array of a data token ``zero | const:<v> | file:<path.csv>``, or
    ``None`` with the violation added to ``errors``; ``files`` holds what
    :func:`read_csv_files` read from each data file.  A ``None`` size in
    ``shape`` is one an invalid grid or ``nt`` leaves unknown: a file is then
    checked for finite values, but not for its shape."""
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
    elif (path := _data_file(token, base)) is not None:
        source = f"data file {path}"
        data = files[path]
        if isinstance(data, str):
            errors.append(f"{key}: cannot read {source}: {data}")
            return None
        if len(shape) == 1:
            # as np.loadtxt reads the file with ndmin=1
            data = np.atleast_1d(data.squeeze())
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
        return AdmissibleSet()
    parts = token.split(":")
    if parts[0] == "box" and len(parts) == 3:
        try:
            return AdmissibleSet(float(parts[1]), float(parts[2]))
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
    checked, every data file loaded while the system is assembled.  Raises
    :class:`ConfigError` carrying every violation found, not just the first,
    else the :class:`SolverFailure` of a failed assembly."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"problem file {path} does not exist"])
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        # read_file, unlike read, does not skip a file it cannot open; its
        # parse errors name the source as read names it, by the Path
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"problem file {path} cannot be read: {exc}"]) from None
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
    grids, coeffs, data, due = [], [], {"f": [], "y0": [], "ydtarget": []}, []
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
            elif m_cells is not None and not _positive(h := (b - a) / m_cells):
                errors.append(
                    f"{label}mesh size (b - a)/m_cells must be positive and finite, got {h}"
                )
            elif m_cells is not None:
                grid = Grid1D(a, b, m_cells)
                grids.append(grid)
                if beta is not None and q is not None:
                    coeffs.append(EdgeCoefficients.constant(grid, beta, q))
        nodes = None if grid is None else grid.nnodes
        for key, shape in zip(data, ((rows, nodes), (nodes,), (rows, nodes))):
            token, values = sec.get(key, "zero"), data[key]
            if _data_file(token, base) is None:
                values.append(_data(token, label + key, base, {}, shape, errors))
            else:  # checked once the file is read, its violations put here
                due.append((token, label + key, shape, len(errors), values, len(values)))
                values.append(None)

    if len({g.a for g in grids}) > 1:
        errors.append("all edges of a star graph must share the left endpoint a")

    opt = section("optimizer")
    algo = (opt.get("algo", ALGORITHMS[0]) or ALGORITHMS[0]).strip()
    if algo not in ALGORITHMS:
        errors.append(f"optimizer.algo must be {' or '.join(ALGORITHMS)}, got {algo!r}")
    label, rule = "optimizer.", "be positive and finite"
    tol = number(opt, label, "tol", _positive, rule, 1e-6)
    max_iter = number(opt, label, "max_iter", lambda v: v >= 1, "be at least 1", 200, int)
    tikhonov_n = number(opt, label, "tikhonov_n", _positive, rule, 1.0)

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
        # a weight defaults to tikhonov_n (1.0 where that is invalid, and
        # reported), so it differs only where the two are written
        weight = number(sec, label, "weight", _positive, rule, tikhonov_n or 1.0)
        if "tikhonov_n" in opt and None not in (weight, tikhonov_n) and weight != tikhonov_n:
            errors.append(
                f"{label}weight = {weight} differs from optimizer.tikhonov_n = {tikhonov_n}"
            )
        weights.append(weight)

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

    # The files are read, each once, by forked workers while the system,
    # which does not depend on them, is assembled for a valid INI part, and
    # the ones left here once it is; a violation wins over an assembly
    # failure.  The other data, made before assembly frees its blocks, keep
    # the peak of memory down.
    collect = read_csv_files(list(dict.fromkeys(_data_file(token, base) for token, *_ in due)))
    failure = None
    try:
        if not errors:
            unset = [None] * n  # f, y0 and y_d, set below
            problem = StarGraphProblem(alpha, time_grid, grids, coeffs, unset, unset, unset, m)
            system = assemble_graph_system(problem)
    except SolverFailure as exc:
        failure = exc
    finally:
        files = collect()

    # from the last file back, so that each one's place in errors holds
    for token, key, shape, at, values, k in reversed(due):
        found = []
        values[k] = _data(token, key, base, files, shape, found)
        errors[at:at] = found
    if errors:
        raise ConfigError(errors)
    if failure is not None:
        raise failure
    problem = problem._replace(f=data["f"], y0=data["y0"], y_d=data["ydtarget"])
    cost = CostConfig(channel_weights=np.array(weights))
    system = system._replace(problem=problem)
    return RunConfig(problem, cost, sets, channels, algo, tol, max_iter, system)


def _state_csv(out: Path, problem: StarGraphProblem, rows, samples) -> RowWriter:
    """The writer of ``state.csv``: one block per time of the DOF ``rows`` (or
    the shape of zero-filled ones to make), each block of rows written as its
    per-edge samples ``samples(block)``, formed a block at a time."""
    times = [f"{t:.17g}," for t in problem.time_grid.times.tolist()]
    nodes = [
        f"{i + 1},{x:.17g},"
        for i, g in enumerate(problem.grids)
        for x in g.nodes.tolist()
    ]
    return RowWriter(
        out / "state.csv", "t,edge,x,y", times, nodes, rows,
        # a list: numpy's stacking reads a sequence twice, forming each edge twice
        lambda block: np.hstack(list(samples(block))),
    )


def _finish(out: Path, state: RowWriter, report: list[str]) -> None:
    """Write ``state.csv`` and the report to ``report.txt``; echo the report."""
    state.close()
    (out / "report.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))


def _checked(what: str, diagnose, *args):
    """``diagnose(*args)``; a non-finite number in its record raises
    SolverFailure.  The a-priori bounds are closed-form data, not measured:
    a tiny coefficient overflows them to ``inf``, which bounds any ratio."""
    with np.errstate(over="ignore", invalid="ignore"):
        record = diagnose(*args)
    measured = record._replace(estimate_bound=0.0, estimate_bound_T=0.0)
    if not all(np.isfinite(value).all() for value in measured):
        raise SolverFailure(f"non-finite {what} diagnostics")
    return record


def _cmd_solve_forward(cfg: RunConfig, out: Path) -> int:
    problem, system = cfg.problem, cfg.system
    del cfg  # the last reference to the config (see main)
    kind = "graph" if problem.n >= 2 else "edge"
    shape = (problem.time_grid.Nt + 1, system.ndof)
    with _state_csv(out, problem, shape, system.samples) as state:
        traj = solve_forward_graph(problem, system=system, stream=state)
        d = _checked("forward", diagnose_forward, system, traj)
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
        _finish(out, state, report)
    return 0


def _cmd_solve_adjoint(cfg: RunConfig, out: Path) -> int:
    problem, system = cfg.problem, cfg.system
    del cfg  # the last reference to the config (see main); the system goes below
    fwd = solve_forward_graph(problem, system=system)
    adj = solve_adjoint_graph(problem, fwd, system=system)
    report = ["adjoint solve complete (source y - y_d)"]
    ratio = _checked("adjoint", diagnose_adjoint, system, adj, fwd).boundary_regularity_ratio
    if problem.m > 0:
        report.append(f"boundary regularity ratio: {ratio:.17g}")
    # a forked writer starts from this process's memory
    del system, fwd
    _finish(out, _state_csv(out, problem, adj.dofs, adj.samples.on), report)
    return 0


def _cmd_optimize(cfg: RunConfig, out: Path) -> int:
    problem, algo, channels = cfg.problem, cfg.algo, [f"{ch}," for ch in cfg.channels]
    result = optimize(
        problem, cfg.cost, cfg.sets, algo, cfg.tol, cfg.max_iter, system=cfg.system
    )
    del cfg  # the system is released before the writes (see main)
    times = [f"{t:.17g}," for t in problem.time_grid.times.tolist()]
    RowWriter(out / "controls.csv", "t,channel,value", times, channels, result.controls.T).close()
    iterates = [f"{it},{c:.17g}," for it, c in enumerate(result.cost_history.tolist())]
    RowWriter(
        out / "convergence.csv", "iter,cost,stationarity", iterates, [""],
        result.residual_history[:, None],
    ).close()
    report = [
        f"optimizer: {algo}, iterations {result.iterations}, "
        f"converged {result.converged} ({result.reason})",
        f"final cost {result.cost_history[-1]:.17g}, "
        f"stationarity {result.residual_history[-1]:.17g}",
    ]
    state = result.state
    _finish(out, _state_csv(out, problem, state.dofs, state.samples.on), report)
    if not result.converged:
        print(f"warning: not converged ({result.reason})", file=sys.stderr)
    return 0 if result.converged or result.reason == "max_iter" else 3


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails its check, unwarned
def _cmd_validate(cfg: RunConfig, out: Path) -> int:
    from .validation import dense_oracle_solve_graph  # only this command needs it
    rng = np.random.default_rng(20240901)
    checks: list[tuple[bool, str]] = []  # each check's outcome and report line

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((ok, f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"))
        print(checks[-1][1])

    def within(residual: float, bound: float, *compared) -> bool:
        """``residual <= bound`` times the largest magnitude compared, if finite and above one."""
        size = max(float(np.abs(a).max()) for a in compared)
        return residual <= bound * (max(1.0, size) if np.isfinite(size) else 1.0)

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

    system = cfg.system
    fwd = solve_forward_graph(problem, system=system)
    diag = diagnose_forward(system, fwd)
    try:
        dofs, _ = dense_oracle_solve_graph(problem)
        err = float(np.abs(fwd.dofs - dofs).max())
        record("oracle-equivalence", within(err, 1e-11, dofs), f"max deviation {err:.3e}")
    except SizeGuardError as exc:
        print(f"SKIP  oracle-equivalence: {exc}")
    jf = float(np.abs(diag.junction_flux[1:].sum(axis=1)).max())
    record("junction-balance", within(jf, 5e-12, diag.junction_flux[1:]), f"max residual {jf:.3e}")
    # the prescribed traces are zero: the measured ones, at the tips and the junction
    record(
        "dirichlet-constraints",
        within(diag.constraint_residual, 2e-14, fwd.tip_trace, fwd.c),
        f"max residual {diag.constraint_residual:.3e}",
    )
    if any(fi is not None and np.any(fi) for fi in problem.f):
        print("SKIP  energy-decay: the source f is nonzero")
    else:
        decayed = within(float(np.diff(diag.energy).max()), 1e-12, diag.energy[0])
        record("energy-decay", decayed, "monotone" if decayed else "violated")

    # duality of the forward/adjoint pair: the misfit paired with the state z
    # of zero data and random controls equals the controls paired with the
    # channel-wise boundary series of the adjoint
    tg = problem.time_grid
    omega = tg.trapezoid_weights()
    ctrl = rng.standard_normal((problem.n_channels, tg.Nt + 1))
    target = problem._replace(
        y_d=[rng.standard_normal((tg.Nt + 1, g.nnodes)) for g in problem.grids]
    )
    adj = solve_adjoint_graph(target, fwd, system=system)
    zero = problem._replace(
        f=[None] * problem.n, y0=[np.zeros(g.nnodes) for g in problem.grids], c0=0.0
    )
    nd = problem.n_dirichlet_channels
    z = solve_forward_graph(zero, ctrl[:nd], ctrl[nd:], system=system)
    lhs = misfits = states = 0.0  # the pairing, and the squared norms of its sides
    for i, (misfit, g) in enumerate(zip(_misfit(target, fwd), problem.grids)):
        zi, w = z.samples[i], g.trapezoid_weights()
        lhs += float(np.einsum("k,kj,j,kj->", omega, misfit, w, zi))
        misfits += float(np.einsum("k,kj,j,kj->", omega, misfit, w, misfit))
        states += float(np.einsum("k,kj,j,kj->", omega, zi, w, zi))
    grad = gradient_graph(np.zeros_like(ctrl), adj, problem, cost_cfg)
    rhs = float(np.einsum("jk,k,jk->", ctrl, omega, grad))
    bound = np.sqrt(misfits * states)  # the pairing's Cauchy-Schwarz bound
    record("duality", within(abs(lhs - rhs), 1e-8, bound), f"residual {abs(lhs - rhs):.3e}")

    (out / "report.txt").write_text("".join(line + "\n" for _, line in checks))
    return 0 if all(ok for ok, _ in checks) else 4


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
    try:
        out.mkdir(parents=True, exist_ok=True)
        command = {
            "solve-forward": _cmd_solve_forward, "solve-adjoint": _cmd_solve_adjoint,
            "optimize": _cmd_optimize, "validate": _cmd_validate,
        }[args.command]
        # the command is given the only reference to the config, so that it
        # can release the assembled system before it writes
        return command(parse_config(args.problem_file), out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


def _one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread, unless a thread variable
    is set or numpy bundles none: the march's products, and so the last
    digits of every output, depend on the thread count."""
    if {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & os.environ.keys():
        return
    import ctypes

    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # another build: its threads are left alone
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run() -> None:
    """Process entry of the ``fracstar`` command and ``python -m
    fracstar.cli``: exit with :func:`main`'s code, with one BLAS thread by
    default.  Everything import built lives until the process ends, so it is
    frozen first and the collections at exit do not traverse it."""
    _one_blas_thread()
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
