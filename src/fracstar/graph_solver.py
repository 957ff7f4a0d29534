"""Star-graph assembly and time stepping.

Edges share their left endpoint.  Junction continuity of the order
``1 - alpha`` traces is realized by a single shared singular DOF ``c``: every
edge carries the same coefficient of its singular mode, so the traces at the
center are one and the same number, and flux balance emerges weakly from the
``c`` equation.  Tip conditions of Dirichlet type (the clamped root, edges
``2..m``) are enforced by Lagrange multipliers whose values are exactly the
discrete tip fluxes ``(beta D^alpha y)(b_i^-)``; Neumann tips load the right
hand side through their trace rows.  Each implicit-Euler step solves one
saddle-point system with a factorization computed once.

The adjoint stepper mirrors the forward one backward in time and is the exact
transpose of the discrete forward map for the trapezoid space-time cost; the
boundary series it reports (multiplier fluxes on Dirichlet tips, traces on
Neumann tips) are scaled so that the first-order optimality residuals of the
discrete cost vanish exactly at a discrete minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SolverFailure
from .grids import Grid1D, TimeGrid
from .sturm import EdgeCoefficients, EdgeOperator, assemble_stiffness

__all__ = [
    "StarGraphProblem",
    "GlobalDofMap",
    "GraphSystem",
    "GraphTrajectory",
    "assemble_graph_system",
    "solve_forward_graph",
    "solve_adjoint_graph",
]


@dataclass(frozen=True)
class GlobalDofMap:
    """Layout of the global vector: per-edge nodal blocks, then the shared
    junction coefficient (if present); multipliers live in the bottom block
    of the saddle system."""

    offsets: tuple[int, ...]
    nnodes: tuple[int, ...]
    c_index: int | None

    @property
    def ndof(self) -> int:
        return self.offsets[-1] + self.nnodes[-1] + (0 if self.c_index is None else 1)

    def edge_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.nnodes[i])


@dataclass
class StarGraphProblem:
    """Data of the controlled star-graph system.

    Edges ``2..m`` (1-based) carry Dirichlet-type trace controls, edges
    ``m+1..n`` Neumann-type flux controls, and edge 1 is the clamped root.
    The degenerate single-edge graph is admitted with ``m = 1`` (clamped tip)
    or ``m = 0`` (free Neumann tip, no junction mode), the latter reproducing
    the plain edge problem exactly.
    """

    alpha: float
    time_grid: TimeGrid
    grids: list[Grid1D]
    coeffs: list[EdgeCoefficients]
    f: list[np.ndarray | None]
    y0: list[np.ndarray]
    y_d: list[np.ndarray | None]
    m: int
    c0: float = 0.0
    include_junction_mode: bool | None = None

    def __post_init__(self) -> None:
        n = self.n
        if not (len(self.coeffs) == len(self.f) == len(self.y0) == len(self.y_d) == n):
            raise ValueError("per-edge data lists have inconsistent lengths")
        a = self.grids[0].a
        if any(g.a != a for g in self.grids):
            raise ValueError("all edges must share the left endpoint")
        if n == 1:
            if self.m not in (0, 1):
                raise ValueError(f"degenerate graph needs m in {{0, 1}}, got m={self.m}")
        elif not 2 <= self.m <= n:
            raise ValueError(f"need 2 <= m <= n, got m={self.m}, n={n}")
        if self.include_junction_mode is None:
            self.include_junction_mode = n >= 2

    @property
    def n(self) -> int:
        return len(self.grids)

    @property
    def n_dirichlet_channels(self) -> int:
        return max(self.m - 1, 0)

    @property
    def n_neumann_channels(self) -> int:
        return self.n - max(self.m, 1) if self.m >= 1 else self.n

    @property
    def n_channels(self) -> int:
        return self.n_dirichlet_channels + self.n_neumann_channels


@dataclass
class GraphSystem:
    """Assembled global operator: block stiffness/mass coupled through the
    shared junction DOF, constraint rows for the Dirichlet-type tips, and the
    per-edge functionals used to read traces and fluxes off residuals."""

    problem: StarGraphProblem
    dofmap: GlobalDofMap
    edge_ops: list[EdgeOperator]
    K: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    trace_a_rows: np.ndarray = field(repr=False)
    trace_b_rows: np.ndarray = field(repr=False)
    flux_probes: np.ndarray = field(repr=False)
    kc: np.ndarray = field(repr=False)
    wc: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.K.shape[0]

    def load_from_samples(self, g: list[np.ndarray]) -> np.ndarray:
        """Global load of per-edge sample-space data: ``sum_i E_i^T (W_i g_i)``."""
        dm = self.dofmap
        out = np.zeros(self.ndof)
        for i, op in enumerate(self.edge_ops):
            wg = op.grid.trapezoid_weights() * g[i]
            out[dm.edge_slice(i)] += wg
            if dm.c_index is not None:
                out[dm.c_index] += op.mode.samples @ wg
        return out

    def load_c_parts(self, g: list[np.ndarray]) -> np.ndarray:
        """Per-edge contributions of sample-space data to the shared-DOF row."""
        if self.dofmap.c_index is None:
            return np.zeros(self.problem.n)
        return np.array(
            [
                op.mode.samples @ (op.grid.trapezoid_weights() * g[i])
                for i, op in enumerate(self.edge_ops)
            ]
        )

    def edge_samples(self, Y: np.ndarray, i: int) -> np.ndarray:
        """Nodal samples of edge ``i`` (nodal block plus ``c`` times the mode)."""
        dm = self.dofmap
        s = np.array(Y[..., dm.edge_slice(i)])
        if dm.c_index is not None:
            s = s + np.multiply.outer(Y[..., dm.c_index], self.edge_ops[i].mode.samples)
        return s


def assemble_graph_system(problem: StarGraphProblem) -> GraphSystem:
    """Scatter the per-edge operators into the global saddle-point blocks."""
    n = problem.n
    include_mode = bool(problem.include_junction_mode)
    nnodes = tuple(g.nnodes for g in problem.grids)
    offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(nnodes)[:-1]]))
    c_index = offsets[-1] + nnodes[-1] if include_mode else None
    dm = GlobalDofMap(offsets=offsets, nnodes=nnodes, c_index=c_index)
    ndof = dm.ndof

    ops = [
        assemble_stiffness(
            problem.alpha,
            problem.grids[i],
            problem.coeffs[i],
            include_singular_dof=include_mode,
        )
        for i in range(n)
    ]

    K = np.zeros((ndof, ndof))
    W = np.zeros((ndof, ndof))
    kc = np.zeros((n, ndof))
    wc = np.zeros((n, ndof))
    trace_a = np.zeros((n, ndof))
    trace_b = np.zeros((n, ndof))
    probes = np.zeros((n, ndof))
    for i, op in enumerate(ops):
        sl = dm.edge_slice(i)
        nn = nnodes[i]
        K[sl, sl] += op.K[:nn, :nn]
        W[sl, sl] += op.W[:nn, :nn]
        trace_a[i, sl] = op.trace_a[:nn]
        trace_b[i, sl] = op.trace_b[:nn]
        probes[i, sl] = op.flux_probe[:nn]
        if include_mode:
            K[sl, c_index] += op.K[:nn, -1]
            K[c_index, sl] += op.K[-1, :nn]
            K[c_index, c_index] += op.K[-1, -1]
            W[sl, c_index] += op.W[:nn, -1]
            W[c_index, sl] += op.W[-1, :nn]
            W[c_index, c_index] += op.W[-1, -1]
            kc[i, sl] = op.K[-1, :nn]
            kc[i, c_index] = op.K[-1, -1]
            wc[i, sl] = op.W[-1, :nn]
            wc[i, c_index] = op.W[-1, -1]
            trace_a[i, c_index] = op.trace_a[-1]
            trace_b[i, c_index] = op.trace_b[-1]

    B = trace_b[: problem.m].copy()

    free = np.arange(ndof)
    if problem.alpha == 1.0:
        pinned = {dm.offsets[i] for i in range(n)}
        free = np.array([j for j in range(ndof) if j not in pinned])

    if problem.m > 0:
        rank = np.linalg.matrix_rank(B[:, free])
        if rank < problem.m:
            raise SolverFailure(
                f"degenerate constraint set: rank {rank} < {problem.m} trace rows"
            )

    return GraphSystem(
        problem=problem,
        dofmap=dm,
        edge_ops=ops,
        K=K,
        W=W,
        B=B,
        trace_a_rows=trace_a,
        trace_b_rows=trace_b,
        flux_probes=probes,
        kc=kc,
        wc=wc,
        free=free,
    )


@dataclass
class GraphTrajectory:
    """Space-time solution on the graph.

    ``dofs`` stores the raw global vectors; ``samples[i]`` the per-edge nodal
    samples including the singular part.  ``multipliers`` are the Dirichlet
    tip fluxes ``(beta D^alpha y)(b_i^-)`` (index 0 carries no step).  For
    adjoint solutions, ``dirichlet_flux_series`` and ``neumann_trace_series``
    hold the gradient-consistent boundary series of the optimality system.
    """

    dofs: np.ndarray = field(repr=False)
    samples: list[np.ndarray] = field(repr=False)
    c: np.ndarray = field(repr=False)
    multipliers: np.ndarray = field(repr=False)
    tip_trace: np.ndarray = field(repr=False)
    tip_flux: np.ndarray = field(repr=False)
    junction_flux: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    time_grid: TimeGrid
    constraint_residual: float = 0.0
    estimate_ratio: float = 0.0
    estimate_bound: float = 0.0
    estimate_ratio_T: float = 0.0
    estimate_bound_T: float = 0.0
    dirichlet_flux_series: np.ndarray | None = None
    neumann_trace_series: np.ndarray | None = None
    boundary_regularity_ratio: float = 0.0


def _control_array(u, rows: int, nt: int, kind: str) -> np.ndarray:
    if u is None:
        return np.zeros((rows, nt + 1))
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    if u.shape != (rows, nt + 1):
        raise ValueError(
            f"{kind} controls must have shape {(rows, nt + 1)}, got {u.shape}"
        )
    return u


def _edge_sources(problem: StarGraphProblem) -> list[np.ndarray]:
    nt = problem.time_grid.Nt
    out = []
    for i, fi in enumerate(problem.f):
        nn = problem.grids[i].nnodes
        if fi is None:
            out.append(np.zeros((nt + 1, nn)))
        else:
            fi = np.asarray(fi, dtype=float)
            if fi.shape != (nt + 1, nn):
                raise ValueError(
                    f"edge {i + 1} source must have shape {(nt + 1, nn)}, got {fi.shape}"
                )
            out.append(fi)
    return out


class _SaddleStepper:
    """Factor the per-step KKT matrix once and solve repeatedly."""

    def __init__(self, system: GraphSystem):
        self.system = system
        dt = system.problem.time_grid.dt
        fr = system.free
        m = system.problem.m
        A = system.W[np.ix_(fr, fr)] / dt + system.K[np.ix_(fr, fr)]
        Bf = system.B[:, fr]
        S = np.block(
            [[A, Bf.T], [Bf, np.zeros((m, m))]]
        ) if m > 0 else A
        self.nfree = len(fr)
        self.m = m
        try:
            self.factor = lu_factor(S)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolverFailure(f"saddle-point factorization failed: {exc}") from None

    def solve(self, rhs_top: np.ndarray, rhs_bot: np.ndarray, what: str):
        rhs = np.concatenate([rhs_top[self.system.free], rhs_bot])
        try:
            sol = lu_solve(self.factor, rhs)
        except ValueError:  # scipy rejects a non-finite right-hand side
            raise SolverFailure(f"non-finite {what} right-hand side") from None
        if not np.all(np.isfinite(sol)):
            raise SolverFailure(f"non-finite {what} solve (singular saddle point?)")
        Y = np.zeros(self.system.ndof)
        Y[self.system.free] = sol[: self.nfree]
        return Y, sol[self.nfree :]


def _residual_series(system, dofs_k, dofs_prev, fload, fload_c, tip_known):
    """Tip fluxes from the probe residual and junction fluxes per edge.

    ``tip_known`` is unused for the probe read-out (the probe sees the
    multiplier/Neumann load directly); the junction flux of edge ``i`` is its
    known tip flux minus the edge's contribution to the shared-DOF equation.
    """
    pr = system.problem
    dt = pr.time_grid.dt
    resid = system.W @ (dofs_k - dofs_prev) / dt + system.K @ dofs_k - fload
    tip = system.flux_probes @ resid
    junction = np.zeros(pr.n)
    if system.dofmap.c_index is not None:
        for i in range(pr.n):
            ri = (
                system.kc[i] @ dofs_k
                + system.wc[i] @ (dofs_k - dofs_prev) / dt
                - fload_c[i]
            )
            junction[i] = tip_known[i] - ri
    return tip, junction


def solve_forward_graph(
    problem: StarGraphProblem,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    system: GraphSystem | None = None,
) -> GraphTrajectory:
    """March the controlled graph system.

    ``u`` holds the Dirichlet trace controls for edges ``2..m`` (shape
    ``(m-1, Nt+1)``), ``v`` the Neumann flux controls for edges ``m+1..n``
    (shape ``(n-m, Nt+1)``); the root trace is clamped to zero.  Controls at
    ``t = 0`` never enter the fully implicit stepping.
    """
    if system is None:
        system = assemble_graph_system(problem)
    nt, dt = problem.time_grid.Nt, problem.time_grid.dt
    n, m = problem.n, problem.m
    u = _control_array(u, problem.n_dirichlet_channels, nt, "dirichlet")
    v = _control_array(v, problem.n_neumann_channels, nt, "neumann")
    f = _edge_sources(problem)
    dm = system.dofmap

    stepper = _SaddleStepper(system)
    dofs = np.zeros((nt + 1, system.ndof))
    for i in range(n):
        y0 = np.asarray(problem.y0[i], dtype=float)
        if y0.shape != (dm.nnodes[i],):
            raise ValueError(f"edge {i + 1} initial datum has wrong shape {y0.shape}")
        dofs[0, dm.edge_slice(i)] = y0
    if dm.c_index is not None:
        dofs[0, dm.c_index] = problem.c0

    mult = np.zeros((nt + 1, m))
    tip_flux = np.zeros((nt + 1, n))
    junction = np.zeros((nt + 1, n))
    neu_rows = system.trace_b_rows[m:]
    for k in range(1, nt + 1):
        fk = [f[i][k] for i in range(n)]
        fload = system.load_from_samples(fk)
        rhs = system.W @ dofs[k - 1] / dt + fload
        if n - m > 0:
            rhs += neu_rows.T @ v[:, k]
        U = np.zeros(m)
        if m > 1:
            U[1:] = u[:, k]
        dofs[k], mu = stepper.solve(rhs, U, "forward")
        mult[k] = -mu
        known = np.zeros(n)
        known[:m] = mult[k]
        if n - m > 0:
            known[m:] = v[:, k]
        tip_flux[k], junction[k] = _residual_series(
            system, dofs[k], dofs[k - 1], fload, system.load_c_parts(fk), known
        )

    samples = [system.edge_samples(dofs, i) for i in range(n)]
    tip_trace = dofs @ system.trace_b_rows.T

    wtr = [g.trapezoid_weights() for g in problem.grids]
    energy = np.sqrt(
        sum(np.einsum("kj,j,kj->k", samples[i], wtr[i], samples[i]) for i in range(n))
    )

    cres = 0.0
    if m > 0 and nt >= 1:
        U_all = np.zeros((nt + 1, m))
        if m > 1:
            U_all[:, 1:] = u.T
        cres = float(np.abs(tip_trace[1:, :m] - U_all[1:]).max())

    mbar = min(min(c.beta0, c.q0) for c in problem.coeffs)
    ratio = ratio_T = 0.0
    bound = 1.0 / mbar + 1.0 / mbar**2
    bound_T = 1.0 + 1.0 / mbar
    if np.all(u == 0.0) and np.all(v == 0.0):
        lhs = dt * sum(
            samples[i][k] @ (wtr[i] * samples[i][k])
            + problem.grids[i].h
            * np.sum(
                (
                    system.edge_ops[i].D[:, : dm.nnodes[i]]
                    @ dofs[k, dm.edge_slice(i)]
                )
                ** 2
            )
            for k in range(1, nt + 1)
            for i in range(n)
        )
        data = sum(samples[i][0] @ (wtr[i] * samples[i][0]) for i in range(n))
        data += dt * sum(
            f[i][k] @ (wtr[i] * f[i][k]) for k in range(1, nt + 1) for i in range(n)
        )
        final = sum(samples[i][nt] @ (wtr[i] * samples[i][nt]) for i in range(n))
        if data > 0.0:
            ratio, ratio_T = lhs / data, final / data

    return GraphTrajectory(
        dofs=dofs,
        samples=samples,
        c=dofs[:, dm.c_index] if dm.c_index is not None else np.zeros(nt + 1),
        multipliers=mult,
        tip_trace=tip_trace,
        tip_flux=tip_flux,
        junction_flux=junction,
        energy=energy,
        time_grid=problem.time_grid,
        constraint_residual=cres,
        estimate_ratio=ratio,
        estimate_bound=bound,
        estimate_ratio_T=ratio_T,
        estimate_bound_T=bound_T,
    )


def solve_adjoint_graph(
    problem: StarGraphProblem,
    y: GraphTrajectory,
    system: GraphSystem | None = None,
) -> GraphTrajectory:
    """Backward solve of the graph adjoint with source ``y - y_d``, clamped
    traces on edges ``1..m`` and flux-free tips on ``m+1..n``.

    Returns the adjoint trajectory together with the two boundary series of
    the optimality system: ``(beta D^alpha p)(b_i^-, .)`` read from the
    multipliers on Dirichlet tips and ``(I^(1-alpha) p)(b_i^-, .)`` from the
    trace rows on Neumann tips, both scaled to be exact discrete gradients of
    the trapezoid cost (their ``t = 0`` entries are zero).
    """
    if system is None:
        system = assemble_graph_system(problem)
    nt, dt = problem.time_grid.Nt, problem.time_grid.dt
    n, m = problem.n, problem.m
    dm = system.dofmap
    omega = problem.time_grid.trapezoid_weights()

    src = []
    for i in range(n):
        ydi = problem.y_d[i]
        ydi = np.zeros_like(y.samples[i]) if ydi is None else np.asarray(ydi, float)
        if ydi.shape != y.samples[i].shape:
            raise ValueError(f"edge {i + 1} target has wrong shape {ydi.shape}")
        src.append(y.samples[i] - ydi)

    stepper = _SaddleStepper(system)
    p = np.zeros((nt + 1, system.ndof))
    mult = np.zeros((nt + 1, m))
    flux_series = np.zeros((nt + 1, m))
    trace_series = np.zeros((nt + 1, n - m))
    pnext = np.zeros(system.ndof)
    neu_rows = system.trace_b_rows[m:]
    floads = np.array(
        [system.load_from_samples([src[i][k] for i in range(n)]) for k in range(nt + 1)]
    )
    for k in range(nt, -1, -1):
        rhs = system.W @ pnext / dt + (omega[k] / dt) * floads[k]
        p[k], mu = stepper.solve(rhs, np.zeros(m), "adjoint")
        if k >= 1:
            mult[k] = -mu
            flux_series[k] = (dt / omega[k]) * mult[k]
            if n - m > 0:
                trace_series[k] = (dt / omega[k]) * (neu_rows @ p[k])
            pnext = p[k]

    samples = [system.edge_samples(p, i) for i in range(n)]
    tip_trace = p @ system.trace_b_rows.T

    tip_flux = np.zeros((nt + 1, n))
    junction = np.zeros((nt + 1, n))
    for k in range(1, nt + 1):
        sk = [src[i][k] for i in range(n)]
        p_after = p[k + 1] if k < nt else np.zeros(system.ndof)
        known = np.zeros(n)
        known[:m] = mult[k]
        tip_flux[k], junction[k] = _residual_series(
            system,
            p[k],
            p_after,
            (omega[k] / dt) * floads[k],
            (omega[k] / dt) * system.load_c_parts(sk),
            known,
        )

    wtr = [g.trapezoid_weights() for g in problem.grids]
    energy = np.sqrt(
        sum(np.einsum("kj,j,kj->k", samples[i], wtr[i], samples[i]) for i in range(n))
    )

    # measured form of the boundary-regularity bound: summed squared tip
    # derivative traces against the squared misfit driving the system
    misfit = sum(
        float(np.einsum("k,kj,j,kj->", omega, src[i], wtr[i], src[i]))
        for i in range(n)
    )
    reg = 0.0
    if misfit > 0.0 and m > 0:
        beta_b = np.array([problem.coeffs[i].beta[-1] for i in range(m)])
        reg = float(
            np.sum(omega[:, None] * (flux_series / beta_b) ** 2) / misfit
        )

    return GraphTrajectory(
        dofs=p,
        samples=samples,
        c=p[:, dm.c_index] if dm.c_index is not None else np.zeros(nt + 1),
        multipliers=mult,
        tip_trace=tip_trace,
        tip_flux=tip_flux,
        junction_flux=junction,
        energy=energy,
        time_grid=problem.time_grid,
        dirichlet_flux_series=flux_series,
        neumann_trace_series=trace_series,
        boundary_regularity_ratio=reg,
    )
