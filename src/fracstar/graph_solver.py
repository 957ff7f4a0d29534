"""Star-graph assembly, time stepping and diagnostics.

Edges share their left endpoint.  Junction continuity of the order
``1 - alpha`` traces is realized by a single shared singular DOF ``c``: every
edge carries the same coefficient of its singular mode, so the traces at the
center are one and the same number, and flux balance emerges weakly from the
``c`` equation.  Tip conditions of Dirichlet type (the clamped root, edges
``2..m``) are enforced by Lagrange multipliers whose values are exactly the
discrete tip fluxes ``(beta D^alpha y)(b_i^-)``; Neumann tips load the right
hand side through their trace rows.

Stepping.  One implicit-Euler march solves
``(W/dt + K) x_k + B^T lambda_k = W x_prev/dt + l_k``.  Edges interact only
through the shared coefficient ``c`` and the tip multipliers, so the step
matrix is block diagonal per edge with a border of width ``1 + m``; it is
solved by block-arrow elimination, and no global matrix is formed.  Each edge
block ``A_i = W_i/dt + K_i`` is factored ``L L^T`` by Cholesky, which
certifies it SPD, and inverted through that factor, ``A_i^{-1} = L^{-T}
L^{-1}``, with its nodal mass folded in: on the nodes, the step applies the
propagator ``P_i = A_i^{-1} W_i/dt`` to ``x_prev + l_k dt/W_i``.  The
coupling through ``c`` and the multipliers (the junction mass column,
``A^{-1} C`` and the inverse of the ``(1 + m)`` Schur complement) is one
low-rank update of the previous state, and the border's share of every
step's loads and traces is solved for all steps at once, before the march.
The step matrix is constant in time, so all of this is computed once, at
assembly, and shared by every sweep on that system.  Assembly takes the edges
one at a time: it assembles an edge's operator, keeps the few vectors the
sweeps and diagnostics read (mass, border and junction entries, the junction
mode and the flux-probe and junction rows of ``W`` and ``K``), forms the step
block in place on ``K``, factors it and releases the edge's ``K``, ``W`` and
``D`` before the next edge.  A system keeps one square array per edge, its
propagator.

The forward sweep marches from ``y0``; the adjoint sweep marches backward
from ``p(T + dt) = 0`` with loads ``omega_k/dt (y - y_d)`` and is the exact
transpose of the discrete forward map for the trapezoid space-time cost.  The
boundary series it returns (multiplier fluxes on Dirichlet tips, traces on
Neumann tips) are scaled so that the first-order optimality residuals of the
discrete cost vanish exactly at a discrete minimizer.  The sweeps return the
solution only.

Diagnostics.  :func:`diagnose_forward` and :func:`diagnose_adjoint` read the
tip and junction fluxes off the step residuals of a solution, all steps at
once, together with its energy, constraint residual, a-priori ratios and
boundary-regularity ratio.  They are computed on request; the optimizer never
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, cholesky, inv

from .errors import SolverFailure
from .grids import Grid1D, TimeGrid
from .fracops import left_rl_derivative
from .sturm import EdgeCoefficients, assemble_stiffness

__all__ = [
    "StarGraphProblem",
    "GlobalDofMap",
    "EdgeReadout",
    "GraphSystem",
    "GraphTrajectory",
    "GraphDiagnostics",
    "assemble_graph_system",
    "solve_forward_graph",
    "solve_adjoint_graph",
    "diagnose_forward",
    "diagnose_adjoint",
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

    @property
    def junction(self) -> slice:
        """Position of the junction coefficient: one entry, or none."""
        return slice(self.offsets[-1] + self.nnodes[-1], self.ndof)


@dataclass
class StarGraphProblem:
    """Data of the controlled star-graph system.

    Edges ``2..m`` (1-based) carry Dirichlet-type trace controls, edges
    ``m+1..n`` Neumann-type flux controls, and edge 1 is the clamped root.
    The degenerate single-edge graph is admitted with ``m = 1`` (clamped tip)
    or ``m = 0`` (free Neumann tip), the latter reproducing the plain edge
    problem exactly.  ``include_junction_mode`` follows from ``n``: the
    junction mode is present exactly when ``n >= 2``, and passing any other
    value is an error.
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
        if self.include_junction_mode not in (None, n >= 2):
            raise ValueError(
                f"include_junction_mode follows from n: it is {n >= 2} for n = {n}"
            )
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


@dataclass(frozen=True)
class EdgeReadout:
    """The vectors of one edge's operator that the sweeps and diagnostics
    read, taken at assembly before its matrices are released.

    ``mode`` holds the junction mode's nodal samples; ``probe`` the nodal part
    of the flux probe, with ``w_probe`` and ``k_probe`` the edge's ``W`` and
    ``K`` applied to the whole probe; ``w_junction`` and ``k_junction`` the
    junction rows ``W[-1]`` and ``K[-1]``.  Without the junction mode the
    three junction fields are ``None``.  To get the edge's full operator,
    call :func:`~fracstar.sturm.assemble_stiffness`.
    """

    mode: np.ndarray | None = field(repr=False)
    probe: np.ndarray = field(repr=False)
    w_probe: np.ndarray = field(repr=False)
    k_probe: np.ndarray = field(repr=False)
    w_junction: np.ndarray | None = field(repr=False)
    k_junction: np.ndarray | None = field(repr=False)


@dataclass
class GraphSystem:
    """Assembled graph operator, stored per edge: each edge's readout vectors
    (:class:`EdgeReadout`), the tip trace rows of all edges (the first ``m``
    are the constraint rows of the Dirichlet-type tips, ``B`` in
    :func:`_march`), and the inverted step matrix.  No edge's ``K``, ``W``
    or ``D`` is kept: the one square array per edge is its propagator.

    ``mass`` is the diagonal of the global mass (the junction coupling sits in
    the update below).  The step matrix on the free DOFs, bordered by the free
    trace rows, is the block arrow ``[[A, C], [C^T, D]]``: ``A`` is block
    diagonal with the edges' ``A_i = W_i/dt + K_i`` on their free nodes, and
    the ``1 + m`` border columns ``C`` couple them to ``c`` and the
    multipliers.  ``edge_propagators`` holds ``P_i = A_i^{-1} diag(mass_i/dt)``
    with the global slice each acts on; ``A_i^{-1}`` is ``L^{-T} L^{-1}``
    from the Cholesky factor ``L`` that certifies ``A_i`` SPD.  A step from
    ``x_prev`` with loads ``l`` and traces ``d`` is
    ``x = P (x_prev + l dt/mass) + U (H x_prev + w)``, where
    ``U = update_cols`` and ``H = update_rows`` carry the rank-``r`` coupling
    (``r = 2 + m`` with the junction coefficient, ``m`` without):
    ``H x_prev`` stacks ``c_prev`` (with a junction) and the previous state's
    share of ``c`` and the negated multipliers; the data's share, ``w``, is
    ``schur_inv`` (the inverse of ``D - C^T A^{-1} C``, ``None`` when the
    border is empty) applied to ``l @ U_s`` plus ``d`` on the multiplier rows,
    where ``U_s``, the last ``1 + m`` (or ``m``) columns of ``U``, is
    ``-A^{-1} C`` with a unit entry in row ``c``."""

    problem: StarGraphProblem
    dofmap: GlobalDofMap
    readouts: list[EdgeReadout]
    trace_b_rows: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    edge_propagators: list[tuple[slice, np.ndarray]] = field(repr=False)
    update_cols: np.ndarray = field(repr=False)
    update_rows: np.ndarray = field(repr=False)
    schur_inv: np.ndarray | None = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.dofmap.ndof

    def load_from_samples(self, g: list[np.ndarray]) -> np.ndarray:
        """Global load of per-edge sample-space data: ``sum_i E_i^T (W_i g_i)``.

        Each ``g_i`` may carry leading axes (time steps); the load has them too.
        """
        dm = self.dofmap
        out = np.zeros(np.shape(g[0])[:-1] + (self.ndof,))
        for i, (grid, edge) in enumerate(zip(self.problem.grids, self.readouts)):
            wg = grid.trapezoid_weights() * g[i]
            out[..., dm.edge_slice(i)] += wg
            if dm.c_index is not None:
                out[..., dm.c_index] += wg @ edge.mode
        return out

    def edge_dofs(self, Y: np.ndarray, i: int) -> np.ndarray:
        """Edge ``i``'s DOF vector in its operator's layout: its nodal block,
        then ``c`` if the junction mode is present."""
        dm = self.dofmap
        return np.concatenate([Y[..., dm.edge_slice(i)], Y[..., dm.junction]], axis=-1)

    def edge_samples(self, Y: np.ndarray, i: int) -> np.ndarray:
        """Nodal samples of edge ``i`` (nodal block plus ``c`` times the mode)."""
        dm = self.dofmap
        s = np.array(Y[..., dm.edge_slice(i)])
        if dm.c_index is not None:
            s = s + np.multiply.outer(Y[..., dm.c_index], self.readouts[i].mode)
        return s


# Largest triangular block that _lower_inverse inverts with ``inv``.
_LEAF = 64


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangular ``L`` by blocked recursion: with
    ``L = [[L11, 0], [L21, L22]]`` the inverse is
    ``[[L11^{-1}, 0], [-L22^{-1} L21 L11^{-1}, L22^{-1}]]``, about ``2 n^3/3``
    flops; blocks of at most ``_LEAF`` rows go to ``inv``."""
    n = len(L)
    if n <= _LEAF:
        # LU's row pivoting may leave roundoff above the diagonal
        return np.tril(inv(L))
    h = n // 2
    out = np.zeros_like(L)
    out[:h, :h] = _lower_inverse(L[:h, :h])
    out[h:, h:] = _lower_inverse(L[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (L[h:, :h] @ out[:h, :h]))
    return out


def assemble_graph_system(problem: StarGraphProblem) -> GraphSystem:
    """Assemble the edges one at a time, form every edge's propagator and the
    step's low-rank coupling through the Schur complement of the border in
    ``c`` and the multipliers.  An edge's dense matrices are released before
    the next edge is assembled."""
    n, m = problem.n, problem.m
    dt = problem.time_grid.dt
    include_mode = problem.include_junction_mode
    nnodes = tuple(g.nnodes for g in problem.grids)
    offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(nnodes)[:-1]]))
    c_index = offsets[-1] + nnodes[-1] if include_mode else None
    dm = GlobalDofMap(offsets=offsets, nnodes=nnodes, c_index=c_index)
    ndof = dm.ndof

    # border unknowns: c (if present), then the m multipliers; the update
    # columns are A^{-1} of the junction mass column over dt (if present),
    # then -A^{-1} C
    k = int(include_mode)
    nb = k + m
    trace_b = np.zeros((n, ndof))
    mass = np.zeros(ndof)
    junction_mass = np.zeros(ndof)
    border = np.zeros((ndof, nb))
    corner = np.zeros((nb, nb))
    cols = np.zeros((ndof, k + nb))
    propagators = []
    readouts = []
    free = []
    for i in range(n):
        op = assemble_stiffness(
            problem.alpha,
            problem.grids[i],
            problem.coeffs[i],
            include_singular_dof=include_mode,
        )
        sl = dm.edge_slice(i)
        nn = nnodes[i]
        # sturm decides the pinned nodes, which lead the edge's block
        first = int(op.free[0])
        fs = slice(first, nn)
        gs = slice(offsets[i] + first, offsets[i] + nn)
        free.append(np.arange(gs.start, gs.stop))
        readouts.append(
            EdgeReadout(
                mode=op.mode.samples if include_mode else None,
                probe=op.flux_probe[:nn],
                w_probe=op.W @ op.flux_probe,
                k_probe=op.K @ op.flux_probe,
                w_junction=op.W[-1].copy() if include_mode else None,
                k_junction=op.K[-1].copy() if include_mode else None,
            )
        )
        trace_b[i, sl] = op.trace_b[:nn]
        mass[sl] = op.W.diagonal()[:nn]
        if include_mode:
            mass[c_index] += op.W[-1, -1]
            junction_mass[sl] = op.W[:nn, -1]
            trace_b[i, c_index] = op.trace_b[-1]
            border[gs, 0] = op.W[fs, -1] / dt + op.K[fs, -1]
            corner[0, 0] += op.W[-1, -1] / dt + op.K[-1, -1]
        if i < m:
            border[gs, k + i] = op.trace_b[fs]
            # the tip trace of the junction mode, where there is one
            corner[:k, k + i] = corner[k + i, :k] = op.trace_b[nn:]
        # W is diagonal on the nodes, so A_i = W_i/dt + K_i is K's nodal block
        # with mass/dt added to its diagonal in place.  Each dense array is
        # released once read: W and D here, K once it is factored.
        block = op.K[fs, fs]
        del op
        diag = np.arange(nn - first)
        block[diag, diag] += mass[gs] / dt
        try:
            # the Cholesky factor certifies the block SPD and gives its inverse
            factor = cholesky(block)
            del block
            lower = _lower_inverse(factor)
            del factor
        except LinAlgError as exc:
            raise SolverFailure(f"saddle-point factorization failed: {exc}") from None
        prop = lower.T @ lower  # A_i^{-1} = L^{-T} L^{-1}, a symmetric rank-k update
        del lower
        if include_mode:
            cols[gs, 0] = prop @ junction_mass[gs] / dt
        cols[gs, k:] = -(prop @ border[gs])
        prop *= mass[gs] / dt  # A_i^{-1} diag(mass_i/dt), in place
        propagators.append((gs, prop))

    if include_mode:
        free.append([c_index])
    free = np.concatenate(free)

    if m > 0:
        rank = np.linalg.matrix_rank(trace_b[:m, free])
        if rank < m:
            raise SolverFailure(
                f"degenerate constraint set: rank {rank} < {m} trace rows"
            )

    schur_inv = None
    rows = np.zeros((k + nb, ndof))
    if nb > 0:
        solved = cols[:, k:]  # -A^{-1} C, zero in row c
        try:
            schur_inv = inv(corner + border.T @ solved)
        except LinAlgError as exc:
            raise SolverFailure(f"saddle-point factorization failed: {exc}") from None
        # the previous state's share of the border's right-hand side: the c
        # row of W x_prev/dt (if present), less C^T A^{-1} of its free rows
        share = solved.T * (mass / dt)
        if include_mode:
            share[:, c_index] = solved.T @ junction_mass / dt
            share[0] += junction_mass / dt
            share[0, c_index] += mass[c_index] / dt
            rows[0, c_index] = 1.0
            solved[c_index, 0] = 1.0  # the step's c is the border's c
        rows[k:] = schur_inv @ share

    return GraphSystem(
        problem=problem,
        dofmap=dm,
        readouts=readouts,
        trace_b_rows=trace_b,
        free=free,
        mass=mass,
        edge_propagators=propagators,
        update_cols=cols,
        update_rows=rows,
        schur_inv=schur_inv,
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
    time_grid: TimeGrid
    dirichlet_flux_series: np.ndarray | None = None
    neumann_trace_series: np.ndarray | None = None


@dataclass
class GraphDiagnostics:
    """Properties of a graph solution, measured by :func:`diagnose_forward`
    or :func:`diagnose_adjoint`.

    ``tip_flux[k, i]`` is ``(beta D^alpha y)(b_i^-)`` read off the residual of
    step ``k``; ``junction_flux[k, i]`` is edge ``i``'s flux into the junction,
    whose sum over the edges is the discrete Kirchhoff balance (index 0 carries
    no step).  ``energy`` is the L2 norm per time; ``constraint_residual`` the
    largest deviation of the tip traces of edges ``1..m`` from their
    prescribed values.  The a-priori ratios (forward only) are measured
    against their closed-form bounds and read 0 where no bound covers the
    controls; the boundary-regularity ratio (adjoint only) reads 0 without
    Dirichlet tips.
    """

    tip_flux: np.ndarray = field(repr=False)
    junction_flux: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    constraint_residual: float
    estimate_ratio: float = 0.0
    estimate_bound: float = 0.0
    estimate_ratio_T: float = 0.0
    estimate_bound_T: float = 0.0
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


def _misfit(problem: StarGraphProblem, y) -> list[np.ndarray]:
    """Per-edge adjoint source ``y - y_d``."""
    out = []
    for i, si in enumerate(y.samples):
        ydi = problem.y_d[i]
        ydi = np.zeros_like(si) if ydi is None else np.asarray(ydi, float)
        if ydi.shape != si.shape:
            raise ValueError(f"edge {i + 1} target has wrong shape {ydi.shape}")
        out.append(si - ydi)
    return out


def _prescribed_traces(u: np.ndarray, m: int) -> np.ndarray:
    """Tip traces of edges ``1..m`` per time: the clamped root, then ``u``."""
    traces = np.zeros((u.shape[1], m))
    traces[:, 1:] = u.T
    return traces


def _march(system: GraphSystem, start, loads, traces, what: str):
    """Implicit Euler from ``x_{-1} = start``: row ``j`` solves
    ``(W/dt + K) x_j + B^T mu_j = W x_{j-1}/dt + loads[j]``,
    ``B x_j = traces[j]``.

    The border's share of every step's loads and traces is solved before the
    march, in one product.  Each step then applies every edge's propagator to
    ``x_{j-1} + loads[j] dt/mass`` and adds the rank-``r`` update
    ``U (H x_{j-1} + w_j)``, whose coefficients hold ``c`` and the negated
    multipliers.  Returns the states ``x_j`` and the multipliers ``-mu_j``.
    The data are checked for finiteness once before the march, the solution
    once after it.
    """
    if not all(np.isfinite(a).all() for a in (start, loads, traces)):
        raise SolverFailure(f"non-finite {what} right-hand side")
    dt, m = system.problem.time_grid.dt, system.problem.m
    U, H, schur = system.update_cols, system.update_rows, system.schur_inv
    r = len(H)
    nt = len(loads)
    x = np.zeros((nt, system.ndof))
    w = np.zeros((nt, r))
    # a non-finite inverse surfaces as non-finite states, reported below
    with np.errstate(invalid="ignore", over="ignore"):
        y = loads * (dt / system.mass)
        if schur is not None:
            k = r - len(schur)  # 1 with the junction coefficient, else 0
            data = loads @ U[:, k:]
            data[:, k:] += traces  # after c, the multipliers
            w[:, k:] = data @ schur.T
        prev = start
        for j in range(nt):
            yj, xj = y[j], x[j]
            yj += prev
            for gs, prop in system.edge_propagators:
                np.matmul(prop, yj[gs], out=xj[gs])
            if r:
                wj = w[j]
                wj += H @ prev
                xj += U @ wj
            prev = xj
    mult = -w[:, r - m :]
    if not (np.isfinite(x).all() and np.isfinite(mult).all()):
        raise SolverFailure(f"non-finite {what} solve (singular saddle point?)")
    return x, mult


def _trajectory(system: GraphSystem, dofs, mult, **series) -> GraphTrajectory:
    dm = system.dofmap
    return GraphTrajectory(
        dofs=dofs,
        samples=[system.edge_samples(dofs, i) for i in range(system.problem.n)],
        c=dofs[:, dm.c_index] if dm.c_index is not None else np.zeros(len(dofs)),
        multipliers=mult,
        tip_trace=dofs @ system.trace_b_rows.T,
        time_grid=system.problem.time_grid,
        **series,
    )


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
    nt, m = problem.time_grid.Nt, problem.m
    u = _control_array(u, problem.n_dirichlet_channels, nt, "dirichlet")
    v = _control_array(v, problem.n_neumann_channels, nt, "neumann")
    f = _edge_sources(problem)
    dm = system.dofmap

    start = np.zeros(system.ndof)
    for i in range(problem.n):
        y0 = np.asarray(problem.y0[i], dtype=float)
        if y0.shape != (dm.nnodes[i],):
            raise ValueError(f"edge {i + 1} initial datum has wrong shape {y0.shape}")
        start[dm.edge_slice(i)] = y0
    if dm.c_index is not None:
        start[dm.c_index] = problem.c0

    loads = system.load_from_samples([fi[1:] for fi in f])
    loads += v[:, 1:].T @ system.trace_b_rows[m:]
    x, mult = _march(system, start, loads, _prescribed_traces(u, m)[1:], "forward")
    return _trajectory(
        system, np.vstack([start, x]), np.vstack([np.zeros((1, m)), mult])
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
    nt, dt, m = problem.time_grid.Nt, problem.time_grid.dt, problem.m
    omega = problem.time_grid.trapezoid_weights()

    loads = (omega / dt)[:, None] * system.load_from_samples(_misfit(problem, y))
    x, mult = _march(
        system, np.zeros(system.ndof), loads[::-1], np.zeros((nt + 1, m)), "adjoint"
    )
    p, mult = np.ascontiguousarray(x[::-1]), mult[::-1]
    mult[0] = 0.0
    scale = np.concatenate([[0.0], dt / omega[1:]])[:, None]
    return _trajectory(
        system, p, mult,
        dirichlet_flux_series=scale * mult,
        neumann_trace_series=scale * (p @ system.trace_b_rows[m:].T),
    )


def _readout(system: GraphSystem, y: GraphTrajectory, prev, g, known, traces, **extra):
    """Tip and junction fluxes, energy and constraint residual of a march, in
    a :class:`GraphDiagnostics` completed by ``extra``.

    Row ``j`` of the inputs belongs to the step that solved ``y.dofs[j + 1]``:
    ``prev`` is the state it marched from, ``g`` the per-edge sample-space
    data of its load, ``known`` the tip fluxes it imposed (multipliers and
    Neumann data) and ``traces`` the tip traces it prescribed on edges
    ``1..m``.  The residuals of all steps are formed at once and edge by
    edge: a tip flux through ``W_i`` and ``K_i`` applied to the edge's flux
    probe, a junction flux through the edge's ``c`` row (``W_i`` and ``K_i``
    are symmetric).
    """
    pr, dt = system.problem, system.problem.time_grid.dt
    x = y.dofs[1:]
    rate = (x - prev) / dt
    tip = np.empty((len(x), pr.n))
    junction = np.zeros_like(tip)
    for i, (edge, grid, gi) in enumerate(zip(system.readouts, pr.grids, g)):
        xi, ri = system.edge_dofs(x, i), system.edge_dofs(rate, i)
        wg = grid.trapezoid_weights() * gi
        tip[:, i] = ri @ edge.w_probe + xi @ edge.k_probe - wg @ edge.probe
        if edge.mode is not None:
            junction[:, i] = known[:, i] - (
                ri @ edge.w_junction + xi @ edge.k_junction - wg @ edge.mode
            )

    energy = np.sqrt(
        sum(
            np.einsum("kj,j,kj->k", s, grid.trapezoid_weights(), s)
            for s, grid in zip(y.samples, pr.grids)
        )
    )
    cres = float(np.abs(y.tip_trace[1:, : pr.m] - traces).max()) if pr.m > 0 else 0.0
    first = np.zeros((1, pr.n))
    return GraphDiagnostics(
        np.vstack([first, tip]), np.vstack([first, junction]), energy, cres, **extra
    )


def _apriori_bounds(problem: StarGraphProblem) -> tuple[float, float]:
    """Closed-form a-priori bounds (energy norm, final time).  The graph bounds
    ``1/m + 1/m^2`` and ``1 + 1/m`` cover uncontrolled solutions; the single
    edge with a free Neumann tip has ``1/m + 2(b-a+1)/m^2`` and
    ``1 + 2(b-a+1)/m``, which also cover its Neumann control.  ``m`` is the
    smallest ``min(beta0, q0)``."""
    mbar = min(min(c.beta0, c.q0) for c in problem.coeffs)
    if problem.m == 0:
        span = problem.grids[0].b - problem.grids[0].a + 1.0
        return 1.0 / mbar + 2.0 * span / mbar**2, 1.0 + 2.0 * span / mbar
    return 1.0 / mbar + 1.0 / mbar**2, 1.0 + 1.0 / mbar


def _apriori_ratios(system: GraphSystem, y: GraphTrajectory, f, v) -> tuple[float, float]:
    """Measured a-priori ratios ``dt sum_k (||y^k||^2 + h ||D y^k||^2)`` and
    ``||y^Nt||^2`` over the data ``||y^0||^2 + dt sum_k (||f^k||^2 + |v^k|^2)``,
    ``k = 1..Nt``, summed over the edges; the data counts the energy of the
    Neumann controls ``v``."""
    pr, dm = system.problem, system.dofmap
    dt = pr.time_grid.dt
    lhs = final = 0.0
    data = dt * float(np.sum(v[:, 1:] ** 2))
    for i, grid in enumerate(pr.grids):
        s, w = y.samples[i], grid.trapezoid_weights()
        # the junction mode has no derivative, so D acts on the nodes alone
        Dy = y.dofs[1:, dm.edge_slice(i)] @ left_rl_derivative(pr.alpha, grid).T
        lhs += dt * (np.einsum("kj,j,kj->", s[1:], w, s[1:]) + grid.h * np.sum(Dy**2))
        data += s[0] @ (w * s[0]) + dt * np.einsum("kj,j,kj->", f[i][1:], w, f[i][1:])
        final += s[-1] @ (w * s[-1])
    if data <= 0.0:
        return 0.0, 0.0
    return float(lhs / data), float(final / data)


def diagnose_forward(
    system: GraphSystem,
    y: GraphTrajectory,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> GraphDiagnostics:
    """Diagnostics of a forward solution with controls ``u``, ``v`` (as passed
    to :func:`solve_forward_graph`).

    The a-priori ratios are measured where a closed-form bound covers the
    controls: without control, and for the single edge under Neumann control.
    """
    pr = system.problem
    nt = pr.time_grid.Nt
    u = _control_array(u, pr.n_dirichlet_channels, nt, "dirichlet")
    v = _control_array(v, pr.n_neumann_channels, nt, "neumann")
    f = _edge_sources(pr)
    ratio = ratio_T = 0.0
    if pr.m == 0 or not (np.any(u) or np.any(v)):
        ratio, ratio_T = _apriori_ratios(system, y, f, v)
    bound, bound_T = _apriori_bounds(pr)
    known = np.hstack([y.multipliers[1:], v[:, 1:].T])
    return _readout(
        system, y, y.dofs[:-1], [fi[1:] for fi in f], known,
        _prescribed_traces(u, pr.m)[1:], estimate_ratio=ratio, estimate_bound=bound,
        estimate_ratio_T=ratio_T, estimate_bound_T=bound_T,
    )


def diagnose_adjoint(system: GraphSystem, p: GraphTrajectory, y) -> GraphDiagnostics:
    """Diagnostics of the adjoint ``p`` of the forward solution ``y`` (anything
    with per-edge ``samples``), including the boundary-regularity ratio: the
    summed squared tip derivative traces ``(D^alpha p)(b_i^-)`` on Dirichlet
    tips against the squared misfit that drives the adjoint."""
    pr = system.problem
    tg = pr.time_grid
    omega = tg.trapezoid_weights()
    src = _misfit(pr, y)
    misfit = sum(
        float(np.einsum("k,kj,j,kj->", omega, s, grid.trapezoid_weights(), s))
        for s, grid in zip(src, pr.grids)
    )
    reg = 0.0
    if misfit > 0.0 and pr.m > 0:
        beta_b = np.array([pr.coeffs[i].beta[-1] for i in range(pr.m)])
        reg = float(
            np.sum(omega[:, None] * (p.dirichlet_flux_series / beta_b) ** 2) / misfit
        )
    g = [(omega[1:] / tg.dt)[:, None] * s[1:] for s in src]
    prev = np.vstack([p.dofs[2:], np.zeros((1, system.ndof))])
    known = np.hstack([p.multipliers[1:], np.zeros((tg.Nt, pr.n - pr.m))])
    return _readout(
        system, p, prev, g, known, np.zeros((tg.Nt, pr.m)), boundary_regularity_ratio=reg
    )
