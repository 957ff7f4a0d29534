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
one at a time: it assembles an edge's nodal operator, takes the mass from the
grid and the junction mode's border and corner from
:func:`~fracstar.sturm.junction_rows`, which the system keeps for the sweeps
and diagnostics, forms the step block in place on ``K``, factors it and
releases ``K`` before the next edge.  A system keeps one square array per
edge, its propagator.

The forward sweep marches from ``y0``; the adjoint sweep marches backward
from ``p(T + dt) = 0`` with loads ``omega_k/dt M_ext [y - y_d]``, in the
extended mass ``M_ext`` the steps are built on, and is the exact
transpose of the discrete forward map for the trapezoid space-time cost.  The
boundary series it returns (multiplier fluxes on Dirichlet tips, traces on
Neumann tips) are scaled so that the first-order optimality residuals of the
discrete cost vanish exactly at a discrete minimizer.  The sweeps return the
solution only.  A sweep holds one trajectory-sized array, its solution's
rows: each step's load is formed, one edge's data at a time, in the row the
step overwrites, and the march scales it there; a Neumann control loads only
its edge's trace row and ``c``.  The adjoint forms its loads in time order and
marches through its rows from the last to the first, in place.

Diagnostics.  :func:`diagnose_forward` and :func:`diagnose_adjoint` read the
junction fluxes off the step residuals of a solution, all steps at once,
together with its energy, constraint residual, a-priori ratios and
boundary-regularity ratio.  The tip fluxes are not read a second time: a
Dirichlet tip's are its multipliers, and a Neumann tip's is its control.
The fluxes and the energy are linear or quadratic in the DOF rows, so each
edge's nodal block is read once, as a view of the rows, by its trapezoid
norm and one product with its junction rows of ``W`` and ``K``, and the
a-priori ratios take the energy's norms: no rate, edge-DOF or sample array
is formed, nor for the adjoint's misfit.  As in the loads, the junction mode
is paired with nodal data or states through its junction rows alone; samples
are formed for output only.  The diagnostics are computed on request; the
optimizer never calls them.
"""

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, cholesky, inv

from .errors import SolverFailure, checked
from .grids import Grid1D, TimeGrid
from .fracops import _derivative_blocks
from .sturm import EdgeCoefficients, JunctionRows, assemble_stiffness, junction_rows

__all__ = [
    "StarGraphProblem",
    "GlobalDofMap",
    "GraphSystem",
    "GraphTrajectory",
    "GraphDiagnostics",
    "assemble_graph_system",
    "solve_forward_graph",
    "solve_adjoint_graph",
    "diagnose_forward",
    "diagnose_adjoint",
]


class GlobalDofMap(NamedTuple):
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


@checked
class StarGraphProblem(NamedTuple):
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

    def _check(self) -> "StarGraphProblem":
        n = self.n
        if n == 0:
            raise ValueError("a star graph needs at least one edge")
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
        return tuple.__new__(type(self), (*self[:-1], n >= 2))

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


class EdgeSamples(Sequence):
    """The per-edge nodal samples of the DOF rows ``dofs`` (any leading axes),
    for output: item ``i`` is edge ``i``'s nodal block plus ``c`` times its
    junction mode, a new array formed each time it is read.  It holds the
    rows, the layout and the junction rows (none without the junction mode),
    by which the cost pairs the mode, not the system they were solved on."""

    __slots__ = ("dofs", "dofmap", "junctions")

    def __init__(self, dofs: np.ndarray, dofmap: GlobalDofMap, junctions: list[JunctionRows]):
        self.dofs, self.dofmap, self.junctions = dofs, dofmap, junctions

    def __len__(self) -> int:
        return len(self.dofmap.nnodes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # a negative index counts from the end
        x = self.dofs[..., self.dofmap.edge_slice(i)]
        if self.dofmap.c_index is None:
            return np.array(x)
        # the outer product c mode, with no broadcast ufunc's buffers
        s = np.einsum("...,j->...j", self.dofs[..., self.dofmap.c_index], self.junctions[i].mode)
        s += x
        return s

    def on(self, dofs: np.ndarray) -> "EdgeSamples":
        """The samples of other DOF rows in the same layout."""
        return EdgeSamples(dofs, self.dofmap, self.junctions)


class GraphSystem(NamedTuple):
    """Assembled graph operator, stored per edge: each edge's junction rows
    (``junctions``, :class:`~fracstar.sturm.JunctionRows`, none without the
    junction mode), the tip trace rows of all edges (the first ``m`` are the
    constraint rows of the Dirichlet-type tips, ``B`` in :func:`_march`), and
    the inverted step matrix.  No edge's ``K`` is kept, nor a list of free
    DOFs: an edge's one square array is its propagator, on its free nodes.

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
    junctions: list[JunctionRows]
    trace_b_rows: np.ndarray
    mass: np.ndarray
    edge_propagators: list[tuple[slice, np.ndarray]]
    update_cols: np.ndarray
    update_rows: np.ndarray
    schur_inv: np.ndarray | None

    @property
    def ndof(self) -> int:
        return self.dofmap.ndof

    def samples(self, Y: np.ndarray) -> EdgeSamples:
        """The per-edge nodal samples of the DOF rows ``Y``, each formed when
        read."""
        return EdgeSamples(Y, self.dofmap, self.junctions)


def _add_loads(system: GraphSystem, g: list, out: np.ndarray | None = None) -> np.ndarray:
    """Add the global load of per-edge sample-space data ``g``,
    ``sum_i E_i^T (W_i g_i)``, to ``out`` in place, or to zeros, and return
    it: the nodes take ``w_trap g_i``, and ``c`` takes ``g_i`` times the
    nodal part of the junction row of ``W_i``, the product the diagnostics'
    loads take.  Each ``g_i`` may carry leading axes (time steps); the load
    has them too."""
    dm = system.dofmap
    if out is None:
        out = np.zeros(np.shape(g[0])[:-1] + (system.ndof,))
    for i, (grid, gi) in enumerate(zip(system.problem.grids, g)):
        out[..., dm.edge_slice(i)] += grid.trapezoid_weights() * gi
        if dm.c_index is not None:
            out[..., dm.c_index] += gi @ system.junctions[i].w[:-1]
    return out


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
    the next edge is assembled.  Overflow or NaN raises :class:`SolverFailure`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _assemble(problem)
    except FloatingPointError as exc:
        raise SolverFailure(f"assembly failed: {exc}") from None


def _dofmap(problem: StarGraphProblem) -> GlobalDofMap:
    """The problem's layout: each edge's nodes in order, then ``c`` with the
    junction mode."""
    nnodes = tuple(g.nnodes for g in problem.grids)
    offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(nnodes)[:-1]]))
    c_index = offsets[-1] + nnodes[-1] if problem.include_junction_mode else None
    return GlobalDofMap(offsets=offsets, nnodes=nnodes, c_index=c_index)


def _assemble(problem: StarGraphProblem) -> GraphSystem:
    n, m = problem.n, problem.m
    dt = problem.time_grid.dt
    include_mode = problem.include_junction_mode
    offsets, nnodes, c_index = dm = _dofmap(problem)
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
    junctions = []
    for i, (grid, coeffs) in enumerate(zip(problem.grids, problem.coeffs)):
        op = assemble_stiffness(problem.alpha, grid, coeffs)
        sl = dm.edge_slice(i)
        nn = nnodes[i]
        # sturm decides the pinned nodes, which lead the edge's block
        first = int(op.free[0])
        fs = slice(first, nn)
        gs = slice(offsets[i] + first, offsets[i] + nn)
        trace_b[i, sl] = op.trace_b
        mass[sl] = grid.trapezoid_weights()
        if include_mode:
            junction = junction_rows(problem.alpha, grid, coeffs)
            junctions.append(junction)
            mass[c_index] += junction.w[-1]
            junction_mass[sl] = junction.w[:-1]
            trace_b[i, c_index] = 1.0  # the junction mode's tip trace
            border[gs, 0] = junction.w[fs] / dt + junction.k[fs]
            corner[0, 0] += junction.w[-1] / dt + junction.k[-1]
        if i < m:
            border[gs, k + i] = op.trace_b[fs]
            corner[:k, k + i] = corner[k + i, :k] = 1.0
        # the mass is diagonal on the nodes, so A_i = W_i/dt + K_i is K's
        # block with mass/dt added to its diagonal in place; K is released
        # once it is factored
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

    # the trace rows of edges 1..m have full rank on the free DOFs: each is
    # nonzero on a free node of its own edge, which no other row touches
    # (w[0] > 0 at node M - 1 for alpha < 1, at node M for alpha = 1)
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
        junctions=junctions,
        trace_b_rows=trace_b,
        mass=mass,
        edge_propagators=propagators,
        update_cols=cols,
        update_rows=rows,
        schur_inv=schur_inv,
    )


class GraphTrajectory(NamedTuple):
    """Space-time solution on the graph.

    ``dofs`` stores the raw global vectors, the one trajectory-sized array
    kept.  ``samples`` is an :class:`EdgeSamples` on them: ``samples[i]``
    forms edge ``i``'s nodal samples, including the singular part, as a new
    array each time it is read (so a write to it does not persist), and
    ``len``, iteration and negative indices work as on a list.  ``c`` is a
    view of the junction coefficient's column of ``dofs``.  ``multipliers``
    are the Dirichlet tip fluxes ``(beta D^alpha y)(b_i^-)`` (index 0 carries
    no step).  For adjoint solutions, ``dirichlet_flux_series`` and
    ``neumann_trace_series`` hold the gradient-consistent boundary series of
    the optimality system.
    """

    dofs: np.ndarray
    samples: EdgeSamples
    c: np.ndarray
    multipliers: np.ndarray
    tip_trace: np.ndarray
    dirichlet_flux_series: np.ndarray | None = None
    neumann_trace_series: np.ndarray | None = None


class GraphDiagnostics(NamedTuple):
    """Properties of a graph solution, measured by :func:`diagnose_forward`
    or :func:`diagnose_adjoint`.

    ``junction_flux[k, i]`` is edge ``i``'s flux into the junction, read off
    the residual of step ``k``, whose sum over the edges is the discrete
    Kirchhoff balance (index 0 carries no step; without the junction mode it
    is zero).  The tip fluxes ``(beta D^alpha y)(b_i^-)`` are not measured
    here: the solution's ``multipliers`` are those of the Dirichlet tips, and
    a Neumann tip's is its control.  ``energy`` is the L2 norm per time;
    ``constraint_residual`` the largest deviation of the tip traces of edges
    ``1..m`` from their prescribed values.  The a-priori ratios (forward
    only) are measured against their closed-form bounds and read 0 where no
    bound covers the controls; the boundary-regularity ratio (adjoint only)
    reads 0 without Dirichlet tips.
    """

    junction_flux: np.ndarray
    energy: np.ndarray
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


def _edge_data(problem: StarGraphProblem, field: str) -> list[np.ndarray]:
    """Each edge's ``f``, ``y_d`` or ``y0`` (``field``), checked against its
    grid; an absent series as read-only zeros that take no memory."""
    out = []
    for i, (fi, grid) in enumerate(zip(getattr(problem, field), problem.grids)):
        shape = (grid.nnodes,) if field == "y0" else (problem.time_grid.Nt + 1, grid.nnodes)
        fi = np.broadcast_to(0.0, shape) if fi is None else np.asarray(fi, dtype=float)
        if fi.shape != shape:
            name = {"f": "source", "y_d": "target", "y0": "initial datum"}[field]
            raise ValueError(f"edge {i + 1} {name} must have shape {shape}, got {fi.shape}")
        out.append(fi)
    return out


def _system_for(problem: StarGraphProblem, system: GraphSystem | None) -> GraphSystem:
    """``system``, or else ``problem``'s assembly; a system for another operator raises."""
    if system is None or system.problem is problem:
        return assemble_graph_system(problem) if system is None else system
    a, b = system.problem, problem  # the data (f, y0, y_d, c0) may differ
    if (a.alpha, a.time_grid, a.grids, a.m) != (b.alpha, b.time_grid, b.grids, b.m) or not all(
        x is y or all(map(np.array_equal, x, y)) for x, y in zip(a.coeffs, b.coeffs)
    ):
        raise ValueError("the system was assembled for another operator")
    return system


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a non-finite term, unwarned
def _tracking(problem: StarGraphProblem, junctions: list[JunctionRows], dofs, out=None):
    """The extended mass on the misfit ``d = [x - y_d; c]`` of the DOF rows
    ``dofs`` (``x`` alone without a target), the one place it meets states:
    ``<d, M_ext d>`` per row, and per edge its nodes' product with ``w[:-1]``,
    the border's share in ``c``'s row (none without the junction mode).
    ``M_ext d`` goes into the zeros ``out``, if given: the nodes take
    ``w_trap (x - y_d) + c w[:-1]``, and ``c`` the products plus ``c w[-1]``."""
    dm, squared, products = _dofmap(problem), np.zeros(len(dofs)), []
    for i, (grid, ydi) in enumerate(zip(problem.grids, _edge_data(problem, "y_d"))):
        sl, wt = dm.edge_slice(i), grid.trapezoid_weights()
        d = dofs[:, sl] - ydi
        squared += np.einsum("kj,j,kj->k", d, wt, d)
        if out is not None:
            np.multiply(d, wt, out=out[:, sl])
        if dm.c_index is not None:
            c, w = dofs[:, dm.c_index], junctions[i].w
            products.append(d @ w[:-1])
            squared += c * (2.0 * products[-1] + c * w[-1])
        if out is not None and dm.c_index is not None:  # c's border column, in d's place
            out[:, sl] += np.multiply.outer(c, w[:-1], out=d)
            out[:, dm.c_index] += products[-1] + c * w[-1]
        del d  # before the next edge's is formed
    return squared, products


def _prescribed_traces(u: np.ndarray, m: int) -> np.ndarray:
    """Tip traces of edges ``1..m`` per time: the clamped root, then ``u``."""
    traces = np.zeros((u.shape[1], m))
    traces[:, 1:] = u.T
    return traces


def _march(system: GraphSystem, start, rows, traces, what: str, stream=None, _backward=False):
    """Implicit Euler from ``x_0 = start`` in place: on entry ``rows[j]``
    holds the load ``l_j`` of step ``j``, which solves
    ``(W/dt + K) x_{j+1} + B^T mu_j = W x_j/dt + l_j``,
    ``B x_{j+1} = traces[j]``; on return it holds ``x_{j+1}``.  With
    ``_backward`` (the adjoint's) the march takes the rows from the last to
    the first: a row's previous state is the row after it, the last row's is
    ``start``, and the multipliers come back in the rows' order.

    The border's share of every step's loads and traces is solved before the
    march, in one product; then the loads are scaled by ``dt/mass`` in place.
    Each step adds ``x_j`` to its row, applies every edge's propagator to it
    in a scratch row (a product may not overwrite its operand), copies that
    row in and adds the rank-``r`` update ``U (H x_j + w_j)``, whose
    coefficients hold ``c`` and the negated multipliers.  The scratch row is
    zero off the propagated nodes, so ``c`` and a pinned node take the
    update alone.  A ``stream`` (forward only, ``rows`` its ``rows[1:]``) is
    handed step ``j`` by ``send(j + 2)``; its rows after those handed over
    hold scaled loads until their steps.  Returns the multipliers ``-mu_j``.
    The data are checked for finiteness once before the march, the solution
    once after it.
    """
    if not all(np.isfinite(a).all() for a in (start, rows, traces)):
        raise SolverFailure(f"non-finite {what} right-hand side")
    dt, m = system.problem.time_grid.dt, system.problem.m
    U, H, schur = system.update_cols, system.update_rows, system.schur_inv
    r = len(H)
    nt = len(rows)
    w = np.zeros((nt, r))
    scratch = np.zeros(system.ndof)
    # a non-finite inverse surfaces as non-finite states, reported below
    with np.errstate(invalid="ignore", over="ignore"):
        if schur is not None:
            k = r - len(schur)  # 1 with the junction coefficient, else 0
            data = rows @ U[:, k:]
            data[:, k:] += traces  # after c, the multipliers
            w[:, k:] = data @ schur.T
        rows *= dt / system.mass
        prev = start
        for j in reversed(range(nt)) if _backward else range(nt):
            xj = rows[j]
            xj += prev
            for gs, prop in system.edge_propagators:
                np.matmul(prop, xj[gs], out=scratch[gs])
            xj[:] = scratch
            if r:
                wj = w[j]
                wj += H @ prev
                xj += U @ wj
            prev = xj
            if stream is not None:
                stream.send(j + 2)
    mult = -w[:, r - m :]
    if not (np.isfinite(rows).all() and np.isfinite(mult).all()):
        raise SolverFailure(f"non-finite {what} solve (singular saddle point?)")
    return mult


def _trajectory(system: GraphSystem, dofs, mult, **series) -> GraphTrajectory:
    dm = system.dofmap
    return GraphTrajectory(
        dofs=dofs,
        samples=system.samples(dofs),
        c=dofs[:, dm.c_index] if dm.c_index is not None else np.zeros(len(dofs)),
        multipliers=mult,
        tip_trace=dofs @ system.trace_b_rows.T,
        **series,
    )


def solve_forward_graph(
    problem: StarGraphProblem,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    system: GraphSystem | None = None,
    stream=None,
) -> GraphTrajectory:
    """March the controlled graph system.

    ``u`` holds the Dirichlet trace controls for edges ``2..m`` (shape
    ``(m-1, Nt+1)``), ``v`` the Neumann flux controls for edges ``m+1..n``
    (shape ``(n-m, Nt+1)``); the root trace is clamped to zero.  Controls at
    ``t = 0`` never enter the fully implicit stepping.  A ``stream`` takes
    each row of ``dofs`` once it is final (:func:`_march`)."""
    system = _system_for(problem, system)
    nt, m = problem.time_grid.Nt, problem.m
    u = _control_array(u, problem.n_dirichlet_channels, nt, "dirichlet")
    v = _control_array(v, problem.n_neumann_channels, nt, "neumann")
    f = _edge_data(problem, "f")
    dm = system.dofmap

    # row 0 the start, every later row its step's load
    x = np.zeros((nt + 1, system.ndof)) if stream is None else stream.rows
    for i, y0 in enumerate(_edge_data(problem, "y0")):
        x[0, dm.edge_slice(i)] = y0
    x[0, dm.junction] = problem.c0
    loads = x[1:]
    _add_loads(system, [fi[1:] for fi in f], loads)
    # a Neumann channel loads its edge's trace row, and c by the junction
    # mode's trace: the channels' sum in their order, as a product with the
    # stacked rows sums it
    tb, c = system.trace_b_rows, dm.c_index
    junction = np.zeros(nt)
    for i, vi in enumerate(v[:, 1:], start=m):
        sl = dm.edge_slice(i)
        loads[:, sl] += np.multiply.outer(vi, tb[i, sl])
        if c is not None:
            junction += vi * tb[i, c]
    if c is not None:
        loads[:, c] += junction
    mult = _march(system, x[0], loads, _prescribed_traces(u, m)[1:], "forward", stream)
    return _trajectory(system, x, np.vstack([np.zeros((1, m)), mult]))


def solve_adjoint_graph(
    problem: StarGraphProblem,
    y: GraphTrajectory,
    system: GraphSystem | None = None,
) -> GraphTrajectory:
    """Backward solve of the graph adjoint with source ``y - y_d``, clamped
    traces on edges ``1..m`` and flux-free tips on ``m+1..n``, for ``y``
    anything with DOF rows ``dofs``.  Its loads, the extended mass on the
    misfit (:func:`_tracking`), are formed in time order in the rows of the
    solution, which the march fills in place from the last row to the first;
    no second trajectory-sized array is made.

    Returns the adjoint trajectory together with the two boundary series of
    the optimality system: ``(beta D^alpha p)(b_i^-, .)`` read from the
    multipliers on Dirichlet tips and ``(I^(1-alpha) p)(b_i^-, .)`` from the
    trace rows on Neumann tips, both scaled to be exact discrete gradients of
    the trapezoid cost (their ``t = 0`` entries are zero).
    """
    system = _system_for(problem, system)
    nt, dt, m = problem.time_grid.Nt, problem.time_grid.dt, problem.m
    omega = problem.time_grid.trapezoid_weights()

    # an overflowing misfit is a non-finite right-hand side, which the march
    # reports without a numpy warning
    p = np.zeros((nt + 1, system.ndof))
    _tracking(problem, system.junctions, y.dofs, p)
    with np.errstate(over="ignore", invalid="ignore"):
        p *= (omega / dt)[:, None]
    mult = _march(
        system, np.zeros(system.ndof), p, np.zeros((nt + 1, m)), "adjoint", _backward=True
    )
    mult[0] = 0.0
    scale = np.concatenate([[0.0], dt / omega[1:]])[:, None]
    return _trajectory(
        system, p, mult,
        dirichlet_flux_series=scale * mult,
        neumann_trace_series=scale * (p @ system.trace_b_rows[m:].T),
    )


def _readout(system: GraphSystem, y: GraphTrajectory, adjoint: bool, loads, known, traces):
    """Junction fluxes, energy and constraint residual of a march.

    Row ``j`` of the inputs belongs to the step that solved ``y.dofs[j + 1]``
    from the row before it, or, for the ``adjoint``, from the row after it
    (zero after the last).  ``loads`` yields each edge's step loads on ``c``
    (its data times the nodal part of the junction row of ``W_i``), edge by
    edge, and nothing without the junction mode; ``known`` holds the tip
    fluxes the steps imposed (multipliers and Neumann data) and ``traces``
    the tip traces they prescribed on edges ``1..m``.  Each edge's nodal
    block ``x`` is read once, as a view of all the rows: its trapezoid norm,
    and one product with the nodal parts of its junction rows of ``W_i`` and
    ``K_i``.  With the corners, that product gives the mode's share of the
    squared energy, ``c (2 <x, w mode> + c |mode|^2_w)``, and the edge's
    residual in its ``c`` row (``W_i`` and ``K_i`` are symmetric; the ``W``
    row applied to the step's rate is the difference of two rows' products
    over ``dt``).  An edge's junction flux is its tip flux less that residual.
    """
    pr, dm, dt = system.problem, system.dofmap, system.problem.time_grid.dt
    junction = np.zeros((len(y.dofs), pr.n))  # row 0 carries no step
    squared = np.zeros(len(y.dofs))
    loads = iter(loads)
    for i, grid in enumerate(pr.grids):
        x = y.dofs[:, dm.edge_slice(i)]
        squared += np.einsum("kj,j,kj->k", x, grid.trapezoid_weights(), x)
        if dm.c_index is None:
            continue
        c, rows = y.dofs[:, dm.c_index], system.junctions[i]
        products = x @ np.column_stack([rows.w[:-1], rows.k[:-1]])
        squared += c * (2.0 * products[:, 0] + c * rows.w[-1])
        # c's share a column at a time: a broadcast product would buffer
        for column, corner in zip(products.T, (rows.w[-1], rows.k[-1])):
            column += corner * c
        w, k = products[:, 0], products[1:, 1]  # by W_i, and by K_i
        prev = np.append(w[2:], 0.0) if adjoint else w[:-1]
        junction[1:, i] = known[:, i] - ((w[1:] - prev) / dt + k - next(loads))
    cres = float(np.abs(y.tip_trace[1:, : pr.m] - traces).max()) if pr.m > 0 else 0.0
    return GraphDiagnostics(junction, np.sqrt(squared), cres)


def _apriori_bounds(problem: StarGraphProblem) -> tuple[float, float]:
    """Closed-form a-priori bounds (energy norm, final time).  The graph bounds
    ``1/m + 1/m^2`` and ``1 + 1/m`` cover uncontrolled solutions; the single
    edge with a free Neumann tip has ``1/m + 2(b-a+1)/m^2`` and
    ``1 + 2(b-a+1)/m``, which also cover its Neumann control.  ``m`` is the
    smallest ``min(beta0, q0)``."""
    mbar = min(min(c.beta0, c.q0) for c in problem.coeffs)
    if problem.m == 0:
        span = problem.grids[0].b - problem.grids[0].a + 1.0
        return 1.0 / mbar + 2.0 * span / mbar / mbar, 1.0 + 2.0 * span / mbar
    return 1.0 / mbar + 1.0 / mbar / mbar, 1.0 + 1.0 / mbar


# Rows of an edge's derivative D that _apriori_ratios holds at a time.
_D_ROWS = 64


def _apriori_ratios(system: GraphSystem, dofs, squared, f, v) -> tuple[float, float]:
    """Measured a-priori ratios ``dt sum_k (||y^k||^2 + h ||D y^k||^2)`` and
    ``||y^Nt||^2`` over the data ``||y^0||^2 + dt sum_k (||f^k||^2 + |v^k|^2)``,
    ``k = 1..Nt``, summed over the edges; the data counts the energy of the
    Neumann controls ``v``.  The norms ``||y^k||^2`` are the squared
    energies ``squared`` of the rows ``dofs``, so no samples are formed; the
    junction mode has no derivative, so ``D`` acts on a view of each edge's
    nodal block.  One edge's ``D y`` is held at a time, and ``D`` is read a
    block of ``_D_ROWS`` rows at a time."""
    pr, dm = system.problem, system.dofmap
    dt = pr.time_grid.dt
    derivative = 0.0
    data = squared[0] + dt * float(np.sum(v[:, 1:] ** 2))
    for i, grid in enumerate(pr.grids):
        x = dofs[1:, dm.edge_slice(i)]
        Dy = np.empty((len(x), grid.M))
        for start, block in _derivative_blocks(pr.alpha, grid, _D_ROWS):
            np.matmul(x, block.T, out=Dy[:, start : start + len(block)])
        del block
        Dy *= Dy
        derivative += grid.h * np.sum(Dy)
        del Dy
        data += dt * np.einsum("kj,j,kj->", f[i][1:], grid.trapezoid_weights(), f[i][1:])
    if data <= 0.0:
        return 0.0, 0.0
    lhs = dt * (np.sum(squared[1:]) + derivative)
    return float(lhs / data), float(squared[-1] / data)


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
    f = _edge_data(pr, "f")
    loads = (fi[1:] @ junction.w[:-1] for fi, junction in zip(f, system.junctions))
    known = np.hstack([y.multipliers[1:], v[:, 1:].T])
    d = _readout(system, y, False, loads, known, _prescribed_traces(u, pr.m)[1:])
    ratio = ratio_T = 0.0
    if pr.m == 0 or not (np.any(u) or np.any(v)):
        ratio, ratio_T = _apriori_ratios(system, y.dofs, d.energy**2, f, v)
    bound, bound_T = _apriori_bounds(pr)
    return d._replace(estimate_ratio=ratio, estimate_bound=bound, estimate_ratio_T=ratio_T,
                      estimate_bound_T=bound_T)


def diagnose_adjoint(system: GraphSystem, p: GraphTrajectory, y) -> GraphDiagnostics:
    """Diagnostics of the adjoint ``p`` of the forward solution ``y`` (anything
    with DOF rows ``dofs``), including the boundary-regularity ratio: the
    summed squared tip derivative traces ``(D^alpha p)(b_i^-)`` on Dirichlet
    tips against the squared misfit that drives the adjoint, paired in the
    extended mass (:func:`_tracking`)."""
    pr = system.problem
    tg = pr.time_grid
    omega = tg.trapezoid_weights()
    squared, products = _tracking(pr, system.junctions, y.dofs)
    misfit = float(omega @ squared)
    c = system.dofmap.c_index  # an edge's load on c: its product, and c's share
    loads = [omega[1:] / tg.dt * (b + y.dofs[:, c] * rows.w[-1])[1:]
             for b, rows in zip(products, system.junctions)]
    reg = 0.0
    if misfit > 0.0 and pr.m > 0:
        beta_b = np.array([pr.coeffs[i].beta[-1] for i in range(pr.m)])
        reg = float(
            np.sum(omega[:, None] * (p.dirichlet_flux_series / beta_b) ** 2) / misfit
        )
    known = np.hstack([p.multipliers[1:], np.zeros((tg.Nt, pr.n - pr.m))])
    d = _readout(system, p, True, loads, known, np.zeros((tg.Nt, pr.m)))
    return d._replace(boundary_regularity_ratio=reg)
