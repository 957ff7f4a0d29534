"""Cost functionals, admissible sets, adjoint gradients and the outer
optimization loop for the boundary control problems.

There is one cost, one gradient and one optimizer driver, all on the star
graph.  A single-edge problem (:class:`EdgeControlProblem` with
``CostConfig(n_tikhonov, y_d)``) is solved as the one-edge graph with channel
weight ``[n_tikhonov]``; see :func:`as_graph_problem`.  :func:`optimize`
returns its state and adjoint as that graph's
:class:`~fracstar.graph_solver.GraphTrajectory`, as for any graph.  Costs use
the trapezoid rule in time and the lumped trapezoid pairing in space.  Gradients
come from :func:`fracstar.graph_solver.solve_adjoint_graph`, whose boundary
series are scaled to make them exact for the discrete cost; a central finite
difference of the cost therefore reproduces them to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edge_solver import edge_problem
from .errors import SolverFailure
from .graph_solver import (
    GraphTrajectory,
    StarGraphProblem,
    assemble_graph_system,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import TimeGrid
from .sturm import EdgeOperator

__all__ = [
    "AdmissibleSet",
    "CostConfig",
    "EdgeControlProblem",
    "OptimResult",
    "as_graph_problem",
    "cost_graph",
    "gradient_graph",
    "optimize",
]


@dataclass(frozen=True)
class AdmissibleSet:
    """Closed convex set of control values: unconstrained, or a pointwise box
    ``[lo, hi]`` (scalars or series)."""

    lo: float | np.ndarray | None = None
    hi: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        # stated positively, so a NaN bound fails
        lo = np.asarray(-np.inf if self.lo is None else self.lo, dtype=float)
        hi = np.asarray(np.inf if self.hi is None else self.hi, dtype=float)
        if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
            raise ValueError("box bounds must satisfy lo <= hi, lo < inf and hi > -inf pointwise")

    @classmethod
    def unconstrained(cls) -> "AdmissibleSet":
        return cls()

    @classmethod
    def box(cls, lo, hi) -> "AdmissibleSet":
        return cls(lo=lo, hi=hi)

    @property
    def kind(self) -> str:
        return "unconstrained" if self.lo is None and self.hi is None else "box"

    def project(self, candidate: np.ndarray) -> np.ndarray:
        candidate = np.asarray(candidate, dtype=float)
        if self.kind == "unconstrained":
            return candidate.copy()
        return np.clip(candidate, self.lo, self.hi)


@dataclass(frozen=True)
class CostConfig:
    """Tracking target and control penalties.

    ``n_tikhonov`` weights the single-edge control; ``channel_weights`` the
    graph channels, all one by default.  For the edge problem the target
    lives here; graph targets live on the problem.  A field the problem kind
    does not read is an error, not ignored: ``channel_weights`` on an edge
    problem (:func:`as_graph_problem`), ``n_tikhonov`` or ``y_d`` on a graph
    problem (:meth:`weights_for`).
    """

    n_tikhonov: float = 1.0
    channel_weights: np.ndarray | None = None
    y_d: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.n_tikhonov < np.inf:
            raise ValueError(
                f"Tikhonov weight must be positive and finite, got {self.n_tikhonov}"
            )
        if self.channel_weights is not None:
            w = np.asarray(self.channel_weights, dtype=float)
            if not np.all((0.0 < w) & (w < np.inf)):
                raise ValueError("channel weights must be positive and finite")

    def weights_for(self, problem: StarGraphProblem) -> np.ndarray:
        """The graph channels' control weights."""
        if self.n_tikhonov != 1.0:
            raise ValueError(
                "CostConfig.n_tikhonov is ignored on a graph problem: "
                "weight its channels with channel_weights"
            )
        if self.y_d is not None:
            raise ValueError(
                "CostConfig.y_d is ignored on a graph problem: "
                "its targets live on the problem"
            )
        nch = problem.n_channels
        if self.channel_weights is None:
            return np.ones(nch)
        w = np.asarray(self.channel_weights, dtype=float)
        if w.shape != (nch,):
            raise ValueError(f"expected {nch} channel weights, got shape {w.shape}")
        return w


@dataclass(frozen=True)
class EdgeControlProblem:
    """Single-edge tracking problem: Neumann control at ``b``, data fixed."""

    edge_op: EdgeOperator
    time_grid: TimeGrid
    f: np.ndarray | None
    y0: np.ndarray


@dataclass
class OptimResult:
    controls: np.ndarray = field(repr=False)
    cost_history: np.ndarray = field(repr=False)
    residual_history: np.ndarray = field(repr=False)
    state: GraphTrajectory = field(repr=False)
    adjoint: GraphTrajectory = field(repr=False)
    converged: bool = False
    reason: str = ""
    iterations: int = 0


def as_graph_problem(problem, cfg: CostConfig) -> tuple[StarGraphProblem, CostConfig]:
    """The star-graph problem and cost that :func:`optimize` solves.

    A graph problem passes through.  An :class:`EdgeControlProblem` becomes
    the one-edge graph (``m = 0``) with target ``cfg.y_d`` and channel weight
    ``[cfg.n_tikhonov]``.
    """
    if isinstance(problem, StarGraphProblem):
        return problem, cfg
    if not isinstance(problem, EdgeControlProblem):
        raise TypeError(f"cannot optimize a {type(problem).__name__}")
    if cfg.y_d is None:
        raise ValueError("edge cost needs cfg.y_d")
    if cfg.channel_weights is not None:
        raise ValueError(
            "CostConfig.channel_weights is ignored on an edge problem: "
            "weight its control with n_tikhonov"
        )
    graph = edge_problem(problem.edge_op, problem.time_grid, problem.f, problem.y0, cfg.y_d)
    return graph, CostConfig(channel_weights=np.array([cfg.n_tikhonov]))


def cost_graph(
    y: GraphTrajectory,
    controls: np.ndarray,
    problem: StarGraphProblem,
    cfg: CostConfig,
) -> float:
    """Tracking over all edges plus the per-channel control penalties."""
    omega = problem.time_grid.trapezoid_weights()
    total = 0.0
    for i in range(problem.n):
        ydi = problem.y_d[i]
        si = y.samples[i]
        diff = si if ydi is None else si - np.asarray(ydi, dtype=float)
        wx = problem.grids[i].trapezoid_weights()
        total += 0.5 * float(np.einsum("k,kj,j,kj->", omega, diff, wx, diff))
    w = cfg.weights_for(problem)
    controls = np.asarray(controls, dtype=float)
    for j in range(problem.n_channels):
        total += 0.5 * w[j] * float(omega @ controls[j] ** 2)
    return total


def gradient_graph(
    controls: np.ndarray,
    p: GraphTrajectory,
    problem: StarGraphProblem,
    cfg: CostConfig,
) -> np.ndarray:
    """Channel-wise optimality integrands: ``w_i u_i - (beta D^alpha p)(b_i^-)``
    on Dirichlet channels, ``w_i u_i + (I^(1-alpha) p)(b_i^-)`` on Neumann ones.
    """
    if p.dirichlet_flux_series is None or p.neumann_trace_series is None:
        raise ValueError("gradient_graph needs an adjoint GraphTrajectory")
    controls = np.asarray(controls, dtype=float)
    if controls.shape[0] != problem.n_channels:
        raise ValueError(
            f"expected {problem.n_channels} control channels, got {controls.shape[0]}"
        )
    w = cfg.weights_for(problem)
    g = np.empty_like(controls)
    nd = problem.n_dirichlet_channels
    for j in range(nd):
        g[j] = w[j] * controls[j] - p.dirichlet_flux_series[:, j + 1]
    for j in range(problem.n_neumann_channels):
        g[nd + j] = w[nd + j] * controls[nd + j] + p.neumann_trace_series[:, j]
    return g


def _normalize_sets(admissible, nchannels: int) -> list[AdmissibleSet]:
    if isinstance(admissible, AdmissibleSet):
        return [admissible] * nchannels
    sets = list(admissible)
    if len(sets) != nchannels:
        raise ValueError(f"expected {nchannels} admissible sets, got {len(sets)}")
    return sets


# Armijo parameters: fixed, deterministic defaults.
_ARMIJO_DECREASE = 1e-4
_ARMIJO_BACKTRACK = 0.5
_MAX_HALVINGS = 40


def optimize(
    problem,
    cfg: CostConfig,
    admissible,
    algo: str = "projected_gradient",
    tol: float = 1e-6,
    max_iter: int = 200,
    u0: np.ndarray | None = None,
) -> OptimResult:
    """Minimize the tracking cost over the admissible controls.

    The iteration starts from the projection of ``u0`` (one row per control
    channel, one column per time level: shape ``(n_channels, Nt + 1)``), or
    of zero.  ``algo`` is ``"projected_gradient"`` (Armijo backtracking along
    the projection arc) or ``"fixed_point"`` (damped iteration of the
    projected optimality map).  The cost is quadratic, so projected gradient
    measures a candidate's decrease exactly from the two gradients,
    ``J(c) - J(u) = 1/2 <g(u) + g(c), c - u>``, which resolves decreases far
    below the roundoff of the cost itself; the candidate's adjoint then
    serves as the next iterate's measurement, and ``cost_history``
    accumulates these differences from the cost of the start, so it never
    increases.  Termination uses the stationarity measure
    ``||u - P(u - g)|| / max(1, ||u||)`` in the trapezoid norm; exceeding
    ``max_iter`` flags the result as non-converged instead of raising.  The
    returned adjoint and the last stationarity entry always belong to the
    returned controls, so ``residual_history`` has one entry per
    ``cost_history`` entry.  No sweep inside the loop computes diagnostics.
    Edge problems are solved as the one-edge graph (:func:`as_graph_problem`);
    for every problem, ``state`` and ``adjoint`` are that graph's
    :class:`~fracstar.graph_solver.GraphTrajectory` (the graph adjoint, source
    ``y - y_d``), and their diagnostics are left to
    :func:`~fracstar.graph_solver.diagnose_forward` and
    :func:`~fracstar.graph_solver.diagnose_adjoint`.
    """
    if algo not in ("projected_gradient", "fixed_point"):
        raise ValueError(f"unknown algorithm {algo!r}")
    graph, graph_cfg = as_graph_problem(problem, cfg)
    nchannels, nd = graph.n_channels, graph.n_dirichlet_channels
    if nchannels == 0:
        raise ValueError("the problem has no control channel")
    tikhonov = graph_cfg.weights_for(graph)
    sets = _normalize_sets(admissible, nchannels)
    omega = graph.time_grid.trapezoid_weights()
    # One assembly, and so one set of step-matrix factors, serves every sweep.
    system = assemble_graph_system(graph)

    def forward(ctrl: np.ndarray) -> GraphTrajectory:
        return solve_forward_graph(graph, ctrl[:nd], ctrl[nd:], system=system)

    def measure(ctrl: np.ndarray, state: GraphTrajectory):
        """Adjoint and gradient of the controls ``ctrl`` with state ``state``."""
        adj = solve_adjoint_graph(graph, state, system=system)
        return adj, gradient_graph(ctrl, adj, graph, graph_cfg)

    def proj(ctrl: np.ndarray) -> np.ndarray:
        return np.stack([sets[j].project(ctrl[j]) for j in range(len(sets))])

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("jk,k,jk->", a, omega, b))

    def norm(a: np.ndarray) -> float:
        return float(np.sqrt(max(inner(a, a), 0.0)))

    res_hist: list[float] = []

    def stationarity(ctrl: np.ndarray, grad: np.ndarray) -> float:
        res_hist.append(norm(ctrl - proj(ctrl - grad)) / max(1.0, norm(ctrl)))
        return res_hist[-1]

    nt = graph.time_grid.Nt
    if u0 is None:
        ctrl = np.zeros((nchannels, nt + 1))
    else:
        ctrl = np.asarray(u0, dtype=float)
        if ctrl.shape != (nchannels, nt + 1):
            raise ValueError(f"u0 must have shape {(nchannels, nt + 1)}, got {ctrl.shape}")
    ctrl = proj(ctrl)

    state = forward(ctrl)
    cost_hist = [cost_graph(state, ctrl, graph, graph_cfg)]
    adj, grad = measure(ctrl, state)
    converged = False
    reason = "max_iter"
    iterations = 0

    damping = 1.0
    if algo == "fixed_point" and float(np.min(tikhonov)) < 1.0:
        damping = 0.5

    for it in range(1, max_iter + 1):
        iterations = it
        residual = stationarity(ctrl, grad)
        if residual <= tol:
            converged, reason = True, "stationarity"
            break

        if algo == "projected_gradient":
            step = 1.0
            accepted = stalled = False
            for _ in range(_MAX_HALVINGS + 1):
                cand = proj(ctrl - step * grad)
                decrease = inner(grad, ctrl - cand)
                if decrease <= 0.0:
                    # projection-arc fixed point at machine precision
                    stalled = True
                    break
                cand_state = forward(cand)
                cand_adj, cand_grad = measure(cand, cand_state)
                change = 0.5 * inner(grad + cand_grad, cand - ctrl)
                if change <= -_ARMIJO_DECREASE * decrease:
                    ctrl, state, adj, grad = cand, cand_state, cand_adj, cand_grad
                    cost_hist.append(cost_hist[-1] + change)
                    accepted = True
                    break
                step *= _ARMIJO_BACKTRACK
            if stalled:
                converged = residual <= tol
                reason = "stationarity" if converged else "rounding-limited"
                break
            if not accepted:
                raise SolverFailure(
                    f"line search failed after {_MAX_HALVINGS} halvings at "
                    f"iteration {it} (cost {cost_hist[-1]}, residual {residual})"
                )
        else:
            # projection formula: u = P(u - g / w), the boundary series over w
            target = proj(ctrl - grad / tikhonov[:, None])
            ctrl = (1.0 - damping) * ctrl + damping * target
            state = forward(ctrl)
            cost_hist.append(cost_graph(state, ctrl, graph, graph_cfg))
            adj, grad = measure(ctrl, state)
    else:
        # stopped at max_iter: the returned iterate is measured already
        residual = stationarity(ctrl, grad)
        converged = residual <= tol
        reason = "stationarity" if converged else "max_iter"

    return OptimResult(
        controls=ctrl,
        cost_history=np.array(cost_hist),
        residual_history=np.array(res_hist),
        state=state,
        adjoint=adj,
        converged=converged,
        reason=reason,
        iterations=iterations,
    )
