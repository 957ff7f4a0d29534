"""Cost functionals, admissible sets, adjoint gradients and the outer
optimization loop for the boundary control problems.

There is one cost, one gradient and one optimizer driver, all on the star
graph.  A single-edge problem (:class:`EdgeControlProblem` with
``CostConfig(n_tikhonov, y_d)``) is solved as the one-edge graph with channel
weight ``[n_tikhonov]``; see :func:`as_graph_problem`.  Costs use the
trapezoid rule in time and the lumped trapezoid pairing in space.  Gradients
come from :func:`fracstar.graph_solver.solve_adjoint_graph`, whose boundary
series are scaled to make them exact for the discrete cost; a central finite
difference of the cost therefore reproduces them to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edge_solver import Trajectory, edge_adjoint, edge_problem, edge_state
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
        if self.lo is not None and self.hi is not None:
            if np.any(np.asarray(self.lo) > np.asarray(self.hi)):
                raise ValueError("box bounds must satisfy lo <= hi pointwise")

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
    lives here; graph targets live on the problem.
    """

    n_tikhonov: float = 1.0
    channel_weights: np.ndarray | None = None
    y_d: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n_tikhonov <= 0.0:
            raise ValueError(f"Tikhonov weight must be positive, got {self.n_tikhonov}")
        if self.channel_weights is not None and np.any(
            np.asarray(self.channel_weights) <= 0.0
        ):
            raise ValueError("channel weights must be positive")

    def weights_for(self, problem: StarGraphProblem) -> np.ndarray:
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
    state: Trajectory | GraphTrajectory = field(repr=False)
    adjoint: Trajectory | GraphTrajectory = field(repr=False)
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

    ``algo`` is ``"projected_gradient"`` (Armijo backtracking along the
    projection arc) or ``"fixed_point"`` (damped iteration of the projected
    optimality map).  Termination uses the stationarity measure
    ``||u - P(u - g)|| / max(1, ||u||)`` in the trapezoid norm; exceeding
    ``max_iter`` flags the result as non-converged instead of raising.  The
    returned adjoint and the last stationarity entry always belong to the
    returned controls, so ``residual_history`` has one entry per
    ``cost_history`` entry.  No sweep inside the loop computes diagnostics.
    Edge problems are solved as the one-edge graph (:func:`as_graph_problem`)
    and report state and adjoint as :class:`~fracstar.edge_solver.Trajectory`,
    diagnosed once after the loop.
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
    # One assembly, and so one factorization, serves every sweep.
    system = assemble_graph_system(graph)

    def simulate(ctrl: np.ndarray):
        state = solve_forward_graph(graph, ctrl[:nd], ctrl[nd:], system=system)
        return state, cost_graph(state, ctrl, graph, graph_cfg)

    def proj(ctrl: np.ndarray) -> np.ndarray:
        return np.stack([sets[j].project(ctrl[j]) for j in range(len(sets))])

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("jk,k,jk->", a, omega, b))

    def norm(a: np.ndarray) -> float:
        return float(np.sqrt(max(inner(a, a), 0.0)))

    nt = graph.time_grid.Nt
    if u0 is None:
        ctrl = np.zeros((nchannels, nt + 1))
    else:
        ctrl = np.asarray(u0, dtype=float).reshape(nchannels, nt + 1).copy()
    ctrl = proj(ctrl)

    state, cost = simulate(ctrl)
    cost_hist = [cost]
    res_hist: list[float] = []
    converged = False
    reason = "max_iter"
    iterations = 0

    def measure():
        """Adjoint, gradient and stationarity of the current iterate."""
        adj = solve_adjoint_graph(graph, state, system=system)
        grad = gradient_graph(ctrl, adj, graph, graph_cfg)
        res_hist.append(norm(ctrl - proj(ctrl - grad)) / max(1.0, norm(ctrl)))
        return adj, grad, res_hist[-1]

    damping = 1.0
    if algo == "fixed_point" and float(np.min(tikhonov)) < 1.0:
        damping = 0.5

    for it in range(1, max_iter + 1):
        iterations = it
        adj, grad, residual = measure()
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
                cand_state, cand_cost = simulate(cand)
                if cand_cost <= cost - _ARMIJO_DECREASE * decrease:
                    ctrl, state, cost = cand, cand_state, cand_cost
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
                    f"iteration {it} (cost {cost}, residual {residual})"
                )
            cost_hist.append(cost)
        else:
            # projection formula: u = P(u - g / w), the boundary series over w
            target = proj(ctrl - grad / tikhonov[:, None])
            ctrl = (1.0 - damping) * ctrl + damping * target
            state, cost = simulate(ctrl)
            cost_hist.append(cost)
    else:
        # stopped at max_iter: measure the iterate that is returned
        adj, _, residual = measure()
        converged = residual <= tol
        reason = "stationarity" if converged else "max_iter"

    if graph is not problem:
        adj = edge_adjoint(system, adj, state)
        state = edge_state(system, state, ctrl[0])
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
