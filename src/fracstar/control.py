"""Cost functionals, admissible sets, adjoint gradients and the outer
optimization loop for the boundary control problems.

There is one cost, one gradient and one optimizer driver, all on the star
graph: a single edge is the one-edge graph (``m = 0``).  Costs use the
trapezoid rule in time and the scheme's extended mass in space.  Gradients
come from :func:`fracstar.graph_solver.solve_adjoint_graph`, whose boundary
series are scaled to make them exact for the discrete cost; a central finite
difference of the cost therefore reproduces them to roundoff.

The state equation is linear and time-invariant and the cost quadratic, so
the discrete reduced problem is an exact dense quadratic program in the
``n_ch * Nt`` control values.  :func:`reduced_hessian` builds its Hessian
``Q`` from one impulse-response march per channel.  While
``n_ch * Nt <= 4096`` (``_DENSE_LIMIT``; ``Q`` then takes at most 134 MB),
:func:`optimize` measures the gradient once at the start and evaluates every
later one as that gradient plus one dense product with ``Q``; above the
limit, each gradient costs a forward and an adjoint march.
"""

from typing import NamedTuple

import numpy as np

from .errors import SolverFailure, checked
from .graph_solver import (
    GraphSystem,
    GraphTrajectory,
    StarGraphProblem,
    _control_array,
    _tracking,
    assemble_graph_system,
    solve_adjoint_graph,
    solve_forward_graph,
)

__all__ = [
    "AdmissibleSet",
    "CostConfig",
    "OptimResult",
    "cost_graph",
    "gradient_graph",
    "optimize",
    "reduced_hessian",
]


@checked
class AdmissibleSet(NamedTuple):
    """Closed convex set of control values: unconstrained, or a pointwise box
    ``[lo, hi]`` (scalars or series)."""

    lo: float | np.ndarray | None = None
    hi: float | np.ndarray | None = None

    def _check(self) -> None:
        # stated positively, so a NaN bound fails
        lo = np.asarray(-np.inf if self.lo is None else self.lo, dtype=float)
        hi = np.asarray(np.inf if self.hi is None else self.hi, dtype=float)
        if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
            raise ValueError("box bounds must satisfy lo <= hi, lo < inf and hi > -inf pointwise")


@checked
class CostConfig(NamedTuple):
    """Control penalties, by one rule on every problem: channel ``j`` is
    weighted by ``channel_weights[j]`` where those are given, else by
    ``n_tikhonov``.  Targets live on the problem; ``y_d`` is the target of an
    :class:`~fracstar.edge_solver.EdgeControlProblem`, read only by
    :func:`~fracstar.validation.finite_difference_gradient`.  A field the
    rule would ignore raises in :meth:`weights_for`: ``n_tikhonov != 1``
    beside ``channel_weights``, and ``y_d``.
    """

    n_tikhonov: float = 1.0
    channel_weights: np.ndarray | None = None
    y_d: np.ndarray | None = None

    def _check(self) -> None:
        if not 0.0 < self.n_tikhonov < np.inf:
            raise ValueError(
                f"Tikhonov weight must be positive and finite, got {self.n_tikhonov}"
            )
        if self.channel_weights is not None:
            w = np.asarray(self.channel_weights, dtype=float)
            if not np.all((0.0 < w) & (w < np.inf)):
                raise ValueError("channel weights must be positive and finite")

    def weights_for(self, problem: StarGraphProblem) -> np.ndarray:
        """The channels' control weights."""
        if self.y_d is not None:
            raise ValueError(
                "CostConfig.y_d is ignored on a graph problem: "
                "its targets live on the problem"
            )
        nch = problem.n_channels
        if self.channel_weights is None:
            return np.full(nch, self.n_tikhonov)
        if self.n_tikhonov != 1.0:
            raise ValueError(
                "CostConfig.n_tikhonov is ignored beside channel_weights: "
                "give one of them"
            )
        w = np.asarray(self.channel_weights, dtype=float)
        if w.shape != (nch,):
            raise ValueError(f"expected {nch} channel weights, got shape {w.shape}")
        return w


class OptimResult(NamedTuple):
    controls: np.ndarray
    cost_history: np.ndarray
    residual_history: np.ndarray
    state: GraphTrajectory
    adjoint: GraphTrajectory
    converged: bool = False
    reason: str = ""
    iterations: int = 0


def cost_graph(
    y: GraphTrajectory,
    controls: np.ndarray,
    problem: StarGraphProblem,
    cfg: CostConfig,
) -> float:
    """Tracking over all edges in the extended mass, plus the per-channel penalties."""
    controls = _control_array(controls, problem.n_channels, problem.time_grid.Nt, "channel")
    omega = problem.time_grid.trapezoid_weights()
    junctions = y.samples.junctions if problem.include_junction_mode else []
    total = 0.5 * float(omega @ _tracking(problem, junctions, y.dofs)[0])
    w = cfg.weights_for(problem)
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
    controls = _control_array(controls, problem.n_channels, problem.time_grid.Nt, "channel")
    w = cfg.weights_for(problem)
    g = np.empty_like(controls)
    nd = problem.n_dirichlet_channels
    for j in range(nd):
        g[j] = w[j] * controls[j] - p.dirichlet_flux_series[:, j + 1]
    for j in range(problem.n_neumann_channels):
        g[nd + j] = w[nd + j] * controls[nd + j] + p.neumann_trace_series[:, j]
    return g


def reduced_hessian(system: GraphSystem, cfg: CostConfig) -> np.ndarray:
    """Hessian ``Q`` of the discrete cost of ``system.problem`` in the
    controls ``u[:, 1:]``, channel-major, shape ``(n_ch Nt, n_ch Nt)``.

    The cost is quadratic, so with ``d = u - u_ref`` the gradient of
    :func:`gradient_graph` is exactly ``g(u_ref)`` plus ``(Q d[:, 1:]) /
    omega[1:]`` on the controlled columns and plus ``w d[:, 0]`` at
    ``t = 0``, whose controls never enter the state.  The step matrix and
    ``dt`` do not change in time, so a unit control on channel ``c`` at step
    ``k`` gives the state ``H_c[j - k]`` at every step ``j >= k``, and one
    march per channel from zero data, with a unit impulse at step 1, yields
    every response.  With the Gram ``G_cd[a, b] = <H_c[a], M_ext H_d[b]>``
    in the extended mass,
    ``Q[(c, k), (d, l)] = sum_{j >= max(k, l)} omega_j G_cd[j - k, j - l]
    + delta_cd w_c omega_k``.  On the DOF rows ``H`` the Gram is
    ``(H sqrt(mass)) (H sqrt(mass))^T + a b^T + b a^T``: ``a`` is their ``c``
    column, ``b`` the border's product with their nodes (:func:`_tracking`).
    It is turned into ``Q`` in place, by suffix sums along its diagonals and
    one correction per entry for the trapezoid's last weight:
    ``O(n_ch^2 Nt^2)`` beyond the Gram.  ``Q`` is exactly symmetric.
    """
    problem = system.problem
    nch, nd, nt = problem.n_channels, problem.n_dirichlet_channels, problem.time_grid.Nt
    omega = problem.time_grid.trapezoid_weights()
    dm, root_mass = system.dofmap, np.sqrt(system.mass)
    still = problem._replace(f=[None] * problem.n, y_d=[None] * problem.n, c0=0.0,
                             y0=[np.zeros(g.nnodes) for g in problem.grids])
    # row (c, a) holds H_c[Nt - 1 - a], weighted so that H H^T is the Gram's
    # diagonal part, and a and b its junction part
    H = np.empty((nch, nt, system.ndof))
    a, b = np.zeros((2, nch, nt))
    for ch in range(nch):
        impulse = np.zeros((nch, nt + 1))
        impulse[ch, 1] = 1.0
        dofs = solve_forward_graph(still, impulse[:nd], impulse[nd:], system=system).dofs
        if dm.c_index is not None:  # still has no target: the misfit is the state
            a[ch] = dofs[:0:-1, dm.c_index]
            b[ch] = sum(_tracking(still, system.junctions, dofs)[1])[:0:-1]
        np.multiply(dofs[:0:-1], root_mass, out=H[ch])
        del dofs  # before the next march, for a lower peak of memory
    H = H.reshape(nch * nt, -1)
    Q = H @ H.T  # one symmetric rank-k product, so Q is symmetric bitwise
    del H
    if dm.c_index is not None:  # a b^T + b a^T 64 rows at a time: entrywise, so symmetric
        for r in range(0, nch * nt, 64):
            Q[r : r + 64] += np.outer(a.flat[r : r + 64], b) + np.outer(b.flat[r : r + 64], a)
    V = Q.reshape(nch, nt, nch, nt)
    # suffix sums: V[k, l] becomes U[k, l] = sum_{s >= 0} F[k + s, l + s]
    # of the reversed Gram F, each row and column from the next ones
    for s in range(nt - 2, -1, -1):
        V[:, s, :, s:-1] += V[:, s + 1, :, s + 1 :]
        V[:, s + 1 : -1, :, s] += V[:, s + 2 :, :, s + 1]
    # the last weight takes F[k, l], the inner ones the rest of the sum:
    # Q = omega_end U[k, l] + (omega_in - omega_end) U[k + 1, l + 1]
    ratio = omega[1] / omega[-1] - 1.0
    for s in range(nt - 1):
        V[:, s, :, s:-1] += ratio * V[:, s + 1, :, s + 1 :]
        V[:, s + 1 : -1, :, s] += ratio * V[:, s + 2 :, :, s + 1]
    Q *= omega[-1]
    Q.flat[:: nch * nt + 1] += np.outer(cfg.weights_for(problem), omega[1:]).ravel()
    return Q


def _normalize_sets(admissible, nchannels: int) -> list[AdmissibleSet]:
    if isinstance(admissible, AdmissibleSet):
        return [admissible] * nchannels
    sets = list(admissible)
    if len(sets) != nchannels:
        raise ValueError(f"expected {nchannels} admissible sets, got {len(sets)}")
    return sets


def _projection(sets: list[AdmissibleSet], nt: int):
    """The optimizer's one projection ``P_[lo, hi]`` of ``(n_ch, Nt + 1)``
    controls onto the channels' sets: ``np.clip`` against bounds broadcast
    once, ``-inf``/``inf`` where a channel is unconstrained.  A bound is a
    scalar or a series of shape ``(Nt + 1,)``."""
    lo = np.empty((len(sets), nt + 1))
    hi = np.empty_like(lo)
    for j, s in enumerate(sets):
        for name, bound in (("lo", s.lo), ("hi", s.hi)):
            if np.shape(bound) not in ((), (nt + 1,)):
                raise ValueError(
                    f"channel {j + 1} box bound {name} must be a scalar or a series of "
                    f"shape (Nt + 1,) = {(nt + 1,)}, got shape {np.shape(bound)}"
                )
        lo[j] = -np.inf if s.lo is None else s.lo
        hi[j] = np.inf if s.hi is None else s.hi
    return lambda ctrl: np.clip(ctrl, lo, hi)


# The optimizer's algorithms, the default first.
ALGORITHMS = ("projected_gradient", "fixed_point")
# Armijo parameters: fixed, deterministic defaults.
_ARMIJO_DECREASE = 1e-4
_ARMIJO_BACKTRACK = 0.5
_MAX_HALVINGS = 40
# Largest n_ch * Nt for which optimize forms the reduced Hessian (134 MB).
_DENSE_LIMIT = 4096


def optimize(
    problem: StarGraphProblem,
    cfg: CostConfig,
    admissible,
    algo: str = ALGORITHMS[0],
    tol: float = 1e-6,
    max_iter: int = 200,
    u0: np.ndarray | None = None,
    system: GraphSystem | None = None,
) -> OptimResult:
    """Minimize the tracking cost over the admissible controls.

    The iteration starts from the projection of ``u0`` (one row per control
    channel, one column per time level: shape ``(n_channels, Nt + 1)``), or
    of zero.  ``algo`` is ``"projected_gradient"`` (Armijo backtracking along
    the projection arc) or ``"fixed_point"`` (damped iteration of the
    projected optimality map).  The start's gradient is measured by a
    forward and an adjoint march.  While ``n_ch * Nt <= 4096``, every later
    gradient is that one plus the :func:`reduced_hessian` ``Q`` applied to the
    step from the start, one dense product (``Q`` takes at most 134 MB);
    above the limit, each gradient costs a forward and an adjoint march.  The
    cost is quadratic, so each step's change is measured exactly from the two
    gradients, ``J(c) - J(u) = 1/2 <g(u) + g(c), c - u>``, which resolves
    decreases far below the roundoff of the cost itself; ``cost_history``
    accumulates these differences from the cost of the start, under both
    algorithms, and never increases under projected gradient.  Termination
    uses the stationarity measure ``||u - P(u - g)|| / max(1, ||u||)`` in the
    trapezoid norm; exceeding ``max_iter`` flags the result as non-converged
    instead of raising.  The returned controls are measured by a forward and
    an adjoint march: ``state``, ``adjoint``, the last stationarity entry and
    ``converged`` come from that measurement, and ``residual_history`` has
    one entry per ``cost_history`` entry.  Where the reduced gradient meets
    ``tol`` but the measured one does not, the iteration goes on from the
    measured gradient, with a march per gradient.  No sweep inside the loop
    computes diagnostics.  A non-finite cost of the start, or a non-finite
    gradient, cost or stationarity at the returned controls, raises
    :class:`SolverFailure`: each is checked once, not per iteration.
    ``state`` and ``adjoint`` are the problem's
    :class:`~fracstar.graph_solver.GraphTrajectory` (the adjoint's source is
    ``y - y_d``), and their diagnostics are left to
    :func:`~fracstar.graph_solver.diagnose_forward` and
    :func:`~fracstar.graph_solver.diagnose_adjoint`.  A ``system`` given must
    be the one assembled for ``problem`` (``system.problem``).
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if not isinstance(problem, StarGraphProblem):
        raise TypeError(f"cannot optimize a {type(problem).__name__}")
    nchannels, nd = problem.n_channels, problem.n_dirichlet_channels
    if nchannels == 0:
        raise ValueError("the problem has no control channel")
    tikhonov = cfg.weights_for(problem)
    nt = problem.time_grid.Nt
    proj = _projection(_normalize_sets(admissible, nchannels), nt)
    omega = problem.time_grid.trapezoid_weights()
    # One assembly, and so one set of step-matrix factors, serves every sweep.
    if system is None:
        system = assemble_graph_system(problem)
    elif system.problem is not problem:
        raise ValueError("system was assembled for another problem")
    # the controls last measured by the marches, their state, adjoint and gradient
    measured = None

    def measure(ctrl: np.ndarray) -> np.ndarray:
        """The gradient of ``ctrl`` from a forward and an adjoint march."""
        nonlocal measured
        if measured is None or measured[0] is not ctrl:
            measured = None  # the last measurement's trajectories go first
            state = solve_forward_graph(problem, ctrl[:nd], ctrl[nd:], system=system)
            adj = solve_adjoint_graph(problem, state, system=system)
            measured = (ctrl, state, adj, gradient_graph(ctrl, adj, problem, cfg))
        return measured[3]

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("jk,k,jk->", a, omega, b))

    def norm(a: np.ndarray) -> float:
        return float(np.sqrt(max(inner(a, a), 0.0)))

    def stationarity(ctrl: np.ndarray, grad: np.ndarray) -> float:
        return norm(ctrl - proj(ctrl - grad)) / max(1.0, norm(ctrl))

    if u0 is None:
        ctrl = np.zeros((nchannels, nt + 1))
    else:
        ctrl = np.asarray(u0, dtype=float)
        if ctrl.shape != (nchannels, nt + 1):
            raise ValueError(f"u0 must have shape {(nchannels, nt + 1)}, got {ctrl.shape}")
    ctrl = proj(ctrl)

    # built before any trajectory is held, for a lower peak of memory
    hessian = reduced_hessian(system, cfg) if nchannels * nt <= _DENSE_LIMIT else None
    grad = measure(ctrl)
    cost_hist = [cost_graph(measured[1], ctrl, problem, cfg)]
    if not np.isfinite(cost_hist[0]):
        raise SolverFailure(f"non-finite cost {cost_hist[0]} of the initial controls")
    res_hist: list[float] = []
    reason = "max_iter"
    iterations = 0

    gradient = measure
    if hessian is not None:
        start, start_grad = ctrl, grad

        def reduced(ctrl: np.ndarray) -> np.ndarray:
            step = ctrl - start
            g = start_grad.copy()
            g[:, 0] += tikhonov * step[:, 0]
            g[:, 1:] += (hessian @ step[:, 1:].ravel()).reshape(nchannels, nt) / omega[1:]
            return g

        gradient = reduced

    damping = 1.0
    if algo == "fixed_point" and float(np.min(tikhonov)) < 1.0:
        damping = 0.5

    for it in range(1, max_iter + 1):
        iterations = it
        res_hist.append(stationarity(ctrl, grad))
        if res_hist[-1] <= tol and gradient is not measure:
            # a convergence the marches cannot show is not reported: go on
            # from their gradient, a march per gradient
            gradient, grad = measure, measure(ctrl)
            res_hist[-1] = stationarity(ctrl, grad)
        if res_hist[-1] <= tol:
            break

        if algo == "projected_gradient":
            step = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                cand = proj(ctrl - step * grad)
                decrease = inner(grad, ctrl - cand)
                if decrease <= 0.0:
                    # projection-arc fixed point at machine precision
                    reason = "rounding-limited"
                    break
                cand_grad = gradient(cand)
                change = 0.5 * inner(grad + cand_grad, cand - ctrl)
                if change <= -_ARMIJO_DECREASE * decrease:
                    ctrl, grad = cand, cand_grad
                    cost_hist.append(cost_hist[-1] + change)
                    break
                step *= _ARMIJO_BACKTRACK
            else:
                raise SolverFailure(
                    f"line search failed after {_MAX_HALVINGS} halvings at "
                    f"iteration {it} (cost {cost_hist[-1]}, residual {res_hist[-1]})"
                )
            if reason == "rounding-limited":
                break
        else:
            # projection formula: u = P(u - g / w), the boundary series over w
            target = proj(ctrl - grad / tikhonov[:, None])
            cand = (1.0 - damping) * ctrl + damping * target
            cand_grad = gradient(cand)
            cost_hist.append(cost_hist[-1] + 0.5 * inner(grad + cand_grad, cand - ctrl))
            ctrl, grad = cand, cand_grad
    else:
        # stopped at max_iter: the returned iterate's entry
        res_hist.append(stationarity(ctrl, grad))

    # the last entry, the state and the adjoint are measured at the returned
    # controls; under per-iteration marches they are measured already
    grad = measure(ctrl)
    res_hist[-1] = stationarity(ctrl, grad)
    if not (np.isfinite(grad).all() and np.isfinite([cost_hist[-1], *res_hist]).all()):
        raise SolverFailure("non-finite gradient, cost or stationarity at the returned controls")
    converged = res_hist[-1] <= tol
    if converged:
        reason = "stationarity"
    _, state, adj, _ = measured

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
