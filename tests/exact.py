"""Closed-form solutions of the state equation, for convergence checks.

On an edge ``[a, b]`` of length ``L``, take the flux ``g = kappa (b - x)^r +
mu`` with ``r`` a whole number and let ``phi = I^alpha g``, written out by the
power rule ``I^alpha (x - a)^k = Gamma(k + 1)/Gamma(k + 1 + alpha) (x -
a)^(k + alpha)``.  Then ``D^alpha phi = g``: the order ``1 - alpha`` trace of
``phi`` is 0 at ``a`` and ``kappa L^(r + 1)/(r + 1) + mu L`` at ``b``, the tip
flux is ``mu``, and with ``beta = 1`` the principal part of the operator is
the right Caputo derivative of ``g``,

    A phi = kappa Gamma(r + 1)/Gamma(r + 1 - alpha) (b - x)^(r - alpha).

On a star graph edge ``i`` carries ``y_i = c sigma + phi_i``, with ``sigma``
the junction mode (trace one, derivative zero).  The weak Kirchhoff balance
asks ``sum_i g_i(a) = sum_i (kappa_i L_i^r + mu_i) = 0``; the clamped root
fixes ``c* = -kappa_1 L_1^(r + 1)/(r + 1) - mu_1 L_1``, and each Dirichlet tip
takes its exact trace as control.  A time factor ``tau(t)`` may multiply the
whole state; the source, the controls and the initial datum follow from it.
The source's ``sigma`` part is sampled as the mode is, with the first cell's
average at the junction node.
"""

from __future__ import annotations

import math

import numpy as np

from fracstar import (
    EdgeCoefficients,
    Grid1D,
    StarGraphProblem,
    TimeGrid,
    assemble_graph_system,
    assemble_stiffness,
    singular_mode,
    solve_forward_graph,
)


def tau(t):
    return np.exp(-t) * (1.0 + np.sin(3.0 * t))


def dtau(t):
    return np.exp(-t) * (3.0 * np.cos(3.0 * t) - 1.0 - np.sin(3.0 * t))


def integral_of_flux(alpha: float, grid: Grid1D, kappa: float, r: int, mu: float) -> np.ndarray:
    """Nodal samples of ``phi = I^alpha (kappa (b - x)^r + mu)``."""
    s, L = grid.nodes - grid.a, grid.b - grid.a
    phi = mu * s**alpha / math.gamma(alpha + 1.0)
    for k in range(r + 1):  # (b - x)^r = sum_k C(r, k) L^(r - k) (a - x)^k
        coef = kappa * math.comb(r, k) * L ** (r - k) * (-1.0) ** k
        phi += coef * math.gamma(k + 1.0) / math.gamma(k + 1.0 + alpha) * s ** (k + alpha)
    return phi


class Exact:
    """A problem whose state is ``tau(t) (c* sigma + phi_i)`` on edge ``i``
    (``tau = 1`` unless ``varying``), with ``beta = q = 1`` on edges
    ``[0, L_i]`` of ``M`` cells.

    ``problem`` marches it with the controls ``u`` (Dirichlet tips ``2..m``)
    and ``v`` (Neumann tips ``m + 1..n``).  ``phi[i]`` holds the regular
    part's nodal samples, ``c[k]`` the junction coefficient at ``t_k``,
    ``scale[k]`` the factor ``tau(t_k)`` and ``samples[i]`` the state's
    samples (node 0 of a junction edge carries the mode's regularized value).
    A single edge is the one-edge graph with ``m = 0``, without the mode.
    """

    def __init__(self, alpha, lengths, M, time_grid, kappa, r, mu=None, m=0, varying=False):
        n = len(lengths)
        mu = [0.0] * n if mu is None else mu
        grids = [Grid1D(0.0, L, M) for L in lengths]
        t = time_grid.times
        self.scale = tau(t) if varying else np.ones_like(t)
        rate = dtau(t) if varying else np.zeros_like(t)
        c_star = 0.0
        if n >= 2:
            balance = sum(k * L**r + f for k, L, f in zip(kappa, lengths, mu))
            assert abs(balance) <= 1e-13, f"the junction fluxes sum to {balance}"
            c_star = -kappa[0] * lengths[0] ** (r + 1) / (r + 1) - mu[0] * lengths[0]
        self.phi = [integral_of_flux(alpha, g, k, r, f) for g, k, f in zip(grids, kappa, mu)]
        self.c = c_star * self.scale
        self.samples, f = [], []
        for g, k, phi in zip(grids, kappa, self.phi):
            state = phi + (c_star * singular_mode(alpha, g) if n >= 2 else 0.0)
            rule = math.gamma(r + 1.0) / math.gamma(r + 1.0 - alpha)
            principal = k * rule * (g.b - g.nodes) ** (r - alpha)
            self.samples.append(np.outer(self.scale, state))
            f.append(np.outer(rate, state) + np.outer(self.scale, principal + state))  # q = 1
        tips = [c_star + k * L ** (r + 1) / (r + 1) + f * L for k, L, f in zip(kappa, lengths, mu)]
        self.u = np.outer(tips[1:m], self.scale)
        self.v = np.outer(mu[m:], self.scale)
        self.problem = StarGraphProblem(
            alpha=alpha,
            time_grid=time_grid,
            grids=grids,
            coeffs=[EdgeCoefficients.constant(g, 1.0, 1.0) for g in grids],
            f=f,
            y0=[self.scale[0] * phi for phi in self.phi],
            y_d=[None] * n,
            m=m,
            c0=float(self.c[0]),
        )

    def errors(self) -> np.ndarray:
        """March the problem; return the trapezoid L2 errors at the final time
        of the regular part (the nodal DOFs: the samples less ``c`` times the
        mode), of ``c`` and of the samples off node 0.  A single edge has no
        mode, and returns the first alone."""
        pr = self.problem
        system = assemble_graph_system(pr)
        traj = solve_forward_graph(pr, self.u, self.v, system)
        regular = off = 0.0
        for i, grid in enumerate(pr.grids):
            w = grid.trapezoid_weights()
            d = traj.dofs[-1, system.dofmap.edge_slice(i)] - self.scale[-1] * self.phi[i]
            regular += d @ (w * d)
            d = (traj.samples[i][-1] - self.samples[i][-1])[1:]
            off += d @ (w[1:] * d)
        if pr.n == 1:
            return np.sqrt([regular])
        return np.array([np.sqrt(regular), abs(traj.c[-1] - self.c[-1]), np.sqrt(off)])


def heat(M, Nt, beta, dbeta, q):
    """The ``alpha = 1`` edge ``[0, 1]`` with ``y = tau(t) sin x``:
    ``y_t - (beta y')' + q y = f``, ``y(0) = 0`` and the tip flux
    ``v = beta(1) y'(1)``, for callable ``beta``, its derivative ``dbeta`` and
    ``q``.  Returns the operator, the time grid, ``f``, ``y`` and ``v``."""
    grid, tg = Grid1D(0.0, 1.0, M), TimeGrid(1.0, Nt)
    bs, qs = (np.array([g(s) for s in grid.nodes], dtype=float) for g in (beta, q))
    coeffs = EdgeCoefficients(beta=bs, q=qs, beta0=float(bs.min()), q0=float(qs.min()))
    op = assemble_stiffness(1.0, grid, coeffs)
    x, t = grid.nodes, tg.times
    y = np.outer(tau(t), np.sin(x))
    space = -dbeta(x) * np.cos(x) + (beta(x) + q(x)) * np.sin(x)
    f = np.outer(dtau(t), np.sin(x)) + np.outer(tau(t), space)
    return op, tg, f, y, tau(t) * beta(1.0) * np.cos(1.0)


def relative_l2q(y, exact, grid, tg):
    """``||y - exact|| / ||exact||`` in the trapezoid ``L2(Q)`` norm."""
    wx, om = grid.trapezoid_weights(), tg.trapezoid_weights()
    d = y - exact
    return np.sqrt(
        np.einsum("k,kj,j,kj->", om, d, wx, d) / np.einsum("k,kj,j,kj->", om, exact, wx, exact)
    )
