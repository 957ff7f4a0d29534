"""Uniform space and time grids."""

import math
from typing import NamedTuple

import numpy as np

from .errors import checked


@checked
class Grid1D(NamedTuple):
    """Uniform grid with ``M`` cells on ``[a, b]``.

    Nodes are ``x_j = a + j*h`` for ``j = 0..M`` with ``h = (b - a)/M``.
    """

    a: float
    b: float
    M: int

    def _check(self) -> None:
        # stated positively, so that NaN fails
        if not (isinstance(self.M, (int, np.integer)) and self.M >= 2):
            raise ValueError(f"need a whole number of at least 2 cells, got M={self.M}")
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"need a finite nonempty interval, got [{self.a}, {self.b}]")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"mesh size must be finite and positive, got h={self.h}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.M + 1)

    @property
    def nnodes(self) -> int:
        return self.M + 1

    def trapezoid_weights(self) -> np.ndarray:
        """Lumped-mass quadrature weights: ``h`` inside, ``h/2`` at the ends."""
        w = np.full(self.M + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@checked
class TimeGrid(NamedTuple):
    """Uniform partition of ``[0, T]`` into ``Nt`` implicit-Euler steps."""

    T: float
    Nt: int

    def _check(self) -> None:
        if not (isinstance(self.Nt, (int, np.integer)) and self.Nt >= 1):
            raise ValueError(f"need a whole number of at least 1 time step, got Nt={self.Nt}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.Nt + 1)

    def trapezoid_weights(self) -> np.ndarray:
        """Time quadrature weights: ``dt`` inside, ``dt/2`` at ``t=0`` and ``t=T``."""
        w = np.full(self.Nt + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w
