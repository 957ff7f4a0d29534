"""Benchmark workloads and their seeded input generator.

Every workload is one ``fracstar`` CLI call on a problem file that this
module writes, together with the CSV data files the problem file references
through ``file:`` tokens.  The program receives only those files.  The same
seed always gives byte-identical inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.6
T_FINAL = 1.0
EDGE_LENGTHS = (1.0, 0.8, 1.2, 0.9)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    m_split: int
    m_cells: int
    nt: int
    box: float = 0.0
    tikhonov: float = 1.0
    tol: float = 1e-6
    max_iter: int = 500
    target_amp: float = 0.0
    why: str = ""

    @property
    def is_graph(self) -> bool:
        return self.n >= 2

    @property
    def lengths(self) -> tuple[float, ...]:
        return EDGE_LENGTHS[: self.n]

    @property
    def ndof(self) -> int:
        """Spatial unknowns: nodal values per edge plus the shared junction DOF."""
        return self.n * (self.m_cells + 1) + (1 if self.is_graph else 0)

    @property
    def channels(self) -> list[int]:
        return list(range(2, self.n + 1)) if self.is_graph else [1]

    def resized(self, m_cells: int, nt: int) -> "Workload":
        return dataclasses.replace(self, m_cells=m_cells, nt=nt)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Operator building (fracops, sturm), the dense saddle LU, the
        # per-step diagnostics and the CSV writer each do a large share of
        # the work; the optimizer does none.  Writes a ~12 MB state.csv.
        Workload(
            name="graph-forward",
            command="solve-forward",
            n=4,
            m_split=2,
            m_cells=512,
            nt=128,
            why="star graph n=4, 512 cells/edge, Nt=128 forward solve: "
            "operator build, dense saddle LU, step diagnostics and CSV write",
        ),
        # The optimizer loop and the edge Cholesky sweeps dominate while
        # assembly and output are small; also guards the single-edge path
        # that a unified graph stepper would reroute.
        Workload(
            name="edge-optimize",
            command="optimize",
            n=1,
            m_split=0,
            m_cells=128,
            nt=128,
            box=1.0,
            tikhonov=0.1,
            target_amp=2.0,
            why="single edge M=128, Nt=128 box-constrained optimize: "
            "optimizer loop and edge Cholesky sweeps, little output",
        ),
        # Same optimizer as edge-optimize, but it drives the saddle stepper
        # with multipliers and the junction DOF: where factor-once, moving
        # diagnostics off the hot path and a Newton-type optimizer act.
        Workload(
            name="graph-optimize",
            command="optimize",
            n=3,
            m_split=2,
            m_cells=64,
            nt=64,
            box=0.5,
            tikhonov=0.1,
            target_amp=2.0,
            why="star graph n=3 M=64 Nt=64 optimize with one Dirichlet and one "
            "Neumann channel: saddle stepper with multipliers inside the optimizer",
        ),
    )
}


def smooth_field(rng, times: np.ndarray, x: np.ndarray, amp: float) -> np.ndarray:
    """Low space-time Fourier modes with standard normal coefficients that
    decay like ``1/(a b)``; shape ``(len(times), len(x))``."""
    s = (x - x[0]) / (x[-1] - x[0])
    tt = times / T_FINAL
    out = np.zeros((len(times), len(x)))
    for a in range(1, 4):
        for b in range(1, 4):
            c = rng.standard_normal() / (a * b)
            out += c * np.outer(np.cos((b - 1) * np.pi * tt), np.sin((a - 0.5) * np.pi * s))
    return amp * out


def make_data(wl: Workload, seed: int) -> dict:
    """Per-edge source ``f``, initial datum ``y0`` and target ``yd`` arrays."""
    rng = np.random.default_rng([seed, wl.n, wl.m_cells, wl.nt])
    times = np.linspace(0.0, T_FINAL, wl.nt + 1)
    data = {"f": [], "y0": [], "yd": []}
    for length in wl.lengths:
        x = np.linspace(0.0, length, wl.m_cells + 1)
        data["f"].append(smooth_field(rng, times, x, 1.0))
        data["y0"].append(smooth_field(rng, times[:1], x, 1.0)[0])
        if wl.target_amp:
            # A fixed oscillating ramp towards the tip, perturbed by a seeded
            # smooth field, keeps the box active on a similar share of
            # samples for every seed.
            base = np.outer(np.sin(2.0 * np.pi * times / T_FINAL), x / length)
            data["yd"].append(wl.target_amp * (base + smooth_field(rng, times, x, 0.25)))
    return data


def _save(path: Path, arr: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def write_inputs(wl: Workload, seed: int, directory: Path) -> Path:
    """Write the problem file and its CSV data files; return the problem path."""
    directory.mkdir(parents=True, exist_ok=True)
    data = make_data(wl, seed)
    lines = [
        f"; workload {wl.name}, seed {seed}: {wl.why}",
        "[problem]",
        f"alpha = {ALPHA}",
        f"T = {T_FINAL}",
        f"nt = {wl.nt}",
        f"n = {wl.n}",
        f"m_split = {wl.m_split}",
    ]
    for i, length in enumerate(wl.lengths, start=1):
        lines += [
            "",
            f"[edge.{i}]",
            "a = 0.0",
            f"b = {length}",
            f"m_cells = {wl.m_cells}",
            "beta = const:1.0",
            "q = const:1.0",
        ]
        for key, name in (("f", "f"), ("y0", "y0"), ("ydtarget", "yd")):
            if data[name]:
                _save(directory / f"{name}_{i}.csv", data[name][i - 1])
                lines.append(f"{key} = file:{name}_{i}.csv")
    if wl.command == "optimize":
        for ch in wl.channels:
            kind = "dirichlet" if wl.is_graph and ch <= wl.m_split else "neumann"
            lines += [
                "",
                f"[control.{ch}]",
                f"kind = {kind}",
                f"uad = box:{-wl.box}:{wl.box}",
                f"weight = {wl.tikhonov}",
            ]
        lines += [
            "",
            "[optimizer]",
            "algo = projected_gradient",
            f"tol = {wl.tol}",
            f"max_iter = {wl.max_iter}",
            f"tikhonov_n = {wl.tikhonov}",
        ]
    path = directory / "problem.ini"
    path.write_text("\n".join(lines) + "\n")
    return path
