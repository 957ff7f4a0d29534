"""Smoke test of the benchmark itself at tiny sizes.

    python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
from workloads import WORKLOADS, write_inputs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER


def test_inputs_are_seeded(tmp_path):
    wl = WORKLOADS["graph-optimize"].resized(8, 8)

    def files(seed, name):
        write_inputs(wl, seed, tmp_path / name)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_at_tiny_size(name, tmp_path):
    wl = WORKLOADS[name].resized(8, 8)
    record = run.run(wl, seed=3, seconds=0.0, trace=True, out_root=tmp_path, min_ops=1)
    assert record["failures"] == []
    assert (record["attempted"], record["failed"]) == (4, 0)
    assert record["trace_missing"] == []
    layer = record["per_layer"]
    assert list(layer) == [n for n, _ in spans.PER_LAYER]
    assert layer["linalg.factor_calls"] >= 1
    assert layer["cli.bytes_written"] == record["properties"]["bytes_written"] > 0
    if wl.command == "optimize":
        sweeps = layer["graph_solver.forward_calls" if wl.is_graph else "edge_solver.forward_calls"]
        assert sweeps == layer["control.forward_sweeps"] >= layer["control.iterations"] >= 1
    else:
        assert layer["graph_solver.forward_calls"] == 1
        assert layer["graph_solver.steps"] == wl.nt
        assert layer["control.optimize_s"] == 0
    assert all(len(record["samples"][n]) == 1 for n, _ in run.END_TO_END)


def test_output_checks_reject_bad_results(tmp_path):
    wl = WORKLOADS["edge-optimize"].resized(2, 1)
    rows = (wl.nt + 1) * (wl.m_cells + 1)
    (tmp_path / "state.csv").write_text("t,edge,x,y\n" + "0,1,0,0\n" * rows)
    (tmp_path / "controls.csv").write_text("t,channel,value\n0,1,0\n1,1,1.5\n")
    (tmp_path / "report.txt").write_text(
        "optimizer: projected_gradient, iterations 500, converged False (max_iter)\n"
        "final cost 1, stationarity 0.1\n"
    )
    problems, _ = checks.check_outputs(wl, tmp_path)
    assert len(problems) == 3
    (tmp_path / "state.csv").write_text("t,edge,x,y\n" + "0,1,0,nan\n" * rows)
    problems, _ = checks.check_outputs(wl, tmp_path)
    assert "state.csv holds non-finite values" in problems
    (tmp_path / "state.csv").write_text("t,edge,x,y\n0,1,0,garbage\n")
    problems, _ = checks.check_outputs(wl, tmp_path)
    assert any(p.startswith("state.csv unreadable") for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph-forward", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""
