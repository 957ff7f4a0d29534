import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracstar
import fracstar.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_all_names_resolve():
    missing = [name for name in fracstar.__all__ if not hasattr(fracstar, name)]
    assert missing == []
    assert len(set(fracstar.__all__)) == len(fracstar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fracstar import *", namespace)
    assert set(fracstar.__all__) <= set(namespace)


def test_runtime_imports_no_scipy():
    """numpy is the one runtime dependency: the CLI module loads no SciPy."""
    probe = "import fracstar.cli, sys; sys.exit('scipy' in sys.modules)"
    src = str(Path(fracstar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_cli_calls_layers_by_module_global():
    """The commands call each layer through a name bound in ``fracstar.cli``,
    so wrapping that binding (as a per-layer trace does) sees every call."""
    cli = fracstar.cli
    names = [
        "parse_config",
        "optimize",
        "assemble_graph_system",
        "solve_forward_graph",
        "solve_adjoint_graph",
        "diagnose_forward",
        "diagnose_adjoint",
    ]
    called = set()
    for fn in vars(cli).values():
        if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
            called |= set(fn.__code__.co_names)
    assert [name for name in names if not callable(getattr(cli, name, None))] == []
    assert [name for name in names if name not in called] == []


@pytest.mark.parametrize("name", ["graph-forward", "edge-optimize", "graph-optimize"])
def test_benchmark_oracle_checks_pass(name, monkeypatch):
    """The benchmark checks every run against the dense oracle and finite
    differences through the library's public names: those names resolve, and
    each workload's down-sized copy passes every check."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    results = checks.oracle_checks(workloads.WORKLOADS[name], 1)
    assert [check for check, _, _ in results] == ["oracle", "adjoint-fd"]
    assert [(check, detail) for check, ok, detail in results if not ok] == []
