import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracstar
import fracstar.cli
import fracstar.validation

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_all_names_resolve():
    missing = [name for name in fracstar.__all__ if not hasattr(fracstar, name)]
    assert missing == []
    assert len(set(fracstar.__all__)) == len(fracstar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fracstar import *", namespace)
    assert set(fracstar.__all__) <= set(namespace)


def uses(source: str, members: bool = False) -> set[str]:
    """The names a module's ``source`` uses: names it loads, attributes and
    string constants (a binding made by name).  A name's own definition, and
    the ``__all__`` lists and the package's ``_SOURCES`` table, which only
    list names, are not uses.  With ``members``, a bare name is not a use
    either: a member is read as an attribute or named by a string, so a
    local variable that shares its name does not keep it.  Two classes that
    share a member name still cover each other, as ``EdgeOperator.ndof``
    and ``GraphSystem.ndof`` did."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) in ("__all__", "_SOURCES") for t in node.targets
        ):
            return
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not members:
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in defining:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return found


def used_by_package_or_benchmark(members: bool = False) -> set[str]:
    paths = sorted(Path(fracstar.__file__).parent.glob("*.py")) + sorted(BENCH.glob("*.py"))
    return set().union(*(uses(path.read_text(), members) for path in paths))


def test_member_uses_are_attributes_not_bare_names():
    source = (
        "def split(kind, record):\n"
        "    return kind, record.lo, getattr(record, 'hi')\n"
    )
    assert {"kind", "lo", "hi"} <= uses(source)
    found = uses(source, members=True)
    assert {"lo", "hi"} <= found and "kind" not in found


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    """A public name that only tests call has no place in the API, nor in the
    oracles of ``fracstar.validation``: a test-only helper lives with the tests."""
    used = used_by_package_or_benchmark()
    public = fracstar.__all__ + fracstar.validation.__all__
    assert [name for name in public if name not in used] == []


def test_every_public_member_is_used_by_the_package_or_the_benchmark():
    """The same rule for the members of the public types: each public method,
    property and classmethod is read by the package or the benchmark, not
    only by tests.  ``NamedTuple`` fields have a test of their own, below."""
    used = used_by_package_or_benchmark(members=True)
    unused = []
    for name in fracstar.__all__:
        cls = getattr(fracstar, name)
        if not isinstance(cls, type):
            continue
        # a validated record is a thin subclass of the class that defines it
        for owner in (c for c in cls.__mro__ if c.__module__.startswith("fracstar.")):
            unused += [
                f"{name}.{member}"
                for member in vars(owner)
                if not member.startswith("_")
                and member not in getattr(cls, "_fields", ())
                and member not in used
            ]
    assert unused == []


def test_every_public_field_is_used_by_the_package_or_the_benchmark():
    """The same rule for the fields of the public ``NamedTuple``s: each
    field that a call returns or takes is read by the package or the
    benchmark, as an attribute or by name, not only by tests."""
    used = used_by_package_or_benchmark(members=True)
    unused = [
        f"{name}.{field}"
        for name in fracstar.__all__
        for field in getattr(getattr(fracstar, name), "_fields", ())
        if field not in used
    ]
    assert unused == []


def fresh(probe: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports this package."""
    src = str(Path(fracstar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)


def test_runtime_imports_no_scipy():
    """numpy is the one runtime dependency: the CLI module loads no SciPy."""
    assert fresh("import fracstar.cli, sys; sys.exit('scipy' in sys.modules)").returncode == 0


def test_runtime_imports_no_process_pools():
    """The CLI forks its CSV workers itself: it loads no process-pool or
    subprocess module, whose import every run would pay."""
    pools = ("multiprocessing", "concurrent.futures", "subprocess")
    probe = f"import fracstar.cli, sys; sys.exit(any(m in sys.modules for m in {pools}))"
    assert fresh(probe).returncode == 0


def loaded_after(statement: str) -> list[str]:
    """The ``fracstar`` submodules a fresh interpreter holds after ``statement``."""
    run = fresh(
        f"{statement}; import sys; "
        "print(sorted(m for m in sys.modules if m.startswith('fracstar.')))"
    )
    assert run.returncode == 0, run.stderr
    return ast.literal_eval(run.stdout)


def test_package_import_loads_no_submodule():
    assert loaded_after("import fracstar") == []


def test_cli_import_loads_no_oracle_and_no_edge_solver():
    """Only ``validate`` runs the oracle, and only the benchmark's edge
    checks the edge adapters: the CLI module loads neither."""
    loaded = loaded_after("import fracstar.cli")
    assert "fracstar.cli" in loaded
    assert [m for m in ("fracstar.validation", "fracstar.edge_solver") if m in loaded] == []


def test_cli_import_loads_no_dataclasses():
    """The records are NamedTuples: no import of the CLI pays for
    ``dataclasses`` or for the methods it generates."""
    assert fresh("import fracstar.cli, sys; sys.exit('dataclasses' in sys.modules)").returncode == 0


def test_public_names_are_their_modules_objects():
    """Each name resolves, on first access, to the object its defining
    module holds under that name."""
    run = fresh(
        "import importlib, fracstar\n"
        "for name in fracstar.__all__:\n"
        "    obj = getattr(fracstar, name)\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
    )
    assert run.returncode == 0, run.stderr


def test_dir_lists_every_public_name_before_access():
    run = fresh("import fracstar; print(sorted(set(fracstar.__all__) - set(dir(fracstar))))")
    assert (run.returncode, run.stdout.strip()) == (0, "[]")


def test_modules_of_public_names_stay_attributes():
    """As under the eager namespace, ``fracstar.graph_solver`` needs no import
    of its own; it is the module, loaded on that access."""
    run = fresh(
        "import fracstar, sys; "
        "print(fracstar.graph_solver is sys.modules['fracstar.graph_solver'])"
    )
    assert (run.returncode, run.stdout.strip()) == (0, "True")


def test_unknown_attribute_raises_attribute_error():
    run = fresh(
        "import fracstar\n"
        "try:\n"
        "    fracstar.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert (run.returncode, run.stdout.strip()) == (
        0, "module 'fracstar' has no attribute 'no_such_name'"
    )


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


def test_readme_python_blocks_run():
    """The README's library examples run, in order, in one namespace."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].converged


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
