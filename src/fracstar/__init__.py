"""Fractional Sturm-Liouville diffusion on intervals and star graphs, with
adjoint-based boundary optimal control.

The namespace is lazy (PEP 562): ``import fracstar`` loads no submodule, and
each public name (``_SOURCES`` names the module that defines it), or a module
that holds one, is imported on first access.
"""

from importlib import import_module

_SOURCES = {
    "AdmissibleSet": "control",
    "ConfigError": "errors",
    "CoefficientError": "errors",
    "CostConfig": "control",
    "EdgeCoefficients": "sturm",
    "EdgeControlProblem": "edge_solver",
    "EdgeOperator": "sturm",
    "GlobalDofMap": "graph_solver",
    "GraphDiagnostics": "graph_solver",
    "GraphSystem": "graph_solver",
    "GraphTrajectory": "graph_solver",
    "Grid1D": "grids",
    "OptimResult": "control",
    "SizeGuardError": "errors",
    "SolverFailure": "errors",
    "StarGraphProblem": "graph_solver",
    "TimeGrid": "grids",
    "Trajectory": "edge_solver",
    "assemble_graph_system": "graph_solver",
    "assemble_stiffness": "sturm",
    "cost_graph": "control",
    "diagnose_adjoint": "graph_solver",
    "diagnose_forward": "graph_solver",
    "frac_integral_weights": "fracops",
    "gradient_graph": "control",
    "left_rl_derivative": "fracops",
    "optimize": "control",
    "reduced_hessian": "control",
    "right_caputo_nodal": "fracops",
    "singular_mode": "fracops",
    "solve_adjoint_edge": "edge_solver",
    "solve_adjoint_graph": "graph_solver",
    "solve_forward_edge": "edge_solver",
    "solve_forward_graph": "graph_solver",
    "trace_functional": "fracops",
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCES.values():
        return import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_SOURCES[name]}", __name__)
    return globals().setdefault(name, getattr(module, name))  # found directly next time


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SOURCES.values()))
