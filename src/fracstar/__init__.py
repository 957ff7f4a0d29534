"""Fractional Sturm-Liouville diffusion on intervals and star graphs, with
adjoint-based boundary optimal control."""

from .control import (
    AdmissibleSet,
    CostConfig,
    EdgeControlProblem,
    OptimResult,
    cost_graph,
    gradient_graph,
    optimize,
)
from .edge_solver import Trajectory, solve_adjoint_edge, solve_forward_edge
from .errors import CoefficientError, ConfigError, SizeGuardError, SolverFailure
from .fracops import (
    SingularMode,
    apply_left_integral,
    apply_right_integral,
    frac_integral_weights,
    left_integral_op,
    left_rl_derivative,
    right_caputo_apply,
    right_caputo_nodal,
    right_integral_op,
    singular_mode,
    trace_functional,
)
from .graph_solver import (
    GlobalDofMap,
    GraphDiagnostics,
    GraphSystem,
    GraphTrajectory,
    StarGraphProblem,
    assemble_graph_system,
    diagnose_adjoint,
    diagnose_forward,
    solve_adjoint_graph,
    solve_forward_graph,
)
from .grids import Grid1D, TimeGrid
from .sturm import EdgeCoefficients, EdgeOperator, assemble_stiffness

__all__ = [
    "AdmissibleSet",
    "ConfigError",
    "CoefficientError",
    "CostConfig",
    "EdgeCoefficients",
    "EdgeControlProblem",
    "EdgeOperator",
    "GlobalDofMap",
    "GraphDiagnostics",
    "GraphSystem",
    "GraphTrajectory",
    "Grid1D",
    "OptimResult",
    "SingularMode",
    "SizeGuardError",
    "SolverFailure",
    "StarGraphProblem",
    "TimeGrid",
    "Trajectory",
    "apply_left_integral",
    "apply_right_integral",
    "assemble_graph_system",
    "assemble_stiffness",
    "cost_graph",
    "diagnose_adjoint",
    "diagnose_forward",
    "frac_integral_weights",
    "gradient_graph",
    "left_integral_op",
    "left_rl_derivative",
    "optimize",
    "right_caputo_apply",
    "right_caputo_nodal",
    "right_integral_op",
    "singular_mode",
    "solve_adjoint_edge",
    "solve_adjoint_graph",
    "solve_forward_edge",
    "solve_forward_graph",
    "trace_functional",
]

__version__ = "0.1.0"
