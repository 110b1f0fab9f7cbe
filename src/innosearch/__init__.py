"""Optimal sequential search over a continuum of innovation projects.

The package solves for the optimal search frontier of a searcher facing a
unit mass of candidate projects of which at most one is feasible, benchmarks
the solution against an exhaustively enumerated discrete twin, and simulates
search histories under the optimal plan. See the README for the model and
the command-line surface.
"""

__version__ = "0.1.0"

from .model import (
    BISECT_EDGE,
    CostFamily,
    CostModel,
    ModelParams,
    cost_density,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    posterior_feasible,
    search_upper_bound,
    success_probability,
)
from .solver import (
    ActivityReport,
    BackwardSolution,
    ContinuationReport,
    ConvergenceError,
    FrontierPath,
    SolverConfig,
    ValueSolution,
    activity_split,
    backward_induction,
    bellman_rhs,
    continuation_inequality_check,
    euler_residual,
    final_stage_boundary,
    frontier_sequence,
    value_iteration,
)
from .oracle import (
    Assignment,
    BudgetExceededError,
    ComparisonReport,
    DiscreteInstance,
    OracleReport,
    StructureReport,
    best_assignment_report,
    compare_with_continuous,
    evaluate_assignment,
    evaluate_assignment_recursive,
    structure_check,
)
from .simulate import (
    AggregateStats,
    PathRecord,
    SimConfig,
    active_probability_analytic,
    simulate_batch,
    simulate_path,
    substream,
)
from .config import ConfigError, RunConfig, SweepSpec, load_run_config, parse_config_file

__all__ = [
    "__version__",
    "BISECT_EDGE",
    "CostFamily",
    "CostModel",
    "ModelParams",
    "cost_density",
    "cost_integral",
    "feasible_to_search",
    "myopic_boundary",
    "posterior_feasible",
    "search_upper_bound",
    "success_probability",
    "ActivityReport",
    "BackwardSolution",
    "ContinuationReport",
    "ConvergenceError",
    "FrontierPath",
    "SolverConfig",
    "ValueSolution",
    "activity_split",
    "backward_induction",
    "bellman_rhs",
    "continuation_inequality_check",
    "euler_residual",
    "final_stage_boundary",
    "frontier_sequence",
    "value_iteration",
    "Assignment",
    "BudgetExceededError",
    "ComparisonReport",
    "DiscreteInstance",
    "OracleReport",
    "StructureReport",
    "best_assignment_report",
    "compare_with_continuous",
    "evaluate_assignment",
    "evaluate_assignment_recursive",
    "structure_check",
    "AggregateStats",
    "PathRecord",
    "SimConfig",
    "active_probability_analytic",
    "simulate_batch",
    "simulate_path",
    "substream",
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "load_run_config",
    "parse_config_file",
]
