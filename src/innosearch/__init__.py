"""Optimal sequential search over a continuum of innovation projects.

The package solves for the optimal search frontier of a searcher facing a
unit mass of candidate projects of which at most one is feasible, benchmarks
the solution against an exhaustively enumerated discrete twin, and simulates
search histories under the optimal plan. See the README for the model and
the command-line surface.
"""

__version__ = "0.1.0"

from .model import (
    CostFamily,
    CostModel,
    ModelParams,
    cost_density,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    posterior_feasible,
    search_upper_bound,
)
from .solver import (
    ConvergenceError,
    SolverConfig,
    backward_induction,
    bellman_rhs,
    continuation_inequality_check,
    euler_residual,
    frontier_sequence,
    value_iteration,
)
from .foc import optimal_path
from .oracle import (
    Assignment,
    BudgetExceededError,
    DiscreteInstance,
    best_assignment_report,
    compare_with_continuous,
    evaluate_assignment,
    evaluate_assignment_recursive,
    structure_check,
)
from .simulate import (
    SimConfig,
    active_probability_analytic,
    simulate_batch,
    simulate_path,
    substream,
)

__all__ = [
    "__version__",
    "CostFamily",
    "CostModel",
    "ModelParams",
    "cost_density",
    "cost_integral",
    "feasible_to_search",
    "myopic_boundary",
    "posterior_feasible",
    "search_upper_bound",
    "ConvergenceError",
    "SolverConfig",
    "backward_induction",
    "bellman_rhs",
    "continuation_inequality_check",
    "euler_residual",
    "frontier_sequence",
    "value_iteration",
    "optimal_path",
    "Assignment",
    "BudgetExceededError",
    "DiscreteInstance",
    "best_assignment_report",
    "compare_with_continuous",
    "evaluate_assignment",
    "evaluate_assignment_recursive",
    "structure_check",
    "SimConfig",
    "active_probability_analytic",
    "simulate_batch",
    "simulate_path",
    "substream",
]
