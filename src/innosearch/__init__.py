"""Optimal sequential search over a continuum of innovation projects.

The package solves for the optimal search frontier of a searcher facing a
unit mass of candidate projects of which at most one is feasible, benchmarks
the solution against an exhaustively enumerated discrete twin, and simulates
search histories under the optimal plan. See the README for the model and
the command-line surface.

Each public name is imported from its module on first use (PEP 562), so
that importing the package, or only the modules that work in floats, never
loads numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_SOURCES = {
    "model": (
        "CostFamily", "CostModel", "ModelParams", "cost_density", "cost_integral",
        "feasible_to_search", "myopic_boundary", "posterior_feasible", "search_upper_bound",
        "ConvergenceError",
    ),
    "solver": ("SolverConfig", "value_iteration"),
    "foc": ("optimal_path", "truncated_path"),
    "oracle": (
        "Assignment", "BudgetExceededError", "DiscreteInstance", "best_assignment_report",
        "compare_with_continuous", "evaluate_assignment", "evaluate_assignment_recursive",
        "structure_check",
    ),
    "simulate": (
        "SimConfig", "active_probability_analytic", "simulate_batch", "simulate_path", "substream",
    ),
}

__all__ = ["__version__", *(name for names in _SOURCES.values() for name in names)]


def __getattr__(name):
    for module, names in _SOURCES.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
