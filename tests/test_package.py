import re
from pathlib import Path

import pytest

import innosearch
import innosearch.model
import innosearch.solver

PUBLIC_NAMES = [
    "__version__",
    "CostFamily", "CostModel", "ModelParams", "cost_density", "cost_integral",
    "feasible_to_search", "myopic_boundary", "posterior_feasible", "search_upper_bound",
    "ConvergenceError", "SolverConfig", "value_iteration", "optimal_path", "truncated_path",
    "Assignment", "BudgetExceededError", "DiscreteInstance", "best_assignment_report",
    "compare_with_continuous", "evaluate_assignment", "evaluate_assignment_recursive",
    "structure_check",
    "SimConfig", "active_probability_analytic", "simulate_batch", "simulate_path", "substream",
]

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_is_pinned():
    assert innosearch.__all__ == PUBLIC_NAMES
    assert len(set(innosearch.__all__)) == len(innosearch.__all__)
    for name in innosearch.__all__:
        assert hasattr(innosearch, name), name


def test_names_resolve_on_first_use():
    assert set(innosearch.__all__) <= set(dir(innosearch))
    scope = {}
    exec("from innosearch import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert all(scope[name] is getattr(innosearch, name) for name in PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        innosearch.no_such_name


def test_solver_config_lives_in_the_grid_solver():
    assert innosearch.SolverConfig is innosearch.solver.SolverConfig
    assert not hasattr(innosearch.model, "SolverConfig")


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["comparison"].value_gap >= -1e-9
