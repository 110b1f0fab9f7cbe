import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from innosearch import (
    Assignment,
    BudgetExceededError,
    CostModel,
    DiscreteInstance,
    ModelParams,
    SolverConfig,
    best_assignment_report,
    compare_with_continuous,
    evaluate_assignment,
    evaluate_assignment_recursive,
    structure_check,
    truncated_path,
)
from innosearch import oracle
from innosearch.model import cost_density

CANONICAL = ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0))

# exhaustive enumeration of the canonical 4-slot, 2-period instance
FIXTURE_VALUE = 0.31488915491303965
FIXTURE_SCHEDULE = (1, 2, 0, 0)


def brute_force(instance):
    """Direct product-loop enumeration; the reference for the blocked version."""
    best = -math.inf
    best_schedule = None
    ties = 0
    for digits in itertools.product(range(instance.horizon + 1), repeat=instance.slots):
        value = evaluate_assignment(instance, Assignment(digits))
        if value > best:
            best, best_schedule, ties = value, digits, 1
        elif value == best:
            ties += 1
    return best, best_schedule, ties


# ---------------------------------------------------------------- evaluation


def test_empty_schedule_is_worth_nothing():
    instance = DiscreteInstance(0.5, 2.0, 0.9, 2, (0.1, 0.4))
    assert evaluate_assignment(instance, Assignment((0, 0))) == 0.0


def test_single_slot_single_period():
    instance = DiscreteInstance(0.5, 2.0, 0.9, 1, (0.3,))
    # the whole mass searched at once: p v - cost
    assert evaluate_assignment(instance, Assignment((1,))) == pytest.approx(0.7, abs=1e-15)


def test_two_slot_two_period_frozen():
    instance = DiscreteInstance(0.5, 2.0, 0.9, 2, (0.1, 0.4))
    got = evaluate_assignment(instance, Assignment((1, 2)))
    # 0.25 * 2 - 0.1 in period one, then delta * (0.25 * 2 - 0.75 * 0.4)
    assert got == pytest.approx(0.58, abs=1e-15)


def test_two_evaluators_agree():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 4))
        costs = tuple(np.cumsum(rng.uniform(0.02, 0.5, size=n)))
        instance = DiscreteInstance(
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.5, 0.95)),
            horizon,
            costs,
        )
        for _ in range(10):
            digits = tuple(int(d) for d in rng.integers(0, horizon + 1, size=n))
            direct = evaluate_assignment(instance, Assignment(digits))
            nested = evaluate_assignment_recursive(instance, Assignment(digits))
            assert abs(direct - nested) <= 1e-12


def test_evaluators_agree_on_infinite_cost():
    instance = DiscreteInstance(0.5, 2.0, 0.9, 2, (0.1, math.inf))
    plan = Assignment((1, 2))
    assert evaluate_assignment(instance, plan) == -math.inf
    assert evaluate_assignment_recursive(instance, plan) == -math.inf
    # leaving the infinite slot alone keeps the value finite
    assert math.isfinite(evaluate_assignment(instance, Assignment((1, 0))))


def test_schedule_validation():
    instance = DiscreteInstance(0.5, 2.0, 0.9, 2, (0.1, 0.4))
    with pytest.raises(ValueError):
        evaluate_assignment(instance, Assignment((1, 3)))
    with pytest.raises(ValueError):
        evaluate_assignment(instance, Assignment((1,)))
    with pytest.raises(ValueError):
        Assignment((-1, 0))


def test_instance_validation():
    with pytest.raises(ValueError):
        DiscreteInstance(0.5, 2.0, 0.9, 2, (0.4, 0.1))
    with pytest.raises(ValueError):
        DiscreteInstance(0.5, 2.0, 0.9, 2, (0.1, 0.1))
    with pytest.raises(ValueError):
        DiscreteInstance(0.5, 2.0, 0.9, 0, (0.1, 0.4))
    with pytest.raises(ValueError):
        DiscreteInstance(1.5, 2.0, 0.9, 2, (0.1, 0.4))


# -------------------------------------------------------------- discretizing


def test_cells_from_canonical_instance():
    instance = DiscreteInstance.from_params(CANONICAL, 4, 2)
    # integral of j/(1-j) over consecutive quarters
    assert instance.slot_costs[0] == pytest.approx(math.log(4.0 / 3.0) - 0.25, abs=1e-14)
    assert instance.slot_costs[1] == pytest.approx(math.log(1.5) - 0.25, abs=1e-14)
    assert instance.slot_costs[2] == pytest.approx(math.log(2.0) - 0.25, abs=1e-14)
    # the reciprocal density is not integrable on the last cell
    assert instance.slot_costs[3] == math.inf


def test_last_cell_logarithmic_closed_form():
    params = ModelParams(0.5, 2.0, 0.9, CostModel.logarithmic(0.1, 0.7))
    instance = DiscreteInstance.from_params(params, 4, 2)
    expected, _ = quad(lambda j: cost_density(params.cost, j), 0.75, 1.0)
    assert math.isfinite(instance.slot_costs[3])
    assert instance.slot_costs[3] == pytest.approx(expected, abs=1e-6)


# -------------------------------------------------------------- enumeration


def test_fixture_regression():
    instance = DiscreteInstance.from_params(CANONICAL, 4, 2)
    report = best_assignment_report(instance)
    assert report.value == pytest.approx(FIXTURE_VALUE, abs=1e-12)
    assert report.assignment.schedule == FIXTURE_SCHEDULE
    assert report.tie_count == 1
    assert report.evaluations == 81


# one high-half pattern per block, so every row boundary is a block boundary; and
# the default block size, which holds each of these small instances in one block
BLOCK_SIZES = pytest.mark.parametrize(
    "block_elements", [1, oracle.BLOCK_ELEMENTS], ids=["block1", "default"]
)


@BLOCK_SIZES
def test_blocked_enumeration_matches_product_loop(monkeypatch, block_elements):
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(23)
    instances = []
    for trial in range(10):
        n = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 3))
        costs = tuple(np.cumsum(rng.uniform(0.05, 0.4, size=n)))
        instances.append(
            DiscreteInstance(
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(1.0, 3.0)),
                float(rng.uniform(0.6, 0.95)),
                horizon,
                costs,
            )
        )
    # one slot: the high half of the split is empty
    instances += [DiscreteInstance(0.5, 2.0, 0.9, horizon, (0.3,)) for horizon in (1, 2)]
    # an infinite last slot, as in the reciprocal family's last cell; (inf,) alone leaves
    # the high half empty and every searching pattern of the low half at -inf
    instances += [
        DiscreteInstance(0.5, 2.0, 0.9, horizon, costs + (math.inf,))
        for horizon in (1, 2)
        for costs in ((), (0.1,), (0.1, 0.25), (0.05, 0.2, 0.3))
    ]
    for instance in instances:
        n, horizon = instance.slots, instance.horizon
        value, schedule, ties = brute_force(instance)
        report = best_assignment_report(instance)
        # the two routes sum in different orders, so agreement is close, not bitwise
        assert report.value == pytest.approx(value, abs=1e-12)
        assert report.assignment.schedule == schedule
        assert report.tie_count == ties
        assert report.evaluations == (horizon + 1) ** n


@BLOCK_SIZES
def test_exact_tie_is_counted(monkeypatch, block_elements):
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", block_elements)
    # dyadic costs make the two plans equal in exact float arithmetic:
    # searching slot 1 in period 1 adds p m v = 1/2 and costs exactly 1/2
    instance = DiscreteInstance(0.5, 2.0, 0.9, 1, (0.25, 0.5))
    report = best_assignment_report(instance)
    assert report.value == 0.25
    assert report.tie_count == 2
    # the mixed-radix-first maximizer wins the report
    assert report.assignment.schedule == (1, 0)

    # a tie of the same kind between (1, 0, 0, 0) and (1, 1, 0, 0): the maximizers sit
    # in high-half rows (1, 0) and (1, 1), which are separate blocks at block size 1
    instance = DiscreteInstance(0.5, 2.0, 0.9, 1, (0.125, 0.25, 0.5, 0.75))
    report = best_assignment_report(instance)
    assert report.value == 0.125
    assert report.tie_count == 2
    assert report.assignment.schedule == (1, 0, 0, 0)


def test_enumeration_memory_is_bounded():
    # 4^10 assignments; the block buffers, not the assignment count, set the peak
    instance = DiscreteInstance.from_params(CANONICAL, 10, 3)
    tracemalloc.start()
    try:
        report = best_assignment_report(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert report.value == 0.3260931479189796
    assert report.tie_count == 1
    assert report.assignment.schedule == (1, 1, 1, 1, 2, 3, 0, 0, 0, 0)
    assert report.evaluations == 4**10


def test_budget_guard():
    big = DiscreteInstance(0.5, 2.0, 0.9, 5, tuple(np.linspace(0.1, 2.0, 20)))
    with pytest.raises(BudgetExceededError) as err:
        best_assignment_report(big)
    assert err.value.total == 6**20

    small = DiscreteInstance.from_params(CANONICAL, 4, 2)
    with pytest.raises(BudgetExceededError):
        best_assignment_report(small, budget=80)
    report = best_assignment_report(small, budget=81)
    assert report.evaluations == 81


# ---------------------------------------------------------------- structure


def test_structure_flag_examples():
    assert structure_check(Assignment((1, 1, 2, 0))).all_pass
    report = structure_check(Assignment((1, 0, 2, 0)))
    assert not report.no_gaps
    report = structure_check(Assignment((2, 1, 0, 0)))
    assert not report.increasing_order
    report = structure_check(Assignment((1, 3, 0, 0)))
    assert not report.no_breaks
    assert structure_check(Assignment((0, 0))).all_pass


def test_maximizers_are_structured():
    rng = np.random.default_rng(29)
    for trial in range(15):
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        costs = tuple(np.cumsum(rng.uniform(0.05, 0.4, size=n)))
        instance = DiscreteInstance(
            float(rng.uniform(0.3, 0.7)),
            float(rng.uniform(1.0, 3.0)),
            float(rng.uniform(0.6, 0.95)),
            horizon,
            costs,
        )
        report = best_assignment_report(instance)
        assert structure_check(report.assignment).all_pass


def test_ordering_swap_never_gains():
    # moving an expensive slot ahead of a cheap one can only hurt
    rng = np.random.default_rng(31)
    instance = DiscreteInstance(0.5, 2.0, 0.9, 3, (0.05, 0.15, 0.3, 0.5, 0.8))
    for _ in range(100):
        digits = list(rng.integers(0, 4, size=5))
        scheduled = [i for i, d in enumerate(digits) if d > 0]
        pairs = [
            (i, j)
            for i in scheduled
            for j in scheduled
            if i < j and digits[i] < digits[j]
        ]
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        swapped = digits.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        before = evaluate_assignment(instance, Assignment(tuple(digits)))
        after = evaluate_assignment(instance, Assignment(tuple(swapped)))
        assert after <= before + 1e-12


# ---------------------------------------------------------------- comparison


def test_comparison_with_continuum(base_params):
    value, path = truncated_path(base_params, 2)
    gaps = []
    for slots in (4, 8):
        instance = DiscreteInstance.from_params(base_params, slots, 2)
        comp = compare_with_continuous(instance, base_params, value, path, best_assignment_report(instance))
        assert comp.value_gap >= -1e-9  # the continuum plan class is richer
        assert comp.frontier_deviation <= 1.0 / slots
        gaps.append(comp.value_gap)
    assert gaps[1] < gaps[0]


def test_comparison_rejects_mismatches(base_params):
    value, path = truncated_path(base_params, 2)
    report = best_assignment_report(DiscreteInstance.from_params(base_params, 4, 2))
    with pytest.raises(ValueError):
        compare_with_continuous(DiscreteInstance.from_params(base_params, 4, 3), base_params, value, path, report)
    other = ModelParams(0.4, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0))
    with pytest.raises(ValueError):
        compare_with_continuous(DiscreteInstance.from_params(other, 4, 2), base_params, value, path, report)
    tampered = DiscreteInstance(
        base_params.p, base_params.v, base_params.delta, 2, (0.1, 0.2, 0.3, 0.4)
    )
    with pytest.raises(ValueError):
        compare_with_continuous(tampered, base_params, value, path, report)
