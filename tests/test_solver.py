import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from innosearch import (
    ConvergenceError,
    CostModel,
    ModelParams,
    SolverConfig,
    backward_induction,
    bellman_rhs,
    continuation_inequality_check,
    cost_integral,
    euler_residual,
    feasible_to_search,
    frontier_sequence,
    myopic_boundary,
    search_upper_bound,
    value_iteration,
)
from innosearch import solver
from innosearch.model import cost_density
from innosearch.solver import (
    COARSE_POINTS,
    EVAL_STEPS,
    TOL,
    ValueSolution,
    _coarse_candidates,
    _coarse_objective,
    _coarse_terms,
    _interp_at_stencil,
    _interp_stencil,
    _maximize_rows,
    _row_objective,
    _step,
)

# frozen canonical results at grid 2048 (see conftest for the instance)
W0_CANONICAL = 0.3293771377650821
L1_CANONICAL = 0.35126426490956847
# p l v - C(0, l) at l = 1/2: 1/2 - (ln 2 - 1/2) = 1 - ln 2
ONE_PERIOD_AT_HALF = 0.3068528194400547
# s v - C(1/4, 1/2) = 2/7 - (ln(3/2) - 1/4)
RHS_QUARTER_HALF = 0.13024917760612133


# ------------------------------------------------------------- bellman_rhs


def test_rhs_pure_wait_is_discounted_continuation(base_params):
    assert bellman_rhs(base_params, 0.3, 0.3, lambda x: 7.0) == pytest.approx(
        0.9 * 7.0, abs=1e-14
    )


def test_rhs_one_period_frozen(base_params):
    got = bellman_rhs(base_params, 0.0, 0.5, lambda x: 0.0)
    assert got == pytest.approx(ONE_PERIOD_AT_HALF, abs=1e-14)


def test_rhs_interior_frozen(base_params):
    got = bellman_rhs(base_params, 0.25, 0.5, lambda x: 0.0)
    assert got == pytest.approx(RHS_QUARTER_HALF, abs=1e-14)
    # same number assembled from its parts
    s = 0.5 * 0.25 / (1.0 - 0.125)
    rebuilt = s * 2.0 - cost_integral(base_params.cost, 0.25, 0.5)
    assert got == pytest.approx(rebuilt, abs=1e-15)


def test_rhs_rejects_bad_frontiers(base_params):
    with pytest.raises(ValueError):
        bellman_rhs(base_params, 0.5, 0.4, lambda x: 0.0)
    with pytest.raises(ValueError):
        bellman_rhs(base_params, 0.5, 1.0, lambda x: 0.0)


# --------------------------------------------------------- value iteration


def test_canonical_regression(base_solution):
    sol = base_solution
    assert sol.iterations < 100
    assert sol.values[0] == pytest.approx(W0_CANONICAL, abs=1e-9)
    assert sol.policy_at(0.0) == pytest.approx(L1_CANONICAL, abs=1e-6)
    assert sol.cap == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)


def test_cap_and_iterations_are_read_from_the_solution(base_params, base_solution, log_params):
    for params, sol in ((base_params, base_solution), (log_params, value_iteration(log_params))):
        assert sol.cap == sol.nodes[-1] == search_upper_bound(params)
        assert sol.iterations == len(sol.sup_norm_history)


def test_agreement_with_long_truncated_horizon(base_params, base_solution):
    # an independent route to the same function: 500 backward sweeps from
    # zero on a finer grid; the tail the truncation drops is worth < 1e-9
    truncated = backward_induction(base_params, 500, SolverConfig(grid_size=4096))
    probes = np.linspace(0.0, base_solution.cap * 0.99, 23)
    truncated_values = np.interp(probes, truncated.nodes, truncated.stage_values[-1])
    gap = np.max(np.abs(base_solution.value_at(probes) - truncated_values))
    assert gap < 1e-4


def test_near_myopic_when_future_worthless():
    params = ModelParams(0.5, 2.0, 1e-6, CostModel.reciprocal(0.0, 1.0))
    sol = value_iteration(params, SolverConfig(grid_size=2048))
    assert sol.policy_at(0.0) == pytest.approx(0.5, abs=1e-4)


def test_first_boundary_stops_short_of_myopic(base_solution):
    # waiting has option value: the marginal project can be searched next
    # period instead, so the first interval ends below the one-shot boundary
    q = myopic_boundary(base_solution.params)
    assert 0.0 < base_solution.policy_at(0.0) < q
    rng = np.random.default_rng(13)
    for i in range(6):
        c0 = float(rng.uniform(0.0, 0.2))
        k = float(rng.uniform(0.5, 2.0))
        cost = CostModel.reciprocal(c0, k) if i % 2 else CostModel.logarithmic(c0, k)
        p = float(rng.uniform(0.3, 0.7))
        params = ModelParams(p, (c0 + 1.0) / p, 0.9, cost)
        sol = value_iteration(params, SolverConfig(grid_size=512))
        assert sol.policy_at(0.0) < myopic_boundary(params) + 1e-12


def test_value_shape(base_solution):
    w = base_solution.values
    assert np.all(w >= -1e-12)
    assert w[-1] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(w) <= 1e-12)


def test_policy_bounds(base_solution):
    sol = base_solution
    assert np.all(sol.policy >= sol.nodes - 1e-12)
    assert np.all(sol.policy <= sol.cap + 1e-12)
    # the target frontier should not step backwards by more than grid noise
    assert np.all(np.diff(sol.policy) >= -sol.cell)


def test_contraction_history(base_solution):
    h = base_solution.sup_norm_history
    ratios = np.array(h[1:]) / np.array(h[:-1])
    assert np.all(ratios[2:] <= base_solution.params.delta + 0.01)


def test_bellman_residual_everywhere(base_solution):
    sol = base_solution
    rhs = bellman_rhs(sol.params, sol.nodes, sol.policy, sol.value_at)
    assert np.max(np.abs(rhs - sol.values)) <= 10.0 * TOL * sol.params.p * sol.params.v


def test_runs_out_of_sweeps(base_params, monkeypatch):
    monkeypatch.setattr(solver, "MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError) as err:
        value_iteration(base_params)
    assert len(err.value.history) == 3


def test_max_iters_boundary(base_params, base_solution, monkeypatch):
    # k sweeps reach the threshold, so MAX_SWEEPS = k converges (plus the
    # greedy sweep) and MAX_SWEEPS = k - 1 runs out one sweep short
    threshold = TOL * base_params.p * base_params.v
    k = next(i + 1 for i, d in enumerate(base_solution.sup_norm_history) if d < threshold)
    monkeypatch.setattr(solver, "MAX_SWEEPS", k)
    sol = value_iteration(base_params, SolverConfig(grid_size=2048))
    assert sol.iterations == k + 1
    monkeypatch.setattr(solver, "MAX_SWEEPS", k - 1)
    with pytest.raises(ConvergenceError) as err:
        value_iteration(base_params, SolverConfig(grid_size=2048))
    assert len(err.value.history) == k - 1


def test_infeasible_instance_rejected():
    params = ModelParams(0.1, 1.0, 0.9, CostModel.reciprocal(0.2, 1.0))
    with pytest.raises(ValueError):
        value_iteration(params)


def test_scale_invariance(base_params):
    lam = 10.0
    scaled = ModelParams(
        base_params.p,
        base_params.v * lam,
        base_params.delta,
        CostModel.reciprocal(base_params.cost.c0 * lam, base_params.cost.k * lam),
    )
    cfg = SolverConfig(grid_size=2048)
    sol = value_iteration(base_params, cfg)
    sol_scaled = value_iteration(scaled, cfg)
    assert sol_scaled.values[0] / sol.values[0] == pytest.approx(lam, abs=1e-8)
    assert np.max(np.abs(sol_scaled.policy - sol.policy)) < sol.cell


@pytest.mark.parametrize("lam", [1e-3, 10.0, 1e3])
def test_scaled_instance_takes_same_sweeps(lam, base_params, base_solution):
    # the threshold scales with p v, so the scaled solve stops at the same sweep (measured
    # relative ratio error <= 2.2e-16; a fixed threshold took 6, 9 and 9 sweeps against 8)
    cost = base_params.cost
    scaled = dataclasses.replace(
        base_params, v=base_params.v * lam, cost=CostModel(cost.family, cost.c0 * lam, cost.k * lam)
    )
    sol = value_iteration(scaled)
    assert sol.iterations == base_solution.iterations
    assert sol.values[0] / base_solution.values[0] == pytest.approx(lam, rel=1e-13, abs=0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_size=32)


# ------------------------------------------------------- truncated horizon


def test_single_period_is_myopic(base_params):
    bsol = backward_induction(base_params, 1, SolverConfig(grid_size=2048))
    assert bsol.path[1] == pytest.approx(0.5, abs=1e-10)
    assert bsol.stage_values[1][0] == pytest.approx(ONE_PERIOD_AT_HALF, abs=1e-9)


def test_forced_second_period_boundary(base_params):
    # from l = 1/2 the closing period solves c(l') = p v / (1 - p/2) = 4/3,
    # so l' = 4/7 for the reciprocal density; with zero values _step solves it
    cap = search_upper_bound(base_params)
    nodes = np.linspace(0.0, cap, 2048)
    boundary = _step(base_params, cap, nodes, np.zeros(2048), 0.5)
    assert abs(boundary - 4.0 / 7.0) <= math.ulp(4.0 / 7.0)


def test_more_periods_always_help(base_params):
    bsol = backward_induction(base_params, 10, SolverConfig(grid_size=1024))
    at_zero = [bsol.stage_values[t][0] for t in range(1, 11)]
    assert all(b > a for a, b in zip(at_zero, at_zero[1:]))


def test_final_stage_first_order_condition(base_params):
    p, v = base_params.p, base_params.v
    for truncation in (1, 2, 5):
        bsol = backward_induction(base_params, truncation, SolverConfig(grid_size=2048))
        l_prev, l_last = bsol.path[-2], bsol.path[-1]
        resid = cost_density(base_params.cost, l_last) - p * v / (1.0 - l_prev * p)
        assert abs(resid) < 1e-14 * p * v


def test_two_period_value_against_nested_closed_form(base_params):
    # grid-free reference: the closing stage has a closed-form boundary for
    # the reciprocal density, leaving a one-dimensional concave outer problem
    p, v, delta = base_params.p, base_params.v, base_params.delta
    cap = search_upper_bound(base_params)

    def tail_value(l1):
        pv_post = p * v / (1.0 - l1 * p)
        l2 = min(pv_post / (pv_post + 1.0), cap)
        s = p * (l2 - l1) / (1.0 - l1 * p)
        return s * v - cost_integral(base_params.cost, l1, l2)

    def objective(l1):
        head = p * l1 * v - cost_integral(base_params.cost, 0.0, l1)
        return head + delta * (1.0 - l1 * p) * tail_value(l1)

    opt = minimize_scalar(
        lambda x: -objective(x), bounds=(0.0, cap), method="bounded", options={"xatol": 1e-12}
    )
    bsol = backward_induction(base_params, 2, SolverConfig(grid_size=2048))
    assert bsol.stage_values[2][0] == pytest.approx(-opt.fun, abs=1e-6)
    assert bsol.path[1] == pytest.approx(opt.x, abs=5e-4)


@pytest.mark.parametrize("which", ["base", "log"])
def test_backward_stages_are_value_iteration_sweeps(which, base_params, log_params):
    # backward stages are pure Bellman sweeps from W = 0, and value iteration's
    # first greedy sweep is the same sweep as stage 1
    params = base_params if which == "base" else log_params
    config = SolverConfig(grid_size=512)
    n = 12
    bsol = backward_induction(params, n, config)
    cap = search_upper_bound(params)
    nodes = np.linspace(0.0, cap, config.grid_size)
    terms = _coarse_terms(params, nodes, cap, nodes)
    values = np.zeros(config.grid_size)
    for stage in bsol.stage_values[1:]:
        _, values = _maximize_rows(params, nodes, cap, nodes, values, terms)
        assert _same_bits(stage, values)
    assert value_iteration(params, config).sup_norm_history[0] == np.max(np.abs(bsol.stage_values[1]))


@pytest.mark.parametrize("which", ["base", "log"])
def test_value_iteration_reaches_pure_sweep_fixed_point(which, base_params, log_params):
    # 60 pure sweeps settle below 1e-13; value iteration at tol 1e-9 lands on
    # the same values (measured 1.0e-13 and 1.6e-13; plain sweeps stopped 6e-10 short)
    params = base_params if which == "base" else log_params
    config = SolverConfig(grid_size=512)
    bsol = backward_induction(params, 60, config)
    assert np.max(np.abs(bsol.stage_values[-1] - bsol.stage_values[-2])) < 1e-13
    sol = value_iteration(params, config)
    assert np.max(np.abs(sol.values - bsol.stage_values[-1])) < 1e-12


def test_greedy_sweep_count_canonical(base_solution):
    # measured 8 greedy sweeps with policy evaluation steps; plain sweeps took 19
    assert base_solution.iterations <= 10


@pytest.mark.parametrize("which", ["base", "log"])
def test_greedy_sweep_count_near_unit_discount(which, base_params, log_params):
    # delta = .999: measured 20 and 16 greedy sweeps; plain sweeps took 200 and 234
    params = dataclasses.replace(base_params if which == "base" else log_params, delta=0.999)
    sol = value_iteration(params, SolverConfig(grid_size=512))
    assert sol.iterations <= 25


def test_backward_rejects_bad_truncation(base_params):
    with pytest.raises(ValueError):
        backward_induction(base_params, 0)


# ----------------------------------------------------------- path extraction


def test_frontier_sequence_shape(base_solution, base_path):
    path = base_path
    assert path[0] == 0.0
    assert path.shape == (201,)
    assert np.all(np.diff(path) >= 0.0)
    assert np.all(path <= base_solution.cap + 1e-12)
    # the path walks most of the way to the cap within 200 periods
    assert base_solution.cap - path[-1] < 10 * base_solution.cell


def test_stopped_plan_is_underbid_nearby(base_params):
    # stopping at 1/2 for good cannot be optimal: a one-period extension to
    # 0.51 already pays better, while a distant candidate does not
    near, far = continuation_inequality_check(base_params, 0.0, 0.5, [0.51, 0.99])
    assert near.violated
    assert near.lhs == pytest.approx(0.49 / 0.51, abs=1e-12)
    assert near.rhs == pytest.approx(0.75, abs=1e-15)
    assert not far.violated
    assert far.lhs == pytest.approx(1.0 / 99.0, abs=1e-12)
    with pytest.raises(ValueError):
        continuation_inequality_check(base_params, 0.0, 0.5, [0.4])
    with pytest.raises(ValueError):
        continuation_inequality_check(base_params, 0.6, 0.5, [0.7])


# ------------------------------------------------------------------- euler


def test_one_shot_marginal_condition(base_params):
    # with no continuation the optimum is exactly the myopic boundary
    q = myopic_boundary(base_params)
    h = 1e-6
    f = lambda x: bellman_rhs(base_params, 0.0, x, lambda _: 0.0)
    assert abs(f(q + h) - f(q - h)) / (2 * h) < 1e-8


def test_euler_residual_small_on_path(base_params, base_solution, base_path):
    for l in (0.0, float(base_path[1]), float(base_path[3])):
        resid = euler_residual(base_params, base_solution, l)
        assert resid is not None
        assert abs(resid) < 1e-3


def test_perturbed_policy_has_larger_gradient(base_params, base_solution):
    sol = base_solution
    resid = euler_residual(base_params, sol, 0.0)
    lp = sol.policy_at(0.0) + 0.05
    h = 0.5 * sol.cell
    slope = (
        bellman_rhs(base_params, 0.0, lp + h, sol.value_at)
        - bellman_rhs(base_params, 0.0, lp - h, sol.value_at)
    ) / (2 * h)
    assert abs(slope) > abs(resid)
    assert slope < 0.0


def test_euler_not_applicable_at_boundary(base_params, base_solution):
    near_cap = base_solution.cap * (1.0 - 1e-7)
    assert euler_residual(base_params, base_solution, near_cap) is None
    assert euler_residual(base_params, base_solution, base_solution.cap) is None


# ------------------------------------------- invariants computed once per solve


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _test_instance(family):
    cost = CostModel(family, 0.1, 1.3)
    return ModelParams(0.45, 2.5, 0.92, cost)


def _wavy_values(nodes):
    return 0.3 + np.sin(3.0 * nodes / nodes[-1]) * (1.0 - nodes)


def _near_infeasible(family):
    # p v = c0 (1 + 1e-9): searching barely pays and the state space is tiny
    c0 = 0.2
    return ModelParams(0.5, 2.0 * c0 * (1.0 + 1e-9), 0.9, CostModel(family, c0, 1.0))


@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_hoisted_coarse_terms_match_interp_rhs(family):
    params = _test_instance(family)
    cap = search_upper_bound(params)
    nodes = np.linspace(0.0, cap, 257)
    values = _wavy_values(nodes)
    F = _coarse_objective(_coarse_terms(params, nodes, cap, nodes), nodes, values)
    X = nodes[:, None] + (cap - nodes)[:, None] * np.linspace(0.0, 1.0, COARSE_POINTS)[None, :]
    expected = bellman_rhs(params, nodes[:, None], X, lambda y: np.interp(y, nodes, values))
    assert F.shape == (len(nodes), COARSE_POINTS)
    assert _same_bits(F, expected)


@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
@pytest.mark.parametrize("near_infeasible", [False, True])
def test_interp_stencil_is_bitwise_interp(family, near_infeasible):
    params = _near_infeasible(family) if near_infeasible else _test_instance(family)
    cap = search_upper_bound(params)
    if near_infeasible:
        assert 0.0 < cap < 1e-6
    nodes = np.linspace(0.0, cap, 257)
    values = _wavy_values(nodes)
    # every coarse candidate (the row l = cap included), the nodes, cap and one ulp past it
    X = _coarse_candidates(nodes[:, None], cap, np.arange(COARSE_POINTS))
    x = np.concatenate([X.ravel(), nodes, [cap, np.nextafter(cap, 1.0)]])
    assert nodes[-1] == cap and np.all(X[-1] == cap)
    j, t = _interp_stencil(nodes, x)
    assert j.dtype == np.int32
    assert _same_bits(_interp_at_stencil(j, t, nodes, values), np.interp(x, nodes, values))


@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_golden_objective_is_bitwise_bellman_rhs(family):
    params = _test_instance(family)
    cap = search_upper_bound(params)
    nodes = np.linspace(0.0, cap, 257)
    values = _wavy_values(nodes)
    l = nodes[:-1]
    objective = _row_objective(params, l, nodes, values)
    interp = lambda y: np.interp(y, nodes, values)
    for x in (l, l + 0.37 * (cap - l), np.full_like(l, cap)):
        assert _same_bits(objective(x), bellman_rhs(params, l, x, interp))
    # a pure wait pays no cost at all: only the weighted continuation D W(l) is left
    wait = params.delta * (1.0 - l * params.p) / (1.0 - l * params.p) * values[:-1]
    assert _same_bits(objective(l), wait)


def test_last_crossing_cap_keeps_the_policy():
    # the cap is the last root of g, at 1 - 2.1e-9 and far above the first, 0.2275;
    # on the wider grid the first step stays below that first root
    params = ModelParams(0.99, 0.2 / 0.99, 0.9, CostModel.logarithmic(0.0, 1.0))
    sol = value_iteration(params, SolverConfig(grid_size=512))
    assert sol.cap > 1.0 - 1e-8
    assert 0.0 < sol.policy_at(0.0) < 0.2275


def test_policy_at_cap_is_cap(base_solution, log_solution_512):
    for sol in (base_solution, log_solution_512):
        assert sol.policy_at(sol.cap) == sol.cap


@pytest.fixture(scope="module")
def log_solution_512(log_params):
    return value_iteration(log_params, SolverConfig(grid_size=512))


@pytest.mark.parametrize("which", ["base", "log"])
def test_frontier_sequence_matches_stepwise_policy(which, base_solution, log_solution_512, monkeypatch):
    sol = base_solution if which == "base" else log_solution_512
    horizon = 200
    stepwise = np.zeros(horizon + 1)
    l = 0.0
    for t in range(1, horizon + 1):
        l = sol.policy_at(l)
        stepwise[t] = l

    calls = []
    original = ValueSolution.policy_at

    def counting(self, l):
        calls.append(l)
        return original(self, l)

    monkeypatch.setattr(ValueSolution, "policy_at", counting)
    path = frontier_sequence(sol, horizon)
    assert np.array_equal(path, stepwise)
    # at most one maximization per distinct state, and none past the fixed point
    assert len(calls) == len(set(calls)) <= len(set(stepwise.tolist()))
    assert len(calls) < horizon


# ------------------------------------------------ the maximizer's guarantees


def _greedy_sweep_values(params, grid):
    """The grid, and W after 1 and 3 of value iteration's greedy sweeps and at its end."""
    config = SolverConfig(grid_size=grid)
    cap, nodes, sweeps = solver._bellman_sweeps(params, config, EVAL_STEPS)
    first, _, third = (values for _, values, _ in itertools.islice(sweeps, 3))
    return cap, nodes, [first, third, value_iteration(params, config).values]


# (p, v, c0, k): the canonical instance's objective is concave inside every cell it peaks in; on
# the steep one W falls fast against c', so at delta >= .9 it is convex inside 60-99% of them,
# and the logarithmic family's j* sits at the solver's edge 1 - 1e-12
GUARD_INSTANCES = {"canonical": (0.5, 2.0, 0.0, 1.0), "steep": (0.8, 3.0, 0.5, 0.3)}


@pytest.mark.parametrize("grid", [128, 512])
@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
@pytest.mark.parametrize("delta", [0.5, 0.9, 0.999])
@pytest.mark.parametrize("instance", sorted(GUARD_INSTANCES))
def test_maximize_rows_is_exact_over_its_bracket(instance, grid, family, delta, monkeypatch):
    # golden-section narrows each row to a bracket at most one cell wide; the row's maximum
    # must be the objective's maximum over that bracket (its node and 64 points across it),
    # also where the objective is convex inside a cell and peaks at a node or an end
    p, v, c0, k = GUARD_INSTANCES[instance]
    if family == "logarithmic" and instance == "canonical":
        c0 = 0.1  # the logarithmic twin
    params = ModelParams(p, v, delta, CostModel(family, c0, k))
    pv = params.p * params.v
    cap, nodes, value_sets = _greedy_sweep_values(params, grid)
    terms = _coarse_terms(params, nodes, cap, nodes)
    brackets = []
    original = solver._bracket_maximizers

    def recording(params, l, cap, nodes, values, a, b):
        brackets.append((a, np.minimum(b, cap)))
        return original(params, l, cap, nodes, values, a, b)

    monkeypatch.setattr(solver, "_bracket_maximizers", recording)
    for values in value_sets:
        arg, best = _maximize_rows(params, nodes, cap, nodes, values, terms)
        a, b = brackets.pop()
        assert np.all(b - a <= (nodes[1] - nodes[0]) * (1.0 + 1e-9))
        node = np.clip(nodes[np.minimum(np.searchsorted(nodes, a, "right"), grid - 1)], a, b)
        objective = _row_objective(params, nodes, nodes, values)
        dense = np.max([objective(x) for x in [*np.linspace(a, b, 65), node]], axis=0)
        assert np.all(best >= dense - 1e-14 * pv)
        # the argmax reproduces the maximum, and it is a feasible next frontier
        assert _same_bits(objective(arg), best)
        assert np.all(arg >= nodes) and np.all(arg <= cap)


@settings(max_examples=25)
@given(
    p=st.floats(0.5, 0.99),
    v=st.floats(0.5, 0.99),
    delta=st.floats(0.5, 0.99),
    family=st.sampled_from(["reciprocal", "logarithmic"]),
    c0=st.floats(0.0, 0.5),
    k=st.floats(0.01, 5.0),
)
def test_solution_invariants_over_the_domain(p, v, delta, family, c0, k):
    # logarithmic instances with p v >= c0 + 27 k put j* past the solver's edge (OutOfRangeError)
    assume(family == "reciprocal" or p * v < c0 + 27.0 * k)
    params = ModelParams(p, v, delta, CostModel(family, c0, k))
    if not feasible_to_search(params):
        with pytest.raises(ValueError, match="not worthwhile"):
            value_iteration(params, SolverConfig(grid_size=128))
        return
    sol = value_iteration(params, SolverConfig(grid_size=128))
    assert np.all(np.isfinite(sol.values))
    assert np.all(sol.values >= 0.0) and np.all(sol.values <= p * v)
    assert np.all(sol.policy >= sol.nodes) and np.all(sol.policy <= sol.cap)
    b = frontier_sequence(sol, 50)
    assert np.all(np.diff(b) >= 0.0) and np.all(b <= sol.cap)
