"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single "ACCEPTANCE n: PASS/FAIL" line (forced past pytest's
capture) so the suite output doubles as an acceptance report. All randomness
is seeded; every check is deterministic run to run.
"""

import itertools
import math
import time

import numpy as np
import pytest
from conftest import sample_instances

from innosearch import (
    Assignment,
    CostModel,
    DiscreteInstance,
    ModelParams,
    SimConfig,
    SolverConfig,
    best_assignment_report,
    compare_with_continuous,
    cost_density,
    evaluate_assignment,
    myopic_boundary,
    optimal_path,
    simulate_batch,
    structure_check,
    truncated_path,
    value_iteration,
)
from innosearch.solver import (
    TOL,
    backward_induction,
    bellman_rhs,
    continuation_inequality_check,
    euler_residual,
    frontier_sequence,
)

SOLVER = SolverConfig(grid_size=2048)


def report(capsys, number, failures, detail):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {verdict} - {detail}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def mc_batches():
    """Five seeded Monte Carlo batches, shared by the two simulation checks."""
    out = []
    for i, params in enumerate(sample_instances(20260817, 20)[:5]):
        sol = value_iteration(params, SOLVER)
        path = frontier_sequence(sol, 200)
        config = SimConfig(params, path, 100_000, 1000 + i)
        out.append((params, sol, config, simulate_batch(config)))
    return out


def test_acceptance_1_search_never_stops(capsys):
    """Once search starts it never goes backward and stays under the cap. The
    shooting path rises strictly wherever its increment spans two doubles;
    the grid's path stalls at most a few cells under the cap."""
    failures = []
    start = time.perf_counter()
    min_strict, worst_gap_cells = 10**9, 0.0
    for idx, params in enumerate(sample_instances(20260817, 20)):
        sol = value_iteration(params, SOLVER)
        path = frontier_sequence(sol, 200)
        inc = np.diff(path)
        if np.any(inc < 0.0):
            failures.append(f"instance {idx}: frontier moved backward")
        if np.any(path > sol.cap + 1e-12):
            failures.append(f"instance {idx}: frontier crossed the cap")
        gap_cells = (sol.cap - float(path[-1])) / sol.cell
        if gap_cells > 10.0:
            failures.append(f"instance {idx}: path stalled {gap_cells:.1f} cells under the cap")
        shot = optimal_path(params, 200)
        r, b = shot.limit, np.asarray(shot.path)
        shot_inc = np.diff(b)
        # the exact increment is about (1 - lambda)(r - l_t); where it spans two doubles the path must move
        strict = (1.0 - shot.tail_rate) * (r - b[:-1]) > 2.0 * math.ulp(r)
        if np.any(shot_inc < 0.0) or b[-1] > r:
            failures.append(f"instance {idx}: shooting path moved backward or passed its limit")
        if not strict[0] or np.any(shot_inc[strict] <= 0.0):
            failures.append(f"instance {idx}: shooting path stalled short of its limit")
        min_strict = min(min_strict, int(strict.sum()))
        worst_gap_cells = max(worst_gap_cells, gap_cells)
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        capsys,
        1,
        failures,
        f"20 instances, 200 periods: increments never negative, shooting path strictly "
        f"increasing for >= {min_strict} periods each, grid path's final gap <= "
        f"{worst_gap_cells:.1f} cells, {elapsed:.1f}s",
    )


def test_acceptance_2_maximizers_are_structured(capsys):
    """Every exhaustive maximizer searches a gap-free prefix in increasing
    order with no idle period before the last active one."""
    rng = np.random.default_rng(20260818)
    failures = []
    checked_maximizers = 0
    for idx in range(50):
        n = int(rng.integers(3, 7))
        horizon = int(rng.integers(1, 4))
        if idx % 2 == 0:
            p = float(rng.uniform(0.3, 0.7))
            delta = float(rng.uniform(0.8, 0.93))
            c0 = float(rng.uniform(0.0, 0.3))
            k = float(rng.uniform(0.5, 2.0))
            v = (c0 + float(rng.uniform(0.5, 1.5))) / p
            family = CostModel.reciprocal if idx % 4 == 0 else CostModel.logarithmic
            params = ModelParams(p, v, delta, family(c0, k))
            instance = DiscreteInstance.from_params(params, n, horizon)
        else:
            costs = tuple(float(x) for x in np.cumsum(rng.uniform(0.02, 0.5, size=n)))
            instance = DiscreteInstance(
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(1.0, 4.0)),
                float(rng.uniform(0.8, 0.93)),
                horizon,
                costs,
            )
        values = {
            digits: evaluate_assignment(instance, Assignment(digits))
            for digits in itertools.product(range(horizon + 1), repeat=n)
        }
        best = max(values.values())
        maximizers = [digits for digits, val in values.items() if val == best]
        for digits in maximizers:
            checked_maximizers += 1
            flags = structure_check(Assignment(digits))
            if not (flags.no_gaps and flags.increasing_order and flags.no_breaks):
                failures.append(f"instance {idx}: unstructured maximizer {digits}")
        rep = best_assignment_report(instance, budget=10**7)
        if abs(rep.value - best) > 1e-9:
            failures.append(f"instance {idx}: blocked search value off by {rep.value - best:.2e}")
        if rep.tie_count != len(maximizers):
            failures.append(
                f"instance {idx}: tie count {rep.tie_count} vs {len(maximizers)} by brute force"
            )
    report(
        capsys,
        2,
        failures,
        f"50 instances enumerated in full, {checked_maximizers} maximizer(s), "
        "all gap-free, increasing, unbroken",
    )


def grid_truncated(params, horizon):
    """W(0) and path of the problem truncated to `horizon` periods, by backward induction on the grid."""
    bsol = backward_induction(params, horizon, SOLVER)
    return float(bsol.stage_values[horizon][0]), bsol.path


def check_final_period_boundary(capsys, base_params, truncated, label):
    failures = []
    p, v = base_params.p, base_params.v
    q_star = myopic_boundary(base_params)
    residuals = []
    for horizon in (1, 2, 5):
        _, boundaries = truncated(base_params, horizon)
        l_prev, l_last = float(boundaries[-2]), float(boundaries[-1])
        denom = (1.0 - l_prev) * p + (1.0 - p)
        resid = p * v / denom - float(cost_density(base_params.cost, l_last))
        residuals.append(resid)
        if abs(resid) >= 1e-8:
            failures.append(f"T={horizon}: boundary residual {resid:.2e}")
        if horizon == 1 and abs(l_last - q_star) > 1e-10:
            failures.append(f"T=1 boundary off the one-shot value by {l_last - q_star:.2e}")
    worst = max(abs(r) for r in residuals)
    report(
        capsys,
        3,
        failures,
        f"{label}, T in (1, 2, 5): worst boundary residual {worst:.1e}, T=1 matches q* to 1e-10",
    )


def test_acceptance_3_final_period_boundary(capsys, base_params):
    """The last searched boundary satisfies the expected-prize = marginal-cost
    condition, and a one-period horizon recovers the one-shot boundary."""
    check_final_period_boundary(capsys, base_params, grid_truncated, "grid")


def test_acceptance_3_final_period_boundary_by_reverse_shooting(capsys, base_params):
    check_final_period_boundary(capsys, base_params, truncated_path, "reverse shooting")


def check_truncation_never_optimal(capsys, base_params, truncated, label):
    failures = []
    for horizon in (1, 2, 5):
        shorter_value, boundaries = truncated(base_params, horizon)
        longer_value, _ = truncated(base_params, horizon + 1)
        l_prev, l_last = float(boundaries[-2]), float(boundaries[-1])
        candidates = [l_last + 1e-3 * f for f in (0.1, 0.5, 1.0)]
        checks = continuation_inequality_check(base_params, l_prev, l_last, candidates)
        for candidate, chk in zip(candidates, checks):
            if not chk.violated:
                failures.append(
                    f"T={horizon}: no violation at candidate {candidate:.6f}"
                )
        gain = longer_value - shorter_value
        if not gain > 0.0:
            failures.append(f"T={horizon}: extra period gained {gain:.2e}")
    report(
        capsys,
        4,
        failures,
        f"{label}, T in (1, 2, 5): inequality violated within 1e-3 past the last boundary, "
        "one more period always worth taking",
    )


def test_acceptance_4_truncation_never_optimal(capsys, base_params):
    """Stopping after T periods is dominated: pushing slightly past the last
    truncated boundary violates the stopping inequality, and the (T+1)-period
    value is strictly higher."""
    check_truncation_never_optimal(capsys, base_params, grid_truncated, "grid")


def test_acceptance_4_truncation_never_optimal_by_reverse_shooting(capsys, base_params):
    check_truncation_never_optimal(capsys, base_params, truncated_path, "reverse shooting")


def test_acceptance_5_active_share_tracks_analytic(capsys, mc_batches):
    """Simulated share of runs still searching stays inside the 3-sigma band
    of 1 - p l and never dips below the 1 - p floor by more than that band."""
    failures = []
    worst_z = 0.0
    for idx, (params, sol, config, stats) in enumerate(mc_batches):
        analytic = 1.0 - params.p * config.path[:-1]
        sigma = np.sqrt(analytic * (1.0 - analytic) / config.runs)
        band = 3.0 * sigma + 1e-12
        err = np.abs(stats.active_fraction - analytic)
        if np.any(err > band):
            t_bad = int(np.argmax(err - band)) + 1
            failures.append(f"instance {idx}: active share off band at t={t_bad}")
        if np.any(stats.active_fraction < (1.0 - params.p) - band):
            failures.append(f"instance {idx}: active share broke the 1-p floor")
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(sigma > 0, err / np.where(sigma > 0, sigma, 1.0), 0.0)
        worst_z = max(worst_z, float(np.max(z)))
    report(
        capsys,
        5,
        failures,
        f"5 instances x 100000 runs x 200 periods: worst |z| = {worst_z:.2f} <= 3, "
        "floor 1-p never broken",
    )


def check_discretization_converges(capsys, base_params, truncated, label):
    failures = []
    value, path = truncated(base_params, 2)
    gaps, deviations = [], []
    for n in (4, 8, 16):
        instance = DiscreteInstance.from_params(base_params, n, 2)
        rep = best_assignment_report(instance, budget=50_000_000)
        comp = compare_with_continuous(instance, base_params, value, path, rep)
        gaps.append(comp.value_gap)
        deviations.append(comp.frontier_deviation)
        if comp.value_gap < -1e-9:
            failures.append(f"N={n}: discrete value beat the continuous one")
        if comp.value_gap > 1.0 / n:
            failures.append(f"N={n}: value gap {comp.value_gap:.3e} above 1/N")
        if comp.frontier_deviation > 1.0 / n:
            failures.append(f"N={n}: frontier deviation {comp.frontier_deviation:.3e} above 1/N")
    if not (abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])):
        failures.append(f"gaps did not shrink monotonically: {gaps}")
    report(
        capsys,
        6,
        failures,
        f"{label}, N = 4 -> 8 -> 16: value gaps "
        + " > ".join(f"{g:.2e}" for g in gaps)
        + ", all within 1/N",
    )


def test_acceptance_6_discretization_converges(capsys, base_params):
    """The exhaustive discrete benchmark closes in on the two-period
    continuous value as the slot grid doubles."""
    check_discretization_converges(capsys, base_params, grid_truncated, "grid")


def test_acceptance_6_discretization_converges_by_reverse_shooting(capsys, base_params):
    check_discretization_converges(capsys, base_params, truncated_path, "reverse shooting")


def test_acceptance_7_numerical_hygiene(capsys, base_params, base_solution, base_path):
    """Contraction at the advertised rate, tiny Bellman residuals, near-zero
    first-order conditions, and exact homogeneity under joint (v, c) scaling."""
    failures = []
    history = base_solution.sup_norm_history
    ratios = [b / a for a, b in zip(history, history[1:]) if a > 0]
    tail = max(ratios[2:])
    if tail > base_params.delta + 0.01:
        failures.append(f"sup-norm contraction ratio {tail:.4f} above delta + 0.01")

    rhs = bellman_rhs(
        base_params, base_solution.nodes, base_solution.policy, base_solution.value_at
    )
    resid = float(np.max(np.abs(rhs - base_solution.values)))
    if resid > 10.0 * TOL * base_params.p * base_params.v:
        failures.append(f"Bellman residual {resid:.2e} above 10 TOL p v")

    euler_worst = 0.0
    for l in [float(base_path[t]) for t in (0, 1, 2, 5)]:
        e = euler_residual(base_params, base_solution, l)
        if e is not None:
            euler_worst = max(euler_worst, abs(e))
    if euler_worst >= 1e-3:
        failures.append(f"Euler residual {euler_worst:.2e} at an interior node")

    lam = 10.0
    lo = base_solution
    scaled = ModelParams(
        base_params.p,
        base_params.v * lam,
        base_params.delta,
        CostModel(base_params.cost.family, base_params.cost.c0 * lam, base_params.cost.k * lam),
    )
    hi = value_iteration(scaled, SOLVER)
    ratio = float(hi.values[0] / lo.values[0])
    if abs(ratio - lam) > 1e-8:
        failures.append(f"value ratio {ratio!r} not {lam} under scaling")
    policy_shift = abs(hi.policy_at(0.0) - lo.policy_at(0.0))
    if policy_shift > lo.cell:
        failures.append(f"policy moved {policy_shift:.2e} under scaling")
    report(
        capsys,
        7,
        failures,
        f"contraction <= {base_params.delta + 0.01}, Bellman residual {resid:.1e}, "
        f"Euler residual {euler_worst:.1e}, scaling ratio error {abs(ratio - lam):.1e}",
    )


def test_acceptance_8_payoffs_match_value(capsys, mc_batches):
    """Mean simulated discounted payoff agrees with the solved W(0) within
    three standard errors on every instance."""
    failures = []
    worst_z = 0.0
    for idx, (params, sol, config, stats) in enumerate(mc_batches):
        w0 = float(sol.values[0])
        z = (stats.mean_discounted_payoff - w0) / stats.payoff_standard_error
        worst_z = max(worst_z, abs(z))
        if abs(z) > 3.0:
            failures.append(f"instance {idx}: z = {z:.2f}")
    report(
        capsys,
        8,
        failures,
        f"5 instances x 100000 runs: worst |z| = {worst_z:.2f} <= 3",
    )
