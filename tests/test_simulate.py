import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from innosearch import (
    CostModel,
    FrontierPath,
    ModelParams,
    SimConfig,
    cost_integral,
    simulate_batch,
)
from innosearch.simulate import (
    MAX_RUNS,
    active_probability_analytic,
    simulate_path,
    substream,
)

TINY_PATH = FrontierPath(np.array([0.0, 0.3, 0.5]), 2)


def tiny_config(runs=200, seed=404, cap=2):
    params = ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0))
    return SimConfig(params, TINY_PATH, runs, seed, cap)


def collect_records(config):
    return [simulate_path(config, substream(config.seed, i)) for i in range(config.runs)]


def batch_counts(result):
    """Runs succeeding in each period 1..cap, then runs never succeeding, from a batch."""
    succ = np.diff((result.success_fraction * result.runs).round().astype(int), prepend=0)
    return np.append(succ, result.runs - succ.sum())


def path_counts(records, cap):
    counts = np.zeros(cap + 1, dtype=int)
    for r in records:
        counts[r.success_period - 1 if r.success_period is not None else cap] += 1
    return counts


def test_batch_and_per_run_histograms_share_one_law():
    # the batch no longer replays simulate_path's per-run streams, so the two
    # samplers are checked against the exact cell probabilities and each other
    config = tiny_config(runs=3000, seed=2024)
    batch = batch_counts(simulate_batch(config))
    per_run = path_counts(collect_records(config), config.horizon_cap)
    p, b = config.params.p, TINY_PATH.boundaries
    exact = np.append(p * np.diff(b), 1.0 - p * b[-1])
    for counts in (batch, per_run):
        assert counts.sum() == config.runs
        assert chisquare(counts, exact * config.runs).pvalue >= 1e-4
    assert chi2_contingency(np.vstack([batch, per_run])).pvalue >= 1e-4


def test_batch_moments_are_exact_in_the_counts():
    config = tiny_config(runs=300)
    params = config.params
    b = TINY_PATH.boundaries
    cost1 = float(cost_integral(params.cost, b[0], b[1]))
    cost2 = float(cost_integral(params.cost, b[1], b[2]))
    by_hand = np.array([
        params.v - cost1,
        params.v * params.delta - (cost1 + params.delta * cost2),
        -(cost1 + params.delta * cost2),
    ])
    result = simulate_batch(config)
    sample = np.repeat(by_hand, batch_counts(result))
    assert result.mean_discounted_payoff == pytest.approx(sample.mean(), abs=1e-15)
    se = sample.std(ddof=1) / np.sqrt(config.runs)
    assert result.payoff_standard_error == pytest.approx(se, abs=1e-15)


def test_rerunning_one_stream_is_bit_identical():
    config = tiny_config()
    first = simulate_path(config, substream(config.seed, 7))
    second = simulate_path(config, substream(config.seed, 7))
    assert first.discounted_payoff == second.discounted_payoff
    assert first.success_period == second.success_period
    assert first.hot_project == second.hot_project


def test_batch_determinism():
    config = tiny_config(runs=500)
    a = simulate_batch(config)
    b = simulate_batch(config)
    assert np.array_equal(a.active_fraction, b.active_fraction)
    assert np.array_equal(a.success_fraction, b.success_fraction)
    assert a.mean_discounted_payoff == b.mean_discounted_payoff
    other = simulate_batch(tiny_config(runs=500, seed=405))
    assert other.mean_discounted_payoff != a.mean_discounted_payoff


def test_active_fraction_shape():
    stats = simulate_batch(tiny_config(runs=400))
    assert stats.active_fraction[0] == 1.0
    assert np.all(np.diff(stats.active_fraction) <= 0.0)
    assert np.all((0.0 <= stats.success_fraction) & (stats.success_fraction <= 1.0))


def test_record_semantics():
    config = tiny_config(runs=400)
    b = TINY_PATH.boundaries
    seen_censored_feasible = seen_success = seen_infeasible = False
    for r in collect_records(config):
        if r.success_period is None:
            assert r.censored
            assert r.periods_active == config.horizon_cap
            assert len(r.per_period_intensity) == config.horizon_cap
            if r.feasible:
                assert r.hot_project > b[-1]
                seen_censored_feasible = True
            else:
                assert r.hot_project is None
                seen_infeasible = True
        else:
            assert not r.censored
            assert r.feasible
            tau = r.success_period
            assert b[tau - 1] < r.hot_project <= b[tau]
            assert r.periods_active == tau
            assert len(r.per_period_intensity) == tau
            seen_success = True
        assert np.all(r.per_period_intensity >= 0.0)
    assert seen_censored_feasible and seen_success and seen_infeasible


def test_payoff_accounting_by_hand():
    config = tiny_config(runs=300)
    params = config.params
    b = TINY_PATH.boundaries
    cost1 = float(cost_integral(params.cost, b[0], b[1]))
    cost2 = float(cost_integral(params.cost, b[1], b[2]))
    for r in collect_records(config):
        if r.success_period == 1:
            expected = params.v - cost1
        elif r.success_period == 2:
            expected = params.v * params.delta - (cost1 + params.delta * cost2)
        else:
            expected = -(cost1 + params.delta * cost2)
        assert r.discounted_payoff == pytest.approx(expected, abs=1e-15)


def test_analytic_active_probability():
    params = tiny_config().params
    assert active_probability_analytic(params, TINY_PATH, 1) == 1.0
    assert active_probability_analytic(params, TINY_PATH, 2) == pytest.approx(1.0 - 0.5 * 0.3)
    assert active_probability_analytic(params, TINY_PATH, 3) == pytest.approx(1.0 - 0.5 * 0.5)
    out = active_probability_analytic(params, TINY_PATH, np.array([1, 2, 3]))
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        active_probability_analytic(params, TINY_PATH, 0)
    with pytest.raises(ValueError):
        active_probability_analytic(params, TINY_PATH, 4)


def test_aggregate_tracks_analytic(base_params, base_path):
    stats = simulate_batch(SimConfig(base_params, base_path, 20_000, 99, 50))
    t = np.arange(1, 51)
    analytic = active_probability_analytic(base_params, base_path, t)
    sigma = np.sqrt(analytic * (1.0 - analytic) / stats.runs)
    assert np.all(np.abs(stats.active_fraction - analytic) <= 3.0 * sigma + 1e-12)
    # nobody without a feasible project ever leaves
    assert np.all(stats.active_fraction >= 1.0 - base_params.p - 1e-12)


def test_mean_payoff_near_value(base_params, base_solution, base_path):
    stats = simulate_batch(SimConfig(base_params, base_path, 20_000, 99, 200))
    z = (stats.mean_discounted_payoff - base_solution.values[0]) / stats.payoff_standard_error
    assert abs(z) < 4.0


def test_horizon_cap_one():
    path = FrontierPath(np.array([0.0, 0.35]), 1)
    params = tiny_config().params
    stats = simulate_batch(SimConfig(params, path, 1000, 5, 1))
    assert stats.active_fraction.shape == (1,)
    assert stats.active_fraction[0] == 1.0
    expected_success = params.p * 0.35
    assert stats.success_fraction[0] == pytest.approx(expected_success, abs=0.05)


def test_config_validation(base_path):
    params = tiny_config().params
    with pytest.raises(ValueError):
        SimConfig(params, TINY_PATH, 0, 1, 2)
    with pytest.raises(ValueError):
        SimConfig(params, TINY_PATH, 10, 2**64, 2)
    with pytest.raises(ValueError):
        SimConfig(params, TINY_PATH, 10, 1, 3)  # cap longer than the path
    with pytest.raises(ValueError):
        SimConfig(params, TINY_PATH, 10, 1, 0)


def test_run_count_is_bounded_by_the_multinomial():
    params = tiny_config().params
    largest = simulate_batch(SimConfig(params, TINY_PATH, MAX_RUNS, 1, 2))
    assert largest.runs == 2**63 - 1
    assert largest.success_fraction == pytest.approx([0.15, 0.25], abs=1e-9)
    with pytest.raises(ValueError, match=str(MAX_RUNS)):
        SimConfig(params, TINY_PATH, MAX_RUNS + 1, 1, 2)
