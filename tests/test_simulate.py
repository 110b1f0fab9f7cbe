import dataclasses

import numpy as np
import pytest

from innosearch import (
    CostModel,
    FrontierPath,
    ModelParams,
    SimConfig,
    cost_integral,
    simulate_batch,
)
from innosearch import simulate
from innosearch.simulate import (
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


def test_batch_matches_per_run_streams():
    config = tiny_config(runs=300)
    stats = simulate_batch(config)
    records = collect_records(config)

    # integer head counts must agree exactly, not just statistically
    succ_counts = np.zeros(config.horizon_cap, dtype=int)
    active_counts = np.zeros(config.horizon_cap, dtype=int)
    for r in records:
        if r.success_period is not None:
            succ_counts[r.success_period - 1] += 1
        for t in range(1, config.horizon_cap + 1):
            if r.success_period is None or r.success_period >= t:
                active_counts[t - 1] += 1
    cumulative = np.cumsum(succ_counts)  # success_fraction counts by-end-of-period
    assert np.array_equal(cumulative, (stats.success_fraction * config.runs).round().astype(int))
    assert np.array_equal(active_counts, (stats.active_fraction * config.runs).round().astype(int))
    mean = float(np.mean([r.discounted_payoff for r in records]))
    assert stats.mean_discounted_payoff == pytest.approx(mean, abs=1e-12)


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


def test_chunked_batch_is_bit_identical(monkeypatch):
    # 100 runs in one chunk against chunks of 7, the last one short
    config = tiny_config(runs=100)
    whole = simulate_batch(config)
    monkeypatch.setattr(simulate, "CHUNK_RUNS", 7)
    chunked = simulate_batch(config)
    for f in dataclasses.fields(whole):
        a, b = np.asarray(getattr(whole, f.name)), np.asarray(getattr(chunked, f.name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


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
