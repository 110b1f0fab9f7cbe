"""Monte Carlo simulation of search histories under a fixed frontier plan.

Each run draws two uniforms: the first decides whether a feasible project
exists at all (probability p), the second places it on [0, 1). The run
succeeds in the first period whose search interval [l_{t-1}, l_t) covers
the location; runs that have not succeeded by horizon_cap are censored and
reported as still active, which includes every infeasible run since the
searcher never observes infeasibility directly.

Randomness is counter-based (Philox keyed by the seed). simulate_path draws
one run from counter block i of that stream (see substream), so any run is
reproducible in isolation. simulate_batch does not replay those runs: every
aggregate is a function of how many runs succeed in each period and how many
never do, and those counts are Multinomial(runs; p dl_1, ..., p dl_H,
1 - p l_H), so the batch draws them in one multinomial draw on the seed's
stream. Its time and memory depend on the horizon, not on the run count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ArrayLike, ModelParams, cost_integral
from .solver import FrontierPath

# Largest run count: numpy's multinomial takes an int64 run count.
MAX_RUNS = 2**63 - 1


@dataclass
class SimConfig:
    params: ModelParams
    path: FrontierPath
    runs: int
    seed: int
    horizon_cap: int = 500

    def __post_init__(self):
        if not (1 <= self.runs <= MAX_RUNS):
            raise ValueError(f"runs must be in [1, 2**63 - 1 = {MAX_RUNS}], got {self.runs}")
        if self.horizon_cap < 1:
            raise ValueError(f"horizon_cap must be >= 1, got {self.horizon_cap}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.path.horizon < self.horizon_cap:
            raise ValueError(
                f"path covers {self.path.horizon} periods, horizon_cap needs {self.horizon_cap}"
            )


@dataclass
class PathRecord:
    feasible: bool
    hot_project: Optional[float]
    success_period: Optional[int]
    censored: bool
    periods_active: int
    per_period_intensity: np.ndarray
    discounted_payoff: float


@dataclass
class AggregateStats:
    """Cross-run summaries indexed by period t = 1 .. horizon_cap.

    active_fraction[t-1] is the share of runs still searching when period t
    begins; success_fraction[t-1] the share that has succeeded by the end of
    period t (cumulative, the complement of staying active past t).
    """

    runs: int
    seed: int
    horizon_cap: int
    active_fraction: np.ndarray
    success_fraction: np.ndarray
    confidence_halfwidths: np.ndarray
    mean_discounted_payoff: float
    payoff_standard_error: float


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator positioned at counter block `index` of the seed's Philox stream."""
    bits = np.random.Philox(key=seed)
    bits.advance(index)
    return np.random.Generator(bits)


def _discounted_cell_costs(config: SimConfig):
    """Per-period discounted search cost and its running sum along the plan."""
    b = config.path.boundaries[: config.horizon_cap + 1]
    disc = config.params.delta ** np.arange(config.horizon_cap)
    cell = cost_integral(config.params.cost, b[:-1], b[1:])
    return disc, np.cumsum(disc * cell)


def simulate_path(config: SimConfig, rng: np.random.Generator) -> PathRecord:
    """One run from an explicit randomness source (see substream)."""
    u = rng.random(2)
    feasible = bool(u[0] < config.params.p)
    disc, cum_cost = _discounted_cell_costs(config)
    b = config.path.boundaries[: config.horizon_cap + 1]
    intensity = np.diff(b)
    location = float(u[1]) if feasible else None
    # first period whose interval contains the location; past the cap counts as none
    tau = int(np.searchsorted(b, location, side="right")) if feasible else 0
    if 0 < tau <= config.horizon_cap:
        payoff = config.params.v * disc[tau - 1] - cum_cost[tau - 1]
        return PathRecord(
            feasible=True,
            hot_project=location,
            success_period=tau,
            censored=False,
            periods_active=tau,
            per_period_intensity=intensity[:tau],
            discounted_payoff=float(payoff),
        )
    return PathRecord(
        feasible=feasible,
        hot_project=location,
        success_period=None,
        censored=True,
        periods_active=config.horizon_cap,
        per_period_intensity=intensity,
        discounted_payoff=float(-cum_cost[-1]),
    )


def simulate_batch(config: SimConfig) -> AggregateStats:
    """All runs as one multinomial draw of success-period counts; exact moments from the counts."""
    gen = np.random.Generator(np.random.Philox(key=config.seed))
    disc, cum_cost = _discounted_cell_costs(config)
    b = config.path.boundaries[: config.horizon_cap + 1]
    p, runs = config.params.p, config.runs
    # outcome t - 1 is success in period t, the last outcome is no success by the cap
    counts = gen.multinomial(runs, np.append(p * np.diff(b), 1.0 - p * b[-1]))
    payoffs = np.append(config.params.v * disc - cum_cost, -cum_cost[-1])

    cum_success = np.cumsum(counts[:-1])
    active = runs - np.concatenate(([0], cum_success[:-1]))
    active_fraction = active / runs
    success_fraction = cum_success / runs
    halfwidths = 3.0 * np.sqrt(active_fraction * (1.0 - active_fraction) / runs)

    weights = counts.astype(float)
    mean = float(weights @ payoffs / runs)
    variance = float(weights @ (payoffs - mean) ** 2 / (runs - 1)) if runs > 1 else 0.0
    return AggregateStats(
        runs=runs,
        seed=config.seed,
        horizon_cap=config.horizon_cap,
        active_fraction=active_fraction,
        success_fraction=success_fraction,
        confidence_halfwidths=halfwidths,
        mean_discounted_payoff=mean,
        payoff_standard_error=math.sqrt(variance / runs),
    )


def active_probability_analytic(params: ModelParams, path: FrontierPath, t: ArrayLike) -> ArrayLike:
    """Exact probability a run is still active entering period t: 1 - p l_{t-1}."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=int)
    if np.any(t < 1) or np.any(t > path.horizon + 1):
        raise ValueError("period must satisfy 1 <= t <= horizon + 1")
    out = 1.0 - params.p * path.boundaries[t - 1]
    return float(out) if scalar else out
