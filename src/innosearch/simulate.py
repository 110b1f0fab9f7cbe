"""Monte Carlo simulation of search histories under a fixed frontier plan.

Each run draws two uniforms: the first decides whether a feasible project
exists at all (probability p), the second places it on [0, 1). The run
succeeds in the first period whose search interval [l_{t-1}, l_t) covers
the location; runs that have not succeeded by the path's last period are
censored and reported as still active, which includes every infeasible run
since the searcher never observes infeasibility directly.

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
from typing import Optional, Sequence

import numpy as np

from .model import MAX_RUNS, ArrayLike, ModelParams, cost_integral


@dataclass
class SimConfig:
    """Runs searching along path = l_0, l_1, .., l_H, one period per boundary after l_0."""

    params: ModelParams
    path: Sequence[float]
    runs: int
    seed: int

    def __post_init__(self):
        if not (1 <= self.runs <= MAX_RUNS):
            raise ValueError(f"runs must be in [1, 2**63 - 1 = {MAX_RUNS}], got {self.runs}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if np.ndim(self.path) != 1 or len(self.path) < 2:
            raise ValueError(f"path must be a vector of at least 2 boundaries, got shape {np.shape(self.path)}")

    @property
    def horizon_cap(self) -> int:
        """H, the last period simulated."""
        return len(self.path) - 1


@dataclass
class PathRecord:
    """One run: where the feasible project lies (None if there is none), the
    period that finds it (None if no period of the path does) and the
    run's discounted payoff."""

    hot_project: Optional[float]
    success_period: Optional[int]
    discounted_payoff: float


@dataclass
class AggregateStats:
    """Cross-run summaries indexed by period t = 1 .. H, the path's last period.

    active_fraction[t-1] is the share of runs still searching when period t
    begins; success_fraction[t-1] the share that has succeeded by the end of
    period t (cumulative, the complement of staying active past t).
    """

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
    b = config.path
    disc = config.params.delta ** np.arange(config.horizon_cap)
    cell = cost_integral(config.params.cost, b[:-1], b[1:])
    return disc, np.cumsum(disc * cell)


def simulate_path(config: SimConfig, rng: np.random.Generator) -> PathRecord:
    """One run from an explicit randomness source (see substream)."""
    u = rng.random(2)
    disc, cum_cost = _discounted_cell_costs(config)
    b = config.path
    location = float(u[1]) if u[0] < config.params.p else None
    # first period whose interval contains the location; past the path counts as none
    tau = int(np.searchsorted(b, location, side="right")) if location is not None else 0
    found = 0 < tau <= config.horizon_cap
    payoff = config.params.v * disc[tau - 1] - cum_cost[tau - 1] if found else -cum_cost[-1]
    return PathRecord(location, tau if found else None, float(payoff))


def simulate_batch(config: SimConfig) -> AggregateStats:
    """All runs as one multinomial draw of success-period counts; exact moments from the counts."""
    gen = np.random.Generator(np.random.Philox(key=config.seed))
    disc, cum_cost = _discounted_cell_costs(config)
    b = config.path
    p, runs = config.params.p, config.runs
    # outcome t - 1 is success in period t, the last outcome is no success on the path
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
        active_fraction=active_fraction,
        success_fraction=success_fraction,
        confidence_halfwidths=halfwidths,
        mean_discounted_payoff=mean,
        payoff_standard_error=math.sqrt(variance / runs),
    )


def active_probability_analytic(params: ModelParams, path: Sequence[float], t: ArrayLike) -> ArrayLike:
    """Exact probability a run is still active entering period t: 1 - p l_{t-1}."""
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=int)
    if np.any(t < 1) or np.any(t > len(path)):
        raise ValueError("period must satisfy 1 <= t <= len(path)")
    out = 1.0 - params.p * np.asarray(path)[t - 1]
    return float(out) if scalar else out
