import signal

import numpy as np
import pytest
from hypothesis import settings

from innosearch import (
    CostModel,
    ModelParams,
    SolverConfig,
    frontier_sequence,
    value_iteration,
)

# Every property test draws the same examples on every run and writes no example database.
settings.register_profile("deterministic", deadline=None, derandomize=True, database=None)
settings.load_profile("deterministic")

# Shared baseline instance: p = 1/2, prize 2, discount 0.9, reciprocal cost
# j / (1 - j). Search is worthwhile (p v = 1 > 0 = c(0)) and the one-shot
# boundary q* = 1/2 and cap j* = 2 - sqrt(2) have closed forms, which makes
# this instance convenient to pin numbers against.


@pytest.fixture(scope="session")
def base_params():
    return ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0))


@pytest.fixture(scope="session")
def log_params():
    return ModelParams(0.5, 2.0, 0.9, CostModel.logarithmic(0.1, 1.0))


@pytest.fixture(scope="session")
def base_solution(base_params):
    return value_iteration(base_params, SolverConfig(grid_size=2048))


@pytest.fixture(scope="session")
def base_path(base_solution):
    return frontier_sequence(base_solution, 200)


@pytest.fixture
def time_limit():
    """signal.alarm, with the alarm raising TimeoutError: a test that would hang fails instead."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def random_params(rng, family_index=0):
    """One random well-posed instance; alternates cost families by index."""
    p = float(rng.uniform(0.3, 0.7))
    delta = float(rng.uniform(0.8, 0.93))
    c0 = float(rng.uniform(0.0, 0.3))
    k = float(rng.uniform(0.5, 2.0))
    v = (c0 + float(rng.uniform(0.5, 1.5))) / p
    cost = CostModel.reciprocal(c0, k) if family_index % 2 == 0 else CostModel.logarithmic(c0, k)
    return ModelParams(p, v, delta, cost)


def sample_instances(seed, count):
    rng = np.random.default_rng(seed)
    return [random_params(rng, i) for i in range(count)]
