"""Exact finite benchmark for the continuum search problem.

Splitting [0, 1) into N equal slots of mass 1/N turns the search problem
into a finite one: an assignment sends each slot to a period in 1..T or
leaves it unsearched (digit 0). Expected discounted payoff of an assignment
with period masses m_t, period costs K_t, and prior searched mass M_{t-1}:

    sum_t delta^(t-1) [ p m_t v - (1 - p M_{t-1}) K_t ]

best_assignment_report enumerates every one of the (T+1)^N assignments,
with no pruning and no dynamic-programming shortcut, so it is usable as an
independent check on the continuum solver. The only concessions to speed are
shared arithmetic and one skip. Assignments are split into a high-slot half
and a low-slot half, per-half mass and cost profiles are tabulated once, and
each block of BLOCK_ELEMENTS assignments is one matrix product of a
high-half row table with a low-half column table, which sums both halves'
own payoffs and the cross terms between them into one buffer; every
assignment evaluated gets its exact value, with the same bits at any block
size. The skip: an assignment that searches an infinite-cost slot (the
reciprocal family's last cell) is worth -inf, below the empty schedule's 0,
so it can neither win nor tie and gets no product. The evaluation count and
the budget still count all (T+1)^N.

Assignments are ordered by their mixed-radix code with slot 0 most
significant, so numeric order coincides with lexicographic order of the
schedule tuple; the reported maximizer is the lexicographically earliest.

compare_with_continuous sets the best assignment against the continuum
problem truncated to the same T periods, solved without a grid by reverse
shooting from the last period (foc.truncated_path): its W(0) and path are
exact to a few ulps, so the comparison measures the slots alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .model import (
    DEFAULT_BUDGET, BudgetExceededError, ModelParams, CostFamily, assignment_count, check_instance, cost_integral,
)

# assignments per enumeration block: one float64 buffer of this size stays in L2
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class DiscreteInstance:
    """N-slot, T-period instance: slot i costs slot_costs[i] and has mass 1/N."""

    p: float
    v: float
    delta: float
    horizon: int
    slot_costs: np.ndarray

    def __post_init__(self):
        check_instance(self.p, self.v, self.delta)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        costs = np.asarray(self.slot_costs, dtype=float)
        object.__setattr__(self, "slot_costs", costs)
        if costs.ndim != 1 or len(costs) < 1:
            raise ValueError("slot_costs must be a non-empty vector")
        if np.any(costs < 0.0) or np.isnan(costs).any():
            raise ValueError("slot costs must be non-negative")
        if len(costs) > 1 and not np.all(np.diff(costs) > 0.0):
            raise ValueError("slot costs must be strictly increasing")

    @property
    def slots(self) -> int:
        return len(self.slot_costs)

    @classmethod
    def from_params(cls, params: ModelParams, slots: int, horizon: int) -> "DiscreteInstance":
        """Discretize params into `slots` equal cells.

        The last cell [1 - 1/N, 1) is integrated in closed form: the
        reciprocal density is not integrable there (cost +inf, the slot can
        never be worth searching), the logarithmic one is.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        edges = np.arange(slots + 1) / slots
        costs = np.empty(slots)
        if slots > 1:
            costs[:-1] = cost_integral(params.cost, edges[:-2], edges[1:-1])
        a = edges[-2]
        c = params.cost
        if c.family is CostFamily.RECIPROCAL:
            costs[-1] = math.inf
        else:
            costs[-1] = c.c0 * (1.0 - a) + c.k * ((1.0 - a) - (1.0 - a) * math.log1p(-a))
        return cls(params.p, params.v, params.delta, horizon, costs)


@dataclass(frozen=True)
class Assignment:
    """Slot-to-period schedule; digit 0 means the slot is never searched."""

    schedule: Tuple[int, ...]

    def __post_init__(self):
        sched = tuple(int(d) for d in self.schedule)
        object.__setattr__(self, "schedule", sched)
        if any(d < 0 for d in sched):
            raise ValueError("schedule digits must be >= 0")


@dataclass
class StructureReport:
    no_gaps: bool
    increasing_order: bool
    no_breaks: bool

    @property
    def all_pass(self) -> bool:
        return self.no_gaps and self.increasing_order and self.no_breaks


@dataclass
class OracleReport:
    assignment: Assignment
    value: float
    tie_count: int
    evaluations: int


@dataclass
class ComparisonReport:
    discrete_value: float
    continuous_value: float
    value_gap: float
    frontier_deviation: float


def _period_profiles(instance: DiscreteInstance, schedule: np.ndarray):
    """Per-period masses, costs, and prior cumulative mass for one schedule."""
    T = instance.horizon
    mass = 1.0 / instance.slots
    m = np.zeros(T)
    K = np.zeros(T)
    for t in range(1, T + 1):
        sel = schedule == t
        m[t - 1] = sel.sum() * mass
        K[t - 1] = instance.slot_costs[sel].sum()
    M_prior = np.concatenate(([0.0], np.cumsum(m)[:-1]))
    return m, K, M_prior


def _check_schedule(instance: DiscreteInstance, assignment: Assignment) -> np.ndarray:
    sched = np.asarray(assignment.schedule, dtype=int)
    if len(sched) != instance.slots:
        raise ValueError(
            f"schedule length {len(sched)} does not match {instance.slots} slots"
        )
    if np.any(sched > instance.horizon):
        raise ValueError(f"schedule digits must be <= horizon {instance.horizon}")
    return sched


def evaluate_assignment(instance: DiscreteInstance, assignment: Assignment) -> float:
    """Expected discounted payoff of one assignment, exactly.

    The survival coefficient (1 - p M_{t-1}) multiplies K_t before anything
    is subtracted, so an infinite slot cost propagates to -inf without ever
    forming inf - inf.
    """
    sched = _check_schedule(instance, assignment)
    m, K, M_prior = _period_profiles(instance, sched)
    value = 0.0
    for t in range(1, instance.horizon + 1):
        coeff = 1.0 - instance.p * M_prior[t - 1]
        value += instance.delta ** (t - 1) * (
            instance.p * m[t - 1] * instance.v - coeff * K[t - 1]
        )
    return float(value)


def evaluate_assignment_recursive(instance: DiscreteInstance, assignment: Assignment) -> float:
    """Same payoff through the conditional one-period recursion.

    V_t = s_t v - K_t + delta (1 - s_t) V_{t+1} with s_t the success chance
    conditional on reaching period t. Independent of evaluate_assignment's
    summation, which makes the pair a useful consistency check.
    """
    sched = _check_schedule(instance, assignment)
    m, K, M_prior = _period_profiles(instance, sched)
    V = 0.0
    for t in range(instance.horizon, 0, -1):
        alive = 1.0 - instance.p * M_prior[t - 1]
        s = instance.p * m[t - 1] / alive
        V = s * instance.v - K[t - 1] + instance.delta * (1.0 - s) * V
    return float(V)


def _half_tables(instance: DiscreteInstance, slot_idx: np.ndarray):
    """Tabulate per-pattern period profiles for one half of the slots.

    Returns (patterns, own_value, cost_disc, prior_mass) where patterns
    lists the digit vectors of the half in mixed-radix order, first slot
    most significant, own_value is the half's payoff ignoring the other
    half, cost_disc[t] is delta^(t-1) K_t and prior_mass[t] is M_{t-1}.
    Only the half's finite-cost slots take every digit; an infinite-cost
    slot keeps digit 0 in every row, since searching it is worth -inf and
    can never win. The rows are thus (T+1)^f of the (T+1)^m product rows,
    f of the half's m slots finite, in the same order.
    """
    T = instance.horizon
    mass = 1.0 / instance.slots
    costs = instance.slot_costs[slot_idx]
    free = np.flatnonzero(np.isfinite(costs))
    R = (T + 1) ** len(free)
    patterns = np.zeros((R, len(slot_idx)), dtype=np.int8)
    rest = np.arange(R)
    for j in free[::-1]:
        rest, patterns[:, j] = np.divmod(rest, T + 1)
    free_patterns, free_costs = patterns[:, free], costs[free]
    disc = instance.delta ** np.arange(T)

    masses = np.zeros((R, T))
    K = np.zeros((R, T))
    for t in range(1, T + 1):
        sel = free_patterns == t
        masses[:, t - 1] = sel.sum(axis=1) * mass
        K[:, t - 1] = sel @ free_costs
    prior = np.concatenate((np.zeros((R, 1)), np.cumsum(masses, axis=1)[:, :-1]), axis=1)
    own = (disc * (instance.p * instance.v * masses - (1.0 - instance.p * prior) * K)).sum(axis=1)
    return patterns, own, disc * K, prior


def best_assignment_report(
    instance: DiscreteInstance, budget: int = DEFAULT_BUDGET
) -> OracleReport:
    """Exhaustively enumerate all (T+1)^N assignments and return the best.

    Raises BudgetExceededError up front when the enumeration would exceed
    `budget` evaluations. Ties are counted at exact float equality; the
    returned maximizer is the lexicographically earliest.

    The payoff of high pattern i with low pattern j is the product of row i
    of [p Kd_hi, p prior_hi, own_hi, 1] with column j of
    [prior_lo; Kd_lo; 1; own_lo], periods 2..T in the first two parts: both
    halves' own payoffs plus the cross terms p (Kd_hi . prior_lo + prior_hi .
    Kd_lo), whose period-1 terms are 0 because no mass precedes period 1.
    Only patterns that leave infinite-cost slots unsearched have rows (see
    _half_tables); the rest are worth -inf and cannot win or tie the empty
    schedule's 0, so the products formed cover every assignment that can,
    while `evaluations` counts all (T+1)^N. Blocks of whole high-half
    rows, BLOCK_ELEMENTS products or one row if a row is longer, are
    computed in one buffer allocated once, so working memory is one block of
    doubles whatever the slot count. A block whose maximum falls below the
    best so far needs no comparison pass.
    """
    N = instance.slots
    T = instance.horizon
    total = assignment_count(T + 1, N, budget)

    n_hi = N // 2
    pat_hi, own_hi, Kd_hi, prior_hi = _half_tables(instance, np.arange(n_hi))
    pat_lo, own_lo, Kd_lo, prior_lo = _half_tables(instance, np.arange(n_hi, N))
    R_hi, R_lo = pat_hi.shape[0], pat_lo.shape[0]
    p = instance.p
    # numpy sends a one-row product to gemv, whose bits differ from gemm's, so
    # every product takes two rows or more: a zero row below the table pads the
    # last block, and only the block's own rows enter the comparison
    row_table = np.zeros((R_hi + 1, 2 * T))
    row_table[:R_hi] = np.column_stack((p * Kd_hi[:, 1:], p * prior_hi[:, 1:], own_hi, np.ones(R_hi)))
    col_table = np.vstack((prior_lo[:, 1:].T, Kd_lo[:, 1:].T, np.ones(R_lo), own_lo))
    rows = min(R_hi, max(1, BLOCK_ELEMENTS // R_lo))
    buf = np.empty((max(rows, 2), R_lo))
    best = -math.inf
    best_code = 0
    ties = 0
    for i0 in range(0, R_hi, rows):
        i1 = min(i0 + rows, R_hi)
        width = max(i1 - i0, 2)
        np.matmul(row_table[i0 : i0 + width], col_table, out=buf[:width])
        block = buf[: i1 - i0]
        bmax = float(block.max())
        if bmax < best:
            continue
        at_max = block == bmax
        if bmax > best:
            best, ties = bmax, 0
            best_code = i0 * R_lo + int(np.argmax(at_max))
        ties += int(np.count_nonzero(at_max))

    hi_code, lo_code = divmod(best_code, R_lo)
    schedule = tuple(pat_hi[hi_code].tolist()) + tuple(pat_lo[lo_code].tolist())
    return OracleReport(
        assignment=Assignment(schedule),
        value=best,
        tie_count=ties,
        evaluations=total,
    )


def structure_check(assignment: Assignment) -> StructureReport:
    """Check the qualitative shape an optimal assignment must have.

    no_gaps: searched slots form a prefix of the slot order.
    increasing_order: periods are nondecreasing along the searched prefix.
    no_breaks: no empty period earlier than a nonempty one.
    """
    sched = np.asarray(assignment.schedule, dtype=int)
    searched = np.flatnonzero(sched > 0)
    no_gaps = bool(len(searched) == 0 or searched[-1] == len(searched) - 1)
    digits = sched[searched]
    increasing = bool(np.all(np.diff(digits) >= 0)) if len(digits) else True
    used = np.unique(digits)
    no_breaks = bool(len(used) == 0 or (used[0] == 1 and used[-1] == len(used)))
    return StructureReport(no_gaps=no_gaps, increasing_order=increasing, no_breaks=no_breaks)


def compare_with_continuous(
    instance: DiscreteInstance, params: ModelParams, value: float, path: Sequence[float], report: OracleReport
) -> ComparisonReport:
    """Benchmark the truncated continuum solution against the exact discrete optimum.

    value and path are foc.truncated_path(params, T)'s W(0) and path
    l_0 = 0, l_1 .. l_T, T the instance's horizon, and report is
    best_assignment_report's result for instance. Raises ValueError when the
    path's horizon, p, v or delta, or the slot costs built from params differ
    from the instance's. The discrete plan class embeds in the continuum one,
    so the continuum value should weakly dominate, with a gap that shrinks as
    slots refine. The frontier deviation compares cumulative searched mass
    after each period against the continuum path boundaries.
    """
    if instance.horizon != len(path) - 1:
        raise ValueError(f"instance horizon {instance.horizon} does not match the path's horizon {len(path) - 1}")
    if not (instance.p == params.p and instance.v == params.v and instance.delta == params.delta):
        raise ValueError("instance and params disagree on p, v, or delta")
    ref = DiscreteInstance.from_params(params, instance.slots, instance.horizon)
    same = np.isclose(ref.slot_costs, instance.slot_costs, rtol=1e-12, atol=1e-12) | (
        np.isinf(ref.slot_costs) & np.isinf(instance.slot_costs)
    )
    if not same.all():
        raise ValueError("instance slot costs were not built from the params' cost model")

    m, _, M_prior = _period_profiles(instance, _check_schedule(instance, report.assignment))
    cum_mass = M_prior + m  # searched mass through each period
    deviation = float(np.max(np.abs(cum_mass - np.asarray(path[1:]))))
    return ComparisonReport(
        discrete_value=report.value,
        continuous_value=value,
        value_gap=value - report.value,
        frontier_deviation=deviation,
    )
