"""Dynamic-programming solver for the optimal search frontier.

The searcher who has failed on [0, l) solves

    W(l) = max_{l' in [l, j*]}  s v - C(l, l') + delta (1 - l' p) / (1 - l p) W(l')

where s = p (l' - l) / (1 - l p) is the chance this period's interval
contains the feasible project, C is the interval cost, and
(1 - l' p) / (1 - l p) = 1 - s is the chance of reaching next period with
frontier l'. States above j* = search_upper_bound never pay even without
discounting, so the grid lives on [0, j*].

Numerics: uniform grid, piecewise-linear interpolation of W between nodes,
and per-node maximization by a coarse scan over COARSE_POINTS evenly spaced
candidates followed by golden-section refinement of the bracket around the
best candidate to a width below INNER_TOL. Everything is vectorized across
nodes. Tie-breaking is deterministic and favors the smallest maximizer: the
coarse scan takes the first maximum and golden-section comparisons keep the
left interval on equal values.

The coarse scan's objective is R + D * W(l') with the payoff R and the
discounted survival weight D independent of W. Both are computed once per
set of rows (the grid for a whole solve, one state for policy_at), together
with an interpolation stencil: each candidate's node interval and its
offset in it. A sweep then evaluates W at the candidates with np.interp's
own formula and no search, bitwise equal to np.interp. The golden-section
objective computes its row terms once per call, and the bracket is checked
once per call rather than at every evaluation.

The infinite-horizon problem and its truncated benchmark share one sweep
loop from W = 0. Value iteration is modified policy iteration (Puterman and
Shin 1978): each greedy sweep that still changes the values by tol or more
is followed by EVAL_STEPS evaluation steps W <- R + D * W(policy) at that
sweep's policy, each one stencil evaluation over the grid with no
maximization. From W = 0 the greedy sweep raises W, so the iterates lie
between plain value iteration's and the grid fixed point (Puterman 1994,
Thm 6.5.5) and never need more greedy sweeps; near delta = 1 they need far
fewer. It stops when a greedy sweep changes the values by less than tol in
sup norm, then runs one extra greedy sweep so the returned policy is the
greedy policy against the returned values. Backward induction takes no
evaluation steps: its stages are pure Bellman sweeps, the exact
truncated-horizon values.

Path extraction in both re-maximizes at the exact state each period. The
policy is a deterministic function of the state and the path is
nondecreasing, so once the policy returns the state it was given, every
later boundary equals that state and extraction stops maximizing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    BISECT_TOL,
    ArrayLike,
    ModelParams,
    _antiderivative_term,
    _bisect_increasing,
    _cost_integral_kernel,
    cost_density,
    cost_integral,
    feasible_to_search,
    search_upper_bound,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI

# Evenly spaced candidates per row in the coarse scan that brackets each maximizer.
COARSE_POINTS = 64
# Golden-section refinement runs until every row's bracket is narrower than this.
INNER_TOL = 1e-10
# Policy evaluation steps value iteration runs after each greedy sweep that has not yet reached tol.
EVAL_STEPS = 20

# An increment is reported as active when it exceeds
# max(ACTIVITY_FLOOR, cell * ACTIVITY_CELL_FRACTION); below that the step is
# numerically indistinguishable from zero at the working grid resolution.
ACTIVITY_FLOOR = 1e-13
ACTIVITY_CELL_FRACTION = 1e-3


class ConvergenceError(RuntimeError):
    """Value iteration ran out of sweeps before reaching tol."""

    def __init__(self, message: str, history: Sequence[float]):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class SolverConfig:
    grid_size: int = 2048
    tol: float = 1e-9
    max_iters: int = 100_000

    def __post_init__(self):
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be >= 64, got {self.grid_size}")
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class FrontierPath:
    """Optimal frontier positions l_0 = 0, l_1, ..., l_horizon."""

    boundaries: np.ndarray
    horizon: int

    def increments(self) -> np.ndarray:
        return np.diff(self.boundaries)


@dataclass
class ActivityReport:
    """Split of a path's increments into an active prefix and a numerically idle tail."""

    threshold: float
    active_count: int
    contiguous: bool
    tail_max: float


@dataclass
class ContinuationReport:
    candidate: float
    lhs: float
    rhs: float
    violated: bool


@dataclass
class ValueSolution:
    params: ModelParams
    config: SolverConfig
    cap: float
    nodes: np.ndarray
    values: np.ndarray
    policy: np.ndarray
    iterations: int
    sup_norm_history: List[float]

    @property
    def cell(self) -> float:
        return self.cap / (len(self.nodes) - 1)

    @property
    def activity_threshold(self) -> float:
        return max(ACTIVITY_FLOOR, self.cell * ACTIVITY_CELL_FRACTION)

    def value_at(self, l: ArrayLike) -> ArrayLike:
        out = np.interp(l, self.nodes, self.values)
        return float(out) if np.ndim(l) == 0 else out

    def policy_at(self, l: float) -> float:
        """Exact-state maximizer of the Bellman objective given this solution's values."""
        if not (0.0 <= l <= self.cap):
            raise ValueError(f"frontier {l} outside [0, {self.cap}]")
        return _step(self.params, self.cap, self.nodes, self.values, l)


@dataclass
class BackwardSolution(ValueSolution):
    truncation: int = 0
    stage_values: List[np.ndarray] = field(default_factory=list)
    path: Optional[FrontierPath] = None


def bellman_rhs(
    params: ModelParams,
    l: ArrayLike,
    l_next: ArrayLike,
    continuation: Callable[[ArrayLike], ArrayLike],
) -> ArrayLike:
    """One-period payoff of moving the frontier from l to l_next.

    continuation maps next-period frontiers to continuation values; it is
    weighted by the survival odds (1 - l_next p) / (1 - l p) and discounted.
    l_next = l degenerates to delta * continuation(l): a pure wait.
    """
    scalar = np.ndim(l) == 0 and np.ndim(l_next) == 0
    l = np.asarray(l, dtype=float)
    l_next = np.asarray(l_next, dtype=float)
    if np.any(l < 0.0) or np.any(l_next < l) or np.any(l_next >= 1.0):
        raise ValueError("frontiers must satisfy 0 <= l <= l_next < 1")
    r, d = _rhs_terms(params, l, l_next, 1.0 - l * params.p, cost_integral(params.cost, l, l_next))
    out = r + d * np.asarray(continuation(l_next), dtype=float)
    return float(out) if scalar else out


def _rhs_terms(params: ModelParams, l, l_next, denom, cost):
    """Value-free parts (R, D) of the Bellman right side R + D * W(l_next).

    Takes the row term denom = 1 - l p and the interval cost C(l, l_next).
    R = s v - C(l, l_next) is the period payoff, with s = p (l_next - l) / denom,
    and D = delta (1 - l_next p) / denom the discounted survival weight.
    """
    s = params.p * (l_next - l) / denom
    return s * params.v - cost, params.delta * (1.0 - l_next * params.p) / denom


def _row_objective(params: ModelParams, l: np.ndarray, nodes: np.ndarray, values: np.ndarray):
    """The Bellman objective x -> R + D * W(x) of the rows l, W interpolated from values.

    The row terms 1 - l p and the cost antiderivative at l are computed once
    here rather than at every evaluation, and nothing is checked: callers
    guarantee 0 <= l <= x < 1. The operations are bellman_rhs's in the same
    order, so the results are bitwise equal to it.
    """
    denom = 1.0 - l * params.p
    term_l = _antiderivative_term(params.cost, l)

    def objective(x):
        r, d = _rhs_terms(params, l, x, denom, _cost_integral_kernel(params.cost, l, x, term_l))
        return r + d * np.interp(x, nodes, values)

    return objective


def _coarse_candidates(l, cap: float, k):
    """Coarse-scan candidates l + (cap - l) w[k] of the rows l, w = linspace(0, 1, COARSE_POINTS)."""
    return l + (cap - l) * np.linspace(0.0, 1.0, COARSE_POINTS)[k]


def _interp_stencil(nodes: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stencil (j, t) of np.interp(x, nodes, .) at points x >= nodes[0].

    j (int32) is the last node at or below x and t = x - nodes[j] >= 0.
    """
    # in place, so at most one full-size temporary is alive next to j and t
    j = np.searchsorted(nodes, x, "right").astype(np.int32)
    j -= 1
    t = nodes[j]
    np.subtract(x, t, out=t)
    return j, t


def _interp_at_stencil(j: np.ndarray, t: np.ndarray, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.interp(x, nodes, values) bitwise, given the stencil (j, t) of x; a new array.

    Evaluates slope[j] * t + values[j] with slope[j] the slope of values on
    [nodes[j], nodes[j + 1]]: np.interp's own formula. The slope at the last
    node is 0, so points at or past it get its value, as from np.interp.
    """
    slope = np.append(np.diff(values) / np.diff(nodes), 0.0)
    # fancy indexing casts the int32 j in buffered chunks; np.take would copy it to intp whole
    out = slope[j]
    out *= t
    out += values[j]
    return out


def _objective_terms(
    params: ModelParams, l: np.ndarray, X: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The value-free parts (j, t, R, D) of the Bellman objective of rows l at next frontiers X.

    (j, t) is the interpolation stencil of X and R, D are _rhs_terms at X.
    """
    # the stencil after R and D, so it is not held while cost_integral's temporaries (the peak) are
    R, D = _rhs_terms(params, l, X, 1.0 - l * params.p, cost_integral(params.cost, l, X))
    return (*_interp_stencil(nodes, X), R, D)


def _coarse_terms(
    params: ModelParams, l: np.ndarray, cap: float, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The _objective_terms of the coarse scan of each row of l.

    The candidates X of row i span [l_i, cap] in COARSE_POINTS even steps. X
    itself is not kept: _coarse_candidates rebuilds any candidate bitwise.
    """
    rows = l[:, None]
    return _objective_terms(params, rows, _coarse_candidates(rows, cap, np.arange(COARSE_POINTS)), nodes)


def _coarse_objective(terms, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The objective R + D * W(X) at the next frontiers X of terms, built in place from the stencil.

    terms is _objective_terms at the coarse scan's candidates or at a policy.
    """
    j, t, R, D = terms
    F = _interp_at_stencil(j, t, nodes, values)
    F *= D
    F += R
    return F


def _maximize_rows(
    params: ModelParams,
    l: np.ndarray,
    cap: float,
    nodes: np.ndarray,
    values: np.ndarray,
    terms: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """Maximize the Bellman objective over l' in [l_i, cap] for each row i.

    terms is _coarse_terms(params, l, cap, nodes). Coarse scan over its
    candidates, then golden-section on the bracket around the best
    candidate, run for a fixed iteration count so every row's bracket
    shrinks below INNER_TOL. The bracket is checked once to lie in [l, 1);
    every golden-section point lies inside it, so the refinement evaluates
    the objective unchecked. Returns (argmax, max). The coarse candidate is
    kept when refinement cannot strictly beat it, except that exact ties go
    to the smaller frontier.
    """
    F = _coarse_objective(terms, nodes, values)
    kbest = np.argmax(F, axis=1)
    fc = F[np.arange(len(l)), kbest]
    xc = _coarse_candidates(l, cap, kbest)
    a = _coarse_candidates(l, cap, np.maximum(kbest - 1, 0))
    b = _coarse_candidates(l, cap, np.minimum(kbest + 1, COARSE_POINTS - 1))

    h = b - a
    hmax = float(np.max(h, initial=0.0))
    if hmax > INNER_TOL:
        if np.any(a < l) or np.any(b >= 1.0):
            raise ValueError("golden-section bracket must satisfy l <= a <= b < 1")
        objective = _row_objective(params, l, nodes, values)
        n = int(math.ceil(math.log(INNER_TOL / hmax) / math.log(_INVPHI)))
        x1 = a + _INVPHI2 * h
        x2 = a + _INVPHI * h
        f1 = objective(x1)
        f2 = objective(x2)
        for _ in range(n):
            left = f1 >= f2
            b = np.where(left, x2, b)
            a = np.where(left, a, x1)
            h = b - a
            xnew = np.where(left, a + _INVPHI2 * h, a + _INVPHI * h)
            fnew = objective(xnew)
            x1, x2, f1, f2 = (
                np.where(left, xnew, x2),
                np.where(left, x1, xnew),
                np.where(left, fnew, f2),
                np.where(left, f1, fnew),
            )
        xg = np.where(f1 >= f2, x1, x2)
        fg = np.maximum(f1, f2)
    else:
        xg, fg = xc, fc

    arg = np.where(fg > fc, xg, np.where(fg < fc, xc, np.minimum(xg, xc)))
    best = np.maximum(fg, fc)
    # b = l + (cap - l) can round one ulp past cap; keep the policy inside the state space
    return np.minimum(arg, cap), best


def _step(params: ModelParams, cap: float, nodes: np.ndarray, values: np.ndarray, l: float) -> float:
    """Maximizer of the Bellman objective at the exact state l given values, clamped to [l, cap]."""
    rows = np.array([l])
    terms = _coarse_terms(params, rows, cap, nodes)
    arg, _ = _maximize_rows(params, rows, cap, nodes, values, terms)
    return float(min(max(arg[0], l), cap))


def _bellman_sweeps(
    params: ModelParams, config: SolverConfig, eval_steps: int
) -> Tuple[float, np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray, float]]]:
    """The state grid and an endless run of Bellman sweeps on it from W = 0.

    Returns (cap, nodes, sweeps); each item of sweeps is the greedy policy,
    the new values and their sup-norm change from the previous values.
    After a sweep whose change is at least config.tol, eval_steps policy
    evaluation steps W <- R + D * W(policy) at its policy move the values
    on before the next sweep; with eval_steps = 0 the sweeps are pure
    Bellman sweeps. Raises ValueError up front when searching is not
    worthwhile.
    """
    if not feasible_to_search(params):
        raise ValueError("searching is not worthwhile: p v <= c(0)")
    cap = search_upper_bound(params)
    nodes = np.linspace(0.0, cap, config.grid_size)
    terms = _coarse_terms(params, nodes, cap, nodes)

    def sweeps():
        values = np.zeros(config.grid_size)
        while True:
            policy, new_values = _maximize_rows(params, nodes, cap, nodes, values, terms)
            diff = float(np.max(np.abs(new_values - values)))
            yield policy, new_values, diff
            values = new_values
            if eval_steps and diff >= config.tol:
                policy_terms = _objective_terms(params, nodes, policy, nodes)
                for _ in range(eval_steps):
                    values = _coarse_objective(policy_terms, nodes, values)

    return cap, nodes, sweeps()


def value_iteration(params: ModelParams, config: Optional[SolverConfig] = None) -> ValueSolution:
    """Solve the infinite-horizon problem by modified policy iteration from W = 0.

    Each greedy (Bellman) sweep whose sup-norm change is still at least
    config.tol is followed by EVAL_STEPS cheap evaluation steps at its
    policy. Once a greedy sweep changes the values by less than config.tol,
    one extra greedy sweep makes the returned policy greedy against the
    returned values (their Bellman residual is then below delta * tol).
    iterations and sup_norm_history count greedy sweeps only. Raises
    ConvergenceError when max_iters greedy sweeps are not enough; the error
    carries the sup-norm history for diagnostics.
    """
    config = config or SolverConfig()
    cap, nodes, sweeps = _bellman_sweeps(params, config, EVAL_STEPS)
    history: List[float] = []
    for _, _, diff in itertools.islice(sweeps, config.max_iters):
        history.append(diff)
        if diff < config.tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {config.max_iters} sweeps: "
            f"last sup-norm change {history[-1]:.3e} vs tol {config.tol:.3e}",
            history,
        )
    policy, values, diff = next(sweeps)
    history.append(diff)
    return ValueSolution(
        params=params,
        config=config,
        cap=cap,
        nodes=nodes,
        values=values,
        policy=policy,
        iterations=len(history),
        sup_norm_history=history,
    )


def final_stage_boundary(params: ModelParams, l_prev: float, cap: Optional[float] = None) -> float:
    """Optimal frontier for a last period with no continuation, from l_prev.

    The one-period objective p (l' - l) v / (1 - l p) - C(l, l') is strictly
    concave in l' (its second derivative is -c'(l') < 0), so the maximizer is
    the unique root of c(l') = p v / (1 - l_prev p), found by bisection. This
    pins the terminal boundary far more precisely than a derivative-free
    search of the flat objective could.
    """
    if cap is None:
        cap = search_upper_bound(params)
        if cap is None:
            raise ValueError("searching is not worthwhile: p v <= c(0)")
    if not (0.0 <= l_prev <= cap):
        raise ValueError(f"frontier {l_prev} outside [0, {cap}]")
    target = params.p * params.v / (1.0 - l_prev * params.p)
    f = lambda x: cost_density(params.cost, x) - target
    if f(cap) <= 0.0:
        return cap
    return _bisect_increasing(f, l_prev, cap, BISECT_TOL)


def backward_induction(
    params: ModelParams, truncation: int, config: Optional[SolverConfig] = None
) -> BackwardSolution:
    """Solve the problem truncated to `truncation` periods of search.

    Builds stage values by backward sweeps from the zero terminal function,
    then extracts the optimal frontier path from l = 0, re-maximizing at the
    exact continuous state each period. The last period of the path uses
    final_stage_boundary instead of the bracketed search.
    """
    config = config or SolverConfig()
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    cap, nodes, sweeps = _bellman_sweeps(params, config, 0)
    stage_values = [np.zeros(config.grid_size)]
    history: List[float] = []
    for policy, values, diff in itertools.islice(sweeps, truncation):
        stage_values.append(values)
        history.append(diff)

    boundaries = np.zeros(truncation + 1)
    l = 0.0
    for t in range(1, truncation):
        l = _step(params, cap, nodes, stage_values[truncation - t], l)
        boundaries[t] = l
    # final_stage_boundary bisects inside [l, cap], so it needs no clamp
    boundaries[truncation] = final_stage_boundary(params, l, cap)

    return BackwardSolution(
        params=params,
        config=config,
        cap=cap,
        nodes=nodes,
        values=stage_values[-1],
        policy=policy,
        iterations=truncation,
        sup_norm_history=history,
        truncation=truncation,
        stage_values=stage_values,
        path=FrontierPath(boundaries, truncation),
    )


def frontier_sequence(solution: ValueSolution, horizon: int) -> FrontierPath:
    """Forward-simulate the optimal frontier from l = 0 for `horizon` periods.

    Each step re-maximizes at the exact current state rather than snapping to
    the grid, and clamps to [l, cap] so increments are never negative. Late
    increments shrink geometrically and eventually fall below the solver's
    resolution; activity_split separates the economically active prefix from
    that numerically idle tail. Once a step returns its own state, the policy
    would return it again every later period, so the rest of the path is
    filled with it instead of maximized.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    boundaries = np.zeros(horizon + 1)
    l = 0.0
    for t in range(1, horizon + 1):
        lp = solution.policy_at(l)
        if lp == l:
            boundaries[t:] = l
            break
        l = lp
        boundaries[t] = l
    return FrontierPath(boundaries, horizon)


def activity_split(path: FrontierPath, threshold: float) -> ActivityReport:
    """Count leading increments above threshold and check the tail stays below."""
    inc = path.increments()
    above = inc > threshold
    active = int(np.argmin(above)) if not above.all() else len(inc)
    tail = inc[active:]
    tail_max = float(tail.max()) if len(tail) else 0.0
    return ActivityReport(
        threshold=threshold,
        active_count=active,
        contiguous=not bool((tail > threshold).any()),
        tail_max=tail_max,
    )


def continuation_inequality_check(
    params: ModelParams,
    l_prev: float,
    l_last: float,
    candidates: Sequence[float],
) -> List[ContinuationReport]:
    """Test whether stopping at l_last beats a one-period extension to each candidate.

    A plan that stops at l_last after coming from l_prev is undermined by a
    candidate extension l_c whenever

        c(l_last) / c(l_c)  >=  (1 - l_last p) / (1 - l_prev p),

    which always happens for l_c close enough to l_last: the left side tends
    to 1 while the right side stays strictly below it. Each report carries
    both sides so callers can see the margin.
    """
    if not (0.0 <= l_prev < l_last < 1.0):
        raise ValueError("need 0 <= l_prev < l_last < 1")
    rhs = (1.0 - l_last * params.p) / (1.0 - l_prev * params.p)
    c_last = cost_density(params.cost, l_last)
    reports = []
    for cand in candidates:
        if not (l_last < cand < 1.0):
            raise ValueError(f"candidate {cand} must lie in (l_last, 1)")
        lhs = c_last / cost_density(params.cost, cand)
        reports.append(ContinuationReport(candidate=float(cand), lhs=float(lhs), rhs=float(rhs), violated=bool(lhs >= rhs)))
    return reports


def euler_residual(
    params: ModelParams,
    solution: ValueSolution,
    l: float,
    l_next: Optional[float] = None,
) -> Optional[float]:
    """Central-difference derivative of the Bellman objective at the chosen policy.

    The step is half a grid cell. Near zero for interior policies; returns
    None when the policy sits too close to l or the cap for a symmetric
    difference to fit, in which case the first-order condition does not apply. l_next is the policy's next
    frontier from l when the caller already has it (a path from
    frontier_sequence); without it the policy is maximized here.
    """
    if not (0.0 <= l < solution.cap):
        raise ValueError(f"frontier {l} outside [0, cap)")
    if l_next is None:
        lp = solution.policy_at(l)
    elif l <= l_next <= solution.cap:
        lp = l_next
    else:
        raise ValueError(f"next frontier {l_next} outside [{l}, {solution.cap}]")
    h = 0.5 * solution.cell
    if lp - l < 2.0 * h or solution.cap - lp < 2.0 * h:
        return None
    fplus = bellman_rhs(params, l, lp + h, solution.value_at)
    fminus = bellman_rhs(params, l, lp - h, solution.value_at)
    return float((fplus - fminus) / (2.0 * h))
