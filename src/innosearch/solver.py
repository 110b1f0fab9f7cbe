"""Dynamic-programming solver for the optimal search frontier.

The searcher who has failed on [0, l) solves

    W(l) = max_{l' in [l, j*]}  s v - C(l, l') + delta (1 - l' p) / (1 - l p) W(l')

where s = p (l' - l) / (1 - l p) is the chance this period's interval
contains the feasible project, C is the interval cost, and
(1 - l' p) / (1 - l p) = 1 - s is the chance of reaching next period with
frontier l'. States above j* = search_upper_bound never pay even without
discounting, so the grid lives on [0, j*].

Numerics: uniform grid, piecewise-linear interpolation of W between nodes,
and per-node maximization in two stages, vectorized across nodes. A coarse
scan over COARSE_POINTS evenly spaced candidates brackets each maximizer,
and golden-section narrows the bracket only until it is at most one grid
cell wide. Inside a cell W is linear, so the objective is smooth there with
closed-form first and second derivatives; it is convex and then concave,
and a few Newton steps on its derivative, from the right end of each of
the bracket's at most two pieces, find the bracket's maximum (Judd 1998,
Numerical Methods in Economics, ch. 10). The maximizer is the best of
those points, the golden-section points and the coarse candidate, with
exact ties going to the smallest frontier. It is exact over the final
bracket. Which bracket golden-section ends in is decided by comparisons of
the piecewise objective, whose kinks at the nodes can make it settle one
cell away from the row's best local maximum.

The coarse scan's objective is R + D * W(l') with the payoff R and the
discounted survival weight D independent of W. Both are computed once per
set of rows (the grid for a whole solve, one state for policy_at), together
with an interpolation stencil: each candidate's node interval and its
offset in it. A sweep then evaluates W at the candidates with np.interp's
own formula and no search, bitwise equal to np.interp. The refinement's
objective computes its row terms once per call, and the bracket is checked
once per call rather than at every evaluation.

The infinite-horizon problem and its truncated benchmark share one sweep
loop from W = 0. Value iteration is modified policy iteration (Puterman and
Shin 1978): each greedy sweep that still changes the values by TOL * p v or
more is followed by EVAL_STEPS evaluation steps W <- R + D * W(policy) at
that sweep's policy, each one stencil evaluation over the grid with no
maximization. From W = 0 the greedy sweep raises W, so the iterates lie
between plain value iteration's and the grid fixed point (Puterman 1994,
Thm 6.5.5) and never need more greedy sweeps; near delta = 1 they need far
fewer. It stops when a greedy sweep changes the values by less than
TOL * p v in sup norm, then runs one extra greedy sweep so the returned
policy is greedy against the returned values. p v bounds W from above, so
the rule is relative: scaling v and the cost jointly takes the same sweeps.
Backward induction takes no evaluation steps: its stages are pure Bellman
sweeps, the exact truncated-horizon values.

Path extraction in both re-maximizes at the exact state each period. The
policy is a deterministic function of the state and the path is
nondecreasing, so once the policy returns the state it was given, every
later boundary equals that state and extraction stops maximizing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ArrayLike,
    ConvergenceError,
    ModelParams,
    _density_slope,
    _interval_cost,
    cost_density,
    cost_integral,
    feasible_to_search,
    search_upper_bound,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI

# Evenly spaced candidates per row in the coarse scan that brackets each maximizer.
COARSE_POINTS = 64
# Newton steps on the objective's derivative in each piece of the final one-cell bracket.
NEWTON_STEPS = 3
# Policy evaluation steps value iteration runs after each greedy sweep still above the threshold.
EVAL_STEPS = 20
# Value iteration stops once a greedy sweep changes the values by less than TOL * p v in sup norm.
TOL = 1e-9
# Greedy sweeps value iteration runs before it gives up with ConvergenceError.
MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class SolverConfig:
    grid_size: int = 2048

    def __post_init__(self):
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be >= 64, got {self.grid_size}")


@dataclass
class ContinuationReport:
    lhs: float
    rhs: float
    violated: bool


@dataclass
class ValueSolution:
    params: ModelParams
    nodes: np.ndarray
    values: np.ndarray
    policy: np.ndarray
    sup_norm_history: List[float]

    @property
    def cap(self) -> float:
        return float(self.nodes[-1])

    @property
    def iterations(self) -> int:
        return len(self.sup_norm_history)

    @property
    def cell(self) -> float:
        return self.cap / (len(self.nodes) - 1)

    def value_at(self, l: ArrayLike) -> ArrayLike:
        out = np.interp(l, self.nodes, self.values)
        return float(out) if np.ndim(l) == 0 else out

    def policy_at(self, l: float) -> float:
        """Exact-state maximizer of the Bellman objective given this solution's values."""
        if not (0.0 <= l <= self.cap):
            raise ValueError(f"frontier {l} outside [0, {self.cap}]")
        return _step(self.params, self.cap, self.nodes, self.values, l)


@dataclass
class BackwardSolution:
    """The problem truncated to len(path) - 1 periods of search.

    stage_values[k] is the value function on nodes with k periods left
    (stage_values[0] = 0), and path the optimal frontier l_0 = 0, l_1, .., l_T.
    """

    params: ModelParams
    nodes: np.ndarray
    stage_values: List[np.ndarray]
    path: np.ndarray

    @property
    def truncation(self) -> int:
        return len(self.path) - 1


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

    The row terms 1 - l p and 1 - l are computed once here rather than at
    every evaluation, and nothing is checked: callers guarantee
    0 <= l <= x < 1. The operations are bellman_rhs's in the same order, so
    the results are bitwise equal to it.
    """
    denom = 1.0 - l * params.p
    wl = 1.0 - l
    interval = _interval_cost(params.cost, np)

    def objective(x):
        r, d = _rhs_terms(params, l, x, denom, interval(l, x - l, wl, 1.0 - x))
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

    terms is _coarse_terms(params, l, cap, nodes). The coarse scan over its
    candidates brackets each row's maximizer between the best candidate's
    neighbours. Golden-section narrows every bracket to at most one grid
    cell, which takes ceil(log(cell / width) / log(1 / phi)) steps for the
    widest (9 at grid 2048, 12 at 8192), and _bracket_maximizers then
    locates the exact maximum inside it. The bracket is checked once to lie
    in [l, 1); every point scored lies inside it or at a coarse candidate,
    so the objective is evaluated unchecked. Returns (argmax, max): the best
    of the coarse candidate, the two golden-section points and the two
    bracket points, exact ties going to the smallest frontier, so the
    maximum never falls below any of them.
    """
    F = _coarse_objective(terms, nodes, values)
    kbest = np.argmax(F, axis=1)
    fc = F[np.arange(len(l)), kbest]
    xc = _coarse_candidates(l, cap, kbest)
    a = _coarse_candidates(l, cap, np.maximum(kbest - 1, 0))
    b = _coarse_candidates(l, cap, np.minimum(kbest + 1, COARSE_POINTS - 1))
    if np.any(a < l) or np.any(b >= 1.0):
        raise ValueError("golden-section bracket must satisfy l <= a <= b < 1")
    objective = _row_objective(params, l, nodes, values)

    h = b - a
    hmax = float(np.max(h, initial=0.0))
    cell = nodes[1] - nodes[0]
    n = math.ceil(math.log(cell / hmax) / math.log(_INVPHI)) if hmax > cell else 0
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

    arg, best = xc, fc
    x3, x4 = _bracket_maximizers(params, l, cap, nodes, values, a, b)
    for x, f in ((x1, f1), (x2, f2), (x3, objective(x3)), (x4, objective(x4))):
        arg = np.where(f > best, x, np.where(f == best, np.minimum(arg, x), arg))
        best = np.maximum(best, f)
    # b = l + (cap - l) can round one ulp past cap; keep the policy inside the state space
    return np.minimum(arg, cap), best


def _bracket_maximizers(
    params: ModelParams,
    l: np.ndarray,
    cap: float,
    nodes: np.ndarray,
    values: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> List[np.ndarray]:
    """The maximizing point of each of the two pieces of each row's bracket [a, b].

    The bracket is at most one cell wide, so the first node above a cuts it
    into at most two pieces, each inside one cell k, where
    W(x) = w_k + s_k (x - n_k) is linear. With denom = 1 - l p the objective
    f there has
        f'(x)  = (p v + delta (s_k (1 - p x) - p W(x))) / denom - c(x),
        f''(x) = -c'(x) - 2 delta p s_k / denom,
    and since c' and c'' are positive, f is convex, then concave. Newton's
    method on f' starts at the piece's right end and is clipped to the
    piece. It runs in the gap coordinate u = -log(1 - x), where f' is
    concave too when W is nonincreasing and the logarithmic cost's log term
    is linear, so it also converges in the last cells below j*, where 1 - x
    can span orders of magnitude. The steps walk monotonically down to the
    root where f' turns negative, reach the left end when f' < 0 across
    the piece, and stay at the right end where f' >= 0 or f is convex. So
    each point is its piece's maximum, except that a convex piece may peak
    at its left end instead: the node, which the first piece's point then
    matches or beats, or a, a discarded golden-section point or coarse
    candidate, which never beats the golden-section points kept.
    """
    p, v, delta = params.p, params.v, params.delta
    denom = 1.0 - l * p
    slope = np.diff(values) / np.diff(nodes)
    first = np.minimum(np.searchsorted(nodes, a, "right") - 1, len(nodes) - 2)
    b = np.minimum(b, cap)
    mid = np.clip(nodes[first + 1], a, b)
    points = []
    for k, lo, hi in ((first, a, mid), (np.minimum(first + 1, len(nodes) - 2), mid, b)):
        s = slope[k]
        # f'(x) = lin - bend x - c(x) and f''(x) = -bend - c'(x) inside cell k
        bend = 2.0 * delta * p * s / denom
        lin = (p * v + delta * (s - p * (values[k] - s * nodes[k]))) / denom
        u_lo, u_hi = -np.log1p(-lo), -np.log1p(-hi)
        u = u_hi
        for _ in range(NEWTON_STEPS):
            x = -np.expm1(-u)
            d1 = lin - bend * x - cost_density(params.cost, x)
            # the derivative of f' in u: f''(x) dx/du
            d2 = (-_density_slope(params.cost, x) - bend) * (1.0 - x)
            u = np.clip(u - np.divide(d1, d2, out=np.zeros_like(u), where=d2 < 0.0), u_lo, u_hi)
        points.append(np.clip(-np.expm1(-u), lo, hi))
    return points


def _step(params: ModelParams, cap: float, nodes: np.ndarray, values: np.ndarray, l: float) -> float:
    """Maximizer of the Bellman objective at the exact state l given values; it lies in [l, cap]."""
    rows = np.array([l])
    terms = _coarse_terms(params, rows, cap, nodes)
    arg, _ = _maximize_rows(params, rows, cap, nodes, values, terms)
    return float(arg[0])


def _stop_threshold(params: ModelParams) -> float:
    """Sup-norm change TOL * p v below which value iteration stops; p v bounds W from above."""
    return TOL * params.p * params.v


def _bellman_sweeps(
    params: ModelParams, config: SolverConfig, eval_steps: int
) -> Tuple[float, np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray, float]]]:
    """The state grid and an endless run of Bellman sweeps on it from W = 0.

    Returns (cap, nodes, sweeps); each item of sweeps is the greedy policy,
    the new values and their sup-norm change from the previous values.
    After a sweep whose change is at least _stop_threshold, eval_steps policy
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
    threshold = _stop_threshold(params)

    def sweeps():
        values = np.zeros(config.grid_size)
        while True:
            policy, new_values = _maximize_rows(params, nodes, cap, nodes, values, terms)
            diff = float(np.max(np.abs(new_values - values)))
            yield policy, new_values, diff
            values = new_values
            if eval_steps and diff >= threshold:
                policy_terms = _objective_terms(params, nodes, policy, nodes)
                for _ in range(eval_steps):
                    values = _coarse_objective(policy_terms, nodes, values)

    return cap, nodes, sweeps()


def value_iteration(params: ModelParams, config: Optional[SolverConfig] = None) -> ValueSolution:
    """Solve the infinite-horizon problem by modified policy iteration from W = 0.

    Each greedy (Bellman) sweep whose sup-norm change is still at least the
    threshold TOL * p v (p v bounds W from above) is followed by EVAL_STEPS
    cheap evaluation steps at its policy. Once a greedy sweep changes the
    values by less than the threshold, one extra greedy sweep makes the
    returned policy greedy against the returned values (their Bellman
    residual is then below delta times the threshold). iterations and
    sup_norm_history count greedy sweeps only. Raises ConvergenceError when
    MAX_SWEEPS greedy sweeps are not enough; the error carries the sup-norm
    history for diagnostics.
    """
    config = config or SolverConfig()
    _, nodes, sweeps = _bellman_sweeps(params, config, EVAL_STEPS)
    threshold = _stop_threshold(params)
    history: List[float] = []
    for _, _, diff in itertools.islice(sweeps, MAX_SWEEPS):
        history.append(diff)
        if diff < threshold:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {MAX_SWEEPS} sweeps: "
            f"last sup-norm change {history[-1]:.3e} vs threshold {threshold:.3e}",
            history,
        )
    policy, values, diff = next(sweeps)
    history.append(diff)
    return ValueSolution(params, nodes, values, policy, history)


def backward_induction(
    params: ModelParams, truncation: int, config: Optional[SolverConfig] = None
) -> BackwardSolution:
    """Solve the problem truncated to `truncation` periods of search.

    Builds stage values by backward sweeps from the zero terminal function,
    then extracts the optimal frontier path from l = 0, re-maximizing at the
    exact continuous state each period against the stage values of the
    periods left. The last period maximizes against W = 0, where the
    objective is strictly concave and the bracket's Newton steps solve its
    first-order condition c(l') = p v / (1 - l p) to rounding.
    """
    config = config or SolverConfig()
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    cap, nodes, sweeps = _bellman_sweeps(params, config, 0)
    stage_values = [np.zeros(config.grid_size)]
    stage_values += [values for _, values, _ in itertools.islice(sweeps, truncation)]

    boundaries = np.zeros(truncation + 1)
    l = 0.0
    for t in range(1, truncation + 1):
        l = _step(params, cap, nodes, stage_values[truncation - t], l)
        boundaries[t] = l
    return BackwardSolution(params, nodes, stage_values, boundaries)


def frontier_sequence(solution: ValueSolution, horizon: int) -> np.ndarray:
    """Forward-simulate the optimal frontier l_0 = 0, .., l_horizon from l = 0.

    Each step re-maximizes at the exact current state rather than snapping to
    the grid, over [l, cap], so increments are never negative. Late
    increments shrink geometrically and eventually fall below the grid's
    resolution, where the path stalls. Once a step returns its own state,
    the policy would return it again every later period, so the rest of the
    path is filled with it instead of maximized.
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
    return boundaries


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
    to 1 while the right side stays strictly below it. One report per
    candidate, in order; each carries both sides so callers can see the margin.
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
        reports.append(ContinuationReport(lhs=float(lhs), rhs=float(rhs), violated=bool(lhs >= rhs)))
    return reports


def euler_residual(params: ModelParams, solution: ValueSolution, l: float) -> Optional[float]:
    """Central-difference derivative of the Bellman objective at the chosen policy.

    The step is half a grid cell. Near zero for interior policies; returns
    None when the policy sits too close to l or the cap for a symmetric
    difference to fit, in which case the first-order condition does not
    apply: always so at l = cap, where a path that reaches the cap stays.
    """
    if not (0.0 <= l <= solution.cap):
        raise ValueError(f"frontier {l} outside [0, {solution.cap}]")
    lp = solution.policy_at(l)
    h = 0.5 * solution.cell
    if lp - l < 2.0 * h or solution.cap - lp < 2.0 * h:
        return None
    fplus = bellman_rhs(params, l, lp + h, solution.value_at)
    fminus = bellman_rhs(params, l, lp - h, solution.value_at)
    return float((fplus - fminus) / (2.0 * h))
