"""Reverse shooting on the first-order condition: the optimal path without a grid.

Along an optimal path the payoff

    sum_t delta^(t-1) [ p (l_t - l_{t-1}) v - (1 - p l_{t-1}) C(l_{t-1}, l_t) ]

is stationary in every l_t, which gives

    p C(l_t, l_{t+1}) = A_t - B_t / delta,
    A_t = p v - (1 - p l_t) c(l_t),   B_t = p v - (1 - p l_{t-1}) c(l_t).

Solved for l_{t-1} the step is explicit. The path's limit a is an upward
crossing of g(j) = c(j)(1 - jp) - p v (A = 0 there), or the solver's edge
1 - BISECT_EDGE when g stays below zero up to it. In the gap e = a - l, with
G = -g(a) (0 at a crossing, positive at the edge), the backward step is

    e_{t-1} = delta e_t + delta C_t / c_t + (1 - delta) [(1 - p a) D(e_t) + G] / (p c_t),

with c_t = c(a - e_t), D(e) = c(a) - c(a - e) and C_t = C(a - e_t, a - e_{t+1}),
each in closed form in e. Every term is positive, so the step loses no
digits however close to a the path comes (Judd 1998, Numerical Methods in
Economics, section 10.7). Backwards, errors off the path's stable manifold
shrink by delta lambda per step, so the iteration is stable.

At a crossing the linearized step has the roots lambda and 1/(delta lambda),
lambda = (sigma - sqrt(sigma^2 - 4/delta)) / 2 in (0, 1), with
sigma = 2 + (1 - delta)(1 + gamma)/delta and gamma = g'(a) / (p c(a)). An
orbit starts on the linearized stable manifold (e_T, lambda e_T) and steps
back until l <= 0; its start is solved for l_0 = 0 over one fundamental
domain e_T in [lambda E, E], E = START_GAP min(a, 1 - a): the orbit from
lambda E is the orbit from E one period later. The path after T is the
linearized tail e_{T+k} = e_T lambda^k. At the edge the path reaches a in
finitely many periods: the orbit starts at (e_T, 0), and e_T runs over
(0, e_max], e_max the step back from (0, 0), which is where the Kuhn-Tucker
condition at the edge holds with equality.

The start is the root of the overshoot e_0 - a (model._increasing_root): a
shot that lands on l_0 = 0 exactly, or the closer of two adjacent doubles.
Every candidate limit is shot, and the path with the largest W(0) wins: on a
multi-root instance the limit may be any of the crossings, the cap j* or one
below it. A candidate whose orbit turns back before l = 0, caught by a
downward crossing of g below it, has no increasing path and is passed over,
and so is one whose shooting runs out of steps while another solves.

Orbits over one fundamental domain, the shot orbit among them, pass through
every state of [0, a] the plan visits from 0: each orbit point is a pair
(l, policy(l)) of the grid-free value table.

The problem truncated to T periods (truncated_path) is shot the same way,
from its last period. Its last boundary l_T sets l_{T-1} by the last
period's condition c(l_T)(1 - p l_{T-1}) = p v, in the gaps
e_{T-1} = [(1 - p a) D(e_T) + G] / (p c_T): the backward step with no period
after T. Earlier periods take the backward step above, and e_T is bisected
to adjacent doubles until l_0 = 0 after T - 1 steps. At the edge the path
may also reach a at some period m <= T and stay there, where the
Kuhn-Tucker condition allows it: l_{m-1} up to the last period's condition
at m = T, up to the step back from (0, 0) before. A truncation so long that
its last gap would lie below the least normal double is the infinite path
to the last double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .model import (
    BISECT_EDGE,
    ConvergenceError,
    CostFamily,
    ModelParams,
    OutOfRangeError,
    _density_slope,
    _increasing_root,
    _interval_cost,
    _limit_candidates,
    _marginal_excess,
    cost_density,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
)

# Backward steps one orbit may take before shooting gives up.
MAX_STEPS = 100_000
# Orbits the search for a bracket of starts shoots per candidate limit before it gives up.
MAX_SHOTS = 200
# Orbits start at most this fraction of min(a, 1 - a) from their limit a.
START_GAP = 1e-4
# value_table traces about this many rows, one per node of the default grid.
TABLE_ROWS = 2048
# The least normal double: truncated_path bisects a path's last gap above it.
MIN_GAP = 2.2250738585072014e-308


@dataclass(frozen=True)
class ShootingSolution:
    """The optimal path from l = 0: W(0), l_0 .. l_horizon, its limit and tail rate.

    path holds the floats l_0 = 0, l_1 .. l_horizon. cap is search_upper_bound's j*,
    at or above the limit (above it on a multi-root instance).
    tail_rate is the ratio lambda of successive gaps to the limit far along
    the path; 0 when the path reaches its limit, the solver's edge, in
    finitely many periods. orbit holds the shot orbit's gaps limit - l_t,
    from l_0 = 0 to the start (e_T, lambda e_T) of its linearized tail.
    """

    value: float
    path: Tuple[float, ...]
    limit: float
    cap: float
    tail_rate: float
    orbit: Tuple[float, ...]


class _Unreachable(Exception):
    """The orbit from a candidate limit turns back before l = 0: no increasing path converges there."""


def _gap_kernels(params: ModelParams, a: float) -> Tuple[Callable, Callable]:
    """(c(a - e), c(a) - c(a - e)) as functions of the gap e, in closed form.

    With w = 1 - a, both keep the relative precision of e. The interval cost
    C(a - e1, a - e2) is model._interval_cost at (a - e1, e1 - e2, w + e1, w + e2).
    """
    c0, k = params.cost.c0, params.cost.k
    w = 1.0 - a
    if params.cost.family is CostFamily.RECIPROCAL:

        def density(e):
            return c0 + k * (a - e) / (w + e)

        def drop(e):
            return k * e / (w * (w + e))

    else:

        def density(e):
            return c0 - k * math.log(w + e)

        def drop(e):
            return k * math.log1p(e / w)

    return density, drop


def _tail_rate(params: ModelParams, a: float) -> float:
    """lambda in (0, 1): the stable root of the first-order condition linearized at the crossing a."""
    p, delta = params.p, params.delta
    c = cost_density(params.cost, a)
    if p * c == 0.0:
        raise OutOfRangeError(f"p c(a) underflows to 0 at the limit a = {a!r}: the tail rate is out of range")
    gamma = (_density_slope(params.cost, a) * (1.0 - p * a) - p * c) / (p * c)
    h = (1.0 - delta) / delta
    if h == math.inf:
        # a subnormal delta: the root below with numerator and denominator times delta
        b = (1.0 - delta) * (1.0 + gamma)
        return 2.0 / (2.0 * delta + b + math.sqrt(4.0 * delta * (1.0 - delta) * gamma + b * b))
    b = h * (1.0 + gamma)
    disc = 4.0 * h * gamma + b * b
    # where b^2 overflows, sqrt(disc) = b sqrt(1 + 4 gamma / ((1 + gamma) b)), with 1 + gamma > 0
    root = math.sqrt(max(disc, 0.0)) if disc < math.inf else b * math.sqrt(1.0 + 4.0 * gamma / ((1.0 + gamma) * b))
    # the product of the two roots is 1 / delta
    return (2.0 / delta) / (2.0 + b + root)


def _stepper(params: ModelParams, a: float, edge: bool) -> Tuple[Callable, Callable, Callable, float]:
    """(back, last, term, lambda) in the gaps to the limit a: the step e_{t-1} = back(e_t, e_{t+1}),
    the last period's step e_{T-1} = last(e_T) of a path that ends at T, the period payoff
    term(e_{t-1}, e_t) = p (l_t - l_{t-1}) v - (1 - p l_{t-1}) C(l_{t-1}, l_t), and the tail rate."""
    p, v, delta = params.p, params.v, params.delta
    density, drop = _gap_kernels(params, a)
    interval = _interval_cost(params.cost)
    w, pa = 1.0 - a, 1.0 - p * a
    # G = -g(a): 0 at a crossing, positive at the edge
    lam, excess = (0.0, -_marginal_excess(params)(a)) if edge else (_tail_rate(params, a), 0.0)

    def back(e, e_next):
        c = density(e)
        cost = interval(a - e, e - e_next, w + e, w + e_next)
        return delta * e + (delta * p * cost + (1.0 - delta) * (pa * drop(e) + excess)) / (p * c)

    def last(e):
        # back with no period after T: c(l_T)(1 - p l_{T-1}) = p v
        return (pa * drop(e) + excess) / (p * density(e))

    def term(e_prev, e_now):
        d = e_prev - e_now
        return p * d * v - (pa + p * e_prev) * interval(a - e_prev, d, w + e_prev, w + e_now)

    return back, last, term, lam


def _orbit(back: Callable, a: float, es: List[float], steps: int = MAX_STEPS) -> List[float]:
    """The gaps es = [e_{T+1}, e_T] stepped back to e_{T-1}, e_{T-2}, ...: `steps` steps, or until
    l <= 0. Raises _Unreachable where the orbit turns back, ConvergenceError past MAX_STEPS."""
    for _ in range(steps):
        if not es[-1] < a:
            break
        if len(es) > MAX_STEPS:
            raise ConvergenceError(f"no orbit reaches l = 0 within {MAX_STEPS} periods of the limit {a!r}")
        es.append(back(es[-1], es[-2]))
        if es[-1] <= es[-2]:
            raise _Unreachable(a)
    return es


def _shoot(params: ModelParams, a: float, edge: bool) -> Tuple[float, List[float], float]:
    """(W(0), gaps e_0 = a, e_1 .. e_{T+1} to the limit a, lambda) of the optimal path converging to a."""
    back, _, term, lam = _stepper(params, a, edge)
    # hi's orbit first reaches l <= 0 after `steps` steps; lo's is hi's a period
    # later (exactly at the edge, up to the linearization at a crossing), so its
    # l after as many steps is still positive
    hi = back(0.0, 0.0) if edge else START_GAP * min(a, 1.0 - a)
    for _ in range(MAX_SHOTS):
        best = _orbit(back, a, [lam * hi, hi])
        steps = len(best) - 2
        lo = lam * hi
        low = _orbit(back, a, [lam * lo, lo], steps)
        if low[-1] < a:
            break
        hi = lo
    else:
        raise ConvergenceError(f"no bracket for l_0 = 0 was found within {MAX_SHOTS} orbits")
    # the overshoot e_0 - a after `steps` steps, each orbit shot once
    orbits = {lo: low, hi: best}

    def orbit(x):
        if x not in orbits:
            orbits[x] = _orbit(back, a, [lam * x, x], steps)
        return orbits[x]

    x = _increasing_root(lambda x: orbit(x)[-1] - a, lo, hi)
    above = orbit(x)
    return _land(params, a, above, above if above[-1] == a else orbit(math.nextafter(x, hi)), lam, term)


def _land(params: ModelParams, a: float, above: List[float], below: List[float], lam: float, term: Callable):
    """(W(0), gaps e_0 = a, e_1 .., lambda) of the closer to l_0 = 0 of orbits ending at l >= 0 and l <= 0."""
    gaps = (above if a - above[-1] < below[-1] - a else below)[::-1]
    gaps[0] = a  # l_0 = 0
    return _payoff(params, gaps, lam, term), gaps, lam


def _payoff(params: ModelParams, gaps: List[float], lam: float, term: Callable) -> float:
    """(1 - p l_0) W(l_0) of the path with gaps e_0, e_1, .. e_{T+1}, then e_{T+1} lambda^k."""
    p, v, delta = params.p, params.v, params.delta
    terms = []
    disc = 1.0
    prev = gaps[0]
    for e in gaps[1:]:
        terms.append(disc * term(prev, e))
        disc *= delta
        prev = e
    # the linearized tail; each term is below p v e disc, so stop once that is negligible
    pv, stop = p * v, 1e-18 * abs(math.fsum(terms))
    for _ in range(MAX_STEPS):
        nxt = lam * prev
        if pv * prev * disc <= stop or nxt == prev:
            break
        terms.append(disc * term(prev, nxt))
        disc *= delta
        prev = nxt
    return math.fsum(terms)


def _best_shot(params: ModelParams, candidates: Tuple[float, ...], shoot: Callable) -> Tuple[float, List[float], float, float]:
    """(W(0), gaps, lambda, a) of the candidate limit a whose path (W(0), gaps, lambda) =
    shoot(params, a, edge) has the largest W(0).

    A candidate whose orbit turns back before l = 0 or runs out of steps is passed over.
    Raises ConvergenceError when no candidate converges: the first such error when an
    orbit needed more than MAX_STEPS periods or its bracket search more than MAX_SHOTS orbits.
    """
    best, failures = None, []
    for a in candidates:
        try:
            value, gaps, lam = shoot(params, a, a == 1.0 - BISECT_EDGE)
        except _Unreachable:
            continue
        except ConvergenceError as err:
            failures.append(err)
            continue
        if best is None or value > best[0]:
            best = (value, gaps, lam, a)
    if best is None:
        raise (failures + [ConvergenceError("every orbit turns back before l = 0: no increasing path was found")])[0]
    return best


def _frontier(a: float, gaps: List[float], lam: float, horizon: int) -> Tuple[float, ...]:
    """l_0 = 0, l_1 .. l_horizon: a - e_t for the gaps e_t, then a - e_n lambda^k past the last one, e_n."""
    # allocated at once, so that a horizon too long to hold fails at once
    try:
        path = [0.0] * (horizon + 1)
    except (MemoryError, OverflowError):  # OverflowError: more elements than a list can index
        raise MemoryError(f"a path of {horizon} periods does not fit in memory") from None
    n = min(len(gaps) - 1, horizon)
    for t in range(1, horizon + 1):
        path[t] = a - (gaps[t] if t <= n else gaps[n] * lam ** (t - n))
    return tuple(path)


def _validate(params: ModelParams, horizon: int) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not feasible_to_search(params):
        raise ValueError("searching is not worthwhile: p v <= c(0)")


def optimal_path(params: ModelParams, horizon: int) -> ShootingSolution:
    """The optimal frontier path from l = 0 for `horizon` periods and its value W(0).

    Shoots from every candidate limit (model._limit_candidates), the last of which is j*,
    and keeps the path with the largest W(0) among those that converge; a candidate
    whose orbit turns back before l = 0 or runs out of steps is passed over.
    Raises ValueError when searching is not worthwhile (p v <= c(0)) or the
    horizon is below 1, OutOfRangeError when q* lies beyond the solver's
    edge or p c(a) underflows to 0 at a limit a, ConvergenceError when no
    candidate converges (the first such error when an orbit needed more than
    MAX_STEPS periods or the bracket search more than MAX_SHOTS orbits), and
    MemoryError when the path's horizon + 1 floats do not fit in memory.
    """
    _validate(params, horizon)
    candidates = _limit_candidates(params)
    value, gaps, lam, a = _best_shot(params, candidates, _shoot)
    return ShootingSolution(value, _frontier(a, gaps, lam, horizon), a, candidates[-1], lam, tuple(gaps))


def _shoot_truncated(params: ModelParams, a: float, edge: bool, floor: float, horizon: int) -> Tuple[float, List[float], float]:
    """(W(0), gaps e_0 = a, e_1 .. e_T to the candidate limit a, 1) of the path that ends at
    T = horizon >= 2 with l_T in (floor, a]; the tail rate 1 keeps it at l_T.

    floor is q* for the first candidate and the one below a for any other: just above a
    crossing, g > 0 and the last period's condition sets l_{T-1} >= l_T. Or _shoot's
    (W(0), gaps, lambda) of the infinite path into a, when the T-period path is that path
    to the last double: its last gap lies below the least normal double.
    """
    back, last, term, _ = _stepper(params, a, edge)
    # l_T below a, with l_{T-1} from the last period's condition; at the edge also l_T = a,
    # with e_{T-1} below that condition's gap at a, and so on back to earlier periods (_shoot)
    families = [(lambda e: [e, last(e)], a - floor)]
    if edge:
        families.append((lambda e: [0.0, e], last(0.0)))
    for start, top in families:

        def path(e):
            """The gaps e_T, e_{T-1} = start(e) stepped back to e_0, or until l <= 0."""
            es = start(e)
            if es[1] <= es[0]:
                raise _Unreachable(a)
            return _orbit(back, a, es, horizon - 1)

        def low(e):
            """1 where the path reaches l <= 0 (too low), and at top, which is not shot;
            0 where it keeps l_0 > 0 or turns back (too high)."""
            try:
                return 0.0 if e < top and path(e)[-1] < a else 1.0
            except _Unreachable:
                return 0.0

        if low(MIN_GAP):
            continue
        lo = _increasing_root(low, MIN_GAP, top)
        hi = math.nextafter(lo, top)
        if hi == top:
            raise _Unreachable(a)
        above, below = path(lo), path(hi)
        # a root only where l_0 changes sign between two whole paths: not at an early l <= 0
        if len(above) <= horizon or len(below) <= horizon:
            raise _Unreachable(a)
        return _land(params, a, above, below, 1.0, term)
    return _shoot(params, a, edge)


def truncated_path(params: ModelParams, horizon: int) -> Tuple[float, Tuple[float, ...]]:
    """W(0) and the optimal path l_0 = 0, l_1 .. l_T of the problem truncated to T = horizon periods.

    T = 1 is the one-shot problem: l_1 = q*. For T >= 2 each candidate limit a is
    shot as in optimal_path, in a's gaps, but from the last period: the gap
    e_T = a - l_T is bisected to adjacent doubles in (0, a - a'), a' the
    candidate below a or q* for the first, with l_{T-1} set by the last
    period's first-order condition c(l_T)(1 - p l_{T-1}) = p v, until the path
    reaches l_0 = 0 after T - 1 backward steps. A path that turns back
    (l_{T-1} >= l_T just above a crossing) counts as too high. At the edge the
    path may reach a at some period m <= T and stay there. The path with the
    largest W(0) wins. Raises as optimal_path does.
    """
    _validate(params, horizon)
    q = myopic_boundary(params)
    if horizon == 1:
        return params.p * q * params.v - cost_integral(params.cost, 0.0, q), (0.0, q)
    candidates = _limit_candidates(params)
    floors = dict(zip(candidates, (q,) + candidates[:-1]))
    value, gaps, lam, a = _best_shot(
        params, candidates, lambda params, a, edge: _shoot_truncated(params, a, edge, floors[a], horizon)
    )
    return value, _frontier(a, gaps, lam, horizon)


def value_table(params: ModelParams, shot: ShootingSolution) -> Tuple[Tuple[float, ...], ...]:
    """(l, W(l), policy(l)) on [0, r], the states the optimal plan visits from 0, sorted by l:
    three tuples of floats.

    Orbits start over one fundamental domain of the path's tail, the shot
    orbit first, and step back until l <= 0; each orbit point (l_{t-1}, l_t)
    is a row policy(l_{t-1}) = l_t. Each orbit gives about as many rows as
    the shot orbit, and enough orbits start to give about TABLE_ROWS rows.
    Along an orbit U = (1 - p l) W starts at the linearized tail's payoff
    and steps back as
    U_{t-1} = p (l_t - l_{t-1}) v - (1 - p l_{t-1}) C(l_{t-1}, l_t) + delta U_t.
    The first row is the path's own (0, W(0), l_1), the last (r, 0, r).
    """
    p, delta, a, lam = params.p, params.delta, shot.limit, shot.tail_rate
    back, _, term, _ = _stepper(params, a, lam == 0.0)
    pa = 1.0 - p * a
    x = shot.orbit[-2]
    n = -(-TABLE_ROWS // (len(shot.orbit) - 1))
    if lam > 0.0:
        starts = [x * lam ** (i / n) for i in range(n)]
    else:
        # at the edge the domain is (0, e_max], e_max the step back from the edge itself
        e_max = back(0.0, 0.0)
        starts = [x - i / n * e_max for i in range(n)]
        starts = [e if e > 0.0 else e + e_max for e in starts]
    rows = []
    for i, start in enumerate(starts):
        # the shot orbit keeps its l_0 = 0, any other drops its step past l = 0 or, turning back, gives no rows
        try:
            es = list(shot.orbit[::-1]) if i == 0 else _orbit(back, a, [lam * start, start])[:-1]
        except _Unreachable:
            continue
        u = _payoff(params, es[1::-1], lam, term)
        rows.append((a - es[1], u / (pa + p * es[1]), a - es[0]))
        for e_next, e in zip(es[1:], es[2:]):
            u = term(e, e_next) + delta * u
            rows.append((a - e, u / (pa + p * e), a - e_next))
    rows.append((a, 0.0, a))
    rows.sort(key=lambda row: row[0])
    l, w, policy = zip(*rows)
    # W(0) as the path sums it, forward, to the last digit
    return l, (shot.value,) + w[1:], policy
