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

The start is found by a bracketed secant (Illinois) on l_0, down to
adjacent doubles. Every candidate limit is shot, and the path with the
largest W(0) wins: on a multi-root instance the limit may be any of the
crossings, the cap j* or one below it. A candidate whose orbit turns back
before l = 0, caught by a downward crossing of g below it, has no increasing
path and is passed over.

Orbits over one fundamental domain, the shot orbit among them, pass through
every state of [0, a] the plan visits from 0: each orbit point is a pair
(l, policy(l)) of the grid-free value table.
"""

from __future__ import annotations

import functools
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
    _limit_candidates,
    _marginal_excess,
    cost_density,
    feasible_to_search,
)

# Backward steps one orbit may take before shooting gives up.
MAX_STEPS = 100_000
# Orbits shot per candidate limit before shooting gives up.
MAX_SHOTS = 200
# Orbits start at most this fraction of min(a, 1 - a) from their limit a.
START_GAP = 1e-4
# value_table traces about this many rows, one per node of the default grid.
TABLE_ROWS = 2048


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


def _gap_kernels(params: ModelParams, a: float) -> Tuple[Callable, Callable, Callable]:
    """(c(a - e), c(a) - c(a - e), C(a - e1, a - e2)) as functions of the gaps, in closed form.

    C takes e1 >= e2 >= 0. With w = 1 - a, every form keeps the relative
    precision of e and of e1 - e2.
    """
    c0, k = params.cost.c0, params.cost.k
    w = 1.0 - a
    if params.cost.family is CostFamily.RECIPROCAL:

        def density(e):
            return c0 + k * (a - e) / (w + e)

        def drop(e):
            return k * e / (w * (w + e))

        def interval(e1, e2):
            d = e1 - e2
            return c0 * d + k * (math.log1p(d / (w + e2)) - d)

    else:

        def density(e):
            return c0 - k * math.log(w + e)

        def drop(e):
            return k * math.log1p(e / w)

        def interval(e1, e2):
            d = e1 - e2
            return c0 * d + k * (d * (1.0 - math.log(w + e1)) - (w + e2) * math.log1p(d / (w + e2)))

    return density, drop, interval


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


def _stepper(params: ModelParams, a: float, edge: bool) -> Tuple[Callable, Callable, float]:
    """(back, term, lambda) in the gaps to the limit a: the step e_{t-1} = back(e_t, e_{t+1}),
    the period payoff term(e_{t-1}, e_t) = p (l_t - l_{t-1}) v - (1 - p l_{t-1}) C(l_{t-1}, l_t),
    and the tail rate."""
    p, v, delta = params.p, params.v, params.delta
    density, drop, interval = _gap_kernels(params, a)
    pa = 1.0 - p * a
    # G = -g(a): 0 at a crossing, positive at the edge
    lam, excess = (0.0, -_marginal_excess(params)(a)) if edge else (_tail_rate(params, a), 0.0)

    def back(e, e_next):
        c = density(e)
        return delta * e + (delta * p * interval(e, e_next) + (1.0 - delta) * (pa * drop(e) + excess)) / (p * c)

    def term(e_prev, e_now):
        return p * (e_prev - e_now) * v - (pa + p * e_prev) * interval(e_prev, e_now)

    return back, term, lam


def _orbit(back: Callable, lam: float, a: float, e_start: float, steps=None) -> List[float]:
    """Gaps e_{T+1}, e_T = e_start, e_{T-1}, ..., backwards: `steps` steps, or until l <= 0."""
    es = [lam * e_start, e_start]
    while es[-1] < a if steps is None else len(es) - 2 < steps:
        if len(es) > MAX_STEPS:
            raise ConvergenceError(f"no orbit reaches l = 0 within {MAX_STEPS} periods of the limit {a!r}")
        es.append(back(es[-1], es[-2]))
        if es[-1] <= es[-2]:
            raise _Unreachable(a)
    return es


def _shoot(params: ModelParams, a: float, edge: bool) -> Tuple[float, List[float], float]:
    """(W(0), gaps e_0 = a, e_1 .. e_{T+1} to the limit a, lambda) of the optimal path converging to a."""
    back, term, lam = _stepper(params, a, edge)
    orbit = functools.partial(_orbit, back, lam, a)
    # hi's orbit first reaches l <= 0 after `steps` steps; lo's is hi's a period
    # later (exactly at the edge, up to the linearization at a crossing), so its
    # l after as many steps is still positive
    hi = back(0.0, 0.0) if edge else START_GAP * min(a, 1.0 - a)
    for _ in range(MAX_SHOTS):
        best = orbit(hi)
        steps = len(best) - 2
        lo = lam * hi
        low = orbit(lo, steps)
        if low[-1] < a:
            break
        hi = lo
    else:
        raise ConvergenceError(f"no bracket for l_0 = 0 was found within {MAX_SHOTS} orbits")
    # Illinois: a secant on l after `steps` steps, its stale end's weight halved
    l_lo, l_hi = a - low[-1], a - best[-1]
    w_lo, w_hi, side = l_lo, l_hi, 0
    for _ in range(MAX_SHOTS):
        if l_hi == 0.0:
            break
        x = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if not lo < x < hi:
            if l_lo < -l_hi:
                best = low
            break
        trial = orbit(x, steps)
        lx = a - trial[-1]
        if lx > 0.0:
            lo, low, l_lo, w_lo = x, trial, lx, lx
            w_hi *= 0.5 if side > 0 else 1.0
            side = 1
        else:
            hi, best, l_hi, w_hi = x, trial, lx, lx
            w_lo *= 0.5 if side < 0 else 1.0
            side = -1
    else:
        raise ConvergenceError(f"shooting for l_0 = 0 did not settle within {MAX_SHOTS} orbits")

    gaps = best[::-1]
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
    total = math.fsum(terms)
    for _ in range(MAX_STEPS):
        nxt = lam * prev
        if p * v * prev * disc <= 1e-18 * abs(total) or nxt == prev:
            break
        terms.append(disc * term(prev, nxt))
        disc *= delta
        prev = nxt
    return math.fsum(terms)


def optimal_path(params: ModelParams, horizon: int) -> ShootingSolution:
    """The optimal frontier path from l = 0 for `horizon` periods and its value W(0).

    Shoots from every candidate limit (model._limit_candidates), the last of which is j*,
    and keeps the path with the largest W(0).
    Raises ValueError when searching is not worthwhile (p v <= c(0)) or the
    horizon is below 1, OutOfRangeError when q* lies beyond the solver's
    edge or p c(a) underflows to 0 at a limit a, ConvergenceError when an
    orbit needs more than MAX_STEPS periods or the shooting more than MAX_SHOTS
    orbits, and MemoryError when the path's horizon + 1 floats do not fit in memory.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not feasible_to_search(params):
        raise ValueError("searching is not worthwhile: p v <= c(0)")
    candidates = _limit_candidates(params)
    best = None
    for a in candidates:
        try:
            value, gaps, lam = _shoot(params, a, a == 1.0 - BISECT_EDGE)
        except _Unreachable:
            continue
        if best is None or value > best[0]:
            best = (value, gaps, lam, a)
    if best is None:
        raise ConvergenceError("every orbit turns back before l = 0: no increasing path was found")
    value, gaps, lam, a = best
    # allocated at once, so that a horizon too long to hold fails at once
    try:
        path = [0.0] * (horizon + 1)
    except (MemoryError, OverflowError):  # OverflowError: more elements than a list can index
        raise MemoryError(f"a path of {horizon} periods does not fit in memory") from None
    n = min(len(gaps) - 1, horizon)
    for t in range(1, horizon + 1):
        path[t] = a - (gaps[t] if t <= n else gaps[n] * lam ** (t - n))
    return ShootingSolution(value, tuple(path), a, candidates[-1], lam, tuple(gaps))


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
    back, term, _ = _stepper(params, a, lam == 0.0)
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
            es = list(shot.orbit[::-1]) if i == 0 else _orbit(back, lam, a, start)[:-1]
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
