"""Model primitives for sequential search over a continuum of projects.

A unit mass of candidate projects is indexed by j in [0, 1). At most one
project is feasible: the prior probability that a feasible project exists is
p, and conditional on existence its index is uniform on [0, 1). Searching a
set of projects costs the integral of a marginal cost density c(j) over the
set, the searcher discounts at delta per period, and the feasible project
pays v once completed.

Because c is increasing, optimal search sets are intervals that extend the
already-searched prefix. The state is therefore the frontier l in [0, 1):
the mass of projects searched so far and found infeasible. Everything below
works on frontier endpoints.

Two marginal cost families are supported, both strictly increasing with
c(j) -> inf as j -> 1:

    reciprocal     c(j) = c0 + k * j / (1 - j)
    logarithmic    c(j) = c0 - k * log(1 - j)

Interval costs are closed forms in the interval's width and the complements
1 - a, 1 - b, or near j = 0 a series with no negative term (_interval_cost),
so no quadrature is needed anywhere in the package and a narrow interval
keeps its digits. The reciprocal density is not integrable up to 1; the
logarithmic one is.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, Tuple, Union

# A float, or a numpy array: numpy is imported only where an array arrives (_lib,
# _operands), so that code working in floats never loads it.
ArrayLike = Union[float, "numpy.ndarray"]

# The solver's range ends this far short of j = 1: no boundary above
# 1 - BISECT_EDGE is represented.
BISECT_EDGE = 1e-12
# Decimal digits in which the sign of g(j) = c(j)(1 - jp) - p v is decided at a root.
EXACT_DIGITS = 40
# Secant steps _increasing_root takes at most; then it only bisects, so it always ends.
SECANT_STEPS = 100
# The oracle's default assignment budget.
DEFAULT_BUDGET = 10_000_000
# Largest run count: numpy's multinomial takes an int64 run count.
MAX_RUNS = 2**63 - 1


class OutOfRangeError(ValueError):
    """A valid instance whose solution lies outside the range the solver can represent."""


class ConvergenceError(RuntimeError):
    """A solver ran out of steps: value iteration's sweeps (history holds their sup-norm changes)
    or the reverse shooting's orbit periods or bracket-search orbits (history is empty)."""

    def __init__(self, message: str, history: Sequence[float] = ()):
        super().__init__(message)
        self.history = list(history)


class BudgetExceededError(RuntimeError):
    """Enumeration of choices**slots assignments would exceed the configured budget."""

    def __init__(self, choices: int, slots: int, budget: int):
        # a count past 30 digits is named as a power: its digits could outgrow the
        # interpreter's int-to-str limit, and the power itself the memory
        count = choices**slots if slots * math.log10(choices) < 30 else f"{choices}**{slots}"
        super().__init__(f"enumeration needs {count} assignment evaluations, budget is {budget}")
        self.choices = choices
        self.slots = slots
        self.budget = budget

    @property
    def total(self) -> int:
        """The exact assignment count, choices**slots."""
        return self.choices**self.slots


def assignment_count(choices: int, slots: int, budget: int) -> int:
    """choices**slots, the number of assignments of slots to choices >= 2, if it is at
    most budget; else BudgetExceededError. The product stops once it passes the budget,
    so the check's cost does not grow with the slot count."""
    total = 1
    for _ in range(slots):
        total *= choices
        if total > budget:
            raise BudgetExceededError(choices, slots, budget)
    return total


class CostFamily(str, Enum):
    RECIPROCAL = "reciprocal"
    LOGARITHMIC = "logarithmic"


@dataclass(frozen=True)
class CostModel:
    """Marginal search cost c(j) = c0 + k * phi(j) for a supported family."""

    family: CostFamily
    c0: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "family", CostFamily(self.family))
        if not (self.c0 >= 0.0 and math.isfinite(self.c0)):
            raise ValueError(f"c0 must be finite and >= 0, got {self.c0}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"k must be finite and > 0, got {self.k}")

    @classmethod
    def reciprocal(cls, c0: float = 0.0, k: float = 1.0) -> "CostModel":
        return cls(CostFamily.RECIPROCAL, c0, k)

    @classmethod
    def logarithmic(cls, c0: float = 0.0, k: float = 1.0) -> "CostModel":
        return cls(CostFamily.LOGARITHMIC, c0, k)


@dataclass(frozen=True)
class ModelParams:
    """Primitive parameters: prior p, prize v, discount delta, cost model."""

    p: float
    v: float
    delta: float
    cost: CostModel

    def __post_init__(self):
        check_instance(self.p, self.v, self.delta)


def check_instance(p: float, v: float, delta: float) -> None:
    """ValueError unless p and delta lie in (0, 1) and v is finite and > 0."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError(f"v must be finite and > 0, got {v}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _lib(x):
    """math for a Python float, else numpy, imported here: a float never loads it."""
    if isinstance(x, float):
        return math
    import numpy

    return numpy


def _operands(*xs):
    """(scalar, xs): Python floats when every x is a Python number, else float arrays,
    with scalar telling whether all of them are 0-d."""
    if all(isinstance(x, (int, float)) for x in xs):
        return True, [float(x) for x in xs]
    import numpy as np

    return all(np.ndim(x) == 0 for x in xs), [np.asarray(x, dtype=float) for x in xs]


def _any(mask) -> bool:
    """Whether a comparison holds: of floats, or of arrays anywhere."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def _ret(scalar: bool, out: ArrayLike) -> ArrayLike:
    return float(out) if scalar else out


def cost_density(cost: CostModel, j: ArrayLike) -> ArrayLike:
    """Marginal cost c(j). Accepts scalars or arrays with j in [0, 1)."""
    scalar, (j,) = _operands(j)
    if _any(j < 0.0) or _any(j >= 1.0):
        raise ValueError("project index outside [0, 1)")
    if cost.family is CostFamily.RECIPROCAL:
        out = cost.c0 + cost.k * j / (1.0 - j)
    else:
        out = cost.c0 - cost.k * _lib(j).log1p(-j)
    return _ret(scalar, out)


def cost_integral(cost: CostModel, a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Cost of searching the interval [a, b), in closed form in its width (_interval_cost).

    Requires 0 <= a <= b < 1 elementwise. Zero-width intervals cost exactly 0,
    and however narrow the interval or near 0, its error is a few ulps of the cost.
    """
    scalar, (a, b) = _operands(a, b)
    if _any(a < 0.0) or _any(b < a) or _any(b >= 1.0):
        raise ValueError("interval endpoints must satisfy 0 <= a <= b < 1")
    return _ret(scalar, _interval_cost(cost, _lib(a))(a, b - a, 1.0 - a, 1.0 - b))


def _density_slope(cost: CostModel, x: ArrayLike) -> ArrayLike:
    """The derivative c'(x) of the marginal cost, unchecked: callers guarantee 0 <= x < 1.

    k / (1 - x)^2 for the reciprocal family, k / (1 - x) for the logarithmic one.
    """
    if cost.family is CostFamily.RECIPROCAL:
        return cost.k / (1.0 - x) ** 2
    return cost.k / (1.0 - x)


def _interval_cost(cost: CostModel, lib=math) -> Callable[[ArrayLike, ArrayLike, ArrayLike, ArrayLike], ArrayLike]:
    """interval(a, d, wa, wb) = C(a, b), unchecked, in the lower end a, the width d = b - a
    and the complements wa = 1 - a, wb = 1 - b, with lib's log and log1p (math for floats,
    numpy for arrays).

    Callers guarantee 0 <= a <= b < 1. Where b >= 1/8 every term is a multiple of d or a
    log1p of d / wb: exactly 0 at d = 0, and within a few ulps of (c0 + k) d, which is
    at most 16 times the cost. Where b < 1/8 those terms would cancel down to the cost,
    about c(b) d, so it is c(a) d + k K(z) instead, with z = d / wa < 1/7 and K a power
    series with no negative term: exactly 0 at d = 0, and within a few ulps of the cost
    however near 0 the interval lies. c0 d is added last, so that a grid's rows never
    hold it next to the log1p's temporaries; addition commutes, so the bits are the same.
    """
    c0, k = cost.c0, cost.k
    reciprocal, floats = cost.family is CostFamily.RECIPROCAL, lib is math

    def series(a, d, wa):
        # K = sum_{n>=2} z^n / n for j/(1-j), wa sum_{n>=2} z^n / (n (n - 1)) for -log(1-j);
        # past the last term taken the rest is below 1/6 of it
        z = d / wa
        power, total, n = z * z, 0.0, 2
        while True:
            term = power / (n if reciprocal else n * (n - 1))
            total = total + term
            if not _any(term > 1e-17 * total):
                break
            power, n = power * z, n + 1
        if reciprocal:
            return k * (a / wa * d + total) + c0 * d
        return k * (wa * total - lib.log1p(-a) * d) + c0 * d

    def interval(a, d, wa, wb):
        # one comparison, b < 1/8, for floats; arrays take the series in masked below
        if floats and wb > 0.875:
            return series(a, d, wa)
        if reciprocal:
            # integral of j/(1-j) on [a, b) is log(wa / wb) - d
            return k * (lib.log1p(d / wb) - d) + c0 * d
        # integral of -log(1-j) on [a, b) is wb log(wb) - wa log(wa) + d = d (1 - log wa) - wb log(wa / wb)
        return k * (d * (1.0 - lib.log(wa)) - wb * lib.log1p(d / wb)) + c0 * d

    if floats:
        return interval

    def masked(a, d, wa, wb):
        out = lib.asarray(interval(a, d, wa, wb))
        near = lib.broadcast_to(wb > 0.875, out.shape)
        if near.any():
            out[near] = series(*(lib.broadcast_to(x, out.shape)[near] for x in (a, d, wa)))
        return out

    return masked


def posterior_feasible(params: ModelParams, l: ArrayLike) -> ArrayLike:
    """Probability a feasible project remains after [0, l) failed: (1-l)p / (1-lp)."""
    scalar, (l,) = _operands(l)
    if _any(l < 0.0) or _any(l >= 1.0):
        raise ValueError("frontier outside [0, 1)")
    return _ret(scalar, (1.0 - l) * params.p / (1.0 - l * params.p))


def feasible_to_search(params: ModelParams) -> bool:
    """True when the first marginal project is worth searching: p v > c(0)."""
    return params.p * params.v > params.cost.c0


def _increasing_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f on [lo, hi] given f(lo) <= 0 <= f(hi): a point where f is exactly 0 while
    f(lo) < 0, or else lo, with f(lo) <= 0, once hi is the next double above it.

    Steps are Illinois secants (Dowell and Jarratt 1971: an end kept twice running has its f
    halved) while f(lo) < 0 < f(hi), for at most SECANT_STEPS steps; else, or off the bracket,
    midpoints, geometric while it spans orders of magnitude (hi > 2 lo > 0): so a 0/1 step
    function is bisected, and a root far below hi takes tens of steps, not a thousand.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ValueError("the bracket does not straddle a root")
    if f_lo < 0.0 == f_hi:
        return hi
    side = 0
    for step in itertools.count():
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) if step < SECANT_STEPS and f_lo < 0.0 < f_hi else lo
        if not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo > 0.0 else 0.5 * (lo + hi)
            if not lo < x < hi:
                return lo
        fx = f(x)
        if fx == 0.0 and f_lo < 0.0:
            return x
        if fx <= 0.0:
            lo, f_lo, f_hi, side = x, fx, f_hi * (0.5 if side > 0 else 1.0), 1
        else:
            hi, f_hi, f_lo, side = x, fx, f_lo * (0.5 if side < 0 else 1.0), -1


def myopic_boundary(params: ModelParams) -> Optional[float]:
    """One-shot optimal frontier q*: the root of c(q) = p v, or None if p v <= c(0).

    A searcher with no continuation extends the frontier until the marginal
    cost eats the marginal expected prize. The root is unique because c is
    strictly increasing and diverges at 1. With x = (p v - c0) / k it is
    x / (1 + x) for the reciprocal family and 1 - exp(-x), taken as
    -expm1(-x), for the logarithmic one: no cancellation, so a root near 0
    keeps its relative precision. Raises OutOfRangeError when the root lies
    above 1 - BISECT_EDGE, outside the solver's range, or when c overflows there.
    """
    pv = params.p * params.v
    if pv <= params.cost.c0:
        return None
    edge_cost = cost_density(params.cost, 1.0 - BISECT_EDGE)
    if edge_cost == math.inf:
        raise OutOfRangeError(f"c(1 - {BISECT_EDGE:g}), the marginal cost at the edge of the solver's range, overflows")
    if pv > edge_cost:
        raise OutOfRangeError(
            f"p v = {pv:g} exceeds c(1 - {BISECT_EDGE:g}) = {edge_cost:g}, the marginal cost at "
            f"the edge of the solver's range: the one-shot boundary q* lies closer to 1 than "
            f"1 - {BISECT_EDGE:g}"
        )
    x = (pv - params.cost.c0) / params.cost.k
    if params.cost.family is CostFamily.RECIPROCAL:
        return x / (1.0 + x)
    return -math.expm1(-x)


def _marginal_excess(params: ModelParams) -> Callable[[ArrayLike], ArrayLike]:
    """g(j) = c(j)(1 - jp) - p v, written as k phi(j) - x - j p c(j) with x = p v - c0.

    x is taken once, so a c0 close to p v cancels exactly there and not in
    every evaluation of g: near a root the three terms keep their relative
    precision, and so does the root.
    """
    cost, p = params.cost, params.p
    x = p * params.v - cost.c0

    def g(j):
        k_phi = cost.k * j / (1.0 - j) if cost.family is CostFamily.RECIPROCAL else -cost.k * _lib(j).log1p(-j)
        return k_phi - x - j * p * (cost.c0 + k_phi)

    return g


def _excess_is_positive(params: ModelParams, j: float) -> bool:
    """Whether g(j) = c(j)(1 - jp) - p v > 0, decided in EXACT_DIGITS-digit decimals.

    The doubles j, p, c0, k and the double p v are taken as exact, so for
    every double j the sign is g's own, not its rounding noise's. For the
    logarithmic family, with w = 1 - j and x = p v - c0, g > 0 is
    -log(w) > y = (x + j p c0) / (k (1 - j p)), decided as w < exp(-y): a
    Decimal.exp costs about a third of a Decimal.ln. A small y puts exp(-y)
    near 1, where it keeps y's digits only with as many more decimals as y
    has leading zeros, so a y below 1 is given them.
    """
    cost = params.cost
    with decimal.localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        jd, p, c0, k = (decimal.Decimal(z) for z in (j, params.p, cost.c0, cost.k))
        x = decimal.Decimal(params.p * params.v) - c0
        # 1 - j exactly: rounded, it would cost a tiny j its digits
        w = decimal.Context(prec=decimal.MAX_PREC).subtract(1, jd)
        if cost.family is CostFamily.RECIPROCAL:
            return k * jd / w * (1 - jd * p) - x - jd * p * c0 > 0
        y = (x + jd * p * c0) / (k * (1 - jd * p))
        ctx.prec += max(0, -y.adjusted())
        return w < (-y).exp()


def _settle(positive: Callable[[float], bool], root: float) -> float:
    """A double lo near root with positive(lo) false and positive(next double) true.

    Bisects from the smallest bracket about root whose ends positive
    confirms, widened in doubling steps within [0, 1 - BISECT_EDGE]. When
    positive changes sign once near root, that change is the result,
    wherever near it root was. Each double's sign is decided once, although
    the bracket's ends are asked again by _increasing_root: in EXACT_DIGITS
    decimals a logarithmic sign costs a Decimal.exp.
    """
    positive = functools.cache(positive)
    edge = 1.0 - BISECT_EDGE
    lo, hi = root, math.nextafter(root, 1.0)
    step = math.ulp(root)
    while positive(lo) and lo > 0.0:
        lo, step = max(root - step, 0.0), 2.0 * step
    step = math.ulp(root)
    while not positive(hi) and hi < edge:
        hi, step = min(root + step, edge), 2.0 * step
    return _increasing_root(lambda j: 1.0 if positive(j) else 0.0, lo, hi)


def _limit_candidates(params: ModelParams) -> Tuple[float, ...]:
    """Every upward crossing of g = c(j)(1 - jp) - p v above q*, in increasing order,
    then the edge 1 - BISECT_EDGE if g <= 0 there; () when p v <= c(0).

    Each crossing lies in a piece between q*, where g = -q* p (p v) < 0, g's turning
    points and the edge; when q* is tiny and g(q*) rounds positive, the first piece starts
    at 0, where g = c0 - p v < 0. For the reciprocal family (1 - j) g is a quadratic in j,
    negative at 0 and positive at 1, so g crosses zero once. For the logarithmic family
    g'(j) = k(1 - p)/(1 - j) + p k log(1 - j) - p(c0 - k) is convex in -log(1 - j), least
    at j = (2p - 1)/p, so g turns at most twice. A piece with g <= 0 at its start and
    g > 0 at its end holds one crossing: bisected to adjacent doubles with _marginal_excess,
    then settled on g's own sign change (_excess_is_positive): the largest double at or below it.
    """
    q = myopic_boundary(params)
    if q is None:
        return ()
    g = _marginal_excess(params)
    cost, p = params.cost, params.p
    lo, hi = q if g(q) <= 0.0 else 0.0, 1.0 - BISECT_EDGE
    ends = [lo, hi]
    if cost.family is CostFamily.LOGARITHMIC:

        def slope(j):
            return cost.k * (1.0 - p) / (1.0 - j) + p * cost.k * math.log1p(-j) - p * (cost.c0 - cost.k)

        mid = min(max(2.0 - 1.0 / p, lo), hi)
        pieces = ((lambda j: -slope(j), lo, mid), (slope, mid, hi))
        ends[1:1] = [_increasing_root(f, a, b) for f, a, b in pieces if f(a) < 0.0 < f(b)]
    positive = [g(j) > 0.0 for j in ends]
    roots = tuple(
        _settle(lambda j: _excess_is_positive(params, j), _increasing_root(g, a, b))
        for a, b, before, after in zip(ends, ends[1:], positive, positive[1:])
        if after and not before
    )
    return roots if positive[-1] else roots + (hi,)


def search_upper_bound(params: ModelParams) -> Optional[float]:
    """Largest frontier any optimal plan can reach: the last root of c(j)(1 - jp) = p v.

    Beyond this point even a myopically-adjusted marginal project loses money
    in every continuation, so no optimal path goes above it. For the reciprocal
    family the root is unique: (1 - j)(c(j)(1 - jp) - p v) is a quadratic in j,
    negative at 0 and positive at 1. For the logarithmic family at large p the
    left side can cross p v more than once, and the last crossing is returned.
    If no crossing occurs below 1 - BISECT_EDGE the edge itself is returned.

    It is _limit_candidates' last: the largest double at or below the exact root, or the edge.

    Returns None when searching is infeasible outright (p v <= c(0)).
    """
    candidates = _limit_candidates(params)
    return candidates[-1] if candidates else None
