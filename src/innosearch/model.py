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

Interval costs use the closed-form antiderivatives, so no quadrature is
needed anywhere in the package. The reciprocal density is not integrable up
to 1; the logarithmic one is.
"""

from __future__ import annotations

import decimal
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
# The oracle's default assignment budget.
DEFAULT_BUDGET = 10_000_000
# Largest run count: numpy's multinomial takes an int64 run count.
MAX_RUNS = 2**63 - 1


class OutOfRangeError(ValueError):
    """A valid instance whose solution lies outside the range the solver can represent."""


class ConvergenceError(RuntimeError):
    """A solver ran out of steps: value iteration's sweeps (history holds their sup-norm
    changes) or the reverse shooting's orbit periods or orbits (history is empty)."""

    def __init__(self, message: str, history: Sequence[float] = ()):
        super().__init__(message)
        self.history = list(history)


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured assignment budget."""

    def __init__(self, total: int, budget: int):
        super().__init__(
            f"enumeration needs {total} assignment evaluations, budget is {budget}"
        )
        self.total = total
        self.budget = budget


@dataclass(frozen=True)
class SolverConfig:
    grid_size: int = 2048

    def __post_init__(self):
        if self.grid_size < 64:
            raise ValueError(f"grid_size must be >= 64, got {self.grid_size}")


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
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not (self.v > 0.0 and math.isfinite(self.v)):
            raise ValueError(f"v must be finite and > 0, got {self.v}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


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
    """Cost of searching the interval [a, b), via the closed-form antiderivative.

    Requires 0 <= a <= b < 1 elementwise. Zero-width intervals cost exactly 0.
    """
    scalar, (a, b) = _operands(a, b)
    if _any(a < 0.0) or _any(b < a) or _any(b >= 1.0):
        raise ValueError("interval endpoints must satisfy 0 <= a <= b < 1")
    return _ret(scalar, _cost_integral_kernel(cost, a, b, _antiderivative_term(cost, a)))


def _antiderivative_term(cost: CostModel, x: ArrayLike) -> ArrayLike:
    """The log term of the interval cost's antiderivative at x.

    log1p(-x) for the reciprocal family, (1 - x) log1p(-x) for the logarithmic one.
    """
    log = _lib(x).log1p(-x)
    return log if cost.family is CostFamily.RECIPROCAL else (1.0 - x) * log


def _density_slope(cost: CostModel, x: ArrayLike) -> ArrayLike:
    """The derivative c'(x) of the marginal cost, unchecked: callers guarantee 0 <= x < 1.

    k / (1 - x)^2 for the reciprocal family, k / (1 - x) for the logarithmic one.
    """
    if cost.family is CostFamily.RECIPROCAL:
        return cost.k / (1.0 - x) ** 2
    return cost.k / (1.0 - x)


def _cost_integral_kernel(cost: CostModel, a: ArrayLike, b: ArrayLike, term_a: ArrayLike) -> ArrayLike:
    """cost_integral without its domain check, given term_a = _antiderivative_term(cost, a).

    Callers guarantee 0 <= a <= b < 1; a caller with fixed left ends computes
    term_a once for all of its intervals.
    """
    d = b - a
    term_b = _antiderivative_term(cost, b)
    if cost.family is CostFamily.RECIPROCAL:
        # integral of j/(1-j) on [a, b) is log((1-a)/(1-b)) - (b - a)
        out = cost.c0 * d + cost.k * (term_a - term_b - d)
    else:
        # integral of -log(1-j) on [a, b) is (1-b)log(1-b) - (1-a)log(1-a) + (b - a)
        out = cost.c0 * d + cost.k * (term_b - term_a + d)
    if isinstance(d, float):
        return 0.0 if d == 0.0 else out
    return _lib(d).where(d == 0.0, 0.0, out)


def posterior_feasible(params: ModelParams, l: ArrayLike) -> ArrayLike:
    """Probability a feasible project remains after [0, l) failed: (1-l)p / (1-lp)."""
    scalar, (l,) = _operands(l)
    if _any(l < 0.0) or _any(l >= 1.0):
        raise ValueError("frontier outside [0, 1)")
    return _ret(scalar, (1.0 - l) * params.p / (1.0 - l * params.p))


def feasible_to_search(params: ModelParams) -> bool:
    """True when the first marginal project is worth searching: p v > c(0)."""
    return params.p * params.v > params.cost.c0


def _bisect_increasing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] given f(lo) <= 0 <= f(hi), to adjacent doubles.

    Bisects until hi is the next double above lo, keeping f(lo) <= 0 <= f(hi),
    and returns lo.
    """
    if f(lo) > 0.0 or f(hi) < 0.0:
        raise ValueError("bisection bracket does not straddle a root")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


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
    every double j the sign is g's own, not its rounding noise's.
    """
    cost = params.cost
    with decimal.localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        jd, p, c0, k = (decimal.Decimal(z) for z in (j, params.p, cost.c0, cost.k))
        x = decimal.Decimal(params.p * params.v) - c0
        # 1 - j exactly: rounded, it would cost log(1 - j) its digits when j is tiny
        w = decimal.Context(prec=decimal.MAX_PREC).subtract(1, jd)
        phi = jd / w if cost.family is CostFamily.RECIPROCAL else -w.ln()
        return k * phi * (1 - jd * p) - x - jd * p * c0 > 0


def _settle(positive: Callable[[float], bool], root: float) -> float:
    """A double lo near root with positive(lo) false and positive(next double) true.

    Bisects from the smallest bracket about root whose ends positive
    confirms, widened in doubling steps within [0, 1 - BISECT_EDGE]. When
    positive changes sign once near root, that change is the result,
    wherever near it root was.
    """
    edge = 1.0 - BISECT_EDGE
    lo, hi = root, math.nextafter(root, 1.0)
    step = math.ulp(root)
    while positive(lo) and lo > 0.0:
        lo, step = max(root - step, 0.0), 2.0 * step
    step = math.ulp(root)
    while not positive(hi) and hi < edge:
        hi, step = min(root + step, edge), 2.0 * step
    return _bisect_increasing(lambda j: 1.0 if positive(j) else 0.0, lo, hi)


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
        ends[1:1] = [_bisect_increasing(f, a, b) for f, a, b in pieces if f(a) < 0.0 < f(b)]
    positive = [g(j) > 0.0 for j in ends]
    roots = tuple(
        _settle(lambda j: _excess_is_positive(params, j), _bisect_increasing(g, a, b))
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
