import math
from decimal import MAX_PREC, Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from innosearch import (
    CostModel,
    ModelParams,
    cost_density,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    optimal_path,
    posterior_feasible,
    search_upper_bound,
)
from innosearch import model
from innosearch.model import BISECT_EDGE, OutOfRangeError, _increasing_root, _limit_candidates, _marginal_excess
from innosearch.solver import _rhs_terms

REC = CostModel.reciprocal(0.0, 1.0)
LOG = CostModel.logarithmic(0.0, 1.0)

# integral of j/(1-j) over [0, 1/2] is ln 2 - 1/2
C_REC_HALF = 0.1931471805599453
# integral of -ln(1-j) over [0, 1/2] is 1/2 + (1/2) ln(1/2)
C_LOG_HALF = 0.15342640972002736
# integral of j/(1-j) over [1/4, 1/2] is ln(3/2) - 1/4
C_REC_QUARTER_HALF = 0.15546510810816438


def params_with(cost, p=0.5, v=2.0, delta=0.9):
    return ModelParams(p, v, delta, cost)


# ---------------------------------------------------------------- densities


def test_density_reciprocal_shape():
    assert cost_density(REC, 0.0) == 0.0
    assert cost_density(REC, 0.5) == pytest.approx(1.0, abs=1e-15)
    c = CostModel.reciprocal(0.2, 2.0)
    assert cost_density(c, 0.0) == pytest.approx(0.2)
    assert cost_density(c, 0.5) == pytest.approx(0.2 + 2.0)


def test_density_logarithmic_shape():
    c = CostModel.logarithmic(0.1, 1.0)
    assert cost_density(c, 0.0) == pytest.approx(0.1)
    assert cost_density(c, 0.5) == pytest.approx(0.1 + math.log(2.0))


def test_density_is_vectorized_and_increasing():
    j = np.linspace(0.0, 0.99, 200)
    for cost in (REC, LOG, CostModel.reciprocal(0.3, 0.7), CostModel.logarithmic(0.3, 0.7)):
        vals = cost_density(cost, j)
        assert vals.shape == j.shape
        assert np.all(np.diff(vals) > 0.0)


def test_density_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cost_density(REC, -0.1)
    with pytest.raises(ValueError):
        cost_density(REC, 1.0)
    with pytest.raises(ValueError):
        CostModel.reciprocal(-0.1, 1.0)
    with pytest.raises(ValueError):
        CostModel.reciprocal(0.0, 0.0)
    with pytest.raises(ValueError):
        CostModel("cubic", 0.0, 1.0)


# ---------------------------------------------------------------- integrals


def test_integral_frozen_values():
    assert cost_integral(REC, 0.0, 0.5) == pytest.approx(C_REC_HALF, abs=1e-14)
    assert cost_integral(LOG, 0.0, 0.5) == pytest.approx(C_LOG_HALF, abs=1e-14)
    assert cost_integral(REC, 0.25, 0.5) == pytest.approx(C_REC_QUARTER_HALF, abs=1e-14)


def test_integral_zero_width_is_exactly_zero():
    for cost in (REC, LOG):
        assert cost_integral(cost, 0.3, 0.3) == 0.0
        out = cost_integral(cost, np.array([0.0, 0.5]), np.array([0.0, 0.5]))
        assert np.all(out == 0.0)


def exact_integral(cost, a, b):
    """C(a, b) between the doubles a and b, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c0, k = (Decimal(z) for z in (a, b, cost.c0, cost.k))
        d, wa, wb = b - a, 1 - a, 1 - b
        if cost.family.value == "reciprocal":
            return c0 * d + k * ((wa / wb).ln() - d)
        return c0 * d + k * (wb * wb.ln() - wa * wa.ln() + d)


@pytest.mark.parametrize(
    "cost", [REC, LOG, CostModel.logarithmic(0.1, 1.0)], ids=["reciprocal", "logarithmic", "logarithmic-c0"]
)
def test_integral_keeps_relative_precision(cost):
    # the canonical path's intervals shrink geometrically toward its limit, down to a few ulps
    path = optimal_path(params_with(cost), 200).path
    ends = [0.5, 0.9, 1.0 - 1e-9]
    a = list(path[:-1]) + ends
    b = list(path[1:]) + [math.nextafter(x, 1.0) for x in ends]
    vectorized = cost_integral(cost, np.array(a), np.array(b))
    for x, y, got in zip(a, b, vectorized):
        exact = exact_integral(cost, x, y)
        for value in (cost_integral(cost, x, y), float(got)):
            assert abs(Decimal(value) - exact) <= Decimal(1e-14) * exact, (x, y)


@pytest.mark.parametrize("c0", [0.0, 1e-3])
@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_integral_near_zero_keeps_relative_precision(family, c0):
    # near j = 0 the density is far below k, so terms of size k (b - a) would cancel down to the cost
    cost = CostModel(family, c0, 1.0)
    ends = [(x, y) for b in (10.0**-n for n in range(2, 13)) for x, y in ((0.0, b), (b, 2.0 * b))]
    a, b = map(np.array, zip(*ends))
    for x, y, got in zip(a, b, cost_integral(cost, a, b)):
        exact = exact_integral(cost, x, y)
        for value in (cost_integral(cost, float(x), float(y)), float(got)):
            assert abs(Decimal(value) - exact) <= 4 * Decimal(math.ulp(value)), (x, y)


def gauss_legendre_integral(cost, a, b, n=200):
    """Numeric reference for the closed-form integrals.

    The densities are analytic on [a, b] when b stays away from the pole at
    1, so a fixed high-order rule is exact to machine precision there.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return float(half * np.sum(w * cost_density(cost, mid + half * x)))


def test_integral_matches_quadrature():
    rng = np.random.default_rng(7)
    for cost in (REC, LOG, CostModel.reciprocal(0.2, 1.5), CostModel.logarithmic(0.05, 0.8)):
        for _ in range(25):
            a = float(rng.uniform(0.0, 0.85))
            b = float(rng.uniform(a, 0.9))
            expected = gauss_legendre_integral(cost, a, b)
            assert cost_integral(cost, a, b) == pytest.approx(expected, abs=1e-9)
    # the two reference routes agree with each other as well
    for cost in (REC, LOG):
        adaptive, _ = quad(lambda j: cost_density(cost, j), 0.1, 0.8)
        assert gauss_legendre_integral(cost, 0.1, 0.8) == pytest.approx(adaptive, abs=1e-8)


def test_integral_rejects_bad_intervals():
    with pytest.raises(ValueError):
        cost_integral(REC, -0.1, 0.5)
    with pytest.raises(ValueError):
        cost_integral(REC, 0.6, 0.5)
    # the reciprocal density is not integrable up to 1, and the logarithmic
    # endpoint value is defined only as a limit; both are kept out of range
    with pytest.raises(ValueError):
        cost_integral(REC, 0.0, 1.0)
    with pytest.raises(ValueError):
        cost_integral(LOG, 0.0, 1.0)


@settings(max_examples=200)
@given(
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
    st.booleans(),
)
def test_integral_is_additive(x, y, z, reciprocal):
    a, b, c = sorted((x, y, z))
    cost = REC if reciprocal else LOG
    whole = cost_integral(cost, a, c)
    split = cost_integral(cost, a, b) + cost_integral(cost, b, c)
    assert split == pytest.approx(whole, abs=1e-12)


# ------------------------------------------------------------------ beliefs


def test_posterior_frozen_values():
    params = params_with(REC)
    assert posterior_feasible(params, 0.0) == pytest.approx(0.5)
    assert posterior_feasible(params, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    nearly_all = posterior_feasible(params_with(REC, p=0.9), 1.0 - 1e-9)
    assert 0.0 < nearly_all < 1e-7


def test_posterior_strictly_decreasing_many_instances():
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 0.999, 64)
    for _ in range(100):
        params = params_with(REC, p=float(rng.uniform(0.01, 0.99)))
        post = posterior_feasible(params, grid)
        assert np.all(np.diff(post) < 0.0)
        # while the posterior falls, the per-unit success density rises
        density = params.p / (1.0 - grid * params.p)
        assert np.all(np.diff(density) > 0.0)


def success_and_survival(params, l, l_next):
    # with zero cost the solver's period payoff R is s v, and its weight D is delta (1 - s)
    r, d = _rhs_terms(params, l, l_next, 1.0 - l * params.p, 0.0)
    return r / params.v, d / params.delta


def test_success_probability_frozen_value():
    params = params_with(REC)
    assert success_and_survival(params, 0.5, 0.75)[0] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert success_and_survival(params, 0.3, 0.3)[0] == 0.0


@settings(max_examples=200)
@given(
    st.floats(0.01, 0.99),
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
)
def test_success_complement_identity(p, x, y):
    l, l_next = min(x, y), max(x, y)
    params = params_with(REC, p=p)
    s, survival = success_and_survival(params, l, l_next)
    assert 0.0 <= s < 1.0
    assert s + survival == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- boundaries


def test_feasibility_rule():
    assert feasible_to_search(params_with(REC))
    assert not feasible_to_search(params_with(CostModel.reciprocal(0.2, 1.0), p=0.1, v=1.0))
    # exact indifference counts as not worth starting
    assert not feasible_to_search(params_with(CostModel.reciprocal(0.2, 1.0), p=0.5, v=0.4))


def test_bisection_takes_geometric_steps_across_orders_of_magnitude():
    # a 0 -> 1 step at 1e-300 in [least normal double, 1]: plain halving takes 1,051 evaluations
    calls = []

    def step(x):
        calls.append(x)
        return 1.0 if x >= 1e-300 else 0.0

    assert _increasing_root(step, 2.2250738585072014e-308, 1.0) == math.nextafter(1e-300, 0.0)
    assert len(calls) <= 80


def test_a_smooth_root_takes_secant_steps():
    # g on [q*, 0.9] for the canonical instance, root 2 - sqrt(2): bisection takes 53 evaluations
    params = params_with(REC)
    g, calls = _marginal_excess(params), []

    def counted(j):
        calls.append(j)
        return g(j)

    root = _increasing_root(counted, myopic_boundary(params), 0.9)
    assert root == 0.5857864376269049 and g(root) < 0.0 < g(math.nextafter(root, 1.0))
    assert len(calls) <= 13


@pytest.mark.parametrize("params", [
    params_with(REC),
    params_with(LOG),
    # two crossings each: the second near the edge, or near a tangency
    params_with(LOG, p=0.99, v=0.20202020202020202),
    params_with(LOG, p=0.9, v=0.50135),
    params_with(CostModel.reciprocal(1.0, 1.0), v=2.000000000000001),
    params_with(CostModel.logarithmic(0.1, 1.0)),
])
def test_limit_candidates_decide_each_double_once(params, monkeypatch):
    # each exact sign costs EXACT_DIGITS-digit decimals, a Decimal.exp for the logarithmic family
    real, decided = model._excess_is_positive, []

    def counted(params, j):
        decided.append(j)
        return real(params, j)

    monkeypatch.setattr(model, "_excess_is_positive", counted)
    assert _limit_candidates(params)
    assert decided and len(decided) == len(set(decided))


def _positive_by_ln(params, j):
    """g(j) > 0 with -log(1 - j) taken by Decimal.ln in 60 decimals."""
    cost = params.cost
    with localcontext() as ctx:
        ctx.prec = 60
        jd, p, c0, k = (Decimal(z) for z in (j, params.p, cost.c0, cost.k))
        w = Context(prec=MAX_PREC).subtract(1, jd)  # exact, so a tiny j keeps its digits
        return k * -w.ln() * (1 - jd * p) - (Decimal(params.p * params.v) - c0) - jd * p * c0 > 0


@pytest.mark.parametrize("params", [
    params_with(LOG),
    params_with(CostModel.logarithmic(0.1, 1.0)),
    params_with(CostModel.logarithmic(0.3, 0.7), v=3.0),
    # two crossings: near the edge, near a tangency, and CI's tangent with steps
    params_with(LOG, p=0.99, v=0.20202020202020202),
    params_with(LOG, p=0.9, v=0.50135),
    ModelParams(0.9003689050580037, 0.673362526347144, 0.5, CostModel.logarithmic(0.043980761669727204, 1.3147586388231716)),
    # barely worthwhile, and p v far below k: crossings near 0, where exp(-y) is near 1
    params_with(CostModel.logarithmic(1.0, 1.0), v=2.000000000000001),
    params_with(CostModel.logarithmic(0.0, 3.0), p=0.02, v=1e-100),
    params_with(LOG, v=1e-300),
])
def test_exact_sign_by_exp_agrees_with_a_60_digit_ln(params):
    edge = 1.0 - BISECT_EDGE
    crossings = [r for r in _limit_candidates(params) if r < edge]
    assert crossings
    for r in crossings:
        for j in (r, math.nextafter(r, 1.0)):
            assert model._excess_is_positive(params, j) == _positive_by_ln(params, j)
        assert not model._excess_is_positive(params, r) and model._excess_is_positive(params, math.nextafter(r, 1.0))


def test_the_root_finder_ends_on_nan_and_on_a_plateau(time_limit):
    time_limit(5)
    # NaN inside the bracket is not <= 0, so it counts as above the root: hi closes on lo
    assert _increasing_root(lambda x: -1.0 if x == 0.0 else 1.0 if x == 1.0 else math.nan, 0.0, 1.0) == 0.0

    def plateau(x):
        # exactly 0 on [0.25, 0.3], a root wherever the secant lands in it
        return min(x - 0.25, 0.0) + 100.0 * max(x - 0.3, 0.0)

    assert plateau(_increasing_root(plateau, 0.0, 1.0)) == 0.0


def test_myopic_boundary_closed_forms():
    # reciprocal: c(q) = q/(1-q) = p v  =>  q = p v / (1 + p v)
    assert myopic_boundary(params_with(REC)) == pytest.approx(0.5, abs=1e-10)
    q = myopic_boundary(params_with(CostModel.reciprocal(0.1, 0.8), p=0.4, v=1.5))
    pv = 0.4 * 1.5
    assert q == pytest.approx((pv - 0.1) / (pv - 0.1 + 0.8), abs=1e-10)
    # logarithmic: c(q) = -ln(1-q) = p v  =>  q = 1 - exp(-p v)
    assert myopic_boundary(params_with(LOG)) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


def test_myopic_boundary_residual_and_none():
    rng = np.random.default_rng(3)
    for i in range(40):
        c0 = float(rng.uniform(0.0, 0.3))
        k = float(rng.uniform(0.5, 2.0))
        cost = CostModel.reciprocal(c0, k) if i % 2 else CostModel.logarithmic(c0, k)
        p = float(rng.uniform(0.2, 0.8))
        v = (c0 + float(rng.uniform(0.3, 2.0))) / p
        params = params_with(cost, p=p, v=v)
        q = myopic_boundary(params)
        assert 0.0 < q < 1.0
        assert abs(cost_density(cost, q) - p * v) < 1e-10
    assert myopic_boundary(params_with(CostModel.reciprocal(0.2, 1.0), p=0.1, v=1.0)) is None


def test_myopic_boundary_beyond_solver_edge_is_named():
    # c(1 - BISECT_EDGE) = 27.63...: just below it the root is still bracketed
    # (1 - q* = exp(-p v) ~ 1.03e-12), above it the error names p v and the
    # edge cost instead of a failed bisection
    edge_cost = cost_density(LOG, 1.0 - BISECT_EDGE)
    inside = params_with(LOG, p=0.95, v=0.999 * edge_cost / 0.95)
    assert 1.0 - 1e-11 < myopic_boundary(inside) <= 1.0 - BISECT_EDGE
    beyond = params_with(LOG, p=0.95, v=50.0)
    with pytest.raises(OutOfRangeError, match="closer to 1") as err:
        myopic_boundary(beyond)
    assert "p v = 47.5" in str(err.value) and f"{edge_cost:g}" in str(err.value)
    # still a ValueError for callers that catch those
    assert isinstance(err.value, ValueError)
    with pytest.raises(OutOfRangeError, match="closer to 1"):
        search_upper_bound(beyond)


@pytest.mark.parametrize("cost", [CostModel.reciprocal(0.0, 2e296), CostModel.logarithmic(0.0, 1e307)])
def test_overflowing_edge_cost_is_out_of_range(cost):
    # g would read inf - inf = NaN near the edge: such scales are refused, not bisected
    params = params_with(cost, v=cost.k)
    with pytest.raises(OutOfRangeError, match="overflows"):
        myopic_boundary(params)
    with pytest.raises(OutOfRangeError, match="overflows"):
        search_upper_bound(params)


def test_search_cap_canonical_value():
    # c(j) (1 - j p) = p v with p = 1/2, v = 2 reduces to j^2 - 4 j + 2 = 0
    assert search_upper_bound(params_with(REC)) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)


def test_search_cap_frozen_root():
    # root of (j / (1 - j)) (1 - 0.3 j) = 0.3, bisected offline to 1e-15
    params = params_with(REC, p=0.3, v=1.0)
    assert search_upper_bound(params) == pytest.approx(0.24457290088820088, abs=1e-12)


def test_search_cap_is_the_last_crossing():
    # g(j) = c(j)(1 - jp) - pv turns positive just above q* = 1 - exp(-0.2), negative
    # again for -log(1 - j) in (2.9, 20) and positive once more near the edge
    params = params_with(LOG, p=0.99, v=0.2 / 0.99)
    g = lambda j: cost_density(LOG, j) * (1.0 - j * params.p) - params.p * params.v
    cap = search_upper_bound(params)
    assert g(cap) <= 0.0 <= g(np.nextafter(cap, 1.0))
    assert 1.0 - cap == pytest.approx(2.06e-9, rel=1e-2)
    # above the cap every marginal project loses money: g > 0 on the whole ladder
    q = myopic_boundary(params)
    ladder = 1.0 - (1.0 - q) * np.logspace(0.0, np.log10(BISECT_EDGE / (1.0 - q)), 200)
    assert np.all(g(ladder[ladder > cap]) > 0.0)


def test_search_cap_with_one_crossing_is_the_exact_root():
    # 2 - sqrt(2) and the root of (0.1 - log(1 - j))(1 - j/2) = 1, both from mpmath
    # at 60 digits, are 0.58578643762690495 and 0.78770052265534510
    rec = search_upper_bound(params_with(REC))
    assert abs(rec - 0.585786437626905) <= math.ulp(rec)
    log = search_upper_bound(params_with(CostModel.logarithmic(0.1, 1.0)))
    assert abs(log - 0.7877005226553451) <= math.ulp(log)


@pytest.mark.parametrize("cost", [CostModel.reciprocal(1.0, 1.0), CostModel.logarithmic(1.0, 1.0)])
def test_search_cap_when_search_barely_pays(cost):
    # p v exceeds c0 by 4.4e-16, so q* is 4.4e-16 and j* lies just above it
    params = params_with(cost, v=2.000000000000001)
    g = lambda j: cost_density(cost, j) * (1.0 - j * params.p) - params.p * params.v
    q, cap = myopic_boundary(params), search_upper_bound(params)
    assert 0.0 < q < cap < 1e-14
    assert g(cap) <= 0.0 <= g(np.nextafter(cap, 1.0))
    # the largest doubles at or below the roots: 2^-50 / (1 + 2^-50) lies 2^-150 above the
    # double 2^-50 - 2^-100, and the logarithmic root 2^-50 - j^3/6 + ... lies 1e-46 below 2^-50
    assert cap == {"reciprocal": 8.881784197001244e-16, "logarithmic": 8.881784197001251e-16}[cost.family.value]
    assert exact_excess(params, cap) <= 0 < exact_excess(params, math.nextafter(cap, 1.0))


def test_search_cap_exceeds_myopic_boundary():
    rng = np.random.default_rng(5)
    for i in range(40):
        c0 = float(rng.uniform(0.0, 0.3))
        k = float(rng.uniform(0.5, 2.0))
        cost = CostModel.reciprocal(c0, k) if i % 2 else CostModel.logarithmic(c0, k)
        p = float(rng.uniform(0.2, 0.8))
        v = (c0 + float(rng.uniform(0.3, 1.5))) / p
        params = params_with(cost, p=p, v=v)
        q = myopic_boundary(params)
        j = search_upper_bound(params)
        assert j > q
        # defining equation holds at the reported cap
        g = cost_density(cost, j) * (1.0 - j * p) - p * v
        assert abs(g) < 1e-9 * max(1.0, p * v)
        # and the cap is final: the equation stays nonnegative beyond it
        probe = j + (1.0 - 1e-9 - j) * np.array([0.02, 0.1, 0.3, 0.6, 0.9])
        gp = cost_density(cost, probe) * (1.0 - probe * p) - p * v
        assert np.all(gp > -1e-9 * max(1.0, p * v))
    assert search_upper_bound(params_with(CostModel.reciprocal(0.2, 1.0), p=0.1, v=1.0)) is None


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 2.0, 0.9, REC)
    with pytest.raises(ValueError):
        ModelParams(0.5, -1.0, 0.9, REC)
    with pytest.raises(ValueError):
        ModelParams(0.5, 2.0, 1.0, REC)
    with pytest.raises(ValueError):
        ModelParams(0.5, 2.0, 0.0, REC)


def exact_excess(params, j):
    """g(j) = c(j)(1 - jp) - p v for the doubles j, p, c0, k and p v: a Fraction for the
    reciprocal family, exact, and a 60-digit Decimal for the logarithmic one."""
    cost = params.cost
    pv = params.p * params.v
    if cost.family.value == "reciprocal":
        j, p, c0, k = (Fraction(z) for z in (j, params.p, cost.c0, cost.k))
        return (c0 + k * j / (1 - j)) * (1 - j * p) - Fraction(pv)
    with localcontext() as ctx:
        ctx.prec = 60
        j, p, c0, k = (Decimal(z) for z in (j, params.p, cost.c0, cost.k))
        return (c0 - k * (1 - j).ln()) * (1 - j * p) - Decimal(pv)


def exact_one_shot_boundary(params):
    """q* for the float p v as a Fraction: exact, or to 100 digits for the logarithmic exp."""
    cost = params.cost
    x = (Fraction(params.p * params.v) - Fraction(cost.c0)) / Fraction(cost.k)
    if cost.family.value == "reciprocal":
        return x / (1 + x)
    with localcontext() as ctx:
        ctx.prec = 100
        return Fraction(1 - (-Decimal(x.numerator) / Decimal(x.denominator)).exp())


@settings(max_examples=200)
@given(
    st.sampled_from(["reciprocal", "logarithmic"]),
    st.floats(0.01, 0.99),
    st.floats(0.01, 100.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 100.0),
)
def test_roots_are_exact(family, p, v, share, k):
    # c0 = share * p v reaches up to p v itself, where q* and j* sink toward 0
    cost = CostModel(family, share * p * v, k)
    params = params_with(cost, p=p, v=v)
    assume(feasible_to_search(params) and p * v <= cost_density(cost, 1.0 - BISECT_EDGE))
    q = myopic_boundary(params)
    ref = exact_one_shot_boundary(params)
    assert abs(Fraction(q) - ref) <= 4 * Fraction(math.ulp(float(ref)))
    # the cap is the largest double at which g <= 0 before g turns positive, or the edge
    cap = search_upper_bound(params)
    assert q < cap
    assert exact_excess(params, cap) <= 0
    assert cap == 1.0 - BISECT_EDGE or exact_excess(params, math.nextafter(cap, 1.0)) > 0


def exact_turning_points(params):
    """The points in (0, 1 - BISECT_EDGE) where g stops rising or falling, to about 1e-30.

    For the reciprocal family, the vertex of the quadratic (1 - j) g, whose sign is g's.
    For the logarithmic family, the sign changes of g'(j), which is
    k(1 - p)/(1 - j) + p k log(1 - j) - p(c0 - k), bisected in 60-digit decimals on
    either side of its minimum at (2p - 1)/p.
    """
    cost = params.cost
    if cost.family.value == "reciprocal":
        p, c0, k, pv = (Fraction(z) for z in (params.p, cost.c0, cost.k, params.p * params.v))
        # (1 - j) g = (c0 - pv) + (k - c0 - c0 p + pv) j - p (k - c0) j^2, linear when k = c0
        if k == c0:
            return []
        vertex = (k - c0 - c0 * p + pv) / (2 * p * (k - c0))
        return [vertex] if 0 < vertex < Fraction(1.0 - BISECT_EDGE) else []
    with localcontext() as ctx:
        ctx.prec = 60
        p, c0, k = (Decimal(z) for z in (params.p, cost.c0, cost.k))
        slope = lambda j: k * (1 - p) / (1 - j) + p * k * (1 - j).ln() - p * (c0 - k)
        edge = Decimal(1.0 - BISECT_EDGE)
        least = min(max((2 * p - 1) / p, Decimal(0)), edge)
        points = []
        for lo, hi in ((Decimal(0), least), (least, edge)):
            if (slope(lo) > 0) == (slope(hi) > 0):
                continue
            for _ in range(100):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if (slope(mid) > 0) == (slope(lo) > 0) else (lo, mid)
            points.append(lo)
        return points


@st.composite
def crossing_instances(draw):
    """Plain draws of either family, or logarithmic ones near tangency: p v = (1 - eps)
    c(t1)(1 - t1 p), t1 the local maximum of c(j)(1 - jp), so that g crosses zero twice
    within about sqrt(eps) of t1."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(["reciprocal", "logarithmic"]))
        p, v, share, k = (draw(st.floats(*box)) for box in ((0.01, 0.99), (0.01, 100.0), (0.0, 1.0), (0.01, 100.0)))
        return params_with(CostModel(family, share * p * v, k), p=p, v=v)
    p, c0, k = draw(st.floats(0.9, 0.99)), draw(st.floats(0.0, 0.3)), draw(st.floats(0.5, 2.0))
    eps = 10.0 ** -draw(st.floats(4.0, 10.0))
    # g' = k(1 - p)/(1 - j) + p k log(1 - j) - p(c0 - k) falls from k - p c0 > 0 at 0 to below 0 at (2p - 1)/p
    lo, hi = 0.0, 2.0 - 1.0 / p
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if k * (1.0 - p) / (1.0 - mid) + p * k * math.log1p(-mid) - p * (c0 - k) > 0.0 else (lo, mid)
    cost = CostModel.logarithmic(c0, k)
    return params_with(cost, p=p, v=(1.0 - eps) * cost_density(cost, lo) * (1.0 - lo * p) / p)


@settings(max_examples=150)
@given(crossing_instances())
def test_limit_candidates_are_every_crossing(params):
    # g < 0 on [0, q*], and g changes sign at most once between neighbours among 0, the
    # turning points and the edge, so its upward sign changes there are all its upward crossings
    assume(feasible_to_search(params) and params.p * params.v <= cost_density(params.cost, 1.0 - BISECT_EDGE))
    edge = 1.0 - BISECT_EDGE
    positive = [exact_excess(params, j) > 0 for j in [0.0, *exact_turning_points(params), edge]]
    crossings = sum(after and not before for before, after in zip(positive, positive[1:]))
    candidates = _limit_candidates(params)
    assert len(candidates) == crossings + (not positive[-1])
    assert list(candidates) == sorted(set(candidates))
    for c in candidates:
        assert c == edge or exact_excess(params, c) <= 0 < exact_excess(params, math.nextafter(c, 1.0))
