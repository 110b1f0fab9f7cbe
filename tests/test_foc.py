import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from innosearch import (
    ConvergenceError,
    CostModel,
    ModelParams,
    SolverConfig,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    optimal_path,
    search_upper_bound,
    truncated_path,
    value_iteration,
)
from innosearch import foc
from innosearch.solver import backward_induction, frontier_sequence
from innosearch.model import BISECT_EDGE, OutOfRangeError, _density_slope, _limit_candidates, cost_density

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


def pool_entries():
    with open(POOL, encoding="utf-8") as fh:
        pool = json.load(fh)
    return [i for i in pool["instances"] if i["kept"]] + pool["canonical"]


def instance(entry):
    return ModelParams(entry["p"], entry["v"], entry["delta"], CostModel(entry["family"], entry["c0"], entry["k"]))


def plan_payoff(params, boundaries):
    """Discounted payoff of searching [l_{t-1}, l_t) in period t and stopping after the last."""
    b = np.asarray(boundaries, dtype=float)
    terms = params.p * np.diff(b) * params.v - (1.0 - params.p * b[:-1]) * cost_integral(params.cost, b[:-1], b[1:])
    return math.fsum(terms * params.delta ** np.arange(len(terms)))


def test_agrees_with_the_pinned_references():
    # W(0) and l_1 from forward shooting with its own closed forms, on every kept and canonical instance
    entries = pool_entries()
    assert len(entries) == 122
    for entry in entries:
        shot = optimal_path(instance(entry), 1)
        assert abs(shot.value - entry["w0_ref"]) <= 1e-14, entry["id"]
        assert abs(shot.path[1] - entry["l1_ref"]) <= 1e-10, entry["id"]


# float.hex of W(0), l_1 and the shot start of optimal_path(., 200)
EXACT_LANDINGS = {
    "rec2-d0b": ("0x1.8bbfd8b7b515ap-5", "0x1.a428c7cc26eb1p-3", "0x1.2183860e48a51p-16"),
    "rec2-d1b": ("0x1.8ee0f05df20f8p-5", "0x1.8422d68f52c9dp-3", "0x1.ec2f3677e20b1p-16"),
    "rec5-d1a": ("0x1.ad13b4305e279p-3", "0x1.75c167aecc5f2p-2", "0x1.1374e70b77b20p-15"),
    "log3-d0b": ("0x1.ac179b58d284ep+0", "0x1.7008bf2757df6p-1", "0x1.611b49eb53305p-33"),
    "log6-d3a": ("0x1.d2a7eff1780cep-1", "0x1.0133f06a4ad32p-1", "0x1.5d3ac00802ff6p-24"),
    "log6-d3b": ("0x1.d3356a797d939p-1", "0x1.ff519ba687546p-2", "0x1.a3a3cf3f82d17p-24"),
    "canonical-log": ("0x1.68d14eef6b75ep-2", "0x1.84cab137ccf9bp-2", "0x1.fca7941084934p-17"),
    "edge-log": ("0x1.241af7d77fcc3p+3", "0x1.a284ec729b68ep-1", "0x1.c986bae2656dap-9"),
}


@pytest.mark.parametrize("name", sorted(EXACT_LANDINGS))
def test_shooting_stops_where_an_orbit_lands_exactly_on_zero(name):
    # on these instances a secant shot lands on l_0 = 0 exactly, and that orbit is the path:
    # bisecting on to adjacent doubles would move its start, and on some instances W(0)
    with open(POOL, encoding="utf-8") as fh:
        entries = {i["id"]: i for i in json.load(fh)["instances"]}
    params = TABLE_INSTANCES[name] if name in TABLE_INSTANCES else instance(entries[name])
    shot = optimal_path(params, 200)
    assert (shot.value.hex(), shot.path[1].hex(), shot.orbit[-2].hex()) == EXACT_LANDINGS[name]


def test_canonical_value_and_limit():
    shot = optimal_path(ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0)), 200)
    assert shot.value == pytest.approx(0.32937698524932696, abs=1e-15)
    # the limit is the crossing 2 - sqrt(2), the largest double at or below it
    assert shot.limit == 0.5857864376269049
    assert shot.path[0] == 0.0 and len(shot.path) == 201


def test_multi_root_instance_converges_to_the_first_crossing():
    # g crosses p v upwards at 0.2275 and again at 1 - 2.06e-9; the grid's cap j* is the last
    # crossing, the path's limit the first
    params = ModelParams(0.99, 0.2 / 0.99, 0.9, CostModel.logarithmic(0.0, 1.0))
    shot = optimal_path(params, 200)
    assert shot.value == pytest.approx(0.020188552785, abs=1e-11)
    assert shot.limit == pytest.approx(0.2275168, abs=1e-7)
    assert search_upper_bound(params) > 1.0 - 1e-8
    assert np.all(np.asarray(shot.path) <= shot.limit)


@pytest.mark.parametrize("family, v", [("reciprocal", 1e11), ("logarithmic", 10.0)])
def test_path_reaching_the_edge(family, v):
    # no crossing below the solver's edge: the path reaches it in finitely many periods and stays
    params = ModelParams(0.99, v, 0.9, CostModel(family, 0.0, 1.0))
    edge = 1.0 - BISECT_EDGE
    shot = optimal_path(params, 20)
    b = np.asarray(shot.path)
    assert shot.limit == edge == search_upper_bound(params)
    assert shot.tail_rate == 0.0
    reached = int(np.argmax(b == edge))
    assert 0 < reached < 19
    assert np.all(b[reached:] == edge) and np.all(np.diff(b[: reached + 1]) > 0.0)
    assert math.isfinite(shot.value) and shot.value > 0.0


@pytest.mark.parametrize("cost", [CostModel.reciprocal(0.0, 1.0), CostModel.logarithmic(0.1, 1.0)])
def test_tail_rate_matches_late_increment_ratios(cost):
    shot = optimal_path(ModelParams(0.5, 2.0, 0.9, cost), 200)
    lam, r = shot.tail_rate, shot.limit
    assert 0.0 < lam < 1.0
    b = np.asarray(shot.path)
    inc = np.diff(b)
    # periods of the shot orbit itself, before the linearized tail takes over
    gap = r - b[1:-1]
    late = np.flatnonzero((gap > foc.START_GAP * min(r, 1.0 - r)) & (gap < 1e-3))
    ratios = inc[late + 1] / inc[late]
    assert len(ratios) >= 3
    assert np.all(np.abs(ratios / lam - 1.0) < 1e-3)


TABLE_INSTANCES = {
    "canonical": ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0)),
    "canonical-log": ModelParams(0.5, 2.0, 0.9, CostModel.logarithmic(0.1, 1.0)),
    "edge-rec": ModelParams(0.99, 1e11, 0.9, CostModel.reciprocal(0.0, 1.0)),
    "edge-log": ModelParams(0.99, 10.0, 0.9, CostModel.logarithmic(0.0, 1.0)),
    "multi-root": ModelParams(0.99, 0.2 / 0.99, 0.9, CostModel.logarithmic(0.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_value_table_rows(name):
    params = TABLE_INSTANCES[name]
    shot = optimal_path(params, 20)
    assert shot.cap == search_upper_bound(params)
    l, w, policy = map(np.asarray, foc.value_table(params, shot))
    r = shot.limit
    # the path's own first row, then rows sorted by l over [0, r], ending at (r, 0, r)
    assert (l[0], w[0], policy[0]) == (0.0, shot.value, shot.path[1])
    assert (l[-1], w[-1], policy[-1]) == (r, 0.0, r)
    assert np.all(np.diff(l) >= 0.0) and np.all(policy <= r)
    inside = l < r
    assert np.all(policy[inside] > l[inside])
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    again = map(np.asarray, foc.value_table(params, optimal_path(params, 20)))
    assert all(a.tobytes() == b.tobytes() for a, b in zip((l, w, policy), again))


@pytest.mark.parametrize("name", ["canonical", "canonical-log"])
def test_value_table_agrees_with_the_grid(name):
    # |W_grid - W_table| at the table's states falls at second order in the cell
    # (measured 2.61e-7 -> 1.79e-8 and 3.29e-7 -> 2.24e-8 from grid 2048 to 8192)
    params = TABLE_INSTANCES[name]
    l, w, _ = foc.value_table(params, optimal_path(params, 1))
    gaps = [np.max(np.abs(value_iteration(params, SolverConfig(grid_size=n)).value_at(l) - w)) for n in (2048, 8192)]
    assert gaps[0] < 1e-6
    assert gaps[1] * 8.0 <= gaps[0]


def test_rejections():
    params = ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0))
    with pytest.raises(ValueError, match="horizon"):
        optimal_path(params, 0)
    with pytest.raises(ValueError, match="not worthwhile"):
        optimal_path(ModelParams(0.4, 0.1, 0.9, CostModel.reciprocal(0.2, 1.0)), 10)
    with pytest.raises(OutOfRangeError):
        optimal_path(ModelParams(0.95, 50.0, 0.9, CostModel.logarithmic(0.0, 1.0)), 10)


def test_running_out_of_steps_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(foc, "MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match="within 2 periods") as err:
        optimal_path(ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0)), 10)
    assert err.value.history == []


def test_a_candidate_that_runs_out_of_steps_is_passed_over(time_limit):
    # near-tangent: the orbit from the last crossing crawls near the tangency for more than
    # MAX_STEPS periods, so the path converges to the first crossing, which solves
    params = ModelParams(
        0.9003689050580037, 0.673362526347144, 0.5, CostModel.logarithmic(0.043980761669727204, 1.3147586388231716)
    )
    time_limit(30)
    first, last = _limit_candidates(params)
    with pytest.raises(ConvergenceError, match=f"within {foc.MAX_STEPS} periods"):
        foc._shoot(params, last, False)
    shot = optimal_path(params, 20)
    assert shot.limit == first < 0.77 < last == shot.cap
    assert shot.value == pytest.approx(0.11314448430909395, rel=1e-12)


def test_a_nan_orbit_is_a_convergence_error(monkeypatch, time_limit):
    # an orbit of NaNs never brackets l_0 = 0: the bracket search gives up instead of looping
    monkeypatch.setattr(foc, "_tail_rate", lambda params, a: math.nan)
    time_limit(10)
    with pytest.raises(ConvergenceError, match=f"within {foc.MAX_SHOTS} orbits"):
        optimal_path(ModelParams(0.5, 2.0, 0.9, CostModel.reciprocal(0.0, 1.0)), 10)


def decimal_payoff(params, path):
    """The discounted payoff of the path's doubles, in 50-digit decimals with the exact interval costs."""
    with localcontext() as ctx:
        ctx.prec = 50
        p, v, delta, c0, k = (Decimal(z) for z in (params.p, params.v, params.delta, params.cost.c0, params.cost.k))
        total, disc = Decimal(0), Decimal(1)
        for a, b in zip(map(Decimal, path), map(Decimal, path[1:])):
            d, wa, wb = b - a, 1 - a, 1 - b
            if params.cost.family.value == "reciprocal":
                cost = c0 * d + k * ((wa / wb).ln() - d)
            else:
                cost = c0 * d + k * (wb * wb.ln() - wa * wa.ln() + d)
            total += disc * (p * d * v - (1 - p * a) * cost)
            disc *= delta
        return total


@pytest.mark.parametrize("share", [0.0, 1e-3])
@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_value_keeps_its_digits_on_a_path_near_zero(family, share):
    # q* from 3e-3 down to 3e-8, c0 = share v: every interval of the path lies near j = 0
    for n in range(3, 9):
        q = 3.0 * 10.0**-n
        x = q / (1.0 - q) if family == "reciprocal" else -math.log1p(-q)
        v = x / (0.5 - share)
        params = ModelParams(0.5, v, 0.9, CostModel(family, share * v, 1.0))
        shot = optimal_path(params, 1000)
        exact = decimal_payoff(params, shot.path)
        assert abs(Decimal(shot.value) - exact) <= Decimal(2e-15) * exact, q


@settings(max_examples=60)
@given(
    family=st.sampled_from(["reciprocal", "logarithmic"]),
    p=st.floats(0.05, 0.95),
    v=st.floats(0.1, 20.0),
    delta=st.floats(0.3, 0.999),
    c0=st.floats(0.0, 1.0),
    k=st.floats(0.1, 5.0),
)
def test_path_properties_over_the_domain(family, p, v, delta, c0, k):
    params = ModelParams(p, v, delta, CostModel(family, c0, k))
    assume(feasible_to_search(params))
    try:
        shot = optimal_path(params, 400)
    except OutOfRangeError:
        assume(False)
    r, lam = shot.limit, shot.tail_rate
    b = np.asarray(shot.path)
    assert math.isfinite(shot.value)
    assert r <= shot.cap == search_upper_bound(params)
    assert 0.0 <= lam < 1.0
    inc = np.diff(b)
    assert np.all(inc >= 0.0) and b[-1] <= r
    # strictly increasing wherever the exact increment, about (1 - lam)(r - l), spans two doubles
    strict = (1.0 - lam) * (r - b[:-1]) > 2.0 * math.ulp(r)
    assert np.all(inc[strict] > 0.0)
    # the value table from the same orbits: the path's first row, states up to r, every policy moving up
    l, w, policy = map(np.asarray, foc.value_table(params, shot))
    assert (l[0], w[0], policy[0]) == (0.0, shot.value, b[1])
    assert np.all(np.diff(l) >= 0.0) and l[-1] == r and np.all(np.isfinite(w))
    assert np.all(policy[l < r] > l[l < r])
    # the grid's path is a feasible plan, and its payoff can only fall short of the optimum
    grid_path = frontier_sequence(value_iteration(params, SolverConfig(grid_size=512)), 2000)
    assert shot.value >= plan_payoff(params, grid_path) - 1e-14 * abs(shot.value)


# ------------------------------------------------------- truncated horizon


@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_one_period_truncation_is_the_one_shot_problem(name):
    params = TABLE_INSTANCES[name]
    q = myopic_boundary(params)
    value, path = truncated_path(params, 1)
    assert path == (0.0, q)
    assert value == params.p * q * params.v - cost_integral(params.cost, 0.0, q)


@pytest.mark.parametrize("name", sorted(TABLE_INSTANCES))
def test_truncated_path_is_stationary(name):
    # every boundary below the edge satisfies its first-order condition, the last one
    # c(l_T)(1 - p l_{T-1}) = p v, up to the condition's own rounding: a few ulps of l_t times c'(l_t)
    params = TABLE_INSTANCES[name]
    p, v, delta, cost = params.p, params.v, params.delta, params.cost
    edge = 1.0 - BISECT_EDGE
    for horizon in (2, 3, 5, 10):
        value, path = truncated_path(params, horizon)
        assert len(path) == horizon + 1 and path[0] == 0.0
        assert value == pytest.approx(plan_payoff(params, path), rel=1e-13)
        for t in range(1, horizon + 1):
            if path[t] == edge:
                continue
            c = float(cost_density(cost, path[t]))
            marginal = p * v - (1.0 - p * path[t - 1]) * c
            if t < horizon:
                marginal -= delta * (p * v - p * cost_integral(cost, path[t], path[t + 1]) - (1.0 - p * path[t]) * c)
            floor = 8.0 * math.ulp(path[t]) * _density_slope(cost, path[t])
            assert abs(marginal) <= 1e-9 * p * v + floor, (horizon, t, marginal)


def test_truncated_path_at_the_edge_reaches_it_and_stays():
    # the infinite path reaches the edge at t = 3: so does every truncation with T >= 3, and T = 2 at t = 2
    params = TABLE_INSTANCES["edge-log"]
    edge = 1.0 - BISECT_EDGE
    shot = optimal_path(params, 10)
    assert shot.path[2] < edge == shot.path[3]
    value, path = truncated_path(params, 2)
    assert path[1] < edge == path[2] and value < shot.value
    for horizon in (3, 5, 10):
        value, path = truncated_path(params, horizon)
        assert path == shot.path[: horizon + 1]
        assert value == pytest.approx(shot.value, rel=1e-15)


@pytest.mark.parametrize("name", ["edge-log", "multi-root"])
def test_truncated_path_agrees_with_the_grid(name):
    # grid 8192: |dW(0)| measured 6.7e-8 (edge) and 1.8e-9 (multi-root), |dl_t| 6.0e-5 and 2.2e-5
    params = TABLE_INSTANCES[name]
    for horizon in (2, 3):
        value, path = truncated_path(params, horizon)
        bsol = backward_induction(params, horizon, SolverConfig(grid_size=8192))
        assert value == pytest.approx(float(bsol.stage_values[horizon][0]), rel=1e-7)
        assert np.max(np.abs(np.asarray(path) - bsol.path)) < 1e-4
        # at the edge where the grid is
        assert [x == 1.0 - BISECT_EDGE for x in path] == [x == 1.0 - BISECT_EDGE for x in bsol.path]


def test_truncated_multi_root_path_stays_below_the_first_crossing():
    params = TABLE_INSTANCES["multi-root"]
    first = _limit_candidates(params)[0]
    for horizon in (2, 3, 5, 10):
        _, path = truncated_path(params, horizon)
        assert np.all(np.diff(path) > 0.0) and path[-1] < first


def test_long_truncation_is_the_infinite_path():
    # past the horizon at which the last gap falls below the least normal double,
    # the truncated path is the infinite one
    params = TABLE_INSTANCES["canonical"]
    shot = optimal_path(params, 5000)
    value, path = truncated_path(params, 5000)
    assert path == shot.path
    assert value == shot.value


@settings(max_examples=40)
@given(
    family=st.sampled_from(["reciprocal", "logarithmic"]),
    p=st.floats(0.05, 0.95),
    v=st.floats(0.1, 20.0),
    delta=st.floats(0.3, 0.999),
    c0=st.floats(0.0, 1.0),
    k=st.floats(0.1, 5.0),
)
# l_1 = 0.0167: an interval cost that loses its digits near j = 0 puts W_3 above W_5 here
@example(family="reciprocal", p=0.0546875, v=0.28125, delta=0.375, c0=0.0, k=1.0)
def test_truncated_paths_over_the_domain(family, p, v, delta, c0, k):
    params = ModelParams(p, v, delta, CostModel(family, c0, k))
    assume(feasible_to_search(params))
    try:
        shot = optimal_path(params, 1)
    except OutOfRangeError:
        assume(False)
    edge, r, lam = 1.0 - BISECT_EDGE, shot.limit, shot.tail_rate
    values, w_gaps, l1_gaps = [], [], []
    for horizon in (1, 2, 3, 5, 10, 40):
        value, path = truncated_path(params, horizon)
        b = np.asarray(path)
        assert len(b) == horizon + 1 and b[0] == 0.0 and math.isfinite(value)
        # increasing up to j*, strictly wherever the increment spans two doubles of the infinite
        # path's limit r; at the edge from the period it reaches it
        assert np.all(np.diff(b) >= 0.0) and b[-1] <= shot.cap
        strict = ((1.0 - lam) * (r - b[:-1]) > 2.0 * math.ulp(r)) & (b[:-1] < edge)
        assert np.all(np.diff(b)[strict] > 0.0)
        assert np.all(b[np.argmax(b == edge):] == edge) or edge not in b
        values.append(value)
        w_gaps.append(shot.value - value)
        l1_gaps.append(abs(b[1] - shot.path[1]))
    # one more period never hurts, and the truncations close in on the infinite problem
    assert all(b >= a - 1e-14 * abs(a) for a, b in zip(values, values[1:]))
    assert all(gap >= -1e-14 * abs(shot.value) for gap in w_gaps)
    assert w_gaps[-1] <= w_gaps[0] and l1_gaps[-1] <= l1_gaps[0]
