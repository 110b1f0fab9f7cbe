"""Grid-free reference W(0) and l_1 for the benchmark's pinned instance pool.

The reference never touches a grid. Along an optimal path the unconditional
payoff

    sum_t delta^(t-1) [ p (l_t - l_{t-1}) v - (1 - p l_{t-1}) C(l_{t-1}, l_t) ]

is stationary in every l_t, which gives the second-order difference equation

    p C(l_t, l_{t+1}) = A_t - B_t / delta,
    A_t = p v - (1 - p l_t) c(l_t),   B_t = p v - (1 - p l_{t-1}) c(l_t).

Its fixed point is the search cap j*, so l_1 pins the whole path. Shooting
bisects l_1 in (0, q*): a path that turns backwards (negative right side)
started too low, one that passes j* started too high. Bisection runs until
the bracket is one ulp wide; W(0) is the payoff of the path from the low end,
cut where it turns back, and the path from the high end bounds the cut's
effect. Both cost families' C and c are written out here in closed form, so
the reference does not share code with the package it measures.

Each pool instance is cross-checked against the package's value iteration at
grids 8192 and 16384, extrapolated to zero cell width at second order. An
instance is kept only when that gap is at least KEEP_RATIO times tighter than
the grid-2048 W(0) error the reference measures; dropped instances stay in
the file, flagged, with their numbers. The file also pins the canonical
instance and its logarithmic twin, which workloads do not draw.

    python3 perfbench/reference.py           # regenerate perfbench/pool.json
    python3 perfbench/reference.py --check   # recompute references, compare to the file
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")
SRC = os.path.join(os.path.dirname(HERE), "src")

POOL_SEED = 2412
BASES_PER_FAMILY = 8
DELTA_LO, DELTA_HI = 0.80, 0.95
DELTA_STRATA = 4
PER_STRATUM = 2
BOX = {"p": (0.2, 0.8), "v": (1.0, 5.0), "c0": (0.0, 0.3), "k": (0.5, 2.0)}
FAMILIES = ("reciprocal", "logarithmic")
KEEP_RATIO = 100.0
# The README's canonical instance and its logarithmic twin from the tests,
# pinned for comparison with the baseline errors; workloads do not draw them.
CANONICAL = [
    {"id": "canonical-rec", "family": "reciprocal", "p": 0.5, "v": 2.0, "delta": 0.9, "c0": 0.0, "k": 1.0},
    {"id": "canonical-log", "family": "logarithmic", "p": 0.5, "v": 2.0, "delta": 0.9, "c0": 0.1, "k": 1.0},
]
EDGE = 1e-12  # frontiers stay this far short of 1, as in the package


def density(fam, c0, k, x):
    if fam == "reciprocal":
        return c0 + k * x / (1.0 - x)
    return c0 - k * math.log1p(-x)


def integral(fam, c0, k, a, b):
    d = b - a
    if d == 0.0:
        return 0.0
    if fam == "reciprocal":
        return c0 * d + k * (math.log1p(-a) - math.log1p(-b) - d)
    return c0 * d + k * ((1.0 - b) * math.log1p(-b) - (1.0 - a) * math.log1p(-a) + d)


def _bisect(f, lo, hi):
    """Bracket [lo, hi] of f's sign change (f(lo) < 0 <= f(hi)), one ulp wide."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def bounds(inst):
    """(q*, j*): the one-shot boundary and the last root of c(j)(1 - jp) = pv."""
    p, v, fam, c0, k = inst["p"], inst["v"], inst["family"], inst["c0"], inst["k"]
    pv = p * v
    q = _bisect(lambda x: density(fam, c0, k, x) - pv, 0.0, 1.0 - EDGE)[0]
    g = lambda j: density(fam, c0, k, j) * (1.0 - j * p) - pv
    lo = q
    for i in range(1, 400):
        t = 1.0 - (1.0 - q) * 10.0 ** (-12.0 * i / 399)
        if g(t) > 0.0:
            return q, _bisect(g, lo, t)[0]
        lo = t
    return q, lo


def _next_boundary(fam, c0, k, a, target):
    """The b >= a with C(a, b) = target, by safeguarded Newton (dC/db = c(b))."""
    lo, hi = a, a + 0.5 * (1.0 - a)
    while integral(fam, c0, k, a, hi) < target:
        hi = 1.0 - 0.5 * (1.0 - hi)
        if 1.0 - hi < EDGE:
            return 1.0
    b = min(hi, a + target / max(density(fam, c0, k, a), 1e-300))
    for _ in range(200):
        f = integral(fam, c0, k, a, b) - target
        if f < 0.0:
            lo = b
        else:
            hi = b
        nb = b - f / density(fam, c0, k, b)
        if not (lo < nb < hi):
            nb = 0.5 * (lo + hi)
        if nb == b or hi - lo <= 4e-16:
            return nb
        b = nb
    return b


def shoot(inst, l1, cap, max_periods=5000):
    """Follow the first-order condition from (0, l1): ('back'|'over'|'flat', path)."""
    p, v, delta, fam, c0, k = (inst[x] for x in ("p", "v", "delta", "family", "c0", "k"))
    path = [0.0, l1]
    while len(path) <= max_periods:
        prev, l = path[-2], path[-1]
        c = density(fam, c0, k, l)
        rhs = (p * v - (1.0 - p * l) * c - (p * v - (1.0 - p * prev) * c) / delta) / p
        if rhs < 0.0:
            return "back", path
        nxt = _next_boundary(fam, c0, k, l, rhs)
        if nxt > cap:
            return "over", path
        path.append(nxt)
        if nxt == l:
            return "flat", path
    return "flat", path


def payoff(inst, path):
    p, v, delta, fam, c0, k = (inst[x] for x in ("p", "v", "delta", "family", "c0", "k"))
    w, disc = 0.0, 1.0
    for a, b in zip(path[:-1], path[1:]):
        w += disc * (p * (b - a) * v - (1.0 - p * a) * integral(fam, c0, k, a, b))
        disc *= delta
    return w


def reference(inst):
    """Grid-free W(0) and l_1 of one instance, with the shooting's own precision."""
    q, cap = bounds(inst)
    lo, hi = 0.0, q
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        kind, _ = shoot(inst, mid, cap)
        if kind == "back":
            lo = mid
        elif kind == "over":
            hi = mid
        else:
            lo = hi = mid
            break
    _, path_lo = shoot(inst, lo, cap)
    _, path_hi = shoot(inst, hi, cap)
    w_lo, w_hi = payoff(inst, path_lo), payoff(inst, path_hi)
    return {
        "w0_ref": w_lo,
        "l1_ref": lo,
        "q_star": q,
        "j_star": cap,
        "shoot_w0_spread": abs(w_hi - w_lo),
        "shoot_l1_bracket": hi - lo,
        "shoot_periods": len(path_lo) - 1,
        "shoot_tail_gap": cap - path_lo[-1],
    }


def draw_pool():
    """Pinned instances: BASES_PER_FAMILY bases per family, PER_STRATUM deltas per stratum each."""
    rng = random.Random(POOL_SEED)
    width = (DELTA_HI - DELTA_LO) / DELTA_STRATA
    out = []
    for fam in FAMILIES:
        made = 0
        while made < BASES_PER_FAMILY:
            base = {x: rng.uniform(*BOX[x]) for x in ("p", "v", "c0", "k")}
            if base["p"] * base["v"] <= base["c0"]:
                continue  # no search is optimal: nothing to measure
            for s in range(DELTA_STRATA):
                for j in range(PER_STRATUM):
                    inst = {"id": f"{fam[:3]}{made}-d{s}{'abcd'[j]}", "base": f"{fam[:3]}{made}", "stratum": s,
                            "family": fam, "delta": DELTA_LO + width * (s + rng.random())}
                    inst.update(base)
                    out.append(inst)
            made += 1
    return out


def crosscheck(inst, ref):
    """Package value iteration at three grids, and the Richardson gap to the reference."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from innosearch import CostModel, ModelParams, SolverConfig, value_iteration

    params = ModelParams(inst["p"], inst["v"], inst["delta"], CostModel(inst["family"], inst["c0"], inst["k"]))
    w0, l1 = {}, {}
    for n in (2048, 8192, 16384):
        sol = value_iteration(params, SolverConfig(grid_size=n))
        w0[n] = float(sol.values[0])
        l1[n] = sol.policy_at(0.0)
    r = ((16384 - 1) / (8192 - 1)) ** 2  # cell-width ratio, squared
    w_rich = (r * w0[16384] - w0[8192]) / (r - 1.0)
    gap = abs(w_rich - ref["w0_ref"])
    err = abs(w0[2048] - ref["w0_ref"])
    return {
        "w0_grid": {str(n): x for n, x in w0.items()},
        "l1_grid": {str(n): x for n, x in l1.items()},
        "w0_richardson": w_rich,
        "crosscheck_gap": gap,
        "kept": gap * KEEP_RATIO <= err,
    }


def solve_entry(inst):
    """inst with its reference and cross-check filled in."""
    t0 = time.perf_counter()
    ref = reference(inst)
    inst.update(ref)
    inst["reference_seconds"] = time.perf_counter() - t0
    inst.update(crosscheck(inst, ref))
    print(f"{inst['id']}: W(0) {inst['w0_ref']:.15g} l1 {inst['l1_ref']:.15g} "
          f"err2048 {abs(inst['w0_grid']['2048'] - inst['w0_ref']):.2e} gap {inst['crosscheck_gap']:.2e} "
          f"kept {inst['kept']} ({inst['reference_seconds']:.3f} s)", flush=True)
    return inst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="recompute references and compare with pool.json")
    args = ap.parse_args(argv)
    if args.check:
        with open(POOL_PATH, encoding="utf-8") as fh:
            pool = json.load(fh)
        entries = pool["instances"] + pool["canonical"]
        worst = 0.0
        for inst in entries:
            ref = reference(inst)
            worst = max(worst, abs(ref["w0_ref"] - inst["w0_ref"]), abs(ref["l1_ref"] - inst["l1_ref"]))
        print(f"{len(entries)} references recomputed, largest change {worst:.3e}")
        return 0 if worst == 0.0 else 1
    instances = [solve_entry(inst) for inst in draw_pool()]
    canonical = [solve_entry(dict(inst)) for inst in CANONICAL]
    pool = {
        "about": "Pinned benchmark instances with grid-free reference W(0) and l_1; see perfbench/reference.py.",
        "pool_seed": POOL_SEED,
        "box": {**{x: list(b) for x, b in BOX.items()}, "delta": [DELTA_LO, DELTA_HI]},
        "keep_rule": f"crosscheck_gap * {KEEP_RATIO:g} <= |W(0) at grid 2048 - w0_ref|",
        "instances": instances,
        "canonical": canonical,
    }
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    kept = sum(i["kept"] for i in instances)
    print(f"wrote {POOL_PATH}: {kept} of {len(instances)} instances kept")
    return 0


if __name__ == "__main__":
    sys.exit(main())
