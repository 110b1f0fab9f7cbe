"""The benchmark's workloads, run in a process of their own by perfbench/run.py.

    python3 perfbench/workloads.py --workload solve --seed 1 --seconds 25 --trace 0 \
        --work DIR --result FILE [--smoke]

Every command goes through the real entry point, innosearch.cli.main, in
this process, one client in a closed loop. A pass is the workload's fixed
command list. The first pass warms caches and lazy set-up (the oracle's
first call costs 2.4 times a steady one) and is not timed; then passes
repeat while another one fits in --seconds. Only the cli.main calls are
timed; reading and checking the outputs happens between them. Every pass's
outputs are checked.

Instances come from perfbench/pool.json, whose references are grid-free
(perfbench/reference.py). The error metrics are maxima over a workload's
instances, and the pool's errors span three orders of magnitude, so a
workload drawn at random would swing with the seed. Each workload therefore
always includes the pool's anchors: the instances with the largest pinned
W(0) and l_1 errors at the grid it solves on. Solve time also varies
fourfold across the pool with the number of Bellman sweeps, so the other
instances come from the same two bases, one per cost family (each family's
largest W(0) error), in fixed discount bands; the seed draws which of the
band's two instances runs:

- solve: bands 1-3 of each family (the top three discount bands);
- sweep: bands 2-3 of each family, as one delta sweep per family;
- verify: band 3 of each family, and the anchors.

The seed also sets the simulation seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import innosearch.cli as cli  # noqa: E402
from spans import Tracer  # noqa: E402
from innosearch import (  # noqa: E402
    Assignment,
    CostModel,
    DiscreteInstance,
    ModelParams,
    evaluate_assignment,
    evaluate_assignment_recursive,
    structure_check,
)

WORKLOADS = ("solve", "sweep", "verify")

FULL = {
    "solve_grid": 2048, "horizon": 200, "sweep_grid": 8192, "slots": 12, "oracle_T": 3,
    "budget": 20_000_000, "runs": 4_000_000, "sim_horizon": 200,
}
SMOKE = {
    "solve_grid": 512, "horizon": 50, "sweep_grid": 512, "slots": 8, "oracle_T": 2,
    "budget": 1_000_000, "runs": 100_000, "sim_horizon": 50,
}

# Run once per invocation outside the timed passes: a valid logarithmic
# instance with p v > c0 + 27.6 k, which the solver cannot handle yet.
KNOWN_FAILURE = ["solve", "--p", "0.95", "--v", "50", "--cost-family", "logarithmic"]

# Output checks. Accuracy bounds are sanity limits far above the grid error.
ORACLE_TOL = 1e-12
ORACLE_GAP_FLOOR = -1e-9
Z_MAX = 4.0
W0_ERR_LIMIT = 1e-3
L1_ERR_CELLS = 2.0


def load_pool():
    with open(os.path.join(HERE, "pool.json"), encoding="utf-8") as fh:
        return [i for i in json.load(fh)["instances"] if i["kept"]]


def anchors(pool, grid):
    """Kept instances with the largest pinned W(0) and l_1 errors at this grid."""
    key = str(grid) if str(grid) in pool[0]["w0_grid"] else "2048"
    w = max(pool, key=lambda i: abs(i["w0_grid"][key] - i["w0_ref"]))
    l = max(pool, key=lambda i: abs(i["l1_grid"][key] - i["l1_ref"]))
    return [w] if w is l else [w, l]


def instance_flags(inst):
    return [
        "--p", repr(inst["p"]), "--v", repr(inst["v"]), "--delta", repr(inst["delta"]),
        "--cost-family", inst["family"], "--c0", repr(inst["c0"]), "--k", repr(inst["k"]),
    ]


def on_anchor_base(pool, grid, rng, bands):
    """Per family, one instance in each of `bands` on the base of the family's largest
    W(0) error: the pool's anchors where they are, else drawn; any anchor on the base
    outside `bands` as well."""
    glob = anchors(pool, grid)
    out = []
    for fam in ("reciprocal", "logarithmic"):
        base = anchors([i for i in pool if i["family"] == fam], grid)[0]["base"]
        picked = [i for i in glob if i["base"] == base]
        for band in bands:
            if band not in {i["stratum"] for i in picked}:
                picked.append(rng.choice([i for i in pool if i["base"] == base and i["stratum"] == band]))
        out += sorted(picked, key=lambda i: i["stratum"])
    return out


def commands(workload, seed, work, size):
    """The workload's fixed command list: (kind, argv, out_dir, instances)."""
    pool = load_pool()
    rng = random.Random(seed)
    cmds = []

    def add(kind, argv, insts):
        out = os.path.join(work, f"c{len(cmds)}")
        cmds.append((kind, [kind] + argv + ["--out", out], out, insts))

    if workload == "solve":
        for inst in on_anchor_base(pool, size["solve_grid"], rng, (1, 2, 3)):
            add("solve", instance_flags(inst) + [
                "--grid-size", str(size["solve_grid"]), "--horizon", str(size["horizon"]),
                "--format", "csv,json,svg"], [inst])
    elif workload == "sweep":
        insts = on_anchor_base(pool, size["sweep_grid"], rng, (2, 3))
        for fam in ("reciprocal", "logarithmic"):
            mine = [i for i in insts if i["family"] == fam]
            values = ",".join(repr(i["delta"]) for i in mine)
            add("sweep", ["--param", "delta", "--values", values] + instance_flags(mine[0])
                + ["--grid-size", str(size["sweep_grid"])], mine)
    else:
        for inst in on_anchor_base(pool, size["solve_grid"], rng, (3,)):
            add("oracle", instance_flags(inst) + [
                "--slots", str(size["slots"]), "--horizon", str(size["oracle_T"]),
                "--budget", str(size["budget"]), "--grid-size", str(size["solve_grid"])], [inst])
            add("simulate", instance_flags(inst) + [
                "--runs", str(size["runs"]), "--horizon", str(size["sim_horizon"]),
                "--seed", str(seed), "--grid-size", str(size["solve_grid"])], [inst])
    return cmds


def run_cli(argv):
    """innosearch.cli.main with its stdout and stderr kept out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as e:  # noqa: BLE001 - an escaped exception is a failed operation
            return f"{type(e).__name__}: {e}"


def _read(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _accuracy(inst, w0, l1, grid, j_star):
    """Errors against the reference, with their sanity checks."""
    ew, el = abs(w0 - inst["w0_ref"]), abs(l1 - inst["l1_ref"])
    problems = []
    if not ew <= W0_ERR_LIMIT:
        problems.append(f"{inst['id']}: W(0) error {ew:.3e}")
    if not el <= L1_ERR_CELLS * j_star / (grid - 1):
        problems.append(f"{inst['id']}: l_1 error {el:.3e}")
    return ew, el, problems


def check(kind, out, insts, code, size):
    """Check one command's outputs: (operations, failures, problems, [(w0_err, l1_err)])."""
    if code != 0:
        n = len(insts) if kind == "sweep" else 1
        return n, n, [f"{kind} exited with {code!r}"], []
    try:
        return _CHECKS[kind](out, insts, size)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        n = len(insts) if kind == "sweep" else 1
        return n, n, [f"{kind} outputs unreadable: {type(e).__name__}: {e}"], []


def _check_solve(out, insts, size):
    (inst,) = insts
    summ = _read(out, "summary.json")
    problems = [f"summary {k} = {v}" for k, v in summ.items()
                if isinstance(v, float) and not math.isfinite(v)]
    frontier = [row[1] for row in _read(out, "frontier.json")["rows"]]
    j_star = summ["j_star"]
    if any(b > a for a, b in zip(frontier[1:], frontier[:-1])) or frontier[0] < 0.0:
        problems.append("frontier decreases")
    if max(frontier) > j_star:
        problems.append("frontier passes j*")
    ew, el, acc = _accuracy(inst, summ["value_at_zero"], summ["first_boundary"], size["solve_grid"], j_star)
    problems += acc
    return 1, int(bool(problems)), problems, [(ew, el)]


def _check_sweep(out, insts, size):
    table = _read(out, "sweep.json")
    cols = table["columns"]
    rows = [dict(zip(cols, r)) for r in table["rows"]]
    by_delta = {i["delta"]: i for i in insts}
    failed, problems, errs = 0, [], []
    for row in rows:
        bad = []
        if row["status"] != "ok":
            bad.append(f"sweep row delta={row['value']}: {row['status']} {row['error']}")
        else:
            ew, el, acc = _accuracy(by_delta[row["value"]], row["value_at_zero"], row["first_boundary"],
                                    size["sweep_grid"], row["j_star"])
            bad += acc
            errs.append((ew, el))
        failed += bool(bad)
        problems += bad
    missing = len(insts) - len(rows)
    if missing:
        problems.append(f"sweep returned {len(rows)} rows for {len(insts)} values")
    return len(insts), failed + max(missing, 0), problems, errs


def _check_oracle(out, insts, size):
    (inst,) = insts
    rep = _read(out, "oracle.json")
    params = ModelParams(inst["p"], inst["v"], inst["delta"], CostModel(inst["family"], inst["c0"], inst["k"]))
    disc = DiscreteInstance.from_params(params, size["slots"], size["oracle_T"])
    assignment = Assignment(tuple(d or 0 for d in rep["schedule"]))
    problems = []
    for fn in (evaluate_assignment, evaluate_assignment_recursive):
        if not abs(fn(disc, assignment) - rep["value"]) <= ORACLE_TOL:
            problems.append(f"oracle value differs from {fn.__name__}")
    if not all(rep["structure"].values()) or not structure_check(assignment).all_pass:
        problems.append(f"oracle structure checks fail: {rep['structure']}")
    if rep["comparison"] is None or not rep["comparison"]["value_gap"] >= ORACLE_GAP_FLOOR:
        problems.append(f"oracle comparison gap: {rep['comparison']}")
    return 1, int(bool(problems)), problems, []


def _check_simulate(out, insts, size):
    (inst,) = insts
    summ = _read(out, "summary.json")
    problems = []
    if not abs(summ["z_score"]) <= Z_MAX:
        problems.append(f"simulate z = {summ['z_score']}")
    table = _read(out, "simulation.json")
    first = dict(zip(table["columns"], table["rows"][0]))
    # success_analytic at t = 1 is p * l_1
    l1 = first["success_analytic"] / summ["p"]
    ew, el, acc = _accuracy(inst, summ["value_at_zero"], l1, size["solve_grid"], inst["j_star"])
    problems += acc
    return 1, int(bool(problems)), problems, [(ew, el)]


_CHECKS = {"solve": _check_solve, "sweep": _check_sweep, "oracle": _check_oracle, "simulate": _check_simulate}


class Tally:
    """Operations attempted and failed, problems seen, and the largest errors."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.w0_err = self.l1_err = 0.0

    def add(self, result):
        n, bad, problems, errs = result
        self.attempted += n
        self.failed += bad
        self.problems += problems
        for ew, el in errs:
            self.w0_err = max(self.w0_err, ew)
            self.l1_err = max(self.l1_err, el)


def serial_executor(point_seconds, tracer=None):
    """Stand-in for the sweep's process pool that runs each point here, timed."""

    class Serial:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            out = []
            for job in jobs:
                idx = tracer.begin("cli.sweep_point") if tracer else None
                t0 = time.perf_counter()
                try:
                    out.append(fn(job))
                finally:
                    point_seconds.append(time.perf_counter() - t0)
                    if tracer:
                        tracer.end(idx)
            return out

    return Serial


def run_pass(cmds, tally, size, tracer=None):
    """Run every command once; returns the wall seconds of each command."""
    run = (lambda argv: tracer.command(argv, run_cli)) if tracer else run_cli
    walls = []
    for kind, argv, out, insts in cmds:
        t0 = time.perf_counter()
        code = run(argv)
        walls.append(time.perf_counter() - t0)
        tally.add(check(kind, out, insts, code, size))
    return walls


def pass_wall(passes):
    """Wall time of the command list: the sum over commands of each one's median over passes."""
    return sum(statistics.median(cmd) for cmd in zip(*passes))


@contextlib.contextmanager
def serial_sweeps(point_seconds, tracer=None):
    saved = cli.ProcessPoolExecutor
    cli.ProcessPoolExecutor = serial_executor(point_seconds, tracer)
    try:
        yield
    finally:
        cli.ProcessPoolExecutor = saved


def within(seconds, start, laps):
    """True while another lap, as long as the median one so far, ends within `seconds`."""
    return time.perf_counter() - start + statistics.median(laps) <= seconds


def measure(cmds, seconds, size, tally, warmup_s):
    """Untraced passes for up to `seconds`, at least one; returns each pass's command walls."""
    passes, laps = [], [warmup_s]
    start = time.perf_counter()
    while not passes or within(seconds, start, laps):
        t0 = time.perf_counter()
        passes.append(run_pass(cmds, tally, size))
        laps.append(time.perf_counter() - t0)
    return passes


def measure_traced(workload, cmds, seconds, size, tally, nproc):
    """Alternate untraced and traced passes; returns per-layer metrics, a summary, the tracer.

    Sweep points run in this process in both, since pool workers are out of
    the tracer's reach; one extra pass with the real pool gives the command
    wall time that the sweep's parallel efficiency divides by.
    """
    pooled = sum(run_pass(cmds, tally, size)) if workload == "sweep" else 0.0
    tracer = Tracer()
    plain, traced, layers, points, laps = [], [], [], [], []
    start = time.perf_counter()
    while not traced or within(seconds, start, laps):
        t0 = time.perf_counter()
        with serial_sweeps(points):
            plain.append(run_pass(cmds, tally, size))
        tracer.reset()
        tracer.install()
        try:
            with serial_sweeps([], tracer):
                traced.append(run_pass(cmds, tally, size, tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer))
        laps.append(time.perf_counter() - t0)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    workers = sum(min(len(insts), nproc) for _, _, _, insts in cmds) / len(cmds)
    metrics["cli.sweep_parallel_eff"] = sum(points) / len(plain) / (workers * pooled) if pooled else 0.0
    metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
    summary = {"untraced_wall_s": pass_wall(plain), "traced_wall_s": pass_wall(traced),
               "policy_at_calls_repeats_per_command": tracer.per_command}
    return metrics, summary, tracer


def layer_metrics(tracer):
    calls, secs, cli_self = tracer.totals()
    c = tracer.counts
    sweeps, run_periods, assignments = c["sweeps"], c["run_periods"], c["assignments"]
    pcalls = calls["solver.policy_at"]
    vi_s = secs["solver.value_iteration"]
    sim_s = secs["simulate.simulate_batch"]
    oracle_s = secs["oracle.best_assignment"]
    return {
        "solver.value_iteration_s": vi_s,
        "solver.sweeps": sweeps,
        "solver.sweep_ms": 1e3 * vi_s / sweeps if sweeps else 0.0,
        "solver.frontier_sequence_s": secs["solver.frontier_sequence"],
        "solver.euler_residual_s": secs["solver.euler_residual"],
        "solver.policy_at_calls": pcalls,
        "solver.policy_at_repeat_frac": c["policy_at_repeats"] / pcalls if pcalls else 0.0,
        "solver.backward_induction_s": secs["solver.backward_induction"],
        "solver.stages": c["stages"],
        "model.cost_integral_calls": calls["model.cost_integral"],
        "model.cost_integral_elems": c["cost_integral_elems"],
        "model.cost_integral_s": secs["model.cost_integral"],
        "simulate.simulate_batch_s": sim_s,
        "simulate.run_periods": run_periods,
        "simulate.ns_per_run_period": 1e9 * sim_s / run_periods if run_periods else 0.0,
        "oracle.best_assignment_s": oracle_s,
        "oracle.assignments": assignments,
        "oracle.ns_per_assignment": 1e9 * oracle_s / assignments if assignments else 0.0,
        "oracle.compare_s": secs["oracle.compare"],
        "output.write_s": sum(secs[n] for n in ("output.write_table", "output.write_json", "output.write_svg")),
        "output.files": c["output_files"],
        "output.bytes": c["output_bytes"],
        "cli.self_s": cli_self,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    size = SMOKE if args.smoke else FULL
    nproc = len(os.sched_getaffinity(0))

    cmds = commands(args.workload, args.seed, args.work, size)
    known = run_cli(KNOWN_FAILURE + ["--out", os.path.join(args.work, "known")])

    tally = Tally()
    t0 = time.perf_counter()
    run_pass(cmds, tally, size)  # warm-up, not timed
    warmup_s = time.perf_counter() - t0
    result = {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "known_failures": {" ".join(KNOWN_FAILURE): known},
        "commands": [(argv[0], [i["id"] for i in insts]) for _, argv, _, insts in cmds],
    }
    if args.trace:
        result["layers"], result["trace"], tracer = measure_traced(
            args.workload, cmds, args.seconds, size, tally, nproc)
        result["spans_file"] = tracer.dump(os.path.join(ROOT, ".perfbench_out"), f"{args.workload}-{args.seed}")
    else:
        passes = measure(cmds, args.seconds, size, tally, warmup_s)
        # pool children are counted at the largest one's peak, once per worker
        workers = max(min(len(insts), nproc) for _, _, _, insts in cmds) if args.workload == "sweep" else 0
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(passes=passes, wall_s=pass_wall(passes), peak_rss_mb=kb / 1024.0,
                      w0_err_max=tally.w0_err, l1_err_max=tally.l1_err)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems[:20])
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
