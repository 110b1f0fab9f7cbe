"""Command-line interface.

    innosearch solve    --out DIR [--config FILE] [overrides]
    innosearch simulate --out DIR [--config FILE] [overrides]
    innosearch oracle   --out DIR [--config FILE] [overrides]
    innosearch sweep    --out DIR --param NAME (--values A,B,.. | --start A --stop B --count N)

Every command reads an optional flat key = value config file and applies
flag overrides on top. Each RunConfig field is one flag; flag values are
parsed exactly as config-file values are, and main loads the run config
once, filling in the command's default horizon, before calling the
command's handler. Tables are written as CSV with a JSON twin holding the
same rows; --format svg adds charts. Exit codes: 0 success (including
the legitimate no-search verdict), 2 configuration or validation error,
3 solver did not converge, 4 enumeration budget exceeded. A sweep exits 0
unless every point failed; then 3 if each failed to converge, 2 otherwise.

A sweep is a list of run configs, one per sweep value, each validated before
any is solved. They fan out over a process pool with one worker per CPU the
process may run on, and run in this process when that is one. Workers only
compute, the parent writes all files, and rows keep the order the sweep
values were given in.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, SweepSpec, load_run_config
from .model import (
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    posterior_feasible,
    search_upper_bound,
)
from .oracle import (
    BudgetExceededError,
    DiscreteInstance,
    best_assignment_report,
    compare_with_continuous,
    structure_check,
)
from .output import line_chart, write_json, write_svg, write_table
from .simulate import SimConfig, active_probability_analytic, simulate_batch
from .solver import (
    ConvergenceError,
    activity_split,
    backward_induction,
    euler_residual,
    frontier_sequence,
    value_iteration,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_BUDGET = 4

# Periods when no horizon is given: path length (solve, sweep), censoring
# cap (simulate), number of periods (oracle).
DEFAULT_HORIZONS = {"solve": 200, "sweep": 200, "simulate": 500, "oracle": 2}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value config file")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument(
        "--format",
        help="comma list of csv,json,svg (default csv,json); tables come as csv+json pairs, svg adds charts",
    )

    # RunConfig overrides: strings here, parsed by load_run_config like file values
    ov = argparse.ArgumentParser(add_help=False)
    ov.add_argument("--p", help="prior probability a feasible project exists")
    ov.add_argument("--v", help="prize for completing the feasible project")
    ov.add_argument("--delta", help="discount factor per period")
    ov.add_argument("--cost-family", dest="cost_family", help="reciprocal or logarithmic")
    ov.add_argument("--c0", help="marginal cost intercept")
    ov.add_argument("--k", help="marginal cost slope parameter")
    ov.add_argument("--grid-size", dest="grid_size")
    ov.add_argument("--runs", help="Monte Carlo run count")
    ov.add_argument("--horizon", help="periods: path length (solve, sweep), cap (simulate), T (oracle)")
    ov.add_argument("--seed", help="64-bit simulation seed")
    ov.add_argument("--slots", help="slot count for the discrete benchmark")
    ov.add_argument("--budget", help="assignment enumeration budget")

    parser = argparse.ArgumentParser(
        prog="innosearch",
        description="Optimal sequential search over a continuum of projects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common, ov], help="solve and extract the optimal frontier path")
    sub.add_parser("simulate", parents=[common, ov], help="Monte Carlo runs under the optimal plan")
    sub.add_parser("oracle", parents=[common, ov], help="exhaustive discrete benchmark")
    sw = sub.add_parser("sweep", parents=[common, ov], help="solve across a parameter range")
    sw.add_argument("--param", required=True, help="p, v, delta, c0, k, or scale")
    sw.add_argument("--values", help="comma-separated sweep values")
    sw.add_argument("--start", help="first sweep value")
    sw.add_argument("--stop", help="last sweep value")
    sw.add_argument("--count", help="number of evenly spaced values")
    return parser


def _params_payload(rc: RunConfig) -> Dict[str, object]:
    return {
        "p": rc.p,
        "v": rc.v,
        "delta": rc.delta,
        "cost_family": rc.cost_family,
        "c0": rc.c0,
        "k": rc.k,
    }


def _no_search_summary(rc: RunConfig) -> int:
    payload = _params_payload(rc)
    payload.update(
        {
            "searched": False,
            "reason": "no search optimal: p v <= c(0), the cheapest marginal project costs more than its expected prize",
            "value_at_zero": 0.0,
        }
    )
    write_json(rc.out, "summary", payload)
    print("no search optimal: p v <= c(0); wrote summary.json")
    return EXIT_OK


def cmd_solve(rc: RunConfig, ns: argparse.Namespace) -> int:
    fmts = rc.formats()
    params = rc.model_params()
    if not feasible_to_search(params):
        return _no_search_summary(rc)
    sol = value_iteration(params, rc.solver_config())
    path = frontier_sequence(sol, rc.horizon)
    threshold = sol.activity_threshold
    activity = activity_split(path, threshold)

    if fmts & {"csv", "json"}:
        write_table(
            rc.out,
            "value",
            ["l", "value", "policy"],
            [
                [float(l), float(w), float(a)]
                for l, w, a in zip(sol.nodes, sol.values, sol.policy)
            ],
        )
        rows = []
        b = path.boundaries
        inc = path.increments()
        # belief that a feasible project exists, entering each period
        posterior = posterior_feasible(params, b[:-1])
        period_cost = cost_integral(params.cost, b[:-1], b[1:])
        for t in range(1, rc.horizon + 1):
            resid = euler_residual(params, sol, float(b[t - 1]), l_next=float(b[t]))
            rows.append(
                [
                    t,
                    float(b[t]),
                    float(inc[t - 1]),
                    bool(inc[t - 1] > threshold),
                    float(posterior[t - 1]),
                    float(period_cost[t - 1]),
                    resid,
                ]
            )
        write_table(
            rc.out,
            "frontier",
            ["t", "frontier", "increment", "active", "posterior", "period_cost", "euler_residual"],
            rows,
        )

    q_star = myopic_boundary(params)
    summary = _params_payload(rc)
    summary.update(
        {
            "searched": True,
            "q_star": q_star,
            "j_star": sol.cap,
            "value_at_zero": float(sol.values[0]),
            "first_boundary": float(path.boundaries[1]),
            "iterations": sol.iterations,
            "last_sup_norm_change": sol.sup_norm_history[-1],
            "grid_size": rc.grid_size,
            "horizon": rc.horizon,
            "activity_threshold": threshold,
            "active_periods": activity.active_count,
            "active_prefix_contiguous": activity.contiguous,
            "idle_tail_max_increment": activity.tail_max,
        }
    )
    write_json(rc.out, "summary", summary)

    if "svg" in fmts:
        t_axis = list(range(path.horizon + 1))
        chart = line_chart(
            "Optimal search frontier",
            "period",
            "frontier l",
            [("frontier path", t_axis, [float(x) for x in path.boundaries])],
            hlines=[
                (sol.cap, "search cap j*"),
                (float(q_star), "one-shot boundary q*"),
            ],
        )
        write_svg(rc.out, "frontier", chart)
        chart = line_chart(
            "Value and policy",
            "frontier l",
            "value / next frontier",
            [
                ("value W(l)", [float(x) for x in sol.nodes], [float(x) for x in sol.values]),
                ("policy l'(l)", [float(x) for x in sol.nodes], [float(x) for x in sol.policy]),
            ],
        )
        write_svg(rc.out, "value", chart)

    print(
        f"solved: W(0) = {sol.values[0]:.12g}, first boundary {path.boundaries[1]:.12g}, "
        f"{sol.iterations} sweeps, {activity.active_count} active periods of {rc.horizon}"
    )
    return EXIT_OK


def cmd_simulate(rc: RunConfig, ns: argparse.Namespace) -> int:
    fmts = rc.formats()
    params = rc.model_params()
    if not feasible_to_search(params):
        return _no_search_summary(rc)
    sol = value_iteration(params, rc.solver_config())
    path = frontier_sequence(sol, rc.horizon)
    stats = simulate_batch(SimConfig(params, path, rc.runs, rc.seed, rc.horizon))
    periods = np.arange(1, rc.horizon + 1)
    analytic_active = active_probability_analytic(params, path, periods)
    analytic_success = params.p * path.boundaries[1:]

    if fmts & {"csv", "json"}:
        rows = [
            [
                int(t),
                float(stats.active_fraction[t - 1]),
                float(analytic_active[t - 1]),
                float(stats.confidence_halfwidths[t - 1]),
                float(stats.success_fraction[t - 1]),
                float(analytic_success[t - 1]),
            ]
            for t in periods
        ]
        write_table(
            rc.out,
            "simulation",
            [
                "t",
                "active_fraction",
                "active_analytic",
                "halfwidth_3sigma",
                "success_fraction",
                "success_analytic",
            ],
            rows,
        )

    w0 = float(sol.values[0])
    diff = stats.mean_discounted_payoff - w0
    summary = _params_payload(rc)
    summary.update(
        {
            "searched": True,
            "runs": stats.runs,
            "seed": stats.seed,
            "horizon_cap": stats.horizon_cap,
            "mean_discounted_payoff": stats.mean_discounted_payoff,
            "payoff_standard_error": stats.payoff_standard_error,
            "value_at_zero": w0,
            "mean_minus_value": diff,
            "z_score": diff / stats.payoff_standard_error if stats.payoff_standard_error else 0.0,
            "final_active_fraction": float(stats.active_fraction[-1]),
            "never_succeed_floor": 1.0 - rc.p,
        }
    )
    write_json(rc.out, "summary", summary)

    if "svg" in fmts:
        chart = line_chart(
            "Share of runs still searching",
            "period",
            "active fraction",
            [
                ("observed", periods.tolist(), stats.active_fraction.tolist()),
                ("analytic 1 - p l", periods.tolist(), analytic_active.tolist()),
            ],
            hlines=[(1.0 - rc.p, "no-feasible-project floor 1 - p")],
        )
        write_svg(rc.out, "active", chart)

    print(
        f"simulated {stats.runs} runs: mean payoff {stats.mean_discounted_payoff:.6g} "
        f"vs W(0) {w0:.6g} (z = {summary['z_score']:.2f})"
    )
    return EXIT_OK


def cmd_oracle(rc: RunConfig, ns: argparse.Namespace) -> int:
    fmts = rc.formats()
    params = rc.model_params()
    instance = DiscreteInstance.from_params(params, rc.slots, rc.horizon)
    report = best_assignment_report(instance, budget=rc.budget)
    structure = structure_check(report.assignment)

    comparison = None
    if feasible_to_search(params):
        bsol = backward_induction(params, rc.horizon, rc.solver_config())
        comp = compare_with_continuous(instance, bsol, budget=rc.budget, report=report)
        comparison = {
            "discrete_value": comp.discrete_value,
            "continuous_value": comp.continuous_value,
            "value_gap": comp.value_gap,
            "frontier_deviation": comp.frontier_deviation,
        }

    if fmts & {"csv", "json"}:
        rows = [
            [i, (d if d > 0 else None), float(instance.slot_costs[i])]
            for i, d in enumerate(report.assignment.schedule)
        ]
        write_table(rc.out, "assignment", ["slot", "period", "slot_cost"], rows)

    payload = _params_payload(rc)
    payload.update(
        {
            "slots": rc.slots,
            "horizon": rc.horizon,
            "budget": rc.budget,
            "evaluations": report.evaluations,
            "value": report.value,
            "schedule": [d if d > 0 else None for d in report.assignment.schedule],
            "tie_count": report.tie_count,
            "structure": {
                "no_gaps": structure.no_gaps,
                "increasing_order": structure.increasing_order,
                "no_breaks": structure.no_breaks,
            },
            "comparison": comparison,
        }
    )
    write_json(rc.out, "oracle", payload)

    gap = f", gap {comparison['value_gap']:.3e}" if comparison else ""
    print(
        f"enumerated {report.evaluations} assignments: best value {report.value:.12g}, "
        f"{report.tie_count} maximizer(s){gap}"
    )
    return EXIT_OK


def _sweep_worker(rc: RunConfig) -> Dict[str, object]:
    """Solve one sweep point; returns a row dict and never raises."""
    row: Dict[str, object] = {
        "status": "ok",
        "value_at_zero": None,
        "first_boundary": None,
        "l_inf": None,
        "q_star": None,
        "j_star": None,
        "iterations": None,
        "error": None,
    }
    try:
        params = rc.model_params()
        if not feasible_to_search(params):
            row["status"] = "no-search"
            row["value_at_zero"] = 0.0
            return row
        sol = value_iteration(params, rc.solver_config())
        path = frontier_sequence(sol, rc.horizon)
        row["value_at_zero"] = float(sol.values[0])
        row["first_boundary"] = float(path.boundaries[1])
        row["l_inf"] = float(path.boundaries[-1])
        row["q_star"] = myopic_boundary(params)
        row["j_star"] = sol.cap
        row["iterations"] = sol.iterations
    except Exception as e:  # noqa: BLE001 - workers report, the parent decides
        row["status"] = "error"
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def cmd_sweep(rc: RunConfig, ns: argparse.Namespace) -> int:
    fmts = rc.formats()
    spec = SweepSpec.from_flags(ns.param, ns.values, ns.start, ns.stop, ns.count)
    configs = [spec.apply(rc, x) for x in spec.values]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(configs), cpus)
    if workers == 1:
        points = [_sweep_worker(c) for c in configs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_worker, configs))
    results = [{"parameter": spec.parameter, "value": x, **r} for x, r in zip(spec.values, points)]

    columns = list(results[0])
    if fmts & {"csv", "json"}:
        write_table(rc.out, "sweep", columns, [[row[c] for c in columns] for row in results])

    if "svg" in fmts:
        ok = [r for r in results if r["status"] == "ok"]
        if len(ok) >= 2:
            chart = line_chart(
                f"Value at the empty frontier across {spec.parameter}",
                spec.parameter,
                "W(0)",
                [("W(0)", [r["value"] for r in ok], [r["value_at_zero"] for r in ok])],
            )
            write_svg(rc.out, "sweep", chart)

    failed = [r for r in results if r["status"] == "error"]
    for r in failed:
        print(f"sweep {spec.parameter} = {r['value']}: {r['error']}", file=sys.stderr)
    print(f"swept {spec.parameter} over {len(results)} value(s), {len(failed)} failure(s)")
    if len(failed) < len(results):
        return EXIT_OK
    # _sweep_worker spells each error "<exception type>: <message>"
    if all(r["error"].startswith(f"{ConvergenceError.__name__}:") for r in failed):
        return EXIT_CONVERGENCE
    return EXIT_CONFIG


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "oracle": cmd_oracle,
        "sweep": cmd_sweep,
    }
    try:
        overrides = {f.name: getattr(ns, f.name) for f in dataclasses.fields(RunConfig)}
        rc = load_run_config(ns.config, overrides)
        if rc.horizon is None:
            rc.horizon = DEFAULT_HORIZONS[ns.command]
        return handlers[ns.command](rc, ns)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ConvergenceError as e:
        print(f"solver failed: {e}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
