"""Command-line interface.

    innosearch solve    --out DIR [--config FILE] [overrides]
    innosearch simulate --out DIR [--config FILE] [overrides]
    innosearch oracle   --out DIR [--config FILE] [overrides]
    innosearch sweep    --out DIR --param NAME (--values A,B,.. | --start A --stop B --count N)

Every command reads an optional flat key = value config file and applies
flag overrides on top. Each RunConfig field is one flag, with the field's
help text, parsed exactly as config-file values are; main loads the run
config once, filling in the command's default horizon, before calling the
command's handler. Tables are written as CSV with a JSON twin holding the
same rows; --format svg adds charts.

solve, simulate and sweep share one pipeline: _solve gives the instance,
its value-iteration solution and frontier path, or None for the no-search
verdict p v <= c(0), and _headline the numbers summary.json and a sweep row
share. The verdict is a success (exit 0).

FAILURES is the one exit-code policy, first matching row wins: 2 configuration
or validation error, 3 solver did not converge, 4 enumeration budget
exceeded, 5 a valid instance outside the solver's range. main applies it to
what a handler raises and lets an unlisted exception propagate. A sweep
point takes its code from it, 2 if unlisted; a sweep exits 0 unless every
point failed, then with their common code, or 2 if they differ.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import SWEEP_PARAMETERS, ConfigError, RunConfig, SweepSpec, load_run_config
from .model import (
    ModelParams,
    OutOfRangeError,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    posterior_feasible,
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
    FrontierPath,
    ValueSolution,
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
EXIT_OUT_OF_RANGE = 5

# Periods when no horizon is given: path length (solve, sweep), censoring
# cap (simulate), number of periods (oracle).
DEFAULT_HORIZONS = {"solve": 200, "sweep": 200, "simulate": 500, "oracle": 2}


# (exception types, exit code, stderr label); the first row that matches wins
FAILURES = (
    (ConfigError, EXIT_CONFIG, "configuration error"),
    (BudgetExceededError, EXIT_BUDGET, "budget exceeded"),
    (ConvergenceError, EXIT_CONVERGENCE, "solver failed"),
    (OutOfRangeError, EXIT_OUT_OF_RANGE, "out of range"),
    ((ValueError, OSError), EXIT_CONFIG, "error"),
)

# the instance settings, echoed in every summary
INSTANCE_FIELDS = ("p", "v", "delta", "cost_family", "c0", "k")

SWEEP_COLUMNS = (
    "parameter", "value", "status", "value_at_zero", "first_boundary",
    "l_inf", "q_star", "j_star", "iterations", "error",
)


def _failure(e: BaseException) -> Tuple[int, Optional[str]]:
    """e's exit code and stderr label from FAILURES; (EXIT_CONFIG, None) if no row lists it."""
    for types, code, label in FAILURES:
        if isinstance(e, types):
            return code, label
    return EXIT_CONFIG, None


def build_parser() -> argparse.ArgumentParser:
    # RunConfig settings: strings here, parsed by load_run_config like file values
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        settings.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"])

    parser = argparse.ArgumentParser(
        prog="innosearch",
        description="Optimal sequential search over a continuum of projects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[settings], help="solve and extract the optimal frontier path")
    sub.add_parser("simulate", parents=[settings], help="Monte Carlo runs under the optimal plan")
    sub.add_parser("oracle", parents=[settings], help="exhaustive discrete benchmark")
    sw = sub.add_parser("sweep", parents=[settings], help="solve across a parameter range")
    sw.add_argument("--param", required=True, help="one of " + ", ".join(SWEEP_PARAMETERS))
    sw.add_argument("--values", help="comma-separated sweep values")
    sw.add_argument("--start", help="first sweep value")
    sw.add_argument("--stop", help="last sweep value")
    sw.add_argument("--count", help="number of evenly spaced values")
    return parser


def _params_payload(rc: RunConfig) -> Dict[str, object]:
    return {name: getattr(rc, name) for name in INSTANCE_FIELDS}


def _solve(rc: RunConfig) -> Optional[Tuple[ModelParams, ValueSolution, FrontierPath]]:
    """The run's instance, its solution and its frontier path; None when p v <= c(0)."""
    params = rc.model_params()
    if not feasible_to_search(params):
        return None
    sol = value_iteration(params, rc.solver_config())
    return params, sol, frontier_sequence(sol, rc.horizon)


def _headline(params: ModelParams, sol: ValueSolution, path: FrontierPath) -> Dict[str, object]:
    """The numbers a solved run reports in summary.json and in its sweep row."""
    return {
        "value_at_zero": float(sol.values[0]),
        "first_boundary": float(path.boundaries[1]),
        "q_star": myopic_boundary(params),
        "j_star": sol.cap,
        "iterations": sol.iterations,
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
    solved = _solve(rc)
    if solved is None:
        return _no_search_summary(rc)
    params, sol, path = solved
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

    summary = _params_payload(rc)
    summary.update(
        {
            "searched": True,
            **_headline(params, sol, path),
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
                (summary["q_star"], "one-shot boundary q*"),
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
    solved = _solve(rc)
    if solved is None:
        return _no_search_summary(rc)
    params, sol, path = solved
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


def _sweep_worker(rc: RunConfig) -> Tuple[Dict[str, object], int]:
    """Solve one sweep point: its row, parameter and value left unset, and its exit code.

    Never raises: a failure is an error row with its FAILURES code.
    """
    row: Dict[str, object] = dict.fromkeys(SWEEP_COLUMNS)
    try:
        solved = _solve(rc)
        if solved is None:
            row.update(status="no-search", value_at_zero=0.0)
        else:
            row.update(status="ok", l_inf=float(solved[2].boundaries[-1]), **_headline(*solved))
    except Exception as e:  # noqa: BLE001 - workers report, the parent decides
        row.update(status="error", error=f"{type(e).__name__}: {e}")
        return row, _failure(e)[0]
    return row, EXIT_OK


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
    for x, (row, _) in zip(spec.values, points):
        row.update(parameter=spec.parameter, value=x)
    results = [row for row, _ in points]

    if fmts & {"csv", "json"}:
        write_table(rc.out, "sweep", SWEEP_COLUMNS, [list(row.values()) for row in results])

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

    failed = [(row, code) for row, code in points if row["status"] == "error"]
    for row, _ in failed:
        print(f"sweep {spec.parameter} = {row['value']}: {row['error']}", file=sys.stderr)
    print(f"swept {spec.parameter} over {len(results)} value(s), {len(failed)} failure(s)")
    if len(failed) < len(results):
        return EXIT_OK
    codes = {code for _, code in failed}
    return codes.pop() if len(codes) == 1 else EXIT_CONFIG


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
    except Exception as e:  # noqa: BLE001 - FAILURES decides, unlisted exceptions propagate
        code, label = _failure(e)
        if label is None:
            raise
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
