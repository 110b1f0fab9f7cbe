"""Command-line interface.

    innosearch solve    --out DIR [--config FILE] [overrides]
    innosearch simulate --out DIR [--config FILE] [overrides]
    innosearch oracle   --out DIR [--config FILE] [overrides]
    innosearch sweep    --out DIR --param NAME (--values A,B,.. | --start A --stop B --count N)

Every command reads an optional flat key = value config file and applies
flag overrides on top. Each RunConfig field is one flag, with the field's
help text, parsed exactly as config-file values are; main loads the run
config once, filling in the command's default horizon, before calling the
command's handler.

Handlers only compute: each hands its outputs, as data, to _emit, the one
place that applies --format and writes files. A table ({column: values}) is
written as CSV with a JSON twin holding the same rows when csv or json is
asked for; a JSON document (summary.json, oracle.json) is always written,
with the instance settings added; a chart (line_chart's arguments) is drawn
only for svg. _emit then prints the command's one-line summary.

solve, simulate and sweep share one pipeline: _solve gives the instance and
its optimal path by reverse shooting on the first-order condition (foc), or
None for the no-search verdict p v <= c(0), and _headline the numbers
summary.json and a sweep row share. The verdict is a success (exit 0).
solve's value table and chart come from the path's orbits (foc.value_table).
oracle compares its best assignment with the problem truncated to the same
horizon, solved the same way from the last period (foc.truncated_path), so
no command uses a grid and --grid-size affects none. solve and sweep work in
floats and never import numpy; oracle and simulate load it when they start.

FAILURES is the one exit-code policy, first matching row wins: 2 configuration
or validation error, or a horizon too long for memory, 3 solver did not converge, 4 enumeration budget
exceeded, 5 a valid instance outside the solver's range. main applies it to
what a handler raises and lets an unlisted exception propagate. A sweep
point takes its code from it, 2 if unlisted; a sweep exits 0 unless every
point failed, then with their common code, or 2 if they differ.

main may be called any number of times in one process. It builds the
argument parser at its first call and shares it with every later one;
build_parser() returns that shared parser. Nothing in the tree depends on
argv, so a command parses and writes the same whichever calls came first.

A sweep is a list of run configs, one per sweep value, each validated before
any is solved. Its points are solved one after another in this process, in
the order the sweep values were given, and only then are its files written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import SWEEP_PARAMETERS, ConfigError, RunConfig, SweepSpec, load_run_config
from .foc import ShootingSolution, optimal_path, truncated_path, value_table
from .model import (
    BudgetExceededError,
    ConvergenceError,
    ModelParams,
    OutOfRangeError,
    assignment_count,
    cost_integral,
    feasible_to_search,
    myopic_boundary,
    posterior_feasible,
)
from .output import line_chart, write_json, write_svg, write_table

# module -> names bound here on first use, so that solve and sweep never import numpy.
# cmd_oracle and cmd_simulate bind theirs as they start, keeping a name already set here,
# as perfbench/spans.py and tests set some.
_LAZY = {
    ".oracle": ("DiscreteInstance", "best_assignment_report", "compare_with_continuous", "structure_check"),
    ".simulate": ("SimConfig", "active_probability_analytic", "simulate_batch"),
    # none of these is used here; perfbench/spans.py traces them under these names
    ".solver": ("backward_induction", "euler_residual", "frontier_sequence", "value_iteration"),
    # unused here; perfbench/workloads.py swaps it in traced runs
    "concurrent.futures": ("ProcessPoolExecutor",),
}


def _load(*modules: str) -> None:
    """Bind the _LAZY names of each module here, keeping any name already set."""
    bound = globals()
    for module in modules:
        for name in _LAZY[module]:
            if name not in bound:
                bound[name] = getattr(importlib.import_module(module, __package__), name)


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    ((ValueError, OSError, MemoryError), EXIT_CONFIG, "error"),
)

# the instance settings, echoed in every summary
INSTANCE_FIELDS = ("p", "v", "delta", "cost_family", "c0", "k")

SWEEP_COLUMNS = (
    "parameter", "value", "status", "value_at_zero", "first_boundary",
    "l_inf", "q_star", "j_star", "error",
)


def _failure(e: BaseException) -> Tuple[int, Optional[str]]:
    """e's exit code and stderr label from FAILURES; (EXIT_CONFIG, None) if no row lists it."""
    for types, code, label in FAILURES:
        if isinstance(e, types):
            return code, label
    return EXIT_CONFIG, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every main call, built at the first call and shared: do not change it.

    Help text is still formatted, and COLUMNS read, when --help is asked for.
    """
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


def _emit(
    rc: RunConfig,
    tables: Dict[str, Dict[str, Sequence]],
    docs: Dict[str, Dict[str, object]],
    charts: Dict[str, tuple],
    message: str,
) -> int:
    """Write a command's outputs under rc.out as --format asks, print its summary line; EXIT_OK.

    tables: name -> {column: values}, each column a sequence of Python scalars,
    written as name.csv and name.json when csv or json is asked for. docs:
    name -> JSON document, always written, with the instance settings added.
    charts: name -> line_chart arguments, drawn as name.svg when svg is asked for.
    """
    fmts = rc.formats()
    if fmts & {"csv", "json"}:
        for name, table in tables.items():
            write_table(rc.out, name, list(table), list(zip(*table.values())))
    for name, doc in docs.items():
        write_json(rc.out, name, {**{f: getattr(rc, f) for f in INSTANCE_FIELDS}, **doc})
    if "svg" in fmts:
        for name, args in charts.items():
            write_svg(rc.out, name, line_chart(*args))
    print(message)
    return EXIT_OK


def _solve(rc: RunConfig) -> Optional[Tuple[ModelParams, ShootingSolution]]:
    """The run's instance and its optimal path over rc.horizon periods; None when p v <= c(0)."""
    params = rc.model_params()
    if not feasible_to_search(params):
        return None
    return params, optimal_path(params, rc.horizon)


def _headline(params: ModelParams, shot: ShootingSolution) -> Dict[str, object]:
    """The numbers a solved run reports in summary.json and in its sweep row."""
    return {
        "value_at_zero": shot.value,
        "first_boundary": shot.path[1],
        "q_star": myopic_boundary(params),
        "j_star": shot.cap,
    }


def _no_search_summary(rc: RunConfig) -> int:
    summary = {
        "searched": False,
        "reason": "no search optimal: p v <= c(0), the cheapest marginal project costs more than its expected prize",
        "value_at_zero": 0.0,
    }
    return _emit(
        rc, tables={}, docs={"summary": summary}, charts={},
        message="no search optimal: p v <= c(0); wrote summary.json",
    )


def cmd_solve(rc: RunConfig, ns: argparse.Namespace) -> int:
    solved = _solve(rc)
    if solved is None:
        return _no_search_summary(rc)
    params, shot = solved
    b = shot.path
    l, w, policy = value_table(params, shot)
    frontier = {
        "t": range(1, rc.horizon + 1),
        "frontier": b[1:],
        "increment": [y - x for x, y in zip(b, b[1:])],
        # belief that a feasible project exists, entering each period
        "posterior": [posterior_feasible(params, x) for x in b[:-1]],
        "period_cost": [cost_integral(params.cost, x, y) for x, y in zip(b, b[1:])],
    }
    summary = {
        "searched": True,
        **_headline(params, shot),
        "limit_frontier": shot.limit,
        "tail_rate": shot.tail_rate,
        "never_find_probability": 1.0 - params.p * shot.limit,
        "horizon": rc.horizon,
    }
    charts = {
        "frontier": (
            "Optimal search frontier", "period", "frontier l",
            [("frontier path", range(len(b)), b)],
            [(summary["j_star"], "search cap j*"), (summary["q_star"], "one-shot boundary q*")],
        ),
        "value": (
            "Value and policy", "frontier l", "value / next frontier",
            [("value W(l)", l, w), ("policy l'(l)", l, policy)],
        ),
    }
    return _emit(
        rc,
        tables={"value": {"l": l, "value": w, "policy": policy}, "frontier": frontier},
        docs={"summary": summary},
        charts=charts,
        message=f"solved: W(0) = {shot.value:.12g}, first boundary {b[1]:.12g}",
    )


def cmd_simulate(rc: RunConfig, ns: argparse.Namespace) -> int:
    _load(".simulate")
    solved = _solve(rc)
    if solved is None:
        return _no_search_summary(rc)
    params, shot = solved
    path = shot.path
    stats = simulate_batch(SimConfig(params, path, rc.runs, rc.seed))
    periods = range(1, rc.horizon + 1)
    analytic_active = active_probability_analytic(params, path, periods).tolist()
    w0 = shot.value
    diff = stats.mean_discounted_payoff - w0
    z_score = diff / stats.payoff_standard_error if stats.payoff_standard_error else 0.0
    simulation = {
        "t": periods,
        "active_fraction": stats.active_fraction.tolist(),
        "active_analytic": analytic_active,
        "halfwidth_3sigma": stats.confidence_halfwidths.tolist(),
        "success_fraction": stats.success_fraction.tolist(),
        "success_analytic": [params.p * x for x in path[1:]],
    }
    summary = {
        "searched": True,
        "runs": rc.runs,
        "seed": rc.seed,
        "horizon_cap": rc.horizon,
        "mean_discounted_payoff": stats.mean_discounted_payoff,
        "payoff_standard_error": stats.payoff_standard_error,
        "value_at_zero": w0,
        "mean_minus_value": diff,
        "z_score": z_score,
        "final_active_fraction": float(stats.active_fraction[-1]),
        "never_succeed_floor": 1.0 - rc.p,
    }
    chart = (
        "Share of runs still searching", "period", "active fraction",
        [
            ("observed", periods, simulation["active_fraction"]),
            ("analytic 1 - p l", periods, analytic_active),
        ],
        [(1.0 - rc.p, "no-feasible-project floor 1 - p")],
    )
    return _emit(
        rc,
        tables={"simulation": simulation},
        docs={"summary": summary},
        charts={"active": chart},
        message=f"simulated {rc.runs} runs: mean payoff {stats.mean_discounted_payoff:.6g} "
        f"vs W(0) {w0:.6g} (z = {z_score:.2f})",
    )


def cmd_oracle(rc: RunConfig, ns: argparse.Namespace) -> int:
    _load(".oracle")
    params = rc.model_params()
    # before the slot costs are built: a count over budget may have too many slots to hold
    assignment_count(rc.horizon + 1, rc.slots, rc.budget)
    instance = DiscreteInstance.from_params(params, rc.slots, rc.horizon)
    report = best_assignment_report(instance, budget=rc.budget)
    schedule = [d if d > 0 else None for d in report.assignment.schedule]

    comparison = None
    if feasible_to_search(params):
        value, path = truncated_path(params, rc.horizon)
        comparison = dataclasses.asdict(compare_with_continuous(instance, params, value, path, report))
    oracle = {
        "slots": rc.slots,
        "horizon": rc.horizon,
        "budget": rc.budget,
        "evaluations": report.evaluations,
        "value": report.value,
        "schedule": schedule,
        "tie_count": report.tie_count,
        "structure": dataclasses.asdict(structure_check(report.assignment)),
        "comparison": comparison,
    }
    gap = f", gap {comparison['value_gap']:.3e}" if comparison else ""
    return _emit(
        rc,
        tables={"assignment": {"slot": range(len(schedule)), "period": schedule, "slot_cost": instance.slot_costs.tolist()}},
        docs={"oracle": oracle},
        charts={},
        message=f"enumerated {report.evaluations} assignments: best value {report.value:.12g}, "
        f"{report.tie_count} maximizer(s){gap}",
    )


def _sweep_point(rc: RunConfig) -> Tuple[Dict[str, object], int]:
    """Solve one sweep point: its row, parameter and value left unset, and its exit code.

    Never raises: a failure is an error row with its FAILURES code.
    """
    row: Dict[str, object] = dict.fromkeys(SWEEP_COLUMNS)
    try:
        solved = _solve(rc)
        if solved is None:
            row.update(status="no-search", value_at_zero=0.0)
        else:
            row.update(status="ok", l_inf=solved[1].path[-1], **_headline(*solved))
    except Exception as e:  # noqa: BLE001 - a point reports, cmd_sweep decides the exit code
        row.update(status="error", error=f"{type(e).__name__}: {e}")
        return row, _failure(e)[0]
    return row, EXIT_OK


def cmd_sweep(rc: RunConfig, ns: argparse.Namespace) -> int:
    spec = SweepSpec.from_flags(ns.param, ns.values, ns.start, ns.stop, ns.count)
    configs = [spec.apply(rc, x) for x in spec.values]
    points = [_sweep_point(c) for c in configs]
    for x, (row, _) in zip(spec.values, points):
        row.update(parameter=spec.parameter, value=x)
    results = [row for row, _ in points]
    ok = [r for r in results if r["status"] == "ok"]
    chart = (
        f"Value at the empty frontier across {spec.parameter}", spec.parameter, "W(0)",
        [("W(0)", [r["value"] for r in ok], [r["value_at_zero"] for r in ok])],
    )

    failed = [(row, code) for row, code in points if row["status"] == "error"]
    for row, _ in failed:
        print(f"sweep {spec.parameter} = {row['value']}: {row['error']}", file=sys.stderr)
    _emit(
        rc,
        tables={"sweep": {c: [r[c] for r in results] for c in SWEEP_COLUMNS}},
        docs={},
        charts={"sweep": chart} if len(ok) >= 2 else {},
        message=f"swept {spec.parameter} over {len(results)} value(s), {len(failed)} failure(s)",
    )
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
