import argparse
import csv
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import xml.dom.minidom

import pytest

import innosearch
from innosearch import cli, foc
from innosearch.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_OUT_OF_RANGE,
    build_parser,
    main,
)
from innosearch.config import RunConfig


def read_json(out, name):
    with open(os.path.join(out, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out, name):
    with open(os.path.join(out, name + ".csv"), encoding="utf-8") as fh:
        return list(csv.reader(fh.read().splitlines()))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_solve_default_instance(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["solve", "--out", out, "--horizon", "30"]) == EXIT_OK
    assert "solved: W(0) =" in capsys.readouterr().out

    summary = read_json(out, "summary")
    assert summary["searched"] is True
    assert "tol" not in summary and "converged" not in summary
    assert summary["value_at_zero"] == pytest.approx(0.32937698524932696, abs=1e-12)
    assert summary["q_star"] == pytest.approx(0.5, abs=1e-12)
    assert summary["j_star"] == pytest.approx(2.0 - 2.0**0.5, abs=1e-10)
    # one crossing: the path's limit is the cap itself
    assert summary["j_star"] == summary["limit_frontier"]

    table = read_csv(out, "frontier")
    assert table[0][:3] == ["t", "frontier", "increment"]
    assert len(table) == 31  # header + one row per period
    # entering period 1 nothing is searched yet, so the belief is the prior
    posterior = table[0].index("posterior")
    assert float(table[1][posterior]) == 0.5


def test_solve_runs_no_grid(tmp_path):
    # every output file is the same at any --grid-size: solve's table comes from the shooting orbits
    outs = [str(tmp_path / n) for n in ("64", "4096")]
    for grid, out in zip(("64", "4096"), outs):
        assert main(["solve", "--grid-size", grid, "--horizon", "20", "--format", "csv,json,svg", "--out", out]) == EXIT_OK
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1])) and "value.csv" in names and "value.svg" in names
    for name in names:
        assert read_bytes(os.path.join(outs[0], name)) == read_bytes(os.path.join(outs[1], name)), name


def test_grid_size_is_read_by_nothing(tmp_path):
    # any integer --grid-size is accepted and changes no output byte; a malformed one is still exit 2
    for argv in (
        ["solve", "--horizon", "20"],
        ["simulate", "--runs", "1000", "--horizon", "10"],
        ["sweep", "--param", "v", "--values", "1,2", "--horizon", "10"],
        ["oracle", "--slots", "4", "--horizon", "2"],
    ):
        outs = [str(tmp_path / argv[0] / n) for n in ("plain", "grid8")]
        for extra, out in zip(([], ["--grid-size", "8"]), outs):
            assert main(argv + extra + ["--format", "csv,json,svg", "--out", out]) == EXIT_OK, extra
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1])), argv
        for name in names:
            assert read_bytes(os.path.join(outs[0], name)) == read_bytes(os.path.join(outs[1], name)), (argv, name)
    assert main(["solve", "--grid-size", "banana", "--out", str(tmp_path / "banana")]) == EXIT_CONFIG
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_size = 2.5\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "fractional")]) == EXIT_CONFIG


def test_solve_svg_output(tmp_path):
    out = str(tmp_path / "run")
    code = main(["solve", "--out", out, "--format", "csv,json,svg", "--horizon", "20"])
    assert code == EXIT_OK
    for name in ("frontier", "value"):
        with open(os.path.join(out, name + ".svg"), encoding="utf-8") as fh:
            xml.dom.minidom.parseString(fh.read())


def test_solve_no_search_region(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["solve", "--out", out, "--p", "0.4", "--v", "0.1", "--c0", "0.2"])
    assert code == EXIT_OK
    assert "no search optimal" in capsys.readouterr().out
    summary = read_json(out, "summary")
    assert summary["searched"] is False
    assert summary["value_at_zero"] == 0.0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v = 3\nhorizon = 12\nout = %s\n" % (tmp_path / "fileout"), encoding="utf-8")
    out = str(tmp_path / "flagout")
    assert main(["solve", "--config", str(cfg), "--v", "4", "--out", out]) == EXIT_OK
    summary = read_json(out, "summary")  # --out beat the file value
    assert summary["v"] == 4.0  # flag beats file
    assert summary["horizon"] == 12  # file beats default


@pytest.mark.parametrize(
    "argv,code",
    [
        (["solve", "--grid-size", "2.5"], EXIT_CONFIG),
        (["solve", "--config", "/nonexistent/run.cfg"], EXIT_CONFIG),
        (["sweep", "--param", "delta", "--values", "0.5,1.5"], EXIT_CONFIG),
        (["sweep", "--param", "v", "--values", "1", "--start", "1", "--stop", "2", "--count", "2"], EXIT_CONFIG),
        (["oracle", "--slots", "20", "--horizon", "5"], EXIT_BUDGET),
        (["solve", "--p", "abc"], EXIT_CONFIG),
        (["solve", "--cost-family", "cubic"], EXIT_CONFIG),
        (["sweep", "--param", "v", "--start", "1", "--stop", "2", "--count", "abc"], EXIT_CONFIG),
        (["sweep", "--param", "v", "--start", "x", "--stop", "2", "--count", "2"], EXIT_CONFIG),
        # 1e18 values need 8 EB at once, which no machine can map, so the allocation fails at once;
        # 1e19 is more than a list can index
        (["sweep", "--param", "v", "--start", "1", "--stop", "2", "--count", "1e18"], EXIT_CONFIG),
        (["sweep", "--param", "v", "--start", "1", "--stop", "2", "--count", "1e19"], EXIT_CONFIG),
    ],
)
def test_error_exit_codes(tmp_path, argv, code):
    assert main(argv + ["--out", str(tmp_path / "run")]) == code


def test_one_shot_boundary_beyond_solver_edge(tmp_path, capsys):
    # a valid instance the solver cannot represent has its own exit code, not "configuration error"
    argv = ["solve", "--p", "0.95", "--v", "50", "--cost-family", "logarithmic"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == EXIT_OUT_OF_RANGE
    err = capsys.readouterr().err
    assert err.startswith("out of range: ")
    assert "p v = 47.5" in err and "closer to 1" in err
    assert "bisection" not in err
    # a malformed flag on the same instance is still a configuration error
    assert main(["solve", "--p", "0.95", "--v", "5O", "--cost-family", "logarithmic"]) == EXIT_CONFIG


def test_bad_config_key_reports_location(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 0.5\nspee = 3\n", encoding="utf-8")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'spee'" in err and ":2:" in err


INSTANCE_KEYS = {"p", "v", "delta", "cost_family", "c0", "k"}
SOLVE_KEYS = INSTANCE_KEYS | {
    "searched", "value_at_zero", "first_boundary", "q_star", "j_star", "limit_frontier", "tail_rate",
    "never_find_probability", "horizon",
}
SIMULATE_KEYS = INSTANCE_KEYS | {
    "searched", "runs", "seed", "horizon_cap", "mean_discounted_payoff", "payoff_standard_error",
    "value_at_zero", "mean_minus_value", "z_score", "final_active_fraction", "never_succeed_floor",
}
NO_SEARCH_KEYS = INSTANCE_KEYS | {"searched", "reason", "value_at_zero"}
ORACLE_KEYS = INSTANCE_KEYS | {
    "slots", "horizon", "budget", "evaluations", "value", "schedule", "tie_count", "structure", "comparison",
}


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["solve", "--grid-size", "128", "--horizon", "20"], SOLVE_KEYS),
        (["simulate", "--grid-size", "128", "--horizon", "20", "--runs", "100"], SIMULATE_KEYS),
        (["solve", "--c0", "5"], NO_SEARCH_KEYS),
        (["simulate", "--c0", "5"], NO_SEARCH_KEYS),
    ],
)
def test_summary_keys(tmp_path, argv, keys):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == EXIT_OK
    assert set(read_json(out, "summary")) == keys


def test_oracle_document_keys(tmp_path):
    searched, unsearched = str(tmp_path / "searched"), str(tmp_path / "unsearched")
    assert main(["oracle", "--grid-size", "128", "--slots", "4", "--horizon", "2", "--out", searched]) == EXIT_OK
    argv = ["oracle", "--p", "0.1", "--v", "1", "--c0", "0.5", "--slots", "3", "--horizon", "2"]
    assert main(argv + ["--out", unsearched]) == EXIT_OK
    for out in (searched, unsearched):
        doc = read_json(out, "oracle")
        assert set(doc) == ORACLE_KEYS
        assert set(doc["structure"]) == {"no_gaps", "increasing_order", "no_breaks"}
    comparison = read_json(searched, "oracle")["comparison"]
    assert set(comparison) == {"discrete_value", "continuous_value", "value_gap", "frontier_deviation"}
    # p v <= c(0): no continuum solution to compare with
    assert read_json(unsearched, "oracle")["comparison"] is None


def test_oracle_canonical(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["oracle", "--out", out, "--slots", "4", "--horizon", "2"])
    assert code == EXIT_OK
    assert "best value" in capsys.readouterr().out
    payload = read_json(out, "oracle")
    assert payload["value"] == pytest.approx(0.31488915491303965, abs=1e-12)
    assert payload["schedule"] == [1, 2, None, None]
    assert payload["tie_count"] == 1
    assert payload["evaluations"] == 81
    assert all(payload["structure"].values())
    assert payload["comparison"]["value_gap"] >= -1e-9
    assert payload["comparison"]["frontier_deviation"] <= 0.25
    table = read_csv(out, "assignment")
    assert len(table) == 5
    assert table[1][:2] == ["0", "1"]  # cheapest slot goes first
    assert table[3][1] == ""  # unsearched slot has no period
    assert float(table[4][2]) == float("inf")


def test_simulate_reproducible_files(tmp_path):
    args = ["simulate", "--runs", "20000", "--horizon", "100", "--seed", "777"]
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == EXIT_OK
    assert main(args + ["--out", out_b]) == EXIT_OK
    assert read_bytes(os.path.join(out_a, "simulation.csv")) == read_bytes(
        os.path.join(out_b, "simulation.csv")
    )
    assert read_bytes(os.path.join(out_a, "summary.json")) == read_bytes(
        os.path.join(out_b, "summary.json")
    )
    summary = read_json(out_a, "summary")
    assert summary["runs"] == 20000
    assert abs(summary["z_score"]) < 5.0
    assert summary["final_active_fraction"] >= (1.0 - summary["p"]) - 0.02


def test_sweep_values_across_prize(tmp_path):
    out = str(tmp_path / "run")
    code = main(
        ["sweep", "--param", "v", "--values", "1,2,4", "--out", out, "--format", "csv,json,svg"]
    )
    assert code == EXIT_OK
    table = read_csv(out, "sweep")
    head = table[0]
    assert head == [
        "parameter", "value", "status", "value_at_zero", "first_boundary",
        "l_inf", "q_star", "j_star", "error",
    ]
    rows = table[1:]
    assert [r[head.index("status")] for r in rows] == ["ok", "ok", "ok"]
    w0 = [float(r[head.index("value_at_zero")]) for r in rows]
    assert w0 == sorted(w0)  # richer prize, richer problem
    assert w0[1] == pytest.approx(0.32937698524932696, abs=1e-12)
    linf = [float(r[head.index("l_inf")]) for r in rows]
    jstar = [float(r[head.index("j_star")]) for r in rows]
    for li, js in zip(linf, jstar):
        assert li <= js + 1e-12
        assert js - li < 0.01  # long paths approach the search cap
    with open(os.path.join(out, "sweep.svg"), encoding="utf-8") as fh:
        xml.dom.minidom.parseString(fh.read())


@pytest.mark.parametrize("values", ["2", "1,2"])  # one point runs in-process, two on the pool
def test_single_point_sweep_matches_solve(tmp_path, values):
    out_sweep = str(tmp_path / "sweep")
    out_solve = str(tmp_path / "solve")
    assert main(["sweep", "--param", "v", "--values", values, "--out", out_sweep]) == EXIT_OK
    assert main(["solve", "--out", out_solve]) == EXIT_OK
    summary = read_json(out_solve, "summary")
    cols = read_json(out_sweep, "sweep")["columns"]
    row = [r for r in read_json(out_sweep, "sweep")["rows"] if r[cols.index("value")] == 2.0][0]
    assert row[cols.index("value_at_zero")] == summary["value_at_zero"]
    assert row[cols.index("first_boundary")] == summary["first_boundary"]


def test_sweep_scale_invariance(tmp_path):
    out = str(tmp_path / "run")
    code = main(["sweep", "--param", "scale", "--values", "1,10", "--out", out])
    assert code == EXIT_OK
    data = read_json(out, "sweep")
    cols = data["columns"]
    base, scaled = data["rows"]
    ratio = scaled[cols.index("value_at_zero")] / base[cols.index("value_at_zero")]
    assert ratio == pytest.approx(10.0, abs=1e-8)
    # boundaries are unit-free, so they should not move
    assert scaled[cols.index("first_boundary")] == pytest.approx(
        base[cols.index("first_boundary")], abs=1e-8
    )
    assert scaled[cols.index("j_star")] == pytest.approx(base[cols.index("j_star")], abs=1e-12)


def test_sweep_count_takes_float_spelling(tmp_path):
    out = str(tmp_path / "run")
    argv = ["sweep", "--param", "v", "--start", "1", "--stop", "2", "--count", "1e1"]
    assert main(argv + ["--grid-size", "64", "--horizon", "5", "--out", out]) == EXIT_OK
    data = read_json(out, "sweep")
    assert len(data["rows"]) == 10
    assert [r[data["columns"].index("status")] for r in data["rows"]] == ["ok"] * 10


def test_sweep_reports_total_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(foc, "MAX_STEPS", 2)
    out = str(tmp_path / "run")
    code = main(["sweep", "--param", "v", "--values", "2,3", "--out", out])
    assert code == EXIT_CONVERGENCE
    captured = capsys.readouterr()
    assert "2 failure(s)" in captured.out
    assert "ConvergenceError" in captured.err
    table = read_csv(out, "sweep")
    assert [row[table[0].index("status")] for row in table[1:]] == ["error", "error"]


def test_sweep_runs_in_this_process(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = str(tmp_path / "run")
    assert main(["sweep", "--param", "delta", "--values", "0.95,0.9,0.99", "--horizon", "20", "--out", out]) == EXIT_OK
    data = read_json(out, "sweep")
    cols = data["columns"]
    assert [r[cols.index("value")] for r in data["rows"]] == [0.95, 0.9, 0.99]
    assert all(r[cols.index("status")] == "ok" for r in data["rows"])


# run in a fresh interpreter, since this test session imported numpy long ago
NO_NUMPY_SCRIPT = textwrap.dedent(
    """
    import sys
    from innosearch import cli

    assert "numpy" not in sys.modules, "import innosearch.cli"
    out = sys.argv[1]
    for i, argv in enumerate([
        ["solve", "--format", "csv,json,svg"],
        ["solve", "--cost-family", "logarithmic", "--c0", "0.1", "--format", "csv,json,svg"],
        ["sweep", "--param", "delta", "--values", "0.5,0.9,0.99", "--format", "csv,json,svg"],
        ["sweep", "--param", "v", "--start", "1", "--stop", "2", "--count", "7"],
    ]):
        assert cli.main(argv + ["--out", f"{out}/{i}"]) == 0, argv
        assert "numpy" not in sys.modules, argv
    # the commands that need numpy load it, in the same process
    assert cli.main(["oracle", "--slots", "4", "--horizon", "2", "--out", out + "/oracle"]) == 0
    assert cli.main(["simulate", "--runs", "1000", "--horizon", "20", "--out", out + "/simulate"]) == 0
    assert "numpy" in sys.modules
    """
)


def test_solve_and_sweep_never_import_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(innosearch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "simulate" / "simulation.csv")


# run in a fresh interpreter, since this test session imported the grid solver long ago
NO_SOLVER_SCRIPT = textwrap.dedent(
    """
    import json, sys
    from innosearch import cli
    from innosearch.config import load_run_config

    assert load_run_config(None, {"grid_size": "8"}).grid_size == 8
    assert "innosearch.solver" not in sys.modules
    out = sys.argv[1]
    for i, argv in enumerate([
        ["oracle", "--slots", "4", "--horizon", "2"],
        ["oracle", "--slots", "6", "--horizon", "3", "--cost-family", "logarithmic", "--c0", "0.1"],
        ["oracle", "--slots", "1", "--horizon", "1"],
        ["solve", "--horizon", "20"],
        ["simulate", "--runs", "1000", "--horizon", "20"],
        ["sweep", "--param", "v", "--values", "1,2", "--horizon", "20"],
    ]):
        assert cli.main(argv + ["--out", f"{out}/{i}"]) == 0, argv
        assert "innosearch.solver" not in sys.modules, argv
        if argv[0] == "oracle":
            with open(f"{out}/{i}/oracle.json", encoding="utf-8") as fh:
                assert json.load(fh)["comparison"]["value_gap"] >= 0.0, argv
    """
)


def test_no_command_imports_the_grid_solver(tmp_path):
    src = os.path.dirname(os.path.dirname(innosearch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", NO_SOLVER_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "0" / "oracle.json")


# run in a fresh interpreter, since this test session built the parser long ago
NO_PARSER_SCRIPT = textwrap.dedent(
    """
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__
    argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw)
    from innosearch import cli

    assert built == [], built
    """
)


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(innosearch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", NO_PARSER_SCRIPT], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    out = str(tmp_path / "run")
    assert main(["solve", "--horizon", "5", "--out", out]) == EXIT_OK
    first = len(built)
    assert first == 6  # the settings parent, the top parser and one per command
    assert main(["sweep", "--param", "v", "--values", "1,2", "--horizon", "5", "--out", out]) == EXIT_OK
    assert main(["solve", "--horizon", "0", "--out", out]) == EXIT_CONFIG
    with pytest.raises(SystemExit):
        main(["solve", "--no-such-flag"])
    assert len(built) == first and build_parser() is build_parser()


def test_a_shared_parser_writes_what_a_fresh_process_writes(tmp_path, capsys):
    # commands and failures before it leave nothing behind in the shared parser
    ran = str(tmp_path / "ran")
    assert main(["sweep", "--param", "delta", "--values", "0.5,0.9", "--out", str(tmp_path / "sweep")]) == EXIT_OK
    for argv, code in ((["solve", "--no-such-flag"], EXIT_CONFIG), (["solve", "--help"], EXIT_OK)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
    assert main(["solve", "--p", "2", "--out", ran]) == EXIT_CONFIG
    assert main(["solve", "--format", "csv,json,svg", "--out", ran]) == EXIT_OK
    here = capsys.readouterr().out.splitlines()[-1]

    fresh = str(tmp_path / "fresh")
    src = os.path.dirname(os.path.dirname(innosearch.__file__))
    proc = subprocess.run([sys.executable, "-m", "innosearch.cli", "solve", "--format", "csv,json,svg", "--out", fresh],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [here]
    names = sorted(os.listdir(fresh))
    assert len(names) == 7 and sorted(os.listdir(ran)) == names
    for name in names:
        assert read_bytes(os.path.join(ran, name)) == read_bytes(os.path.join(fresh, name)), name


@pytest.mark.parametrize("first, second", [
    (["solve", "--horizon", "500", "--format", "csv,json,svg"], ["solve", "--format", "csv,json,svg"]),
    (["sweep", "--param", "v", "--values", "1,2,4"], ["sweep", "--param", "v", "--values", "1,2"]),
])
def test_a_rerun_writes_what_a_fresh_out_gets(tmp_path, first, second):
    # files are rewritten in place: the second run's shorter files keep no byte of the first's
    rerun, fresh = str(tmp_path / "rerun"), str(tmp_path / "fresh")
    assert main(first + ["--out", rerun]) == EXIT_OK
    longer = {name: os.path.getsize(os.path.join(rerun, name)) for name in os.listdir(rerun)}
    assert main(second + ["--out", rerun]) == EXIT_OK
    assert main(second + ["--out", fresh]) == EXIT_OK
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(rerun)) == names and names == sorted(longer)
    assert any(os.path.getsize(os.path.join(fresh, name)) < longer[name] for name in names)
    for name in names:
        assert read_bytes(os.path.join(rerun, name)) == read_bytes(os.path.join(fresh, name)), name


@pytest.mark.parametrize("command, name", [("simulate", "simulate_batch"), ("oracle", "best_assignment_report")])
def test_handler_calls_the_function_set_on_cli(tmp_path, monkeypatch, command, name):
    # set on the module before the handler binds its lazily loaded names: the handler keeps it
    real = getattr(importlib.import_module(f"innosearch.{command}"), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.delitem(vars(cli), name, raising=False)
    monkeypatch.setitem(vars(cli), name, spy)
    argv = [command, "--horizon", "2", "--slots", "4", "--runs", "100", "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_OK
    assert calls == [name]


@pytest.mark.parametrize("horizon", ["1e18", "1e19"])
def test_huge_horizon_fails_at_once(tmp_path, capsys, time_limit, horizon):
    # 1e18 periods is a 7 EiB path that no machine can map, so its allocation fails at once;
    # 1e19 is more than a list can index
    time_limit(10)
    out = str(tmp_path / "run")
    assert main(["solve", "--horizon", horizon, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: a path of {int(float(horizon))} periods does not fit in memory\n"
    assert main(["sweep", "--param", "v", "--values", "2", "--horizon", horizon, "--out", out]) == EXIT_CONFIG
    assert read_csv(out, "sweep")[1][-1].startswith("MemoryError: a path of")


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_seed_flag_is_exact(tmp_path, seed):
    out = str(tmp_path / "run")
    argv = ["simulate", "--seed", str(seed), "--runs", "1000", "--horizon", "10", "--grid-size", "64"]
    assert main(argv + ["--out", out]) == EXIT_OK
    assert read_json(out, "summary")["seed"] == seed


def test_infinite_integer_setting_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_size = inf\n", encoding="utf-8")
    out = str(tmp_path / "run")
    assert main(["solve", "--config", str(cfg), "--out", out]) == EXIT_CONFIG
    assert "cannot parse grid_size = 'inf'" in capsys.readouterr().err
    assert main(["simulate", "--runs", "inf", "--out", out]) == EXIT_CONFIG
    assert "cannot parse runs = 'inf'" in capsys.readouterr().err


def test_simulate_run_count_is_set_by_the_multinomial(tmp_path, capsys):
    # the batch draws counts, not runs, so 1e10 runs cost what 1e5 do
    out = str(tmp_path / "run")
    argv = ["simulate", "--runs", "1e10", "--grid-size", "128", "--horizon", "20"]
    assert main(argv + ["--out", out]) == EXIT_OK
    assert read_json(out, "summary")["runs"] == 10**10
    capsys.readouterr()
    # beyond int64 the configuration is rejected before anything is solved
    assert main(["simulate", "--runs", "1e19", "--out", out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2**63 - 1 = 9223372036854775807" in captured.err


@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_solve_when_search_barely_pays(tmp_path, family):
    out = str(tmp_path / "run")
    argv = ["solve", "--p", "0.5", "--v", "2.000000000000001", "--c0", "1", "--cost-family", family]
    assert main(argv + ["--out", out]) == EXIT_OK
    summary = read_json(out, "summary")
    assert 0.0 < summary["j_star"] <= 1e-12
    assert summary["j_star"] == summary["limit_frontier"]
    assert 0.0 <= summary["value_at_zero"] < 1e-20
    # c(q) = p v in closed form, x = (p v - c0) / k = 4.4e-16
    x = 0.5 * 2.000000000000001 - 1.0
    q_star = x / (1.0 + x) if family == "reciprocal" else -math.expm1(-x)
    assert abs(summary["q_star"] - q_star) <= 2.0 * math.ulp(q_star)


@pytest.mark.parametrize("family, v", [("reciprocal", "1e11"), ("logarithmic", "10")])
def test_solve_path_reaching_the_cap(tmp_path, family, v):
    # the frontier runs to the solver's edge j* and stays there; the value table ends at it
    out = str(tmp_path / "run")
    argv = ["solve", "--p", "0.99", "--v", v, "--cost-family", family, "--grid-size", "256", "--horizon", "20"]
    assert main(argv + ["--out", out]) == EXIT_OK
    j_star = read_json(out, "summary")["j_star"]
    table = read_csv(out, "frontier")
    frontier, increment = table[0].index("frontier"), table[0].index("increment")
    at_cap = [row for row in table[1:] if float(row[frontier]) == j_star]
    assert len(at_cap) >= 2  # the later rows start from the cap itself
    assert all(float(row[increment]) == 0.0 for row in at_cap[1:])
    states = [row[0] for row in read_json(out, "value")["rows"]]
    assert states[-1] <= j_star


@pytest.mark.parametrize("delta", ["0.5", "0.9"])
def test_solve_near_tangent_instance(tmp_path, delta):
    # c(j)(1 - 0.9 j) = -log(1 - j)(1 - 0.9 j) peaks at 0.4512265 near j = 0.776, and p v = 0.451215
    # sits just below it: g crosses zero at 0.7726, falls back below zero and crosses again at 0.9746
    out = str(tmp_path / "run")
    argv = ["solve", "--p", "0.9", "--v", "0.50135", "--c0", "0", "--k", "1", "--cost-family", "logarithmic"]
    assert main(argv + ["--delta", delta, "--horizon", "20", "--out", out]) == EXIT_OK
    summary = read_json(out, "summary")
    assert summary["limit_frontier"] < 0.78 < summary["j_star"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "scale", "--values", "1e296"],
        ["sweep", "--param", "scale", "--values", "2e296"],
        ["sweep", "--param", "scale", "--values", "1e298"],
        ["solve", "--delta", "1e-300"],
        ["solve", "--p", "1e-160", "--v", "1e160"],
        ["solve", "--p", "1e-300", "--v", "1e300"],
        ["solve", "--p", "1e-320", "--v", "1e300"],
        ["solve", "--delta", "1e-310"],
        ["solve", "--delta", "5e-324"],
    ],
    ids=[
        "scale-1e296", "scale-2e296", "scale-1e298", "delta-1e-300", "p-1e-160", "p-1e-300", "p-1e-320",
        "delta-1e-310", "delta-5e-324",
    ],
)
def test_extreme_instances_solve_or_fail_precisely(tmp_path, time_limit, argv):
    # each solves or fails with a listed code, never with a traceback or a hang
    out = str(tmp_path / "run")
    time_limit(60)
    code = main(argv + ["--horizon", "20", "--out", out])
    assert code in (EXIT_OK, EXIT_CONVERGENCE, EXIT_OUT_OF_RANGE)
    if code != EXIT_OK:
        return
    if argv[0] == "sweep":
        data = read_json(out, "sweep")
        (row,) = [dict(zip(data["columns"], r)) for r in data["rows"]]
        # W scales with v, c0 and k; 0.32937698524932696 is W(0) at scale 1
        assert row["value_at_zero"] / row["value"] == pytest.approx(0.32937698524932696, abs=1e-12)
    else:
        # p v = 1 = c(1/2) with next to no continuation: the one-shot value 1 - log 2
        assert read_json(out, "summary")["value_at_zero"] == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


# command: (argv, JSON documents, tables, charts)
FORMAT_RUNS = {
    "solve": (["--horizon", "10", "--grid-size", "64"], {"summary"}, {"value", "frontier"}, {"frontier", "value"}),
    "simulate": (["--runs", "1000", "--horizon", "10", "--grid-size", "64"], {"summary"}, {"simulation"}, {"active"}),
    "oracle": (["--slots", "4", "--grid-size", "64"], {"oracle"}, {"assignment"}, set()),
    "sweep": (["--param", "v", "--values", "1,2", "--horizon", "10", "--grid-size", "64"], set(), {"sweep"}, {"sweep"}),
}


@pytest.mark.parametrize("command", sorted(FORMAT_RUNS))
def test_format_selects_tables_and_charts(tmp_path, command):
    argv, docs, tables, charts = FORMAT_RUNS[command]
    argv = [command] + argv
    documents = {d + ".json" for d in docs}
    out = str(tmp_path / "svg")
    assert main(argv + ["--format", "svg", "--out", out]) == EXIT_OK
    assert set(os.listdir(out)) == documents | {c + ".svg" for c in charts}
    out = str(tmp_path / "csv")
    assert main(argv + ["--format", "csv", "--out", out]) == EXIT_OK
    assert set(os.listdir(out)) == documents | {t + ext for t in tables for ext in (".csv", ".json")}


def test_oracle_single_slot(tmp_path):
    # one slot leaves the high half of the split enumeration empty
    out = str(tmp_path / "run")
    argv = ["oracle", "--slots", "1", "--horizon", "1", "--grid-size", "64", "--out", out]
    assert main(argv) == EXIT_OK
    assert len(read_json(out, "oracle")["schedule"]) == 1


@pytest.mark.parametrize("family", ["reciprocal", "logarithmic"])
def test_oracle_at_the_largest_scale(tmp_path, family):
    # slot costs near 1e295, and the reciprocal family's last slot costs +inf: the
    # enumeration must neither overflow nor form inf * 0, which warn (errors here)
    out = str(tmp_path / "run")
    argv = ["oracle", "--k", "1e295", "--v", "1e296", "--cost-family", family,
            "--slots", "8", "--horizon", "3", "--out", out]
    assert main(argv) == EXIT_OK
    payload = read_json(out, "oracle")
    assert payload["evaluations"] == 4**8
    assert payload["tie_count"] == 1
    assert 1e295 < payload["value"] < 1e296
    assert all(payload["structure"].values())


@pytest.mark.parametrize("slots, horizon, count", [
    ("7200", "3", "4**7200"),  # more digits than an int may print
    ("5000000", "1", "2**5000000"),  # slot costs that take 290 MB to build
    ("1e11", "1", "2**100000000000"),  # more slot costs than memory holds
])
def test_oracle_budget_is_checked_before_the_slots_are_built(tmp_path, capsys, slots, horizon, count):
    start = time.perf_counter()
    code = main(["oracle", "--slots", slots, "--horizon", horizon, "--out", str(tmp_path / "run")])
    elapsed = time.perf_counter() - start
    assert code == EXIT_BUDGET
    assert elapsed < 1.0
    assert capsys.readouterr().err.startswith(f"budget exceeded: enumeration needs {count} assignment")
    assert not os.path.exists(tmp_path / "run")


def test_integer_flag_takes_float_spelling(tmp_path):
    out = str(tmp_path / "run")
    argv = ["oracle", "--slots", "1e1", "--horizon", "1", "--grid-size", "64", "--out", out]
    assert main(argv) == EXIT_OK
    payload = read_json(out, "oracle")
    assert payload["slots"] == 10
    assert len(payload["schedule"]) == 10


def test_sweep_total_domain_failure_is_out_of_range(tmp_path, capsys):
    # every point is a valid instance beyond the solver's range: exit 5, as solve on one of them
    out = str(tmp_path / "run")
    argv = ["sweep", "--param", "v", "--values", "50,60", "--p", "0.95", "--cost-family", "logarithmic"]
    assert main(argv + ["--out", out]) == EXIT_OUT_OF_RANGE
    captured = capsys.readouterr()
    assert "2 failure(s)" in captured.out
    assert captured.err.count("OutOfRangeError: ") == 2
    assert main(["solve", "--v", "50", "--p", "0.95", "--cost-family", "logarithmic", "--out", out]) == EXIT_OUT_OF_RANGE
    # one point in range: the sweep succeeds and reports the other as an error row
    assert main(["sweep", "--param", "v", "--values", "2,50", "--p", "0.95", "--cost-family", "logarithmic",
                 "--grid-size", "64", "--horizon", "5", "--out", out]) == EXIT_OK


@pytest.mark.parametrize("key", ["inner_tol", "tol", "max_iters"])
def test_inner_tol_is_not_a_setting(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1e-8\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert f"unknown key '{key}'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["solve", "--" + key.replace("_", "-"), "1e-8", "--out", str(tmp_path / "run")])
    assert err.value.code == EXIT_CONFIG


def test_sweep_honours_horizon(tmp_path):
    out_sweep = str(tmp_path / "sweep")
    out_solve = str(tmp_path / "solve")
    common = ["--horizon", "3", "--grid-size", "256"]
    assert main(["sweep", "--param", "v", "--values", "2", "--out", out_sweep] + common) == EXIT_OK
    assert main(["solve", "--out", out_solve] + common) == EXIT_OK
    data = read_json(out_sweep, "sweep")
    frontier = read_json(out_solve, "frontier")
    assert len(frontier["rows"]) == 3
    last = frontier["rows"][-1][frontier["columns"].index("frontier")]
    assert data["rows"][0][data["columns"].index("l_inf")] == last


@pytest.mark.parametrize("command", ["solve", "simulate", "oracle", "sweep"])
def test_override_flags_are_run_config_fields(command):
    sweep_only = ["--param", "v"] if command == "sweep" else []
    ns = build_parser().parse_args([command] + sweep_only)
    flags = set(vars(ns)) - {"command", "config", "param", "values", "start", "stop", "count"}
    assert flags == {f.name for f in dataclasses.fields(RunConfig)}
    assert all(getattr(ns, name) is None for name in flags)


def test_simulate_no_search_region(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--out", out, "--p", "0.4", "--v", "0.1", "--c0", "0.2"]) == EXIT_OK
    assert "no search optimal" in capsys.readouterr().out
    summary = read_json(out, "summary")
    assert summary["searched"] is False
    assert summary["value_at_zero"] == 0.0


def test_simulate_svg_output(tmp_path):
    out = str(tmp_path / "run")
    argv = ["simulate", "--format", "csv,json,svg", "--runs", "1000", "--horizon", "20", "--grid-size", "64"]
    assert main(argv + ["--out", out]) == EXIT_OK
    with open(os.path.join(out, "active.svg"), encoding="utf-8") as fh:
        xml.dom.minidom.parseString(fh.read())


def test_solve_reports_convergence_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(foc, "MAX_STEPS", 2)
    assert main(["solve", "--out", str(tmp_path / "run")]) == EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("solver failed: ")


def test_sweep_no_search_point(tmp_path, capsys):
    out = str(tmp_path / "run")
    argv = ["sweep", "--param", "v", "--values", "0.1", "--p", "0.4", "--c0", "0.2"]
    assert main(argv + ["--out", out]) == EXIT_OK
    assert "0 failure(s)" in capsys.readouterr().out
    data = read_json(out, "sweep")
    row = dict(zip(data["columns"], data["rows"][0]))
    assert row["status"] == "no-search"
    assert row["value_at_zero"] == 0.0
    assert row["first_boundary"] is None and row["error"] is None


def test_unlisted_exception_propagates(tmp_path, capsys, monkeypatch):
    # the failure table lists no RuntimeError: main lets it through, a sweep point reports it as 2
    def broken(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(cli, "optimal_path", broken)
    out = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="broken solver"):
        main(["solve", "--out", out])
    assert main(["sweep", "--param", "v", "--values", "2,3", "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("RuntimeError: broken solver") == 2


@pytest.mark.parametrize("command", ["solve", "simulate", "oracle", "sweep"])
def test_help_shows_every_setting(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no help text is wrapped
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    for f in dataclasses.fields(RunConfig):
        assert f.metadata["help"]
        assert f"--{f.name.replace('_', '-')} {f.name.upper()} {f.metadata['help']}" in text
