"""innosearch benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload {solve,sweep,verify} --seed N --seconds S --trace {0,1}
    python3 perfbench/smoke.py      # reduced-size self-test of every workload

Run from the repository root; needs only the standard library and numpy.
Each workload (perfbench/workloads.py) is a fixed list of CLI commands,
driven in-process through innosearch.cli.main by one client in a closed
loop, on instances from the pinned pool in perfbench/pool.json:

- solve: `innosearch solve` at grid 2048, horizon 200, csv+json+svg
  output, six instances. Path extraction and Euler diagnostics dominate.
- sweep: `innosearch sweep --param delta --grid-size 8192` over two high
  discount factors, once per cost family, on a pool of nproc workers.
  Bellman sweeps dominate.
- verify: `innosearch oracle --slots 12 --horizon 3 --budget 2e7` and
  `innosearch simulate --runs 4e6 --horizon 200` on three instances. The
  only workload that enumerates, simulates and runs backward induction.

With --trace 0 it prints the end-to-end metrics:

- setup_s: a fresh interpreter until `import innosearch.cli` returns,
  median of SETUP_REPEATS;
- wall_s: wall time of the command list, the sum over its commands of
  each one's median over the timed passes;
- peak_rss_mb: peak resident memory of the workload's process, plus the
  largest sweep-pool child's peak once per pool worker;
- w0_err_max, l1_err_max: the largest |W(0) - reference| and
  |l_1 - reference| over the workload's instances, read from the
  commands' output files.

With --trace 1 it prints per-layer metrics from spans installed around the
package's public functions (perfbench/spans.py), and the tracing overhead.
Each workload runs in a process of its own so that its peak memory is its
own; INNOSEARCH_WORKERS and the BLAS thread pools are capped at the number
of usable CPUs.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. An operation is a command, or one point of a sweep; it fails
on a nonzero exit, an error sweep row or a failed output check. The line
before the result is {"info": ...}: the machine, Python and numpy
versions, per-command times, failed_frac, the exit code of the known
failure and any failed checks. Exit code 0 on a completed run, also when
checks failed; otherwise nonzero, with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(nproc):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["INNOSEARCH_WORKERS"] = str(nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def setup_seconds(env):
    """Times from a fresh interpreter to `import innosearch.cli` returning."""
    argv = [sys.executable, "-c", "import innosearch.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # compiles bytecode once
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def machine(nproc):
    info = {"nproc": nproc, "cpu_model": None, "l2_bytes": None, "l3_bytes": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in ("2", "3"):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            info[f"l{level}_bytes"] = int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description="innosearch benchmark")
    ap.add_argument("--workload", required=True, choices=("solve", "sweep", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced problem sizes, for perfbench/smoke.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "innosearch", "cli.py")):
        fail(f"no innosearch sources under {os.path.join(ROOT, 'src')}")
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)

    work = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if not args.trace:
            try:
                setup = setup_seconds(env)
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"cannot import innosearch.cli: {e}")
        result_file = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work, "--result", result_file] + (["--smoke"] if args.smoke else [])
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"workload {args.workload} did not finish within {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail(f"workload process exited with {proc.returncode}")
        with open(result_file, encoding="utf-8") as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    info = {"workload": args.workload, "seed": args.seed, "machine": machine(nproc),
            "python": res["python"], "numpy": res["numpy"], "commands": res["commands"],
            "known_failures": res["known_failures"],
            "failed_frac": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
            "problems": res["problems"]}
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in res["layers"].items()}
        info["trace"] = res["trace"]
        info["spans_file"] = os.path.relpath(res["spans_file"], ROOT)
    else:
        info["command_wall_s"] = res["passes"]
        info["setup_s_runs"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "w0_err_max": {"value": res["w0_err_max"], "unit": "value"},
            "l1_err_max": {"value": res["l1_err_max"], "unit": "frontier"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["failed"] == 0 and not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
