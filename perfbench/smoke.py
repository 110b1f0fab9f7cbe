"""Self-test of the benchmark at reduced problem sizes.

    python3 perfbench/smoke.py

Runs every workload with --smoke, untraced and traced, and checks that each
run exits 0, reports correct outputs, and carries every metric that
BENCHMARK.json names, finite and with its unit. Then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and perfbench/. Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, w["name"], trace)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{tag}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            got = res["metrics"]
            if set(got) != {m["name"] for m in declared}:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in declared})}")
            for m in declared:
                v = got.get(m["name"], {})
                if not (isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])):
                    failures.append(f"{tag}: {m['name']} = {v.get('value')!r}")
                if v.get("unit") != m["unit"]:
                    failures.append(f"{tag}: {m['name']} unit {v.get('unit')!r}, declared {m['unit']!r}")
            print(f"{tag}: ok" if not failures else f"{tag}: {failures[-1]}", flush=True)

    bare = os.path.join(ROOT, ".perfbench_tmp", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "solve", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("bare directory: refused", flush=True)
    finally:
        shutil.rmtree(os.path.dirname(bare), ignore_errors=True)

    for f in failures:
        print("FAIL", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
