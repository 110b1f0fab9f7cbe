"""Spans around the package's public functions, installed from outside the package.

A span is (name, start, end, parent index). Tracer.install replaces the
functions where the CLI and solver look them up, so nothing under src/
changes; Tracer.uninstall puts the originals back. Spans stay in memory until
the run ends. Counts are kept at the same boundaries:

- ValueSolution.policy_at: calls, and calls at a state already maximized on
  the same solution within the same command (repeats);
- solver.cost_integral: calls and elements;
- value_iteration sweeps, backward_induction stages, simulate_batch
  run-periods, oracle assignments;
- output files and bytes written.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import innosearch.cli as cli
import innosearch.solver as solver

# (namespace, attribute, span name): where each wrapper is installed. The CLI
# imported these names into its own namespace, so they are wrapped there.
_TARGETS = [
    (cli, "value_iteration", "solver.value_iteration"),
    (cli, "frontier_sequence", "solver.frontier_sequence"),
    (cli, "euler_residual", "solver.euler_residual"),
    (cli, "backward_induction", "solver.backward_induction"),
    (solver, "cost_integral", "model.cost_integral"),
    (cli, "simulate_batch", "simulate.simulate_batch"),
    (cli, "best_assignment_report", "oracle.best_assignment"),
    (cli, "compare_with_continuous", "oracle.compare"),
    (cli, "write_table", "output.write_table"),
    (cli, "write_json", "output.write_json"),
    (cli, "write_svg", "output.write_svg"),
]

_OUTPUT_SUFFIXES = {
    "output.write_table": (".csv", ".json"),
    "output.write_json": (".json",),
    "output.write_svg": (".svg",),
}


def _arg(args, kwargs, i, name):
    """Argument i of a call, whether passed by position or by name."""
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Spans and counts of one traced pass; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = defaultdict(int)
        self.per_command = []  # [policy_at calls, repeats] of each traced command
        self._stack = []
        self._seen_states = set()
        self._saved = []

    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def command(self, argv, run):
        """Run one CLI command under a root span; policy_at repeats are counted per command."""
        self._seen_states.clear()
        self.per_command.append([0, 0])
        idx = self.begin("cli.main")
        try:
            return run(argv)
        finally:
            self.end(idx)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self._count(name, args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, args, kwargs, out):
        c = self.counts
        if name == "model.cost_integral":
            c["cost_integral_elems"] += np.broadcast(_arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")).size
        elif name == "solver.value_iteration":
            c["sweeps"] += out.iterations
        elif name == "solver.backward_induction":
            c["stages"] += _arg(args, kwargs, 1, "truncation")
        elif name == "simulate.simulate_batch":
            config = _arg(args, kwargs, 0, "config")
            c["run_periods"] += config.runs * config.horizon_cap
        elif name == "oracle.best_assignment":
            c["assignments"] += out.evaluations
        elif name in _OUTPUT_SUFFIXES:
            out_dir, base = _arg(args, kwargs, 0, "out_dir"), _arg(args, kwargs, 1, "name")
            for suffix in _OUTPUT_SUFFIXES[name]:
                c["output_files"] += 1
                c["output_bytes"] += os.path.getsize(os.path.join(out_dir, base + suffix))

    def install(self):
        for ns, attr, name in _TARGETS:
            orig = getattr(ns, attr)
            self._saved.append((ns, attr, orig))
            setattr(ns, attr, self._wrap(name, orig))
        orig_policy_at = solver.ValueSolution.policy_at
        self._saved.append((solver.ValueSolution, "policy_at", orig_policy_at))
        tracer = self

        def policy_at(sol, l):
            key = (id(sol), float(l))
            mine = tracer.per_command[-1]
            mine[0] += 1
            if key in tracer._seen_states:
                tracer.counts["policy_at_repeats"] += 1
                mine[1] += 1
            tracer._seen_states.add(key)
            idx = tracer.begin("solver.policy_at")
            try:
                return orig_policy_at(sol, l)
            finally:
                tracer.end(idx)

        solver.ValueSolution.policy_at = policy_at

    def uninstall(self):
        while self._saved:
            ns, attr, orig = self._saved.pop()
            setattr(ns, attr, orig)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.per_command.clear()

    def dump(self, out_dir, tag):
        """Write the spans as JSON lists [name, start, end, parent]; returns the path."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        return path

    def totals(self):
        """Per span name: (calls, total seconds), and summed self time of cli.main spans."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            secs[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        cli_self = sum(
            (t1 - t0) - child[i] for i, (name, t0, t1, _) in enumerate(self.spans) if name == "cli.main"
        )
        return calls, secs, cli_self
