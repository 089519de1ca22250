"""Spans for traced benchmark passes, and the per-layer metrics made from them.

A traced pass wraps layer functions from outside the program.  Each wrapped
function is replaced, under every module-level name by which bargainlab code
looks it up (``payoff_matrices`` in ``game``, ``dynamics`` and ``ftrl``), by a
wrapper that records a span: name, start, end, parent span and run id.  Spans
are kept in memory and written when the pass ends.  A forked sweep worker
inherits the wrappers and the caller's open spans, starts an empty span list,
and writes its own file ``spans-<pid>.jsonl`` each time its top-level task
returns, so per-layer numbers cover the workers of a ``--jobs 2`` sweep.

Times are ``time.perf_counter_ns`` readings (CLOCK_MONOTONIC on Linux, shared
by forked processes).  Layer times are summed over processes, so on a
parallel sweep they are busy seconds, not wall seconds.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

LAYER_MODULES = ("game", "ftrl", "dynamics", "spe", "reports")

# Public helpers left unwrapped: each is called once per CSV value or several
# times per market target inside a wrapped caller, so their spans would
# number in the hundreds of thousands per pass and their cost already sits
# in the caller's span.
UNWRAPPED = frozenset({
    "reports.fmt",
    "spe.w_bounds",
    "spe.w1_lower_bound",
    "spe.w2_lower_bound",
    "spe.feasibility_violations",
})

CLI_FUNCTIONS = (
    "main", "cmd_run", "cmd_sweep", "cmd_spe_region", "cmd_regret",
    "cmd_verify_spe", "_run_sweep_cells", "_sweep_chunk",
)

# Private functions wrapped only so that the work handed to them is counted.
PROBES = ("dynamics._candidate_utilities", "spe._scan_offers")

OBSERVE_SPAN = "trace.observe"
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "attrs")

# Counts that must repeat exactly between two traced passes of one input.
EXACT_COUNTS = (
    "game.payoff_matrices.builds",
    "game.tables.bytes",
    "dynamics.batch_self_play.cell_steps",
    "dynamics.switches",
    "dynamics.converged_cells",
    "ftrl.step.calls",
    "dynamics.external_regret.candidates",
    "spe.one_shot_deviation_scan.offers",
    "spe.feasible_targets",
    "spe.deviations",
    "reports.write_csv.bytes",
)


class Recorder:
    """In-memory span store of one process of a traced pass."""

    def __init__(self, meta_dir: str, run_id: str):
        self.meta_dir = meta_dir
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.base_depth = 0
        self.root_pid = os.getpid()
        self._new_process()
        os.register_at_fork(after_in_child=self._after_fork)

    def _new_process(self) -> None:
        self.pid = os.getpid()
        # ids are unique across the pass's processes: pid in the high bits
        self.next_id = self.pid << 32

    def _after_fork(self) -> None:
        self.spans = []
        self.base_depth = len(self.stack)
        self._new_process()

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``observe(args, kwargs, result)`` returns attributes for the span.
        It runs after the span ends and is recorded as its own child span
        of the caller, so its cost is charged to no layer.
        """
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            attrs = None
            if observe is not None:
                attrs = observe(args, kwargs, result)
                self.next_id += 1
                self.spans.append(
                    (self.next_id, OBSERVE_SPAN, end, clock(), parent, None)
                )
            self.spans.append((sid, name, start, end, parent, attrs))
            if len(stack) == self.base_depth and self.pid != self.root_pid:
                self.write()
            return result

        return wrapper

    def write(self) -> None:
        """Append this process's recorded spans to its file, as one JSON line
        holding ``[id, name, start, end, parent, attrs]`` lists, and forget
        them."""
        path = os.path.join(self.meta_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"run": self.run_id, "pid": self.pid,
                                 "spans": self.spans}) + "\n")
        self.spans = []


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens
# ---------------------------------------------------------------------------

def _observe_payoff_matrices(game_module):
    original = game_module.payoff_matrices
    seen = {"misses": original.cache_info().misses}

    def observe(args, kwargs, result):
        misses = original.cache_info().misses
        builds = misses - seen["misses"]
        seen["misses"] = misses
        if not builds:
            return {"builds": 0, "bytes": 0}
        # computed from array sizes: U_P, U_R and the two outcome tables
        agree, offer_idx = game_module._outcome_tables(args[0])
        nbytes = sum(a.nbytes for a in (*result, agree, offer_idx))
        return {"builds": builds, "bytes": nbytes}

    return observe


def _observe_batch(args, kwargs, result):
    profiles = result.profiles
    switches = int((profiles[:, 1:, :] != profiles[:, :-1, :]).any(axis=2).sum())
    return {
        "cell_steps": int(profiles.shape[0] * profiles.shape[1]),
        "switches": switches,
        "converged": int((result.converged_at >= 0).sum()),
    }


def _observe_write_csv(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path) if path else 0}


def _observers(game_module) -> dict:
    """Qualified name -> observer, for the functions whose work is counted."""
    return {
        "game.payoff_matrices": _observe_payoff_matrices(game_module),
        "dynamics.batch_self_play": _observe_batch,
        "dynamics._candidate_utilities":
            lambda args, kwargs, result: {"candidates": int(args[2].shape[0])},
        "spe._scan_offers": lambda args, kwargs, result: {"offers": len(result)},
        "spe.one_shot_deviation_scan":
            lambda args, kwargs, result: {"deviations": len(result)},
        "reports.write_csv": _observe_write_csv,
    }


def _targets(modules: dict) -> dict:
    """Qualified name -> original function, for every function to wrap."""
    targets = {}
    for short in LAYER_MODULES:
        module = modules[short]
        for attr, value in vars(module).items():
            qualified = f"{short}.{attr}"
            if (attr.startswith("_") or qualified in UNWRAPPED
                    or isinstance(value, type) or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__):
                continue
            targets[qualified] = value
    for attr in CLI_FUNCTIONS:
        targets[f"cli.{attr}"] = getattr(modules["cli"], attr)
    for qualified in PROBES:
        short, attr = qualified.split(".")
        targets[qualified] = getattr(modules[short], attr)
    return targets


def install(recorder: Recorder) -> list:
    """Wrap every target function under each name bargainlab code uses.

    Returns the sorted list of ``module.attribute`` names replaced.
    """
    import importlib

    modules = {
        short: importlib.import_module(f"bargainlab.{short}")
        for short in (*LAYER_MODULES, "cli")
    }
    observers = _observers(modules["game"])
    installed = []
    for qualified, original in _targets(modules).items():
        wrapper = recorder.wrap(qualified, original, observers.get(qualified))
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    installed.append(f"{short}.{attr}")
    return sorted(installed)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

def read_spans(meta_dir: str) -> list:
    """Every span of a pass, as a dict with run, pid, id, name, start, end,
    parent and attrs."""
    spans = []
    for entry in sorted(os.listdir(meta_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(meta_dir, entry)) as fh:
                for line in fh:
                    batch = json.loads(line)
                    spans.extend(
                        dict(zip(SPAN_FIELDS, span), run=batch["run"],
                             pid=batch["pid"])
                        for span in batch["spans"]
                    )
    return spans


def layer_metrics(spans: list, root_pid: int) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    busy = defaultdict(int)
    calls = defaultdict(int)
    totals = defaultdict(int)
    child_time = defaultdict(int)
    by_id = {}
    for span in spans:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        calls[span["name"]] += 1
        by_id[span["id"]] = span
        if span["parent"] is not None and span["pid"] == span["parent"] >> 32:
            child_time[span["parent"]] += duration
        for key, value in (span["attrs"] or {}).items():
            totals[f"{span['name']}.{key}"] += value

    def seconds(name: str) -> float:
        return busy[name] / 1e9

    # cli.self_s: time inside the entry point and command functions that no
    # wrapped callee covers; the sweep pool is a callee, reported below
    self_ns = sum(
        span["end"] - span["start"] - child_time[span["id"]]
        for span in spans
        if span["pid"] == root_pid
        and (span["name"] == "cli.main" or span["name"].startswith("cli.cmd_"))
    )
    worker_busy = defaultdict(int)
    for span in spans:
        if span["name"] == "cli._sweep_chunk" and span["pid"] != root_pid:
            worker_busy[span["pid"]] += span["end"] - span["start"]
    pool_overhead_ns = 0
    if worker_busy:
        pool_overhead_ns = busy["cli._run_sweep_cells"] - max(worker_busy.values())

    cell_steps = totals["dynamics.batch_self_play.cell_steps"]
    batch_s = seconds("dynamics.batch_self_play")
    return {
        "game.payoff_matrices.s": seconds("game.payoff_matrices"),
        "game.payoff_matrices.builds": totals["game.payoff_matrices.builds"],
        "game.tables.bytes": totals["game.payoff_matrices.bytes"],
        "dynamics.batch_self_play.s": batch_s,
        "dynamics.batch_self_play.cell_steps": cell_steps,
        "dynamics.batch_self_play.cell_steps_per_s":
            cell_steps / batch_s if batch_s else 0.0,
        "dynamics.switches": totals["dynamics.batch_self_play.switches"],
        "dynamics.switch_ratio":
            totals["dynamics.batch_self_play.switches"] / cell_steps
            if cell_steps else 0.0,
        "dynamics.converged_cells": totals["dynamics.batch_self_play.converged"],
        "ftrl.step.s": seconds("ftrl.step"),
        "ftrl.step.calls": calls["ftrl.step"],
        "ftrl.project_to_simplex.s": seconds("ftrl.project_to_simplex"),
        "dynamics.external_regret.s": seconds("dynamics.external_regret"),
        "dynamics.external_regret.candidates":
            totals["dynamics._candidate_utilities.candidates"],
        "spe.theorem1_feasible.s": seconds("spe.theorem1_feasible"),
        "spe.construct_certificate.s": seconds("spe.construct_certificate"),
        "spe.prop2_check.s": seconds("spe.prop2_check"),
        "spe.one_shot_deviation_scan.s": seconds("spe.one_shot_deviation_scan"),
        "spe.one_shot_deviation_scan.offers": totals["spe._scan_offers.offers"],
        "spe.expected_match_payoffs.s": seconds("spe.expected_match_payoffs"),
        "spe.feasible_targets": calls["spe.construct_certificate"],
        "spe.deviations": totals["spe.one_shot_deviation_scan.deviations"],
        "reports.write_csv.s": seconds("reports.write_csv"),
        "reports.write_csv.bytes": totals["reports.write_csv.bytes"],
        "reports.heatmap_svg.s": seconds("reports.heatmap_svg"),
        "reports.write_json.s": seconds("reports.write_json"),
        "cli.self_s": self_ns / 1e9,
        "cli.sweep.worker_busy_s": sum(worker_busy.values()) / 1e9,
        "cli.sweep.pool_overhead_s": pool_overhead_ns / 1e9,
    }
