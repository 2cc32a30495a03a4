"""Outside-in layer tracing for the traced benchmark run.

The tracer wraps public entry points of each layer from this file: it
replaces a module or class attribute with a function that records a span
and calls the original.  Nothing in ``src/`` changes.  Spans stay in
memory as ``[id, parent, name, start, end, op]`` rows and are written once,
when the run ends.

* A span's parent is the innermost open span, so a layer's self time is
  its duration minus the durations of its direct children.
* Spans are recorded only inside a root span (``setup`` or ``work``);
  correctness checks run outside the roots and are not traced.
* ``op`` names the candidate, bar or correction a span belongs to: pruning
  opens a candidate, ``on_bar`` a bar, ``correct_bar`` a correction.  Later
  spans carry the most recent op.
* Forked pool workers inherit the wrappers; there they call straight
  through, so workers are seen from the parent only, as dispatch and wait.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

#: (target, span name).  A target is ``module:attribute`` or
#: ``module:Class.method``; one function can sit behind several names, and
#: each name a caller uses is wrapped.
ENTRY_POINTS = (
    ("repro.data:load_csv_directory", "data.load"),
    ("repro.data.loader:load_csv_directory", "data.load"),
    ("repro.data.loader:repair_series", "data.repair"),
    ("repro.data:build_taskset", "data.taskset"),
    ("repro.data.dataset:build_taskset", "data.taskset"),
    ("repro.data.backends:build_taskset", "data.taskset"),
    ("repro.core.mining:MiningSession.search", "core.evolution.search"),
    ("repro.core.mutation:Mutator.mutate", "core.mutation"),
    ("repro.core.cache:prune_program", "core.pruning"),
    ("repro.engine.fleet:prune_program", "core.pruning"),
    ("repro.core.cache:fingerprint", "core.cache.fingerprint"),
    ("repro.engine.fleet:fingerprint", "core.cache.fingerprint"),
    ("repro.engine:evaluate_program_batch", "engine.protocol.batch"),
    ("repro.engine:stack_partition", "engine.protocol.stack_partition"),
    ("repro.engine.backends:compile_program", "compile"),
    ("repro.engine.fleet:compile_program", "compile"),
    ("repro.engine.protocol:training_pass", "engine.protocol.train"),
    ("repro.engine.fleet:training_pass", "engine.protocol.train"),
    ("repro.engine.incremental:training_pass", "engine.protocol.train"),
    ("repro.engine.protocol:inference_pass", "engine.protocol.infer"),
    ("repro.core.interpreter:AlphaEvaluator.score", "core.interpreter.score"),
    ("repro.backtest.engine:BacktestEngine.portfolio_returns", "backtest"),
    ("repro.backtest.engine:BacktestEngine.evaluate", "backtest"),
    ("repro.core.correlation:CorrelationFilter.max_correlation", "core.correlation"),
    ("repro.parallel.pool:EvaluationPool.__init__", "parallel.pool.startup"),
    ("repro.parallel.pool:EvaluationPool.submit_detailed", "parallel.pool.dispatch"),
    ("repro.parallel.pool:PendingEvaluations.result", "parallel.pool.wait"),
    ("repro.parallel.pool:EvaluationPool.close", "parallel.pool.close"),
    ("repro.stream.server:AlphaServer.register", "stream.server.register"),
    ("repro.stream.server:AlphaServer.warm_start", "stream.server.warm_start"),
    ("repro.stream.server:AlphaServer.on_bar", "stream.server.on_bar"),
    ("repro.stream.server:AlphaServer.reveal", "stream.server.reveal"),
    ("repro.stream.server:AlphaServer.correct_bar", "stream.server.correct_bar"),
    ("repro.engine.fleet:FleetEngine.warm_start", "engine.fleet.warm_start"),
    ("repro.engine.fleet:FleetEngine.step_bar", "engine.fleet.step_bar"),
    ("repro.engine.fleet:FleetEngine.reveal", "engine.fleet.reveal"),
    ("repro.engine.fleet:FleetEngine.correct", "engine.fleet.correct"),
)

#: Per-layer self-time metrics, each the summed self time of its spans.
#: With ``trace.other_s`` (the roots' own time) they partition the traced
#: total; a span name missing here makes the balance check fail.
SELF_TIME = {
    "data.load_s": ("data.load",),
    "data.repair_s": ("data.repair",),
    "data.taskset_s": ("data.taskset",),
    "core.evolution.self_s": ("core.evolution.search",),
    "core.mutation.self_s": ("core.mutation",),
    "core.pruning.self_s": ("core.pruning",),
    "core.cache.fingerprint_self_s": ("core.cache.fingerprint",),
    "compile.self_s": ("compile",),
    "engine.protocol.batch_self_s": ("engine.protocol.batch",
                                     "engine.protocol.stack_partition"),
    "engine.protocol.train_self_s": ("engine.protocol.train",),
    "engine.protocol.infer_self_s": ("engine.protocol.infer",),
    "core.interpreter.score_self_s": ("core.interpreter.score",),
    "core.correlation.self_s": ("core.correlation",),
    "backtest.self_s": ("backtest",),
    "parallel.pool.startup_s": ("parallel.pool.startup",),
    "parallel.pool.dispatch_s": ("parallel.pool.dispatch",),
    "parallel.pool.wait_s": ("parallel.pool.wait",),
    "parallel.pool.close_s": ("parallel.pool.close",),
    "stream.server.self_s": ("stream.server.register", "stream.server.warm_start",
                             "stream.server.on_bar", "stream.server.reveal",
                             "stream.server.correct_bar"),
    "engine.fleet.self_s": ("engine.fleet.warm_start", "engine.fleet.step_bar",
                            "engine.fleet.reveal"),
    "engine.replay.self_s": ("engine.fleet.correct",),
}

#: Spans that open a new op id, and its prefix.
OPENS_OP = {
    "core.pruning": "candidate",
    "stream.server.on_bar": "bar",
    "stream.server.correct_bar": "correction",
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Span recorder plus the counters read off wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: str | None = None
        self._op_numbers: Counter = Counter()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for target, name in ENTRY_POINTS:
            owner, attribute = _resolve(target)
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, original, name: str):
        tracer = self
        opens = OPENS_OP.get(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if not tracer._stack or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            if opens is not None:
                tracer._op = f"{opens}:{tracer._op_numbers[opens]}"
                tracer._op_numbers[opens] += 1
            row = [len(tracer.spans), tracer._stack[-1], name,
                   time.perf_counter(), 0.0, tracer._op]
            tracer.spans.append(row)
            tracer._stack.append(row[0])
            try:
                result = original(*args, **kwargs)
            finally:
                row[4] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (``setup`` or ``work``); wrapped calls record inside it."""
        row = [len(self.spans), None, name, time.perf_counter(), 0.0, None]
        self.spans.append(row)
        self._stack.append(row[0])
        try:
            yield
        finally:
            self._stack.pop()
            row[4] = time.perf_counter()

    # ---- counters read off wrapped calls --------------------------------
    def _observe_core_pruning(self, args, result) -> None:
        self.counts["core.pruning.redundant"] += bool(result.is_redundant)

    def _observe_engine_protocol_stack_partition(self, args, result) -> None:
        self.counts["engine.protocol.stacked"] += sum(
            len(group) for group in result if len(group) >= 2)

    def _observe_parallel_pool_dispatch(self, args, result) -> None:
        self.counts["parallel.pool.programs"] += len(args[1])

    def _observe_core_correlation(self, args, result) -> None:
        self.counts["core.correlation.rejected"] += result > args[0].cutoff

    def _observe_engine_fleet_correct(self, args, result) -> None:
        for correction in result.values():
            self.counts[f"engine.replay.{correction.mode}"] += 1

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span as one JSON line (once, at the end of a run)."""
        with open(path, "w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_times(spans: list[list]):
    """Per-span durations and self times (duration minus direct children)."""
    duration = np.array([row[4] - row[3] for row in spans])
    children = np.zeros(len(spans))
    for row in spans:
        if row[1] is not None:
            children[row[1]] += duration[row[0]]
    return duration, duration - children


def layer_metrics(tracer: Tracer, result: dict, untraced_work_s: float,
                  traced_work_s: float) -> tuple[dict, dict]:
    """Every per-layer metric (zero where the layer is idle) plus a check.

    Returns ``(metrics, balance)``: ``metrics`` maps name → (value, unit);
    ``balance`` holds the traced total and the sum of the self-time metrics
    plus ``trace.other_s``, which must match.
    """
    spans = tracer.spans
    duration, self_time = span_times(spans)
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    calls = Counter()
    durations = defaultdict(list)
    for row, total, own in zip(spans, duration, self_time):
        self_by[row[2]] += own
        total_by[row[2]] += total
        calls[row[2]] += 1
        durations[row[2]].append(total)
    counts = {**tracer.counts, **result.get("counts", {})}
    roots = [index for index, row in enumerate(spans) if row[1] is None]
    traced_total = float(duration[roots].sum()) if roots else 0.0
    other = float(self_time[roots].sum()) if roots else 0.0

    # on_bar minus its fleet step, bar by bar.
    step_of = {row[1]: duration[row[0]] for row in spans
               if row[2] == "engine.fleet.step_bar"}
    bar_overhead = [duration[row[0]] - step_of.get(row[0], 0.0)
                    for row in spans if row[2] == "stream.server.on_bar"]
    fleet_correct_self = [self_time[row[0]] for row in spans
                          if row[2] == "engine.fleet.correct"]

    searched = counts.get("core.evolution.candidates", 0)
    evaluations = counts.get("engine.protocol.evaluations", 0)
    hits = counts.get("core.cache.hits", 0)
    redundant = counts.get("core.pruning.redundant", 0)
    registered = result.get("registered", 0)
    corrections = result.get("corrections", [])
    full_replay_days = sum(result.get("train_days", 0) + c["days_served"]
                           for c in corrections)
    replayed = sum(c["replayed_days"] for c in corrections)
    batches = calls["parallel.pool.dispatch"]
    ms = 1e3
    metrics = {name: (sum(self_by[span] for span in names), "s")
               for name, names in SELF_TIME.items()}
    metrics.update({
        "core.mutation.calls": (calls["core.mutation"], "count"),
        "core.pruning.calls": (calls["core.pruning"], "count"),
        "core.pruning.redundant": (redundant, "count"),
        "core.cache.fingerprint_calls": (calls["core.cache.fingerprint"], "count"),
        "core.cache.hits": (hits, "count"),
        "core.cache.skip_ratio": (_ratio(hits + redundant, searched), "1"),
        "compile.calls": (calls["compile"], "count"),
        "engine.protocol.evaluations": (evaluations, "count"),
        "engine.protocol.ms_per_evaluation": (_ratio(
            (total_by["engine.protocol.batch"] + total_by["parallel.pool.wait"]) * ms,
            evaluations), "ms"),
        "engine.protocol.stacked_ratio": (_ratio(
            counts.get("engine.protocol.stacked", 0), evaluations), "1"),
        "core.correlation.checks": (calls["core.correlation"], "count"),
        "core.correlation.rejected": (counts.get("core.correlation.rejected", 0), "count"),
        "core.evolution.candidates": (searched, "count"),
        "parallel.pool.batches": (batches, "count"),
        "parallel.pool.programs_per_batch": (_ratio(
            counts.get("parallel.pool.programs", 0), batches), "count"),
        "parallel.pool.worker_peak_rss_mb": (result.get("worker_peak_rss_mb", 0.0), "MB"),
        "stream.server.register_s": (total_by["stream.server.register"], "s"),
        "stream.server.dedup_ratio": (_ratio(
            registered - counts.get("engine.fleet.unique", 0), registered), "1"),
        "stream.server.bar_overhead_p50_ms": (_percentile(bar_overhead, 50) * ms, "ms"),
        "stream.server.history_mb": (result.get("history_mb", 0.0), "MB"),
        "stream.server.correct_p50_ms": (_percentile(
            durations["stream.server.correct_bar"], 50) * ms, "ms"),
        "stream.server.correct_p90_ms": (_percentile(
            durations["stream.server.correct_bar"], 90) * ms, "ms"),
        "engine.fleet.unique": (counts.get("engine.fleet.unique", 0), "count"),
        "engine.fleet.stack_groups": (counts.get("engine.fleet.stack_groups", 0), "count"),
        "engine.fleet.warm_start_s": (total_by["engine.fleet.warm_start"], "s"),
        "engine.fleet.step_p50_ms": (_percentile(
            durations["engine.fleet.step_bar"], 50) * ms, "ms"),
        "engine.fleet.step_p99_ms": (_percentile(
            durations["engine.fleet.step_bar"], 99) * ms, "ms"),
        "engine.fleet.reveal_p50_ms": (_percentile(
            durations["engine.fleet.reveal"], 50) * ms, "ms"),
        "engine.replay.corrections": (calls["engine.fleet.correct"], "count"),
        "engine.replay.replayed_days": (counts.get("engine.replay.replayed_days", 0), "count"),
        "engine.replay.snapshot_restarts": (counts.get("engine.replay.snapshot", 0), "count"),
        "engine.replay.spinups": (counts.get("engine.replay.spinup", 0), "count"),
        "engine.replay.saved_ratio": (1.0 - _ratio(replayed, full_replay_days)
                                      if full_replay_days else 0.0, "1"),
        "engine.replay.correct_self_ms": (_percentile(fleet_correct_self, 50) * ms, "ms"),
        "trace.total_s": (traced_total, "s"),
        "trace.other_s": (other, "s"),
        "trace.overhead_ratio": (_ratio(traced_work_s, untraced_work_s), "1"),
    })
    balance = {
        "total_s": traced_total,
        "other_s": other,
        "accounted_s": other + sum(metrics[name][0] for name in SELF_TIME),
    }
    return {name: (float(value), unit) for name, (value, unit) in metrics.items()}, balance
