#!/usr/bin/env python3
"""Benchmark: pooled candidate evaluation against serial evaluation.

Scores one fixed list of candidate alphas (equal work on both sides) and
records candidates/second for each side:

* **serial** — :func:`repro.engine.evaluate_program_batch` in this process:
  the signature-grouped stacked fleet the serial scorer runs;
* **pool** — an :class:`repro.parallel.pool.EvaluationPool` at several
  worker counts, dispatched under the serial side's evaluator: each
  dispatch is cut into one contiguous chunk per worker, and every worker
  runs the same fleet on its chunk over zero-copy shared panels
  (``shm_bytes``).

The headline ``speedup_vs_serial`` is the best pool's throughput over the
serial side's, on the laptop-scale market the mining workloads use.  The
default work takes the serial side about a second on a 2-CPU host, so
dispatch overheads cannot hide in timer noise.  One timing still swings
by tens of percent on a shared host, so at every worker count serial and
pooled runs alternate for ``repeats`` rounds (drift hits both sides
alike), each path records the median, min and max of its timings, and
every ratio is taken between medians: a worker count's speedup against
the serial runs interleaved with it.  Pool start-up is primed outside the
timing.  ``cpu_count`` is recorded: with one CPU every worker count
time-slices the same core, so the pool cannot beat serial there.

The run also enforces the subsystem's correctness contracts:

* **parity gate** — the pool's fitness reports must be bitwise identical to
  the serial reports for every program and every worker count;
* **leak gate** — no ``repro-panel-*`` segment may remain in ``/dev/shm``
  after the pools close;
* **span gate** — each pool's shared segment holds at most the bytes the
  task set's features span (its panel rows, not its windows), the labels
  and the header;
* **count gates** — the parent compiles no program during a pooled
  evaluation (``parent_compile_calls``), and a dispatch makes at most one
  chunk per worker (``chunks_per_dispatch``, read off the
  ``pool.batches`` telemetry counter of one untimed dispatch).

Results are written to ``benchmarks/results/BENCH_parallel.json`` (the
source of truth, with a copy at the repository root — see
``benchmarks/README.md``).

Run with::

    python benchmarks/bench_parallel.py [--programs N] [--workers 1 2 4]
    python benchmarks/bench_parallel.py --smoke   # CI gate: fast, no JSON
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


from numpy.lib.array_utils import byte_bounds

import repro.compile.compiler
import repro.engine.backends
import repro.engine.fleet
from common import build_programs, reports_identical, spread, write_bench_json
from repro.compile import compile_program
from repro.core import AlphaEvaluator, Dimensions
from repro.engine import evaluate_program_batch, stack_partition
from repro.experiments.configs import LAPTOP, make_taskset
from repro.obs import TELEMETRY, telemetry_session
from repro.parallel import EvaluationPool, shared_segment_names


def timed(run) -> tuple[float, object]:
    """The wall-clock seconds of one call of ``run`` and its result."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


@contextlib.contextmanager
def counting_parent_compiles():
    """Count the ``compile_program`` calls this process makes in the block
    (every module that binds the name; forked workers count nothing)."""
    parent, calls, originals = os.getpid(), [], []
    for module in (repro.compile, repro.compile.compiler,
                   repro.engine.backends, repro.engine.fleet):
        original = module.compile_program
        originals.append((module, original))

        def counting(program, _original=original):
            if os.getpid() == parent:
                calls.append(program)
            return _original(program)

        module.compile_program = counting
    try:
        yield calls
    finally:
        for module, original in originals:
            module.compile_program = original


def run_benchmark(num_programs: int = 400,
                  worker_counts: tuple[int, ...] = (1, 2, 4),
                  repeats: int = 5) -> dict:
    """Time the fixed program list serially and at every worker count,
    alternating the two for ``repeats`` rounds per worker count."""
    leaked_before = shared_segment_names()
    taskset = make_taskset(LAPTOP, use_cache=False)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs)
    stack_groups = stack_partition([compile_program(p) for p in programs])

    evaluator = AlphaEvaluator(taskset, seed=0,
                               max_train_steps=LAPTOP.max_train_steps)

    def serial():
        return evaluate_program_batch(evaluator, programs)

    # One untimed serial pass: the parity reference, and a warm start for
    # the timed serial runs.
    serial_reports = [result.report for result in serial()]

    serial_seconds: list[float] = []
    workers_payload: dict[str, dict] = {}
    parent_compile_calls = 0
    chunks_per_dispatch: dict[str, int] = {}
    bitwise_identical = True
    within_span = True
    shm_bytes = shm_budget = 0
    low, high = byte_bounds(taskset.features)
    for num_workers in worker_counts:
        with EvaluationPool(taskset, num_workers=num_workers) as pool:
            shm_bytes = pool.shm_bytes
            # Span + labels + header (the labels start 64-byte aligned).
            shm_budget = (high - low + taskset.labels.nbytes
                          + pool.spec.panel.features_offset + 64)
            within_span &= shm_bytes <= shm_budget
            # Prime the pool so worker start-up cost is not billed to the
            # steady-state throughput measurement.
            pool.evaluate(programs[:num_workers], evaluator=evaluator)
            paired_serial: list[float] = []
            pooled: list[float] = []
            for _ in range(repeats):
                # The serial side compiles in this process, so it runs
                # outside the parent-compile count.
                paired_serial.append(timed(serial)[0])
                with counting_parent_compiles() as compiles:
                    seconds, reports = timed(
                        lambda: pool.evaluate(programs, evaluator=evaluator)
                    )
                pooled.append(seconds)
                parent_compile_calls += len(compiles)
                bitwise_identical &= all(
                    reports_identical(got, want)
                    for got, want in zip(reports, serial_reports)
                )
            # One untimed dispatch with telemetry on counts its chunks.
            with counting_parent_compiles() as compiles:
                with telemetry_session():
                    checked = pool.evaluate(programs, evaluator=evaluator)
                    chunks = TELEMETRY.counter("pool.batches").value
            parent_compile_calls += len(compiles)
            chunks_per_dispatch[str(num_workers)] = chunks
        bitwise_identical &= all(
            reports_identical(got, want)
            for got, want in zip(checked, serial_reports)
        )
        serial_seconds += paired_serial
        median = statistics.median(pooled)
        rate = len(programs) / median
        workers_payload[str(num_workers)] = {
            "seconds": round(median, 4),
            "candidates_per_second": round(rate, 3),
            "spread_seconds": spread(pooled),
            "interleaved_serial_spread_seconds": spread(paired_serial),
            "speedup_vs_serial": round(
                statistics.median(paired_serial) / median, 3
            ),
        }
        print(f"workers={num_workers}: median {median:.2f}s "
              f"({rate:.2f} candidates/s), serial median "
              f"{statistics.median(paired_serial):.2f}s")

    serial_median = statistics.median(serial_seconds)
    serial_rate = len(programs) / serial_median
    best = max(
        workers_payload,
        key=lambda count: workers_payload[count]["speedup_vs_serial"],
    )
    return {
        "benchmark": "pooled vs serial candidate evaluation",
        "scale": LAPTOP.name,
        "num_programs": len(programs),
        "repeats": repeats,
        "equal_candidate_budget": True,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "shared_panel_bytes": shm_bytes,
        "shared_panel_budget_bytes": shm_budget,
        "materialised_feature_bytes": taskset.features.size
        * taskset.features.itemsize,
        "stack_signature_groups": len(stack_groups),
        "serial_baseline": {
            "path": "evaluate_program_batch (stacked fleet, in process)",
            "seconds": round(serial_median, 4),
            "candidates_per_second": round(serial_rate, 3),
            "spread_seconds": spread(serial_seconds),
        },
        "workers": workers_payload,
        "parent_compile_calls": parent_compile_calls,
        "chunks_per_dispatch": chunks_per_dispatch,
        "speedup_vs_serial": workers_payload[best]["speedup_vs_serial"],
        "speedup_workers": int(best),
        "bitwise_identical_to_serial": bitwise_identical,
        "no_leaked_segments": shared_segment_names() == leaked_before,
        "shared_panel_within_span": within_span,
    }


def check_gates(payload: dict) -> int:
    """Exit status of the correctness gates shared by both modes."""
    status = 0
    if not payload["bitwise_identical_to_serial"]:
        print("ERROR: pool reports differ from serial evaluation", file=sys.stderr)
        status = 1
    if not payload["no_leaked_segments"]:
        print("ERROR: leaked repro-panel-* segments in /dev/shm", file=sys.stderr)
        status = 1
    if not payload["shared_panel_within_span"]:
        print("ERROR: the shared segment holds more than the span of the "
              "features, the labels and the header", file=sys.stderr)
        status = 1
    if payload["parent_compile_calls"]:
        print(f"ERROR: the parent compiled {payload['parent_compile_calls']} "
              "program(s) during pooled evaluations", file=sys.stderr)
        status = 1
    chunks = payload["chunks_per_dispatch"]
    if any(count > int(workers) for workers, count in chunks.items()):
        print(f"ERROR: a dispatch made more chunks than the pool has workers "
              f"({chunks})", file=sys.stderr)
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=400,
                        help="number of candidate alphas in the fixed budget")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI parity/leak/span/count gate: a small fixed "
                             "budget on forced 1- and 2-worker pools; exits "
                             "non-zero on any gate failure and writes no JSON")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(num_programs=12, worker_counts=(1, 2), repeats=1)
        print(json.dumps(payload, indent=2, sort_keys=True))
        status = check_gates(payload)
        print("smoke gates:", "FAILED" if status else "passed")
        return status

    payload = run_benchmark(args.programs, tuple(args.workers))
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    path = write_bench_json("parallel", payload)
    print(f"\nsaved {path}")
    return check_gates(payload)


if __name__ == "__main__":
    sys.exit(main())
