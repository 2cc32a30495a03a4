#!/usr/bin/env python3
"""Benchmark: pooled candidate evaluation against serial evaluation.

Scores one fixed list of candidate alphas (equal work on both sides) and
records candidates/second for each side:

* **serial** — :func:`repro.engine.evaluate_program_batch` in this process:
  the signature-grouped stacked fleet the serial scorer runs;
* **pool** — an :class:`repro.parallel.pool.EvaluationPool` at several
  worker counts, whose workers run that same entry point over zero-copy
  shared panels (``shm_bytes``) on signature-grouped chunks.

The headline ``speedup_vs_serial`` is the best pool's throughput over the
serial side's, on the laptop-scale market the mining workloads use.  The
default work takes the serial side more than a second on a 2-CPU host, so
dispatch overheads cannot hide in timer noise; each side reports its best
of three timings, and pool start-up is primed outside the timing.
``cpu_count`` is recorded: with one CPU every worker count time-slices the
same core, so the pool cannot beat serial there.

The run also enforces the subsystem's correctness contracts:

* **parity gate** — the pool's fitness reports must be bitwise identical to
  the serial reports for every program and every worker count;
* **leak gate** — no ``repro-panel-*`` segment may remain in ``/dev/shm``
  after the pools close;
* **span gate** — each pool's shared segment holds at most the bytes the
  task set's features span (its panel rows, not its windows), the labels
  and the header.

Results are written to ``benchmarks/results/BENCH_parallel.json`` (the
source of truth, with a copy at the repository root — see
``benchmarks/README.md``).

Run with::

    python benchmarks/bench_parallel.py [--programs N] [--workers 1 2 4]
    python benchmarks/bench_parallel.py --smoke   # CI gate: fast, no JSON
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


from numpy.lib.array_utils import byte_bounds

from common import build_programs, reports_identical, write_bench_json
from repro.core import AlphaEvaluator, Dimensions
from repro.engine import evaluate_program_batch, stack_partition
from repro.experiments.configs import LAPTOP, make_taskset
from repro.parallel import EvaluationPool, shared_segment_names

#: Evaluator settings shared by the serial side and every pool, so all
#: timings cover identical work and the parity check is meaningful.
EVALUATOR_KWARGS = {"max_train_steps": LAPTOP.max_train_steps}
EVALUATOR_SEED = 0


def best_time(run, repeats: int) -> tuple[float, object]:
    """The fastest of ``repeats`` calls of ``run`` and its last result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_benchmark(num_programs: int = 400,
                  worker_counts: tuple[int, ...] = (1, 2, 4),
                  repeats: int = 3) -> dict:
    """Time the fixed program list serially and at every worker count."""
    leaked_before = shared_segment_names()
    taskset = make_taskset(LAPTOP, use_cache=False)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs)
    stack_groups = stack_partition(programs)

    serial_evaluator = AlphaEvaluator(taskset, seed=EVALUATOR_SEED, **EVALUATOR_KWARGS)
    serial_seconds, serial_results = best_time(
        lambda: evaluate_program_batch(serial_evaluator, programs), repeats
    )
    serial_reports = [result.report for result in serial_results]
    serial_rate = len(programs) / serial_seconds
    print(f"serial: {serial_seconds:.2f}s ({serial_rate:.2f} candidates/s)")

    workers_payload: dict[str, dict] = {}
    bitwise_identical = True
    within_span = True
    shm_bytes = shm_budget = 0
    low, high = byte_bounds(taskset.features)
    for num_workers in worker_counts:
        with EvaluationPool(taskset, num_workers=num_workers,
                            **EVALUATOR_KWARGS) as pool:
            shm_bytes = pool.shm_bytes
            # Span + labels + header (the labels start 64-byte aligned).
            shm_budget = (high - low + taskset.labels.nbytes
                          + pool.spec.panel.features_offset + 64)
            within_span &= shm_bytes <= shm_budget
            # Prime the pool so worker start-up cost is not billed to the
            # steady-state throughput measurement.
            pool.evaluate(programs[:num_workers], evaluator_seed=EVALUATOR_SEED)
            seconds, reports = best_time(
                lambda: pool.evaluate(programs, evaluator_seed=EVALUATOR_SEED),
                repeats,
            )
        bitwise_identical &= all(
            reports_identical(got, want) for got, want in zip(reports, serial_reports)
        )
        rate = len(programs) / seconds
        workers_payload[str(num_workers)] = {
            "seconds": round(seconds, 4),
            "candidates_per_second": round(rate, 3),
        }
        print(f"workers={num_workers}: {seconds:.2f}s ({rate:.2f} candidates/s)")

    best = max(
        workers_payload,
        key=lambda count: workers_payload[count]["candidates_per_second"],
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
            "seconds": round(serial_seconds, 4),
            "candidates_per_second": round(serial_rate, 3),
        },
        "workers": workers_payload,
        "speedup_vs_serial": round(
            workers_payload[best]["candidates_per_second"] / serial_rate, 3
        ),
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
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=400,
                        help="number of candidate alphas in the fixed budget")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="worker counts to benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="CI parity/leak/span gate: a small fixed budget on "
                             "forced 1- and 2-worker pools; exits non-zero "
                             "on any gate failure and writes no JSON")
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
