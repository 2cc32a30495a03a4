#!/usr/bin/env python3
"""Benchmark: pooled search and pooled evaluation against serial runs.

**Search.**  One migrating 4-island search (from the NN initialisation,
whose searches cost most of a mining study; laptop scale) runs
in-process and on a 2-worker pool, where every island is one segment a
worker advances between barriers.  The two must report
the same bits: the mined program, every island's members and reports, the
cache statistics and the trajectory.  The pooled parent must make no
front-end call (``Mutator.mutate``, ``prune_program``, ``fingerprint``,
``compile_program``), counted in its own process, and each barrier must
cost one dispatch.  The full run times both searches in alternating
rounds and records ``search.speedup`` as the ratio of their medians.

**Program batches.**  Scores one fixed list of candidate alphas (equal
work on both sides) and records candidates/second for each side:

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

* **search gates** — the pooled search equals the in-process one bit for
  bit (``search.bitwise_identical``), its parent makes no front-end call
  (``search.parent_front_end_calls``) and one dispatch per barrier
  (``search.dispatches`` against the in-process ``search.barriers``);
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


import numpy as np
from numpy.lib.array_utils import byte_bounds

import repro.compile.compiler
import repro.core.cache
import repro.core.mutation
import repro.engine.backends
import repro.engine.fleet
from common import build_programs, reports_identical, spread, write_bench_json
from repro.compile import compile_program
from repro.core import AlphaEvaluator, Dimensions, EvolutionConfig, get_initialization
from repro.engine import evaluate_program_batch, stack_partition
from repro.experiments.configs import LAPTOP, make_taskset
from repro.obs import TELEMETRY, telemetry_session
from repro.parallel import EvaluationPool, IslandEvolutionController, shared_segment_names

#: Entry points of the search's front end, counted in the parent process:
#: ``(owner, attribute)``, every binding a search reaches.
FRONT_END = (
    (repro.core.mutation.Mutator, "mutate"),
    (repro.core.cache, "prune_program"),
    (repro.core.cache, "fingerprint"),
    (repro.compile, "compile_program"),
    (repro.compile.compiler, "compile_program"),
    (repro.engine.backends, "compile_program"),
    (repro.engine.fleet, "compile_program"),
)


def timed(run) -> tuple[float, object]:
    """The wall-clock seconds of one call of ``run`` and its result."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


@contextlib.contextmanager
def counting_parent_calls(entry_points):
    """Count the calls this process makes, in the block, of each
    ``(owner, attribute)`` entry point (forked workers count nothing)."""
    parent, calls, originals = os.getpid(), [], []
    for owner, attribute in entry_points:
        original = getattr(owner, attribute)
        originals.append((owner, attribute, original))

        def counting(*args, _original=original, _name=attribute, **kwargs):
            if os.getpid() == parent:
                calls.append(_name)
            return _original(*args, **kwargs)

        setattr(owner, attribute, counting)
    try:
        yield calls
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def counting_parent_compiles():
    """Count the ``compile_program`` calls this process makes in the block
    (every module that binds the name)."""
    return counting_parent_calls(
        [entry for entry in FRONT_END if entry[1] == "compile_program"])


def search_bits(controller, result) -> dict:
    """Everything a search reports, as comparable bits."""
    def report_bits(report):
        return (report.fitness.hex(), float(report.ic_valid).hex(),
                report.is_valid, report.reason,
                np.asarray(report.daily_ic_valid).tobytes())

    return {
        "best": (result.best_program.to_json(), report_bits(result.best_report)),
        "islands": [[(member.program.to_json(), report_bits(member.report),
                      member.born_at) for member in island.population]
                    for island in controller.islands],
        "cache_stats": result.cache_stats.as_dict(),
        "trajectory": [(point.candidates, point.evaluations,
                        point.best_fitness.hex()) for point in result.trajectory],
        "migrations": result.migrations,
    }


def run_search_benchmark(taskset, *, population_size: int, candidates: int,
                         repeats: int) -> dict:
    """One migrating 4-island search in-process and on a 2-worker pool:
    the gates on one untimed pair, then ``repeats`` alternating timed
    rounds (none for the smoke run)."""
    dims = Dimensions(taskset.num_features, taskset.window)
    initial = get_initialization("NN", dims)
    config = EvolutionConfig(population_size=population_size,
                             max_candidates=candidates, num_islands=4)

    def controller(pool):
        return IslandEvolutionController(
            evaluator=AlphaEvaluator(taskset, seed=0,
                                     max_train_steps=LAPTOP.max_train_steps),
            dims=dims, config=config, seed=5, mutation_seed=6, pool=pool)

    with EvaluationPool(taskset, num_workers=2) as pool:
        serial = controller(None)
        with telemetry_session():
            serial_bits = search_bits(serial, serial.run(initial))
            barriers = TELEMETRY.counter("search.segments").value
        dispatches = []
        submit = pool.submit_detailed

        def recording(segments, **kwargs):
            dispatches.append(len(segments))
            return submit(segments, **kwargs)

        pool.submit_detailed = recording
        pooled = controller(pool)
        with counting_parent_calls(FRONT_END) as calls:
            with telemetry_session():
                pooled_bits = search_bits(pooled, pooled.run(initial))
                duplicates = TELEMETRY.counter(
                    "search.duplicate_evaluations").value
        del pool.submit_detailed

        serial_seconds: list[float] = []
        pooled_seconds: list[float] = []
        for round_index in range(repeats):
            sides = [(serial_seconds, None), (pooled_seconds, pool)]
            if round_index % 2:
                sides.reverse()
            for seconds, side_pool in sides:
                search = controller(side_pool)
                seconds.append(timed(lambda: search.run(initial))[0])
    payload = {
        "islands": 4,
        "workers": 2,
        "population_size": population_size,
        "candidates": candidates,
        "migrations": serial_bits["migrations"],
        "evaluations": serial_bits["cache_stats"]["evaluated"],
        "duplicate_evaluations": duplicates,
        "barriers": barriers,
        "dispatches": len(dispatches),
        "parent_front_end_calls": len(calls),
        "bitwise_identical": pooled_bits == serial_bits,
    }
    if repeats:
        payload.update({
            "repeats": repeats,
            "serial_spread_seconds": spread(serial_seconds),
            "pooled_spread_seconds": spread(pooled_seconds),
            "speedup": round(statistics.median(serial_seconds)
                             / statistics.median(pooled_seconds), 3),
        })
        print(f"search: serial median {statistics.median(serial_seconds):.2f}s, "
              f"2 workers {statistics.median(pooled_seconds):.2f}s "
              f"({payload['speedup']}x)")
    return payload


def run_benchmark(num_programs: int = 400,
                  worker_counts: tuple[int, ...] = (1, 2, 4),
                  repeats: int = 5, search_size: tuple[int, int] = (30, 450),
                  search_repeats: int = 5) -> dict:
    """Time the 4-island search in-process and on 2 workers for
    ``search_repeats`` alternating rounds, then the fixed program list
    serially and at every worker count, alternating the two for
    ``repeats`` rounds per worker count; ``search_size`` is the search's
    population size and candidate budget."""
    leaked_before = shared_segment_names()
    taskset = make_taskset(LAPTOP, use_cache=False)
    population_size, candidates = search_size
    search = run_search_benchmark(taskset, population_size=population_size,
                                  candidates=candidates, repeats=search_repeats)
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
        "benchmark": "pooled vs serial search and candidate evaluation",
        "search": search,
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
    search = payload["search"]
    if not search["bitwise_identical"]:
        print("ERROR: the pooled search differs from the in-process search",
              file=sys.stderr)
        status = 1
    if search["parent_front_end_calls"]:
        print(f"ERROR: the pooled search's parent made "
              f"{search['parent_front_end_calls']} front-end call(s)",
              file=sys.stderr)
        status = 1
    if search["dispatches"] != search["barriers"] or not search["migrations"]:
        print(f"ERROR: the pooled search made {search['dispatches']} "
              f"dispatch(es) for {search['barriers']} barrier(s) and "
              f"{search['migrations']} migration(s)", file=sys.stderr)
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
                        help="CI parity/leak/span/count gate: a small "
                             "migrating 4-island search in-process and on 2 "
                             "workers, and a small fixed program budget on "
                             "forced 1- and 2-worker pools; exits non-zero "
                             "on any gate failure and writes no JSON")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(num_programs=12, worker_counts=(1, 2),
                                repeats=1, search_size=(10, 240),
                                search_repeats=0)
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
