#!/usr/bin/env python3
"""Benchmark: the unified execution-engine layer.

Measures what the engine layer (:mod:`repro.engine`) buys on top of the
per-program execution paths it replaced, behind a **hard bitwise-parity
gate** across four paths:

* **parity gate** — for every benchmarked program the valid/test prediction
  panels of the reference interpreter, the compiled day-loop
  (``time_batched=False``), the time-batched compiled path and a
  :class:`~repro.engine.fleet.FleetEngine` evaluation (signature groups on
  stacked tapes) must be bit-for-bit identical (non-zero exit on any
  divergence);
* **fleet evaluation throughput** — evaluating an N-program fleet (with the
  duplicate rate a real mined fleet has) through one ``FleetEngine`` — one
  shared context, one data pass, canonical dedup — versus the per-program
  loop of building and running a fresh evaluator per program, best of 7
  repeats with each path's median, min and max beside it;
* **cross-program mega-batching** — a fleet-size scaling curve over mining
  generation snapshots (:func:`common.build_generation`): at each fleet
  size P the per-program loop and the stacked fleet (signature groups
  executing as one ``(P, ...)`` tape) are timed, best of 5 repeats with
  each path's median, min and max beside it; the largest point is the
  ``programs_per_second_stacked`` headline and must clear a >= 3x stacked
  speedup at >= 100 unique programs post-dedup;
* **static-predict time batching** — for programs whose whole ``Predict()``
  tape is day-loop invariant, the full train+inference evaluation with the
  engine's time-batched fast path on versus off (the fast path collapses
  the training stage into one vectorised ``(T, K, ...)`` kernel call).

Results are written to ``benchmarks/results/BENCH_engine.json`` (the source
of truth, with a copy at the repository root — see ``benchmarks/README.md``).

Run with::

    python benchmarks/bench_engine.py [--programs N] [--stocks K] [--smoke]

``--smoke`` shrinks the universe and program count but keeps the full
four-way parity gate (including at least one multi-program stack group) —
CI uses it as the engine-parity gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import build_generation, build_programs, write_bench_json
from repro.core import AlphaEvaluator, Dimensions
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.engine import FleetEngine, run_protocol

EVALUATOR_SEED = 0
SPLITS = ("valid", "test")


def build_taskset_for(num_stocks: int):
    market = SyntheticMarket(
        MarketConfig(num_stocks=num_stocks, num_days=260), seed=2021
    )
    return build_taskset(
        market.generate(), split=Split(train=136, valid=40, test=40)
    )


def make_evaluator(taskset, **kwargs) -> AlphaEvaluator:
    return AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, max_train_steps=None, **kwargs
    )


def check_parity(taskset, programs) -> tuple[bool, int, int]:
    """The hard gate: four execution paths, bitwise-identical panels.

    Returns ``(parity, num_static_predict, stack_groups)``.
    """
    interpreter = make_evaluator(taskset, engine="interpreter")
    compiled_loop = make_evaluator(taskset, time_batched=False)
    compiled_batched = make_evaluator(taskset, time_batched=True)
    stacked_fleet = FleetEngine(make_evaluator(taskset))
    for program in programs:
        stacked_fleet.add(program)
    stacked_runs = stacked_fleet.run(splits=SPLITS)

    parity = True
    num_static = 0
    for program in programs:
        reference = interpreter.run(program, splits=SPLITS)
        paths = {
            "compiled-loop": compiled_loop.run(program, splits=SPLITS),
            "time-batched": compiled_batched.run(program, splits=SPLITS),
            "stacked-fleet": stacked_runs[program.name],
        }
        if compiled_batched.make_backend(program).supports_static_predict:
            num_static += 1
        for label, predictions in paths.items():
            for split in SPLITS:
                if predictions[split].tobytes() != reference[split].tobytes():
                    print(f"PARITY VIOLATION: {program.name} on {split} "
                          f"via {label}", file=sys.stderr)
                    parity = False
    return parity, num_static, stacked_fleet.stack_groups


def bench_fleet(taskset, programs, repeats: int = 7) -> dict:
    """Fleet evaluation through the engine vs the per-program loop.

    Each path takes about 0.1 s, so one timing swings with the host: the
    best of ``repeats`` runs is the headline, with each path's median, min
    and max beside it.
    """
    per_program = []
    for _ in range(repeats):
        start = time.perf_counter()
        for program in programs:
            # the pre-engine shape: one fresh evaluator per served program
            make_evaluator(taskset).evaluate(program)
        per_program.append(time.perf_counter() - start)

    fleet_seconds = []
    unique = 0
    for _ in range(repeats):
        start = time.perf_counter()
        fleet = FleetEngine(make_evaluator(taskset))
        for program in programs:
            fleet.add(program)
        fleet.evaluate()
        fleet_seconds.append(time.perf_counter() - start)
        unique = fleet.num_unique

    loop_best = min(per_program)
    fleet_best = min(fleet_seconds)
    return {
        "num_programs": len(programs),
        "unique_programs": unique,
        "per_program_loop_seconds": round(loop_best, 4),
        "fleet_engine_seconds": round(fleet_best, 4),
        "per_program_loop_spread_seconds": spread(per_program),
        "fleet_engine_spread_seconds": spread(fleet_seconds),
        "programs_per_second_loop": round(len(programs) / loop_best, 2),
        "programs_per_second_fleet": round(len(programs) / fleet_best, 2),
        "speedup": round(loop_best / fleet_best, 2),
    }


def spread(seconds: list[float]) -> dict:
    """Median, min and max of one path's repeat timings."""
    return {"median": round(statistics.median(seconds), 4),
            "min": round(min(seconds), 4), "max": round(max(seconds), 4)}


def bench_stacked_scaling(taskset, sizes=(8, 32, 128, 200),
                          repeats: int = 5) -> dict:
    """Fleet-size scaling of the stacked executor over generation snapshots.

    At each size P a fresh mining-generation fleet is built and two paths
    are timed end to end: the per-program loop (fresh evaluator per member)
    and the ``FleetEngine`` (signature groups executing as ``(P, ...)``
    tapes).  Each point keeps the best of ``repeats`` runs per path, with
    their median, min and max beside it.  The largest point is the
    headline.
    """
    dims = Dimensions(taskset.num_features, taskset.window)
    curve = []
    for size in sizes:
        programs = build_generation(dims, size)

        loop_seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            for program in programs:
                make_evaluator(taskset).evaluate(program)
            loop_seconds.append(time.perf_counter() - start)

        stacked_seconds = []
        for _ in range(repeats):
            fleet = FleetEngine(make_evaluator(taskset))
            for program in programs:
                fleet.add(program)
            start = time.perf_counter()
            fleet.evaluate()
            stacked_seconds.append(time.perf_counter() - start)
        loop_best, stacked_best = min(loop_seconds), min(stacked_seconds)
        curve.append({
            "num_programs": size,
            "unique_programs": fleet.num_unique,
            "stack_groups": fleet.stack_groups,
            "per_program_loop_seconds": round(loop_best, 4),
            "stacked_fleet_seconds": round(stacked_best, 4),
            "per_program_loop_spread_seconds": spread(loop_seconds),
            "stacked_fleet_spread_seconds": spread(stacked_seconds),
            "programs_per_second_loop": round(size / loop_best, 2),
            "programs_per_second_stacked": round(size / stacked_best, 2),
            "stacked_speedup_vs_loop": round(loop_best / stacked_best, 2),
        })
    headline = curve[-1]
    return {
        "scaling_curve": curve,
        "num_programs": headline["num_programs"],
        "unique_programs": headline["unique_programs"],
        "stack_groups": headline["stack_groups"],
        "programs_per_second_stacked": headline["programs_per_second_stacked"],
        "stacked_speedup_vs_loop": headline["stacked_speedup_vs_loop"],
    }


def bench_static_predict(taskset, programs, repeats: int = 3) -> dict:
    """Full evaluation of static-predict programs: day loop vs time batching."""
    evaluator = make_evaluator(taskset)
    static = [
        program for program in programs
        if evaluator.make_backend(program).supports_static_predict
    ]
    if not static:
        return {"num_programs": 0}

    def run_all(time_batched: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for program in static:
                run_protocol(
                    evaluator.make_backend(program),
                    taskset,
                    splits=SPLITS,
                    day_indices=evaluator.train_day_indices(),
                    time_batched=time_batched,
                )
            best = min(best, time.perf_counter() - start)
        return best

    loop_seconds = run_all(time_batched=False)
    batched_seconds = run_all(time_batched=True)
    return {
        "num_programs": len(static),
        "day_loop_seconds": round(loop_seconds, 4),
        "time_batched_seconds": round(batched_seconds, 4),
        "speedup": round(loop_seconds / batched_seconds, 1),
    }


def run_benchmark(num_programs: int = 18, num_stocks: int = 40,
                  smoke: bool = False) -> dict:
    taskset = build_taskset_for(num_stocks)
    dims = Dimensions(taskset.num_features, taskset.window)
    # max_mutations=6 over three cycling bases yields the duplicate rate a
    # mined fleet has (identical early candidates dedup canonically).
    programs = build_programs(dims, num_programs, max_mutations=6, rename=True)
    # The parity gate additionally covers a generation snapshot, so the
    # stacked path is exercised on >= 1 multi-program signature group.
    parity_programs = programs + build_generation(
        dims, 8 if smoke else 16, jitter_seed=31
    )
    seen: set[str] = set()
    parity_programs = [
        program.copy(name=f"parity_{index}")
        for index, program in enumerate(parity_programs)
    ]

    parity, num_static, parity_groups = check_parity(taskset, parity_programs)
    fleet = bench_fleet(taskset, programs)
    if smoke:
        stacked = bench_stacked_scaling(taskset, sizes=(16,), repeats=1)
    else:
        stacked = bench_stacked_scaling(taskset)
    static = bench_static_predict(taskset, programs)

    return {
        "benchmark": "unified execution engine: fleet batching, stacked "
                     "fleet kernels and static-predict time vectorization",
        "num_programs": len(programs),
        "num_stocks": taskset.num_tasks,
        "train_days": taskset.split.train,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "parity_interpreter_compiled_time_batched_stacked": bool(parity),
        "parity_programs": len(parity_programs),
        "parity_stack_groups": parity_groups,
        "static_predict_programs": num_static,
        "fleet_evaluation": fleet,
        "stacked_fleet": stacked,
        "static_predict_time_batching": static,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=18,
                        help="number of programs in the benchmarked fleet")
    parser.add_argument("--stocks", type=int, default=40,
                        help="number of simulated stocks")
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet/universe; used as the CI "
                             "engine-parity gate")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(num_programs=8, num_stocks=30, smoke=True)
    else:
        payload = run_benchmark(args.programs, args.stocks)
    print(json.dumps(payload, indent=2, sort_keys=True))

    if not args.smoke:
        path = write_bench_json("engine", payload)
        print(f"\nsaved {path}")

    if not payload["parity_interpreter_compiled_time_batched_stacked"]:
        print("ERROR: execution paths diverge bitwise", file=sys.stderr)
        return 1
    if payload["static_predict_programs"] < 1:
        print("ERROR: no static-predict program exercised the time-batched "
              "path", file=sys.stderr)
        return 1
    if payload["parity_stack_groups"] < 1:
        print("ERROR: no multi-program stack group exercised the stacked "
              "path", file=sys.stderr)
        return 1
    static = payload["static_predict_time_batching"]
    if not args.smoke and static.get("speedup", 0.0) < 1.5:
        print("ERROR: static-predict time batching is less than 1.5x faster "
              f"than the day loop ({static.get('speedup')}x)", file=sys.stderr)
        return 1
    stacked = payload["stacked_fleet"]
    if not args.smoke:
        if stacked["unique_programs"] < 100:
            print("ERROR: stacked headline fleet has fewer than 100 unique "
                  f"programs post-dedup ({stacked['unique_programs']})",
                  file=sys.stderr)
            return 1
        if stacked["stacked_speedup_vs_loop"] < 3.0:
            print("ERROR: stacked fleet is less than 3x faster than the "
                  f"per-program loop ({stacked['stacked_speedup_vs_loop']}x)",
                  file=sys.stderr)
            return 1
    if args.smoke:
        print("\nengine-parity smoke check passed "
              f"({payload['parity_programs']} programs, "
              f"{payload['static_predict_programs']} static-predict, "
              f"{payload['parity_stack_groups']} stack groups, "
              "4 execution paths bitwise identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
