#!/usr/bin/env python3
"""Benchmark: incremental streaming evaluation vs full recompute.

Serves a deterministic alpha fleet through the streaming subsystem
(:mod:`repro.stream`) over a 250-day warm history and measures what the
incremental executor buys: once an :class:`~repro.stream.server.AlphaServer`
is warm, advancing the whole fleet by one arriving day costs one
``Predict()`` tape pass per unique alpha, while the no-state alternative —
what a naive serving loop would do — recomputes the full training history
plus every inference day so far on *each* new bar.  Recorded:

* per-day bar latency (mean and p95) and alpha-days/second throughput of
  the warm server;
* the wall-clock cost of one full fleet recompute (the per-arriving-day
  cost of the naive loop), and the resulting speedup;
* the hard **parity check** via the online backtest driver: streamed
  predictions must equal the offline batch path bit for bit, and the
  online backtest metrics must equal the offline backtest of those batch
  predictions (non-zero exit on any violation).

Results are written to ``benchmarks/results/BENCH_stream.json`` (the source
of truth, with a copy at the repository root — see ``benchmarks/README.md``).

Run with::

    python benchmarks/bench_stream.py [--programs N] [--serve-days D] [--smoke]

``--smoke`` shrinks the fleet and the universe but keeps the 250-day warm
history and the full parity check — CI uses it as the stream-parity gate.
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

import numpy as np

from common import build_programs, write_bench_json
from repro.core import AlphaEvaluator, Dimensions
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.stream import OnlineBacktestDriver

#: Days of training history the server warms over.
WARM_DAYS = 250
EVALUATOR_SEED = 0


def build_taskset_for(num_stocks: int, serve_days: int):
    """A task set with a 250-day warm history and ``serve_days`` to stream."""
    valid = serve_days // 2
    test = serve_days - valid
    # build_taskset needs warm-up (30) + window (13) - 1 leading days, one
    # trailing day for the last label, and the split itself.
    num_days = 30 + 13 - 1 + WARM_DAYS + valid + test + 1
    market = SyntheticMarket(
        MarketConfig(num_stocks=num_stocks, num_days=num_days), seed=2021
    )
    return build_taskset(
        market.generate(), split=Split(train=WARM_DAYS, valid=valid, test=test)
    )


def run_benchmark(num_programs: int = 6, num_stocks: int = 40,
                  serve_days: int = 60) -> dict:
    taskset = build_taskset_for(num_stocks, serve_days)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs, max_mutations=4, rename=True)

    # ----- incremental serving (timed warm start + per-bar latencies) ------
    driver = OnlineBacktestDriver(
        taskset, programs, seed=EVALUATOR_SEED, max_train_steps=None,
        long_k=min(10, taskset.num_tasks // 4),
        short_k=min(10, taskset.num_tasks // 4),
    )
    warm_start = time.perf_counter()
    server = driver.build_server()
    warm_seconds = time.perf_counter() - warm_start
    served = driver.stream(server)
    latencies = np.asarray(server.bar_latencies)

    # ----- parity: streamed vs batch vs offline backtest -------------------
    # verify() reuses the streamed pass above, so the fleet is served once.
    report = driver.verify(server, served, strict_parity=False)

    # ----- full recompute: the per-arriving-day cost without carried state -
    evaluator = AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, max_train_steps=None, engine="compiled"
    )
    recompute_start = time.perf_counter()
    for program in programs:
        evaluator.run(program, splits=("valid", "test"))
    recompute_seconds = time.perf_counter() - recompute_start

    mean_bar = float(latencies.mean())
    stats = server.stats()
    payload = {
        "benchmark": "incremental streaming evaluation vs full recompute",
        "warm_history_days": WARM_DAYS,
        "serve_days": int(latencies.size),
        "num_stocks": taskset.num_tasks,
        "num_programs": len(programs),
        "unique_executors": server.num_unique,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "warm_start_seconds": round(warm_seconds, 4),
        "incremental": {
            "mean_bar_latency_ms": round(mean_bar * 1e3, 4),
            "p95_bar_latency_ms": round(float(np.percentile(latencies, 95)) * 1e3, 4),
            "alpha_days_per_second": round(stats["alpha_days_per_second"], 1),
        },
        "full_recompute": {
            "fleet_seconds_per_day": round(recompute_seconds, 4),
            "note": "one full train+inference pass of the whole fleet — the "
                    "cost a stateless serving loop pays on every arriving day",
        },
        "speedup_vs_full_recompute": round(recompute_seconds / mean_bar, 1),
        "parity_incremental_batch_backtest": bool(report.parity),
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=6,
                        help="number of alphas in the served fleet")
    parser.add_argument("--stocks", type=int, default=40,
                        help="number of simulated stocks")
    parser.add_argument("--serve-days", type=int, default=60,
                        help="number of streamed (valid+test) days")
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet/universe; used as the CI stream-"
                             "parity gate")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(num_programs=3, num_stocks=30, serve_days=20)
    else:
        payload = run_benchmark(args.programs, args.stocks, args.serve_days)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)

    if not args.smoke:
        path = write_bench_json("stream", payload)
        print(f"\nsaved {path}")

    if not payload["parity_incremental_batch_backtest"]:
        print("ERROR: streamed predictions diverge from the offline batch "
              "path", file=sys.stderr)
        return 1
    if payload["speedup_vs_full_recompute"] < 5.0:
        print("ERROR: incremental serving is less than 5x faster than full "
              f"recompute ({payload['speedup_vs_full_recompute']}x)",
              file=sys.stderr)
        return 1
    if args.smoke:
        print("\nstream-parity smoke check passed "
              f"({payload['num_programs']} programs, "
              f"{payload['speedup_vs_full_recompute']}x vs full recompute)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
