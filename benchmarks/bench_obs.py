#!/usr/bin/env python3
"""Benchmark: telemetry overhead and observational parity.

The telemetry subsystem (:mod:`repro.obs`) promises two things, and this
benchmark turns both into gates:

* **bitwise parity** — enabling telemetry changes no prediction bit on any
  of the four execution paths (reference interpreter, compiled day-loop,
  time-batched compiled, :class:`~repro.engine.fleet.FleetEngine`): every
  benchmarked program's valid/test panels are compared byte for byte with
  telemetry off vs on (non-zero exit on any divergence);
* **no recording while disabled** — the instrumented hot paths cost one
  boolean test per stage while telemetry is off, so the four-path
  workload must make *zero* calls to ``TELEMETRY.counter`` / ``gauge`` /
  ``histogram`` / ``span`` with telemetry off (counted by wrapping the
  four methods; non-zero exit otherwise).  The same workload with
  telemetry on must make some, or the count proves nothing.

The disabled-path overhead is *reported*, not gated: a wall-clock bound
on a shared runner failed on unchanged code (5.56%, 10.96% and 5.19%
against a 5% bound), while the call count checks the same property
deterministically.  There is no un-instrumented build to compare
against, so the overhead is defined operationally: disabled and enabled
timing samples of the compiled full-evaluation workload are interleaved
(so machine drift hits both alike) and

    disabled_overhead_pct = (min(disabled) / min(all samples) - 1) * 100

Minima are the standard noise-floor estimator (scheduling jitter only
ever adds time), and since an enabled run does strictly more work,
``min(all samples)`` is the tightest available proxy for the
un-instrumented baseline.  ``enabled_overhead_pct`` (same definition over
the enabled samples) includes the real cost of recording.

Results are written to ``benchmarks/results/BENCH_obs.json`` (source of
truth, with a root-level copy — see ``benchmarks/README.md``).

Run with::

    python benchmarks/bench_obs.py [--programs N] [--stocks K]
                                   [--repeats R] [--smoke]

``--smoke`` shrinks the workload but keeps both gates — CI runs it as the
telemetry parity and disabled-recording gate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from common import build_programs, spread, write_bench_json
from repro.core import AlphaEvaluator, Dimensions
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.engine import FleetEngine
from repro.obs import TELEMETRY, telemetry_session

EVALUATOR_SEED = 0
SPLITS = ("valid", "test")
#: The ``TELEMETRY`` methods every recording goes through.
INSTRUMENT_METHODS = ("counter", "gauge", "histogram", "span")


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


# ---------------------------------------------------------------------------
# parity: telemetry off vs on, all four execution paths
# ---------------------------------------------------------------------------

def _panels_all_paths(taskset, programs) -> dict[str, bytes]:
    """``"<program>/<path>/<split>"`` → prediction bytes, four paths each."""
    interpreter = make_evaluator(taskset, engine="interpreter")
    compiled_loop = make_evaluator(taskset, time_batched=False)
    compiled_batched = make_evaluator(taskset, time_batched=True)
    fleet = FleetEngine(make_evaluator(taskset))
    for program in programs:
        fleet.add(program)
    fleet_runs = fleet.run(splits=SPLITS)

    panels: dict[str, bytes] = {}
    for program in programs:
        paths = {
            "interpreter": interpreter.run(program, splits=SPLITS),
            "compiled-loop": compiled_loop.run(program, splits=SPLITS),
            "time-batched": compiled_batched.run(program, splits=SPLITS),
            "fleet": fleet_runs[program.name],
        }
        for label, predictions in paths.items():
            for split in SPLITS:
                panels[f"{program.name}/{label}/{split}"] = (
                    predictions[split].tobytes()
                )
    return panels


@contextlib.contextmanager
def counting_instrument_calls():
    """Count the calls of ``TELEMETRY``'s instrument methods in the block
    (wrappers shadow the four methods on the instance, then go)."""
    calls = dict.fromkeys(INSTRUMENT_METHODS, 0)

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in INSTRUMENT_METHODS:
        setattr(TELEMETRY, name, counting(name, getattr(TELEMETRY, name)))
    try:
        yield calls
    finally:
        for name in INSTRUMENT_METHODS:
            delattr(TELEMETRY, name)


def check_parity(taskset, programs) -> tuple[bool, dict]:
    """The observational-parity gate: telemetry on/off, bitwise identical.

    Also returns the instrument calls each side made, the input of the
    disabled-recording gate.
    """
    TELEMETRY.disable()
    with counting_instrument_calls() as disabled_calls:
        disabled = _panels_all_paths(taskset, programs)
    with telemetry_session(), counting_instrument_calls() as enabled_calls:
        enabled = _panels_all_paths(taskset, programs)
    parity = True
    for key, reference in disabled.items():
        if enabled[key] != reference:
            print(f"PARITY VIOLATION: {key} changed with telemetry enabled",
                  file=sys.stderr)
            parity = False
    return parity, {"disabled": disabled_calls, "enabled": enabled_calls}


# ---------------------------------------------------------------------------
# overhead: interleaved disabled/enabled timings of the compiled workload
# ---------------------------------------------------------------------------

def bench_overhead(taskset, programs, repeats: int = 7,
                   inner: int = 3) -> dict:
    """Interleaved disabled/enabled timings (see the module docstring).

    Each timed sample runs the workload ``inner`` times so one sample is
    long enough (hundreds of ms) for scheduling jitter not to dominate.
    """
    evaluator = make_evaluator(taskset, time_batched=True)

    def run_workload() -> None:
        for _ in range(inner):
            for program in programs:
                evaluator.run(program, splits=SPLITS)

    run_workload()  # warm caches outside the timed region

    disabled: list[float] = []
    enabled: list[float] = []
    for _ in range(repeats):
        TELEMETRY.disable()
        start = time.perf_counter()
        run_workload()
        disabled.append(time.perf_counter() - start)

        with telemetry_session():
            start = time.perf_counter()
            run_workload()
            enabled.append(time.perf_counter() - start)

    best = min(disabled + enabled)
    return {
        "repeats": repeats,
        "inner_iterations": inner,
        "num_programs": len(programs),
        "disabled_seconds": [round(s, 4) for s in disabled],
        "enabled_seconds": [round(s, 4) for s in enabled],
        "median_disabled_seconds": round(statistics.median(disabled), 4),
        "median_enabled_seconds": round(statistics.median(enabled), 4),
        "disabled_spread_seconds": spread(disabled),
        "enabled_spread_seconds": spread(enabled),
        "best_seconds": round(best, 4),
        "disabled_overhead_pct": round(
            (min(disabled) / best - 1.0) * 100.0, 2
        ),
        "enabled_overhead_pct": round(
            (min(enabled) / best - 1.0) * 100.0, 2
        ),
    }


def run_benchmark(num_programs: int = 18, num_stocks: int = 40,
                  repeats: int = 7) -> dict:
    taskset = build_taskset_for(num_stocks)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs, max_mutations=6, rename=True)

    parity, instrument_calls = check_parity(taskset, programs)
    overhead = bench_overhead(taskset, programs, repeats=repeats)

    return {
        "benchmark": "telemetry: disabled-path overhead and on/off "
                     "bitwise parity across all four execution paths",
        "num_programs": len(programs),
        "num_stocks": taskset.num_tasks,
        "train_days": taskset.split.train,
        "parity_telemetry_on_off": bool(parity),
        "instrument_calls": instrument_calls,
        "overhead": overhead,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=18,
                        help="number of programs in the benchmarked workload")
    parser.add_argument("--stocks", type=int, default=40,
                        help="number of simulated stocks")
    parser.add_argument("--repeats", type=int, default=7,
                        help="interleaved disabled/enabled timing repeats")
    parser.add_argument("--smoke", action="store_true",
                        help="small workload; used as the CI telemetry "
                             "parity and disabled-recording gate")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_benchmark(num_programs=8, num_stocks=30, repeats=5)
    else:
        payload = run_benchmark(args.programs, args.stocks, args.repeats)
    print(json.dumps(payload, indent=2, sort_keys=True))

    if not args.smoke:
        path = write_bench_json("obs", payload)
        print(f"\nsaved {path}")

    if not payload["parity_telemetry_on_off"]:
        print("ERROR: enabling telemetry changed prediction bits",
              file=sys.stderr)
        return 1
    calls = payload["instrument_calls"]
    if any(calls["disabled"].values()):
        print(f"ERROR: instrument calls with telemetry off {calls['disabled']} "
              "(hot-path recording must sit behind TELEMETRY.enabled)",
              file=sys.stderr)
        return 1
    if not any(calls["enabled"].values()):
        print("ERROR: no instrument calls counted with telemetry on; the "
              "count cannot show a missing guard", file=sys.stderr)
        return 1
    overhead = payload["overhead"]["disabled_overhead_pct"]
    if args.smoke:
        print("\ntelemetry smoke check passed "
              f"({payload['num_programs']} programs, 4 execution paths "
              "bitwise identical on/off, 0 instrument calls with telemetry "
              f"off; disabled overhead {overhead}%, not gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
