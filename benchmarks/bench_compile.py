#!/usr/bin/env python3
"""Benchmark: compiled-tape execution vs the reference interpreter.

Evaluates one fixed, deterministic list of candidate alphas twice — once on
``AlphaEvaluator(engine="interpreter")`` (the per-day, per-operation
interpreter loop) and once on ``AlphaEvaluator(engine="compiled")`` (the
:mod:`repro.compile` pipeline on a one-lane tape: flat tape, pre-resolved
dispatch, static hoisting and fused batched inference) — and records:

* full-evaluation throughput (train + inference) for both paths;
* **inference-stage** throughput for both paths, measured as the difference
  between a run producing the valid+test splits and a run producing none
  (training always executes), which is the stage the fused batch targets;
* a hard **parity check**: every prediction array must be bit-for-bit
  identical between the two paths (the whole design contract);
* a **key count gate** on the fingerprint: a fixed seeded corpus of
  mutation-chain programs (:data:`KEY_CORPUS_SIZE`, walked from the D, NOOP,
  R and NN initialisations) is grouped by canonical key and by bitwise
  validation predictions.  A key that holds two prediction classes is a
  false merge, which the fingerprint cache and the serving fleet's dedup
  would turn into wrong scores and wrong served predictions, and fails the
  run.  The number of keys, of prediction classes and of duplicates the key
  still leaves unmerged (keys minus classes) are recorded: counts and bits
  only, no timing.

Results are written to ``benchmarks/results/BENCH_compile.json`` (the
source of truth, with a copy at the repository root — see
``benchmarks/README.md``).  ``cpu_count`` is recorded so
single-core CI numbers are interpretable; the compiled speedup is
single-process by nature and does not depend on core count.

Run with::

    python benchmarks/bench_compile.py [--programs N] [--repeats R] [--smoke]

``--smoke`` shrinks the program list and skips nothing else — CI uses it as
a fast compile-parity gate (non-zero exit on any parity violation).
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


import hashlib

from common import build_programs, reports_identical, write_bench_json
from repro.compile import compile_program
from repro.core import AlphaEvaluator, Dimensions, Mutator, get_initialization
from repro.core.cache import fingerprint
from repro.core.initializations import INITIALIZATION_NAMES
from repro.core.pruning import prune_program
from repro.experiments.configs import SMOKE, make_taskset

#: Shared evaluator settings so both paths time identical work.
EVALUATOR_KWARGS = {"max_train_steps": SMOKE.max_train_steps}
EVALUATOR_SEED = 0
SPLITS = ("valid", "test")


#: Programs in the key count gate's corpus, and the seed that walks it.
KEY_CORPUS_SIZE = 400
KEY_CORPUS_SEED = 5


def build_key_corpus(dims: Dimensions, count: int = KEY_CORPUS_SIZE,
                     seed: int = KEY_CORPUS_SEED) -> list:
    """``count`` non-redundant programs from four mutation trees.

    Each tree starts at one initialisation and grows by mutating a parent
    drawn from its earlier programs, as a search's population does: children
    that change only dead code, or arithmetic on zeros, are the duplicates a
    fingerprint should catch.
    """
    mutator = Mutator(dims, seed=seed)
    programs = []
    for code in INITIALIZATION_NAMES:
        tree = [get_initialization(code, dims, seed=seed)]
        while len(tree) <= count // len(INITIALIZATION_NAMES):
            parent = tree[int(mutator.rng.integers(len(tree)))]
            child = mutator.mutate(parent)
            if not prune_program(child).is_redundant:
                tree.append(child)
        programs += tree[1:]
    return programs


def key_classes(evaluator: AlphaEvaluator, programs: list) -> dict:
    """Group ``programs`` by fingerprint and by validation-prediction bits."""
    classes_by_key: dict[str, set[str]] = {}
    for program in programs:
        key = fingerprint(prune_program(program).program)
        valid = evaluator.run(program, splits=("valid",))["valid"]
        bits = hashlib.sha256(valid.tobytes()).hexdigest()
        classes_by_key.setdefault(key, set()).add(bits)
    classes = set().union(*classes_by_key.values())
    return {
        "programs": len(programs),
        "keys": len(classes_by_key),
        "prediction_classes": len(classes),
        "unmerged_duplicates": len(classes_by_key) - len(classes),
        "false_merges": sum(len(bits) - 1 for bits in classes_by_key.values()),
    }


def time_runs(evaluator, programs, splits, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock for running every program."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for program in programs:
            evaluator.run(program, splits=splits)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(num_programs: int = 32, repeats: int = 3) -> dict:
    taskset = make_taskset(SMOKE, use_cache=False)
    dims = Dimensions(taskset.num_features, taskset.window)
    programs = build_programs(dims, num_programs)
    fused_eligible = sum(
        1 for program in programs if compile_program(program).fused_inference
    )

    interpreter = AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, engine="interpreter", **EVALUATOR_KWARGS
    )
    compiled = AlphaEvaluator(
        taskset, seed=EVALUATOR_SEED, engine="compiled", **EVALUATOR_KWARGS
    )

    # ----- parity: the hard contract --------------------------------------
    parity = True
    for program in programs:
        left = interpreter.run(program, splits=SPLITS)
        right = compiled.run(program, splits=SPLITS)
        for split in SPLITS:
            parity &= left[split].tobytes() == right[split].tobytes()
        parity &= reports_identical(
            interpreter.evaluate(program).report, compiled.evaluate(program).report
        )

    # ----- the key count gate: equal keys must mean equal predictions ------
    key_gate = key_classes(compiled, build_key_corpus(dims))

    # ----- timing ----------------------------------------------------------
    interp_full = time_runs(interpreter, programs, SPLITS, repeats)
    compiled_full = time_runs(compiled, programs, SPLITS, repeats)
    # Training always runs; a no-split run isolates the inference stage.
    interp_train = time_runs(interpreter, programs, (), repeats)
    compiled_train = time_runs(compiled, programs, (), repeats)
    interp_inference = max(interp_full - interp_train, 1e-9)
    compiled_inference = max(compiled_full - compiled_train, 1e-9)

    def throughput(seconds: float) -> float:
        return round(len(programs) / seconds, 3)

    payload = {
        "benchmark": "compiled-tape execution vs interpreter",
        "scale": SMOKE.name,
        "num_programs": len(programs),
        "fused_eligible_programs": fused_eligible,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "interpreter": {
            "full_seconds": round(interp_full, 4),
            "full_candidates_per_second": throughput(interp_full),
            "inference_seconds": round(interp_inference, 4),
            "inference_candidates_per_second": throughput(interp_inference),
        },
        "compiled": {
            "full_seconds": round(compiled_full, 4),
            "full_candidates_per_second": throughput(compiled_full),
            "inference_seconds": round(compiled_inference, 4),
            "inference_candidates_per_second": throughput(compiled_inference),
        },
        "full_speedup": round(interp_full / compiled_full, 3),
        "inference_speedup": round(interp_inference / compiled_inference, 3),
        "bitwise_identical_to_interpreter": parity,
        "key_gate": key_gate,
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=32,
                        help="number of candidate alphas in the fixed budget")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="small program list; used as the CI parity gate")
    args = parser.parse_args(argv)

    num_programs = 8 if args.smoke else args.programs
    repeats = 1 if args.smoke else args.repeats
    payload = run_benchmark(num_programs, repeats)
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)

    if not args.smoke:
        path = write_bench_json("compile", payload)
        print(f"\nsaved {path}")

    if not payload["bitwise_identical_to_interpreter"]:
        print("ERROR: compiled execution differs from the interpreter",
              file=sys.stderr)
        return 1
    gate = payload["key_gate"]
    if gate["false_merges"]:
        print(f"ERROR: {gate['false_merges']} fingerprint key(s) hold programs "
              "whose validation predictions differ", file=sys.stderr)
        return 1
    if args.smoke:
        print("\ncompile-parity smoke check passed "
              f"({payload['num_programs']} programs, "
              f"{payload['fused_eligible_programs']} fused-eligible; "
              f"{gate['programs']} corpus programs in {gate['keys']} keys and "
              f"{gate['prediction_classes']} prediction classes, no key with "
              "two classes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
