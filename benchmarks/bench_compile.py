#!/usr/bin/env python3
"""Benchmark: compiled-tape execution vs the reference interpreter.

Evaluates one fixed, deterministic list of candidate alphas twice — once on
``AlphaEvaluator(engine="interpreter")`` (the per-day, per-operation
interpreter loop) and once on ``AlphaEvaluator(engine="compiled")`` (the
:mod:`repro.compile` pipeline on a one-lane tape: flat tape, pre-resolved
dispatch, static hoisting and fused batched inference) — and records:

* full-evaluation throughput (train + inference) for both paths;
* **inference-stage** throughput for both paths: the valid and test
  :func:`~repro.engine.protocol.inference_pass` calls timed on their own,
  after one untimed training pass per program, which is the stage the
  fused batch targets;
* a hard **parity check**: every prediction array must be bit-for-bit
  identical between the two paths (the whole design contract);
* a **key count gate** on the fingerprint: a fixed seeded corpus of
  mutation-chain programs (:data:`KEY_CORPUS_SIZE`, walked from the D, NOOP,
  R and NN initialisations) is grouped by fingerprint and by the
  interpreter's bitwise validation predictions.  The interpreter, not the
  tape, is the oracle here: the fingerprint is the key of the very IR the
  tape executes, so a wrong zero transfer would corrupt the key and the
  tape's bits together.  A key that holds two prediction classes is a
  false merge, which the fingerprint cache and the serving fleet's dedup
  would turn into wrong scores and wrong served predictions, and fails the
  run; so does a corpus program whose fingerprint is not its tape's key
  (:func:`~repro.compile.executor.tape_key_for` of its compiled pruned
  program), which would break the one identity the cache and the fleet
  share.  The number of keys, of prediction classes, of duplicates the key
  still leaves unmerged (keys minus classes) and of tape-key mismatches are
  recorded: counts and bits only, no timing;
* a **memo count gate** on the search's fingerprint cache: the same corpus
  goes through one :class:`~repro.core.cache.FingerprintCache` twice.  A
  memoised key that differs from a direct :func:`fingerprint`, or a
  compile-pipeline run beyond one per distinct pruned program, fails
  the run; the pipeline runs and the distinct pruned programs are recorded.

The timed paths are interleaved: each round runs all four (interpreter and
compiled, full evaluation and inference stage), the order reversing every
other round, and each path records the median, min and max of its rounds.
Every speedup is a ratio of medians.

Results are written to ``benchmarks/results/BENCH_compile.json`` (the
source of truth, with a copy at the repository root — see
``benchmarks/README.md``).  ``cpu_count`` is recorded so
single-core CI numbers are interpretable; the compiled speedup is
single-process by nature and does not depend on core count.

Run with::

    python benchmarks/bench_compile.py [--programs N] [--repeats R] [--smoke]

``--smoke`` shrinks the program list and times one round, and skips nothing
else — CI uses it as a fast gate (non-zero exit on any parity violation, false
merge, fingerprint that is not its tape key, or memo miscount) and it writes
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


from common import build_programs, reports_identical, spread, write_bench_json
from repro.compile import compile_program, tape_key_for
from repro.core import AlphaEvaluator, Dimensions, Mutator, get_initialization
from repro.core import cache as cache_module
from repro.core.cache import FingerprintCache, fingerprint
from repro.core.initializations import INITIALIZATION_NAMES
from repro.core.pruning import prune_program
from repro.engine.protocol import inference_pass, training_pass
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
    """Group ``programs`` by fingerprint and by ``evaluator``'s
    validation-prediction bits, and count the fingerprints that are not
    their pruned program's tape key."""
    classes_by_key: dict[str, set[str]] = {}
    tape_key_mismatches = 0
    for program in programs:
        pruned = prune_program(program).program
        key = fingerprint(pruned)
        tape_key_mismatches += key != tape_key_for(compile_program(pruned).ir)
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
        "tape_key_mismatches": tape_key_mismatches,
    }


def memo_counts(programs: list) -> dict:
    """Feed ``programs`` through one fingerprint cache twice.

    Counts the compile-pipeline runs behind the cache by wrapping
    ``repro.core.cache.fingerprint``, and checks every key it returns
    against a direct :func:`fingerprint` of the pruned program.
    """
    runs = 0

    def counting_fingerprint(program):
        nonlocal runs
        runs += 1
        return fingerprint(program)

    cache = FingerprintCache()
    distinct = set()
    mismatches = 0
    cache_module.fingerprint = counting_fingerprint
    try:
        for _ in range(2):
            for program in programs:  # none is redundant
                result, key, _ = cache.prepare(program)
                distinct.add(result.program.exact_key())
                mismatches += key != fingerprint(result.program)
    finally:
        cache_module.fingerprint = fingerprint
    return {
        "lookups": 2 * len(programs),
        "distinct_pruned_programs": len(distinct),
        "pipeline_runs": runs,
        "key_mismatches": mismatches,
    }


def full_seconds(evaluator: AlphaEvaluator, programs: list) -> float:
    """Seconds to train every program and infer both splits."""
    start = time.perf_counter()
    for program in programs:
        evaluator.run(program, splits=SPLITS)
    return time.perf_counter() - start


def inference_seconds(evaluator: AlphaEvaluator, programs: list) -> float:
    """Seconds in the valid and test inference passes alone.

    Each program is set up and trained once, untimed, as
    :meth:`AlphaEvaluator.run` does; only the inference passes that follow
    on the trained backend are timed.
    """
    taskset = evaluator.taskset
    train = taskset.gather("train", evaluator.train_day_indices())
    splits = [taskset.gather(split) for split in SPLITS]
    total = 0.0
    for program in programs:
        backend = evaluator.make_backend(program)
        backend.run_setup()
        training_pass(backend, *train, use_update=evaluator.use_update,
                      time_batched=evaluator.time_batched)
        start = time.perf_counter()
        for features, labels in splits:
            inference_pass(backend, features, labels,
                           time_batched=evaluator.time_batched)
        total += time.perf_counter() - start
    return total


def time_interleaved(paths: dict, programs, repeats: int) -> dict:
    """Seconds per round of each ``name -> (timer, evaluator)`` path.

    Every round runs each path once over all programs; the order reverses
    every other round, so no path always runs first.
    """
    seconds: dict[str, list[float]] = {name: [] for name in paths}
    for round_index in range(repeats):
        order = list(paths) if round_index % 2 == 0 else list(paths)[::-1]
        for name in order:
            timer, evaluator = paths[name]
            seconds[name].append(timer(evaluator, programs))
    return seconds


def run_benchmark(num_programs: int = 32, repeats: int = 15) -> dict:
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
    corpus = build_key_corpus(dims)
    key_gate = key_classes(interpreter, corpus)
    memo_gate = memo_counts(corpus)

    # ----- timing ----------------------------------------------------------
    seconds = time_interleaved({
        "interpreter_full": (full_seconds, interpreter),
        "compiled_full": (full_seconds, compiled),
        "interpreter_inference": (inference_seconds, interpreter),
        "compiled_inference": (inference_seconds, compiled),
    }, programs, repeats)
    median = {path: statistics.median(runs) for path, runs in seconds.items()}

    def summary(engine: str) -> dict:
        stages = {}
        for stage in ("full", "inference"):
            path = f"{engine}_{stage}"
            stages.update({
                f"{stage}_seconds": round(median[path], 4),
                f"{stage}_candidates_per_second": round(
                    len(programs) / median[path], 3),
                f"{stage}_spread_seconds": spread(seconds[path]),
            })
        return stages

    def speedup(stage: str) -> float:
        return round(median[f"interpreter_{stage}"]
                     / median[f"compiled_{stage}"], 3)

    payload = {
        "benchmark": "compiled-tape execution vs interpreter",
        "scale": SMOKE.name,
        "num_programs": len(programs),
        "fused_eligible_programs": fused_eligible,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "interpreter": summary("interpreter"),
        "compiled": summary("compiled"),
        "full_speedup": speedup("full"),
        "inference_speedup": speedup("inference"),
        "bitwise_identical_to_interpreter": parity,
        "key_gate": key_gate,
        "memo_gate": memo_gate,
    }
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=32,
                        help="number of candidate alphas in the fixed budget")
    parser.add_argument("--repeats", type=int, default=15,
                        help="interleaved timing rounds (medians are reported)")
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
    if gate["tape_key_mismatches"]:
        print(f"ERROR: {gate['tape_key_mismatches']} corpus program(s) whose "
              "fingerprint is not the key of their pruned program's tape",
              file=sys.stderr)
        return 1
    memo = payload["memo_gate"]
    if memo["key_mismatches"]:
        print(f"ERROR: {memo['key_mismatches']} memoised fingerprint(s) differ "
              "from a direct fingerprint", file=sys.stderr)
        return 1
    if memo["pipeline_runs"] > memo["distinct_pruned_programs"]:
        print(f"ERROR: the fingerprint cache ran the pipeline "
              f"{memo['pipeline_runs']} times for "
              f"{memo['distinct_pruned_programs']} distinct pruned programs",
              file=sys.stderr)
        return 1
    if args.smoke:
        print("\ncompile-parity smoke check passed "
              f"({payload['num_programs']} programs, "
              f"{payload['fused_eligible_programs']} fused-eligible; "
              f"{gate['programs']} corpus programs in {gate['keys']} keys and "
              f"{gate['prediction_classes']} interpreter prediction classes, "
              "no key with two classes, every key its pruned program's tape "
              f"key; {memo['lookups']} cache lookups ran "
              f"the pipeline {memo['pipeline_runs']} times for "
              f"{memo['distinct_pruned_programs']} distinct pruned programs, "
              "every key equal to a direct fingerprint)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
