"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or its figure through
:mod:`repro.experiments.runner` and prints the resulting rows next to the
paper's reference numbers, so the *shape* of the reproduction can be checked
at a glance.  Absolute values differ from the paper because the data
substrate is a synthetic market and the search budgets are laptop-scale (see
DESIGN.md section 2 and EXPERIMENTS.md).

Scale selection: set ``REPRO_BENCH_SCALE=smoke`` for a fast CI-sized run or
``REPRO_BENCH_SCALE=laptop`` (default) for the configuration used to fill
EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.core import Dimensions, Mutator, get_initialization
from repro.experiments import ExperimentConfig, LAPTOP, PAPER_REFERENCE, SMOKE, save_result

__all__ = [
    "bench_config",
    "build_generation",
    "build_programs",
    "report",
    "reports_identical",
    "spread",
    "telemetry_block",
    "write_bench_json",
]


def build_programs(dims: Dimensions, count: int, seed: int = 11,
                   max_mutations: int = 5, rename: bool = False) -> list:
    """A deterministic mixed bag of initialisation alphas and mutants.

    Shared by every benchmark that needs a fixed candidate list: bases cycle
    the D / NN / R initialisations and candidate ``i`` receives
    ``i % max_mutations`` mutations.  ``rename=True`` gives each program a
    positional name (used where programs double as serving registrations).
    """
    mutator = Mutator(dims, seed=seed)
    bases = [get_initialization(code, dims, seed=seed) for code in ("D", "NN", "R")]
    programs = []
    while len(programs) < count:
        program = bases[len(programs) % len(bases)]
        for _ in range(len(programs) % max_mutations):
            program = mutator.mutate(program)
        if rename:
            program = program.copy(name=f"alpha_{len(programs)}")
        programs.append(program)
    return programs


def build_generation(dims: Dimensions, count: int, seed: int = 11,
                     jitter_seed: int = 29) -> list:
    """A deterministic mining-generation snapshot of ``count`` candidates.

    Models what :class:`~repro.core.evolution.CandidateScorer` actually
    receives from a converged evolutionary population: a handful of
    structural ancestors (the D / NN / R initialisations plus one structural
    mutant each), a majority of **param-tweak children** — the mutator's
    params-only move resamples an operation's parameters without touching
    the tape, so children share their parent's stack signature — and every
    fourth slot an **elite clone** carried forward unchanged (elitism
    re-scores survivors each generation; clones dedup canonically).  The
    elite family dominates the slot cycle the way a converged population
    concentrates on its fittest structure.
    """
    from repro.config import make_rng
    from repro.core.ops import sample_params
    from repro.core.program import COMPONENTS, Operation

    mutator = Mutator(dims, seed=seed)
    bases = [get_initialization(code, dims, seed=seed)
             for code in ("D", "NN", "R")]
    parents = list(bases)
    while len(parents) < 6:
        parents.append(mutator.mutate(bases[len(parents) % 3]))

    rng = make_rng(jitter_seed)

    def jitter_params(program, name):
        child = program.copy(name=name)
        for component in COMPONENTS:
            operations = child.component(component)
            for index, operation in enumerate(operations):
                if operation.spec.param_names:
                    operations[index] = Operation.make(
                        operation.spec.name, operation.inputs,
                        operation.output,
                        sample_params(operation.spec, dims, rng),
                    )
        return child

    # Parent indices for the child slots, weighted toward the elite family
    # (0 = D base, 3 = its structural mutant); the matrix-heavy NN family
    # (1, 4) is the converged population's minority.
    cycle = [0, 3, 2, 0, 3, 5, 0, 3, 1, 0, 3, 2, 0, 3, 5, 4]
    programs = []
    while len(programs) < count:
        index = len(programs)
        if index % 4 == 3:
            parent = parents[(index // 4) % len(parents)]
            programs.append(parent.copy(name=f"alpha_{index}"))
        else:
            parent = parents[cycle[index % len(cycle)]]
            programs.append(jitter_params(parent, f"alpha_{index}"))
    return programs


def reports_identical(left, right) -> bool:
    """Bitwise comparison of two fitness reports (NaN-aware).

    The parity predicate of the CI smoke gates: every field must match
    exactly (``ic_valid`` NaNs compare equal, as both sides produce them for
    degenerate candidates).
    """
    same_ic = (left.ic_valid == right.ic_valid) or (
        np.isnan(left.ic_valid) and np.isnan(right.ic_valid)
    )
    return (
        left.fitness == right.fitness
        and same_ic
        and left.is_valid == right.is_valid
        and left.reason == right.reason
        and np.array_equal(left.daily_ic_valid, right.daily_ic_valid)
    )

#: Where each benchmark drops its rendered table and JSON rows — the single
#: source of truth for benchmark artifacts (see benchmarks/README.md).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Repository root; ``BENCH_*.json`` copies land here for discoverability.
REPO_ROOT = RESULTS_DIR.parent.parent


def spread(seconds: list[float]) -> dict:
    """Median, min and max of one path's timings."""
    return {"median": round(statistics.median(seconds), 4),
            "min": round(min(seconds), 4), "max": round(max(seconds), 4)}


def telemetry_block() -> dict:
    """The shared ``telemetry`` block every benchmark JSON carries.

    Host facts plus whatever instruments the process-wide telemetry
    registry holds at write time (empty unless the benchmark ran inside a
    :func:`repro.obs.telemetry_session`), so artifacts record where and
    under what observed conditions they were measured.
    """
    from repro.obs import TELEMETRY, host_info

    return {"host": host_info(), "instruments": TELEMETRY.snapshot()}


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one benchmark payload as ``BENCH_<name>.json``.

    ``benchmarks/results/`` is the single source of truth; the root-level
    ``BENCH_<name>.json`` is a byte-identical convenience copy written in
    the same call, so the two can never drift apart.  Returns the primary
    (results-dir) path.  A shared ``telemetry`` block
    (:func:`telemetry_block`) is attached unless the payload already
    carries one.
    """
    payload = dict(payload)
    payload.setdefault("telemetry", telemetry_block())
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    primary = RESULTS_DIR / f"BENCH_{name}.json"
    primary.write_text(text)
    (REPO_ROOT / f"BENCH_{name}.json").write_text(text)
    return primary


def bench_config() -> ExperimentConfig:
    """The experiment configuration selected through ``REPRO_BENCH_SCALE``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "laptop").lower()
    if scale == "smoke":
        return SMOKE
    if scale == "laptop":
        # A slightly trimmed laptop configuration so the full benchmark suite
        # finishes within a few minutes while keeping every protocol intact.
        return LAPTOP.scaled(
            max_candidates=400,
            round_time_budget_seconds=4.0,
            pruning_time_budget_seconds=4.0,
            nn_epochs=2,
            nn_num_seeds=3,
            nn_hidden_sizes=(16, 32),
            nn_sequence_lengths=(4, 8),
            nn_loss_alphas=(0.1, 1.0),
        )
    raise ValueError(f"unknown REPRO_BENCH_SCALE {scale!r}; use 'smoke' or 'laptop'")


def report(result, experiment: str) -> None:
    """Print the measured table (bypassing pytest capture) and persist it.

    The rendered table plus the paper's reference rows go to the real stdout
    (so ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` shows
    them), to ``benchmarks/results/<experiment>.txt``, and the structured rows
    to ``benchmarks/results/<experiment>.json``.
    """
    lines = ["", result.rendered]
    reference = PAPER_REFERENCE.get(experiment)
    if reference:
        lines.append(f"\nPaper reference ({experiment}):")
        for row in reference:
            lines.append("  " + ", ".join(f"{key}={value}" for key, value in row.items()))
    lines.append("")
    text = "\n".join(lines)
    print(text, file=sys.__stdout__, flush=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")
    save_result(result, RESULTS_DIR)
