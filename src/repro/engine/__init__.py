"""Unified execution-engine layer: one protocol, many backends, whole fleets.

The paper's workload is evaluating huge fleets of alpha programs under one
train/inference label-reveal protocol.  This package is where that protocol
lives — once — and where every execution path in the repository plugs in:

* :mod:`repro.engine.backends`   — the :class:`ExecutionEngine` per-day
  contract (P ≥ 1 lanes, ``(P, K)`` predictions), the
  :class:`InterpreterBackend` reference implementation, and
  :func:`make_backend` (the ``--engine`` selector behind the CLI,
  :class:`EvolutionConfig` and
  :class:`~repro.core.interpreter.AlphaEvaluator`), which binds the
  compiled engine's one-lane :class:`~repro.compile.StackedAlpha` tape;
* :mod:`repro.engine.protocol`   — the single implementation of the
  Setup → train (Predict / label-reveal / Update) → inference day-loop,
  including the fused-inference and static-predict **time-batched** fast
  paths that collapse eligible stages into one ``(T, K, ...)`` kernel call;
* :mod:`repro.engine.incremental` — :class:`IncrementalExecutor`, the one
  serving unit: the lanes of one backend advanced one day per ``step``
  with suspend/resume and delta-replay corrections;
* :mod:`repro.engine.replay`     — bounded delta-replay of point
  corrections: :class:`SnapshotRing` per-day state retention plus the
  compile-time lookback bound, behind ``IncrementalExecutor.correct`` and
  the fleet's ``correct`` fan-out;
* :mod:`repro.engine.fleet`      — :class:`FleetEngine`, N programs over
  one shared :class:`~repro.core.ops.ExecutionContext` and data pass with
  deduplication by tape key and one backend per signature group (behind
  both the search's batch scorer and the streaming
  :class:`~repro.stream.server.AlphaServer`).

Everything above this layer (evaluator, search, pool workers, streaming,
benchmarks) selects an engine by name and delegates; everything below it
(operators, IR, tapes) only ever executes one component once.  Bitwise
parity across all engines and fast paths is a hard, gated contract
(``benchmarks/bench_engine.py``).
"""

from .backends import (
    ENGINES,
    ExecutionEngine,
    InterpreterBackend,
    make_backend,
    resolve_engine,
)
from .fleet import (
    FleetEngine,
    FleetMember,
    evaluate_program_batch,
    stack_partition,
)
from .incremental import IncrementalExecutor
from .replay import (
    DEFAULT_UNBOUNDED_DEPTH,
    CorrectionResult,
    SnapshotRing,
    replay_correction,
    snapshot_depth_for,
)
from .protocol import (
    can_batch_training,
    inference_pass,
    run_protocol,
    stream_days,
    training_pass,
)

__all__ = [
    "DEFAULT_UNBOUNDED_DEPTH",
    "ENGINES",
    "CorrectionResult",
    "ExecutionEngine",
    "FleetEngine",
    "FleetMember",
    "IncrementalExecutor",
    "InterpreterBackend",
    "SnapshotRing",
    "can_batch_training",
    "evaluate_program_batch",
    "inference_pass",
    "make_backend",
    "replay_correction",
    "resolve_engine",
    "run_protocol",
    "snapshot_depth_for",
    "stack_partition",
    "stream_days",
    "training_pass",
]
