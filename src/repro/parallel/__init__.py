"""Parallel alpha-search subsystem.

The paper evaluates candidate alphas on a fleet of workers for 60-hour
search rounds; this package reproduces that architecture on one machine:

* :mod:`repro.parallel.shm`        — zero-copy shared feature/label panels
  (``multiprocessing.shared_memory``) with content-signature attach guards
  and unlink-on-every-exit-path cleanup;
* :mod:`repro.parallel.pool`       — a process pool that runs jobs (search
  segments, program-batch chunks) concurrently over the shared panel,
  under the evaluator each dispatch names, restarting workers and
  requeueing lost jobs after crashes;
* :mod:`repro.parallel.islands`    — the search controller every mining
  search runs on: one or more regularised-evolution populations advanced
  segment by segment between barriers (in-process, or one island per pool
  job), the records replayed in serial order, and ring migration;
* :mod:`repro.parallel.checkpoint` — atomic checkpoint/resume of the full
  search state, so long runs survive restarts.

The subsystem plugs into :class:`repro.core.mining.MiningSession` through
``EvolutionConfig(num_workers=..., num_islands=...)`` and the CLI flags
``--workers`` / ``--islands`` / ``--checkpoint``.  Only ``num_islands``
shapes a search; the worker count and the checkpoint never change what it
mines.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    SearchCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .islands import Island, IslandEvolutionController
from .pool import EvaluationPool, PendingEvaluations, PoolEvaluation, PoolSpec
from .shm import (
    SEGMENT_PREFIX,
    SharedPanelHandle,
    SharedPanelStore,
    panel_signature,
    shared_segment_names,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "EvaluationPool",
    "Island",
    "IslandEvolutionController",
    "PendingEvaluations",
    "PoolEvaluation",
    "PoolSpec",
    "SEGMENT_PREFIX",
    "SearchCheckpoint",
    "SharedPanelHandle",
    "SharedPanelStore",
    "load_checkpoint",
    "panel_signature",
    "save_checkpoint",
    "shared_segment_names",
]
