"""Checkpoint/resume for long-running searches.

The paper runs 60-hour search rounds; at that scale a restart must not throw
away days of work.  :func:`save_checkpoint` serialises the full search state
— island populations (each candidate with its fingerprint), per-island RNG
and mutator states, the search's key set with its cache statistics, the
best-so-far candidate and the trajectory — with :mod:`pickle`, atomically
(write to a temporary file, then ``os.replace``), so a crash mid-write
never corrupts the previous checkpoint.  A checkpoint is taken at a
barrier (:mod:`repro.parallel.islands`), where the parent holds every
island: a due checkpoint is one of the points a pooled search joins its
workers.

The heavyweight, *reconstructible* objects — the task set, the evaluator,
the scorers' report caches and the worker pool — are deliberately not
part of the checkpoint: the resuming process rebuilds them from its own
configuration and seeds each scorer's cache from the populations, which
also means a checkpoint taken with one worker count can be resumed with
another.

Each save re-serialises the whole state, so checkpoint size and save time
grow with the number of searched candidates (the key set and the
trajectory dominate).  For very long runs, raise ``checkpoint_interval`` so
the save cost stays small next to the evaluation work between saves; an
incremental (append-only) log is the natural next step if that ever
becomes the bottleneck.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

from ..errors import CheckpointError, ConfigurationError

__all__ = [
    "CHECKPOINT_VERSION",
    "SearchCheckpoint",
    "atomic_pickle_save",
    "load_pickle",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointManager",
]

#: Bumped whenever the checkpoint layout or the meaning of its cached
#: fitness reports changes incompatibly (version 2: initialiser draws no
#: longer depend on the process's string-hash salt; version 3: the
#: configuration echo no longer names a main-loop scheduler; version 4: the
#: cached reports are keyed by fingerprints that see through arithmetic on
#: zero-initialised memory, so a version-3 cache would resume with other
#: hit counts than an uninterrupted search; version 5: the fingerprint is
#: the tape key, which keeps commutative operands in written order, and
#: ``initial_key`` is the initial program's exact key; version 6: the
#: search's key set and cache statistics replace the report cache, and
#: every candidate carries its fingerprint).
CHECKPOINT_VERSION = 6


@dataclass
class SearchCheckpoint:
    """Full state of an island-model search at one point in time.

    ``islands`` holds :class:`repro.parallel.islands.Island` objects —
    populations, tournament RNGs and mutators included.  ``keys`` is the
    set of fingerprints the search has seen, which decides whether a
    later candidate counts as a hit, and ``cache_stats`` the
    :class:`~repro.core.cache.CacheStats` so far.  ``config_echo``
    records the search hyper-parameters the state depends on, so a resume
    under a different configuration fails loudly instead of silently
    diverging.  Budgets (``max_candidates`` / ``max_seconds``) are *not*
    echoed: resuming with an extended budget is the point of checkpointing.
    """

    version: int
    candidates_generated: int
    step: int
    migrations: int
    elapsed_seconds: float
    keys: set
    cache_stats: object
    islands: list
    best_ever: object
    trajectory: list
    #: :meth:`~repro.core.program.AlphaProgram.exact_key` of the initial
    #: program.
    initial_key: tuple
    config_echo: dict = field(default_factory=dict)


def atomic_pickle_save(path: str, obj: object,
                       error_cls: type[Exception] = CheckpointError,
                       what: str = "checkpoint") -> None:
    """Crash-safe pickle write: dump to ``<path>.tmp``, then ``os.replace``.

    A crash mid-write never corrupts a previous file at ``path``.  Shared by
    the search checkpoints here and the streaming state snapshots
    (:mod:`repro.stream.state`); ``error_cls``/``what`` keep each caller's
    error surface (``CheckpointError`` vs ``StreamError``).
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = f"{path}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temp_path, "wb") as handle:
            pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_path, path)
    except OSError as exc:
        raise error_cls(f"cannot write {what} to {path!r}: {exc}") from exc
    finally:
        if os.path.exists(temp_path):  # pragma: no cover - only on failed replace
            os.unlink(temp_path)


def load_pickle(path: str, error_cls: type[Exception] = CheckpointError,
                what: str = "checkpoint") -> object:
    """Load a pickle written by :func:`atomic_pickle_save`."""
    if not os.path.exists(path):
        raise error_cls(f"no {what} found at {path!r}")
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError, OSError) as exc:
        raise error_cls(f"cannot read {what} {path!r}: {exc}") from exc


def save_checkpoint(path: str, checkpoint: SearchCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path``."""
    atomic_pickle_save(path, checkpoint)


def load_checkpoint(path: str) -> SearchCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`."""
    state = load_pickle(path)
    if not isinstance(state, SearchCheckpoint):
        raise CheckpointError(
            f"{path!r} does not contain a search checkpoint "
            f"(got {type(state).__name__})"
        )
    if state.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {state.version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return state


class CheckpointManager:
    """Decides *when* to checkpoint and performs the saves/loads.

    A checkpoint becomes due every ``interval`` searched candidates; the
    first save after construction (or resume) is always due, so a freshly
    restarted run re-establishes its on-disk state quickly.
    """

    def __init__(self, path: str, interval: int = 500) -> None:
        if interval < 1:
            raise ConfigurationError("checkpoint interval must be at least 1")
        self.path = str(path)
        self.interval = interval
        self._last_saved: int | None = None

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether a checkpoint file is present on disk."""
        return os.path.exists(self.path)

    def due(self, candidates_generated: int) -> bool:
        """Whether enough candidates were searched since the last save."""
        if self._last_saved is None:
            return True
        return candidates_generated - self._last_saved >= self.interval

    # ------------------------------------------------------------------
    def save(self, checkpoint: SearchCheckpoint) -> None:
        """Persist ``checkpoint`` and remember its candidate count."""
        save_checkpoint(self.path, checkpoint)
        self._last_saved = checkpoint.candidates_generated

    def load(self) -> SearchCheckpoint:
        """Load the checkpoint and align the save cadence with its state."""
        checkpoint = load_checkpoint(self.path)
        self._last_saved = None
        return checkpoint
