"""Multi-alpha batch serving: one market bar in, all predictions out.

:class:`AlphaServer` is the online front of the engine layer's
:class:`~repro.engine.fleet.FleetEngine`: the top-K programs of a mining
session are *registered* once, *warm-started* once over the training
history, and then each arriving day ("bar") is evaluated across all of
them in one pass.  Three kinds of work are shared across the fleet:

* **feature extraction** — one ``(K, f, w)`` feature tensor per day is built
  once (by the task-set pipeline) and handed to every registered alpha; no
  per-alpha feature work exists;
* **the day loop** — one ``on_bar`` call advances every alpha, so per-day
  overhead (timing, label reveal, bookkeeping) is paid once, not K times;
* **duplicate programs** — the fleet fingerprints each program on its
  canonical IR (the same prune → :func:`repro.core.cache.fingerprint` flow
  the search's :class:`~repro.core.cache.FingerprintCache` uses), so mined
  alphas that are equivalent — mirrored commutative operands, renamed
  registers, duplicated subexpressions, arithmetic on zero-initialised
  memory — share a single incremental executor and are evaluated once per
  day, however many names point at them.

The server is the *same code path* as the offline backtest: every executor
context comes from
:meth:`~repro.core.interpreter.AlphaEvaluator.make_context` of an evaluator
built with the server's seed, warm-start replays exactly the evaluator's
training protocol (through the single day-loop of
:mod:`repro.engine.protocol`), and the driver (:mod:`repro.stream.driver`)
asserts the served predictions equal the offline batch path bit for bit —
results can never diverge between research and serving.

:meth:`suspend` / :meth:`resume` checkpoint the whole fleet's rolling state
(see :mod:`repro.stream.state`), so a serving process can be killed and
relaunched mid-stream without replaying history and without changing a
single output bit.

Real market data is never clean: :meth:`correct_bar` rewrites one
already-served bar and **delta-replays** only the suffix the correction
invalidates — the engine layer's bounded snapshot rings plus the
compile-time lookback bound (:mod:`repro.engine.replay`) make that bitwise
identical to a full warm-start replay at a fraction of the cost.  The
server retains the full served-bar history as the replay source of truth;
corrections patch it in place, are logged
(:class:`CorrectionRecord`), and survive suspend/resume.

Each serving fact has one owner: the server's evaluator holds the task
set and the evaluation settings (seed, ``max_train_steps``,
``use_update``) and the fleet holds the registrations; the server keeps
what serving adds — the served-bar history and day count, the correction
log and the bar latencies.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..compile import TapeState
from ..core.interpreter import AlphaEvaluator
from ..core.program import AlphaProgram
from ..data.dataset import TaskSet
from ..engine.fleet import FleetEngine, FleetMember
from ..errors import StreamError
from ..obs import TELEMETRY, Histogram

__all__ = ["CorrectionRecord", "ServerState", "AlphaServer"]

#: Bumped whenever the server-state layout changes incompatibly.
#: v2: served-bar history, the correction log and the delta-replay
#: snapshot payloads ride along with the tapes.  v3: registrations, tapes
#: and replay payloads are keyed by fingerprints that see through
#: arithmetic on zero-initialised memory.
SERVER_STATE_VERSION = 3

#: Reservoir size of the per-bar latency histogram: large enough that every
#: bar of a laptop-scale serve (and the bench suite) is kept exactly, yet a
#: years-long live stream stays bounded.
BAR_LATENCY_RESERVOIR = 4096


def taskset_fingerprint(taskset: TaskSet) -> str:
    """A content hash identifying the data a server was trained/served on.

    Covers the shape, the split, the dates and the full label panel —
    enough to distinguish two synthetic markets generated with different
    seeds even when every dimension matches.  (The labels are ``(N, K)``,
    so hashing them stays cheap even at paper scale; the feature tensor
    is derived from the same panel and is deliberately not hashed.)
    """
    digest = hashlib.sha256()
    digest.update(repr((
        taskset.num_samples, taskset.num_tasks, taskset.num_features,
        taskset.window, taskset.split,
    )).encode("utf-8"))
    digest.update(np.ascontiguousarray(taskset.dates).tobytes())
    digest.update(np.ascontiguousarray(taskset.labels).tobytes())
    return digest.hexdigest()


def _append_row(buffer: np.ndarray | None, length: int,
                row: np.ndarray) -> np.ndarray:
    """Append ``row`` at ``buffer[length]``, doubling capacity as needed."""
    row = np.asarray(row, dtype=float)
    if buffer is None:
        buffer = np.empty((8,) + row.shape, dtype=float)
    elif length == buffer.shape[0]:
        grown = np.empty((2 * buffer.shape[0],) + buffer.shape[1:],
                         dtype=float)
        grown[:length] = buffer[:length]
        buffer = grown
    buffer[length] = row
    return buffer


@dataclass(frozen=True)
class CorrectionRecord:
    """One applied point correction, as logged (and persisted) by the server."""

    #: Served-day index the correction rewrote.
    day: int
    #: Which parts of the bar changed.
    features_corrected: bool
    labels_corrected: bool
    #: ``days_served`` at the time the correction was applied.
    days_served: int
    #: Suffix length actually re-executed (max across the fleet's units).
    replayed_days: int


@dataclass(frozen=True)
class ServerState:
    """Suspended state of a whole :class:`AlphaServer` fleet.

    Contains one :class:`~repro.compile.executor.TapeState` per *unique*
    executor plus an echo of the registration table, so a resume under a
    different program set fails loudly instead of serving the wrong alpha.
    Since v2 it also carries the served-bar history, the correction log and
    the per-key delta-replay payloads, so :meth:`AlphaServer.correct_bar`
    keeps working across a suspend/resume round trip.
    """

    version: int
    base_seed: int
    #: Content hash of the task set the fleet was warmed/served on (see
    #: :func:`taskset_fingerprint`) — a resume against different market
    #: data of the same shape must fail loudly, not serve stale state.
    data_key: str
    days_served: int
    #: name → canonical fingerprint, in registration order.
    registrations: dict[str, str]
    #: canonical fingerprint → suspended tape state.
    tapes: dict[str, TapeState]
    #: Served-bar history ``(features (D, K, f, w), labels (D, K))`` with
    #: all applied corrections patched in; ``None`` on pre-v2 states.
    history: tuple[np.ndarray, np.ndarray] | None = None
    #: Corrections applied before suspension, oldest first.
    corrections: tuple[CorrectionRecord, ...] = ()
    #: canonical fingerprint → delta-replay payload (warm anchor + snapshot
    #: ring entries; see ``FleetEngine.suspend_replay_states``).
    replay: dict[str, dict] | None = None


class AlphaServer:
    """Serves the predictions of a registered alpha fleet day by day.

    Parameters
    ----------
    taskset:
        The task set whose feature pipeline and training history back the
        fleet; serving parity is defined against an
        :class:`~repro.core.interpreter.AlphaEvaluator` over this task set.
    seed / max_train_steps / use_update:
        Settings of the server's compiled-engine :attr:`evaluator`, the one
        copy every serving path reads; a server and an offline evaluator
        built with equal settings produce bitwise-identical predictions.
    """

    def __init__(
        self,
        taskset: TaskSet,
        seed: int | np.random.Generator | None = 0,
        max_train_steps: int | None = None,
        use_update: bool = True,
    ) -> None:
        #: The paired offline evaluator: owner of the evaluation settings,
        #: source of the execution contexts, the training-day subsample and
        #: the parity reference.
        self.evaluator = AlphaEvaluator(
            taskset,
            seed=seed,
            max_train_steps=max_train_steps,
            use_update=use_update,
            engine="compiled",
        )
        self._data_key = taskset_fingerprint(taskset)
        #: The engine-layer fleet behind registration, warm-start and
        #: per-bar fan-out (one shared context, canonical dedup), and the
        #: one copy of the registrations.
        self.fleet = FleetEngine(self.evaluator)
        self.days_served = 0
        #: Served-bar history — the delta-replay source of truth.  Stored in
        #: contiguous buffers grown geometrically (``(capacity, K, f, w)`` /
        #: ``(capacity, K)``), so a correction hands the engine O(1) views
        #: of the history instead of restacking O(T) days per call; patched
        #: in place by :meth:`correct_bar`.
        self._history_features: np.ndarray | None = None
        self._history_labels: np.ndarray | None = None
        self._num_bars = 0
        self._num_labels = 0
        #: Applied corrections, oldest first (persisted by :meth:`suspend`).
        self.corrections: list[CorrectionRecord] = []
        #: Bounded per-bar latency histogram: exact count/total/min/max plus
        #: a reservoir for percentiles — a long-lived serving process no
        #: longer grows a per-day Python list without limit.
        self._bar_latency = Histogram(
            "serve.bar_latency_seconds", reservoir_size=BAR_LATENCY_RESERVOIR
        )

    # ------------------------------------------------------------------
    @property
    def taskset(self) -> TaskSet:
        """The task set the fleet serves (the evaluator's)."""
        return self.evaluator.taskset

    @property
    def base_seed(self) -> int:
        """The derived seed shared with the paired offline evaluator."""
        return self.evaluator.base_seed

    @property
    def registrations(self) -> list[FleetMember]:
        """The fleet's members (name, canonical-IR ``key``,
        ``deduplicated``, ``redundant``), in registration order."""
        return self.fleet.members

    @property
    def num_registered(self) -> int:
        """Number of registered alpha names."""
        return self.fleet.num_members

    @property
    def num_unique(self) -> int:
        """Number of distinct executors behind those names."""
        return self.fleet.num_unique

    @property
    def names(self) -> list[str]:
        """Registered alpha names, in registration order."""
        return self.fleet.names

    @property
    def _warmed(self) -> bool:
        return self.fleet.is_warm

    # ------------------------------------------------------------------
    def register(self, program: AlphaProgram,
                 name: str | None = None) -> FleetMember:
        """Add ``program`` to the served fleet under ``name``.

        Programs whose canonical-IR fingerprint matches an already
        registered one share that executor (``deduplicated=True``): they are
        evaluated once per bar and their names receive the same prediction
        array.  Registration is only allowed before :meth:`warm_start`.
        """
        if self._warmed:
            raise StreamError("cannot register alphas on a warm server; "
                              "register the whole fleet first")
        return self.fleet.add(program, name=name)

    # ------------------------------------------------------------------
    def warm_start(self) -> None:
        """Set up and train every unique executor over the training split.

        Replays exactly the offline evaluator's training stage — same
        gathered bars, same ``max_train_steps`` day subsample, same
        label-reveal ordering — once per unique executor, through the
        shared :func:`repro.engine.protocol.training_pass`.
        """
        if self._warmed:
            raise StreamError("server is already warm")
        if not self.registrations:
            raise StreamError("no alphas registered; nothing to warm-start")
        with TELEMETRY.span(
            "serve.warm_start",
            registered=self.num_registered,
            unique=self.num_unique,
        ):
            self.fleet.warm_start()

    # ------------------------------------------------------------------
    def on_bar(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate one arriving day across the whole fleet.

        ``features`` is the day's ``(K, f, w)`` feature tensor, shared by
        every alpha, in any memory layout (a row of a task set's window
        view, say).  Returns name → ``(K,)`` prediction; deduplicated names
        reference the same array.  Call :meth:`reveal` with the realised
        labels before the next bar.
        """
        if not self._warmed:
            raise StreamError("server must be warm-started (or resumed) "
                              "before serving bars")
        # Store the bar first and step every tape from that contiguous row:
        # a strided client bar is gathered once, not once per tape.  The
        # row joins the history only once the step succeeded.
        history = _append_row(self._history_features, self._num_bars,
                              features)
        start = time.perf_counter()
        by_key = self.fleet.step_bar(history[self._num_bars])
        elapsed = time.perf_counter() - start
        self._history_features = history
        self._bar_latency.observe(elapsed)
        if TELEMETRY.enabled:
            TELEMETRY.counter("serve.bars").inc()
            TELEMETRY.histogram("serve.bar_latency_ms").observe(elapsed * 1e3)
        self.days_served += 1
        self._num_bars += 1
        return {
            registration.name: by_key[registration.key]
            for registration in self.registrations
        }

    def reveal(self, labels: np.ndarray) -> None:
        """Reveal the last bar's realised ``(K,)`` labels to every alpha."""
        self.fleet.reveal(labels)
        self._history_labels = _append_row(
            self._history_labels, self._num_labels, labels
        )
        self._num_labels += 1

    # ------------------------------------------------------------------
    def correct_bar(
        self,
        day: int,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Rewrite an already-served bar and delta-replay the fleet.

        ``day`` is the served-day index (0 = the first bar after warm-start);
        at least one of ``features`` (``(K, f, w)``) / ``labels`` (``(K,)``)
        must be given and replaces that day's retained bar.  Every unit of
        the fleet rewinds to its newest clean snapshot at or before ``day``
        — or spins up over its compile-time lookback bound — and replays
        only the invalidated suffix, bitwise-identically to a full
        warm-start replay over the corrected history.  ``days_served`` is
        unchanged.  Returns name → ``(days_served - day, K)`` corrected
        predictions for the replayed suffix.
        """
        if not self._warmed:
            raise StreamError("server must be warm-started (or resumed) "
                              "before correcting bars")
        if features is None and labels is None:
            raise StreamError("a correction must change the bar's features "
                              "or labels (or both)")
        if not 0 <= day < self.days_served:
            raise StreamError(
                f"cannot correct day {day}: {self.days_served} days served"
            )
        if self._num_labels != self.days_served:
            raise StreamError(
                "served-bar history is incomplete (a label is pending, or "
                "the server was resumed from a state without history); "
                "corrections need the full served history"
            )
        record_kwargs = {
            "features_corrected": features is not None,
            "labels_corrected": labels is not None,
        }
        if features is not None:
            patch = np.asarray(features, dtype=float)
            if patch.shape != self._history_features.shape[1:]:
                raise StreamError(
                    f"corrected features have shape {patch.shape}, day "
                    f"{day} was served with {self._history_features.shape[1:]}"
                )
            self._history_features[day] = patch
        if labels is not None:
            patch = np.asarray(labels, dtype=float)
            if patch.shape != self._history_labels.shape[1:]:
                raise StreamError(
                    f"corrected labels have shape {patch.shape}, day "
                    f"{day} was revealed with {self._history_labels.shape[1:]}"
                )
            self._history_labels[day] = patch
        history_features = self._history_features[:self.days_served]
        history_labels = self._history_labels[:self.days_served]
        with TELEMETRY.span("serve.correct", day=day,
                            days_served=self.days_served):
            by_key = self.fleet.correct(day, history_features, history_labels)
        replayed = max(result.replayed_days for result in by_key.values())
        if TELEMETRY.enabled:
            # A full warm-start replay would re-run the training pass plus
            # every served day; the delta path replays only the suffix.
            full_replay = (
                len(self.evaluator.train_day_indices()) + self.days_served
            )
            TELEMETRY.counter("stream.corrections").inc()
            TELEMETRY.counter("stream.replay_days").inc(replayed)
            TELEMETRY.counter("stream.replay_days_saved").inc(
                max(full_replay - replayed, 0)
            )
        self.corrections.append(CorrectionRecord(
            day=day, days_served=self.days_served, replayed_days=replayed,
            **record_kwargs,
        ))
        return {
            registration.name: by_key[registration.key].predictions
            for registration in self.registrations
        }

    # ------------------------------------------------------------------
    def suspend(self) -> ServerState:
        """Snapshot the whole fleet's rolling state for later resumption."""
        if not self._warmed:
            raise StreamError("cannot suspend a server that was never warmed")
        history = None
        if self._num_labels and self._num_labels == self._num_bars:
            history = (
                np.array(self._history_features[:self._num_bars], copy=True),
                np.array(self._history_labels[:self._num_labels], copy=True),
            )
        return ServerState(
            version=SERVER_STATE_VERSION,
            base_seed=self.base_seed,
            data_key=self._data_key,
            days_served=self.days_served,
            registrations={
                registration.name: registration.key
                for registration in self.registrations
            },
            tapes=self.fleet.suspend_tapes(),
            history=history,
            corrections=tuple(self.corrections),
            replay=self.fleet.suspend_replay_states(),
        )

    def resume(self, state: ServerState) -> None:
        """Restore a :meth:`suspend` snapshot into this (fresh) server.

        The same programs must have been registered first; the snapshot's
        registration table, version and seed are validated against this
        server before any state is touched.  Every persisted tape state —
        the fleet's and its delta-replay payloads' — is validated against
        its executor as it is restored
        (:class:`~repro.errors.ExecutionError`); a server whose resume
        raised must be discarded.
        """
        if self._warmed:
            raise StreamError("cannot resume into a server that already ran")
        if state.version != SERVER_STATE_VERSION:
            raise StreamError(
                f"server state has version {state.version}, this build "
                f"reads version {SERVER_STATE_VERSION}"
            )
        if state.base_seed != self.base_seed:
            raise StreamError(
                f"server state was produced under base seed "
                f"{state.base_seed}, this server runs under {self.base_seed}"
            )
        if state.data_key != self._data_key:
            raise StreamError(
                "server state was produced on a different task set; "
                "resuming it here would silently mix training histories"
            )
        registered = {
            registration.name: registration.key
            for registration in self.registrations
        }
        if state.registrations != registered:
            raise StreamError(
                "server state registration table does not match this "
                "server; register the same programs under the same names "
                "before resuming"
            )
        self.fleet.resume_tapes(state.tapes, days_served=state.days_served)
        self.days_served = int(state.days_served)
        if state.history is not None:
            features, labels = state.history
            self._history_features = np.array(features, dtype=float, copy=True)
            self._history_labels = np.array(labels, dtype=float, copy=True)
            self._num_bars = int(features.shape[0])
            self._num_labels = int(labels.shape[0])
        self.corrections = list(state.corrections)
        if state.replay is not None:
            self.fleet.resume_replay_states(state.replay)

    # ------------------------------------------------------------------
    @property
    def bar_latencies(self) -> list[float]:
        """Per-bar wall-clock seconds (the histogram's bounded reservoir).

        Exact and complete up to :data:`BAR_LATENCY_RESERVOIR` served bars;
        beyond that it is a uniform sample — use :meth:`stats` for exact
        count/mean/total however long the stream runs.
        """
        return self._bar_latency.values

    def stats(self) -> dict[str, float | int]:
        """Serving statistics: fleet size, dedup wins and bar latency."""
        histogram = self._bar_latency
        served = histogram.count
        mean_latency = histogram.mean if served else 0.0
        p95_latency = histogram.percentile(95.0) if served else 0.0
        total = histogram.total
        alpha_days = self.num_registered * served
        return {
            "registered_alphas": self.num_registered,
            "unique_executors": self.num_unique,
            "stack_groups": self.fleet.stack_groups,
            "deduplicated_alphas": self.num_registered - self.num_unique,
            "redundant_alphas": sum(
                1 for registration in self.registrations if registration.redundant
            ),
            "days_served": self.days_served,
            "bars_timed": served,
            "mean_bar_latency_ms": mean_latency * 1e3,
            "p95_bar_latency_ms": p95_latency * 1e3,
            "alpha_days_per_second": (alpha_days / total) if total > 0 else 0.0,
        }
