"""Incremental (day-at-a-time) execution: the one serving unit.

The offline protocol (:mod:`repro.engine.protocol`) recomputes an alpha's
whole history per call; for serving — one new market bar per day — the only
state an alpha carries between days is its operand memory, so advancing by
one day costs exactly one ``Predict()`` pass plus a label reveal,
independent of how much history precedes it.

:class:`IncrementalExecutor` packages that contract around any
:class:`~repro.engine.backends.ExecutionEngine` of P ≥ 1 lanes — one
program, or a whole signature group of a fleet on one compiled tape.  The
compiled tape adds the tape protocol: ``snapshot``/``restore`` internally,
``suspend``/``resume`` and ``tape_state``/``adopt`` for the external
per-lane :class:`~repro.compile.executor.TapeState` format.

* :meth:`warm_start` replays the training stage once by delegating to
  :func:`repro.engine.protocol.training_pass` — the same code, day for
  day, as the offline evaluator, including the ``max_train_steps``
  subsample whose indices the caller passes through;
* :meth:`step` advances one inference day and returns the ``(P, K)``
  predictions;
* :meth:`reveal` writes the realised label *after* the prediction was
  taken, exactly as :func:`~repro.engine.protocol.stream_days` orders it;
* :meth:`suspend` / :meth:`resume` round-trip the rolling operand state,
  one ``TapeState`` per lane, so serving can be checkpointed mid-stream
  and continue bitwise identically — into any lane layout that holds the
  same programs;
* :meth:`correct` delta-replays a point correction to an already-served
  bar: a bounded ring of per-day snapshots (depth from the compile-time
  lookback analysis) plus the permanent warm-start anchor let a correction
  at day ``t`` replay only the invalidated suffix instead of the whole
  history — bitwise-identical to a full warm-start replay
  (:mod:`repro.engine.replay`).  Ring and anchor hold the backend's
  copy-on-write snapshots of all lanes at once, so a reveal copies only
  the state serving changes; :meth:`replay_state` /
  :meth:`restore_replay_state` convert them to and from validated
  per-lane ``TapeState``\\ s for persistence.
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamError
from .backends import ExecutionEngine
from .protocol import training_pass
from .replay import (
    CorrectionResult, SnapshotRing, replay_correction, snapshot_depth_for,
)

__all__ = ["IncrementalExecutor"]


class IncrementalExecutor:
    """The P ≥ 1 lanes of one backend, advanced one day at a time.

    Parameters
    ----------
    backend:
        The backend to drive, of any lane count:
        :meth:`~repro.core.interpreter.AlphaEvaluator.make_backend` builds
        one program's (bitwise identical to that evaluator's offline path),
        and :class:`~repro.engine.fleet.FleetEngine` passes a signature
        group's tape over its shared
        :class:`~repro.core.ops.ExecutionContext`.  Suspend, resume and
        snapshot-based corrections need a backend with a tape protocol
        (the compiled one).
    """

    def __init__(self, backend: ExecutionEngine) -> None:
        self.executor = backend
        #: Inference days served since the warm start.
        self.days_served = 0
        self._warmed = False
        self._awaiting_label = False
        #: Delta-replay state: a bounded ring of per-day tape snapshots plus
        #: the permanent warm/resume anchor, both the backend's own
        #: copy-on-write snapshots.  Only backends with a tape protocol can
        #: snapshot; the interpreter serves corrections through the
        #: bounded-lookback spin-up path alone.
        self._can_snapshot = (
            getattr(self.executor, "snapshot", None) is not None
        )
        self._ring: SnapshotRing | None = None
        self._anchor: tuple[int, object] | None = None

    # ------------------------------------------------------------------
    @property
    def max_lookback(self) -> int | None:
        """Replay spin-up bound (``None`` = unbounded recurrence).

        The lanes share one tape structure, hence one lookback.
        """
        return self.executor.lookback.max_lookback

    def _ensure_ring(self) -> SnapshotRing | None:
        if not self._can_snapshot:
            return None
        if self._ring is None:
            self._ring = SnapshotRing(snapshot_depth_for(self.max_lookback))
        return self._ring

    def replay_state(self) -> list[dict]:
        """The persistable delta-replay state (anchor + ring entries), one
        payload per lane.

        Snapshots leave as :class:`~repro.compile.executor.TapeState`\\ s,
        the one external tape format, so a lane's payload restores into any
        lane layout that holds its program.
        """
        lanes = range(self.executor.num_programs)
        if not self._can_snapshot:
            return [{"anchor": None, "entries": ()} for _ in lanes]
        tape_state = self.executor.tape_state
        anchor = self._anchor
        entries = self._ring.entries() if self._ring is not None else ()
        return [
            {
                "anchor": (None if anchor is None
                           else (anchor[0], tape_state(anchor[1], lane))),
                "entries": tuple(
                    (day, tape_state(snap, lane)) for day, snap in entries
                ),
            }
            for lane in lanes
        ]

    def restore_replay_state(self, payloads) -> None:
        """Restore :meth:`replay_state` output (after :meth:`resume`).

        ``payloads`` holds one payload per lane (``None`` for a lane with
        nothing persisted, which restores nothing).  Lane states regroup
        into whole-tape snapshots, so only anchor and ring days retained
        for *every* lane come back.  Each state is validated as
        :meth:`resume` validates its own (raising
        :class:`~repro.errors.ExecutionError`) before any is adopted.
        """
        payloads = list(payloads)
        if any(payload is None for payload in payloads):
            return
        anchors = [payload.get("anchor") for payload in payloads]
        by_day: dict[int, dict[int, object]] = {}
        for lane, payload in enumerate(payloads):
            for day, state in payload.get("entries") or ():
                by_day.setdefault(int(day), {})[lane] = state
        if all(anchor is None for anchor in anchors) and not by_day:
            return
        adopt = self._tape_protocol("adopt")
        anchor = None
        if all(lane_anchor is not None for lane_anchor in anchors):
            days = {int(lane_anchor[0]) for lane_anchor in anchors}
            if len(days) == 1:
                anchor = (days.pop(), adopt(
                    [lane_anchor[1] for lane_anchor in anchors]
                ))
        complete = [
            (day, adopt([states[lane] for lane in range(len(payloads))]))
            for day, states in sorted(by_day.items())
            if len(states) == len(payloads)
        ]
        if anchor is not None:
            self._anchor = anchor
        if complete:
            self._ring = SnapshotRing(
                snapshot_depth_for(self.max_lookback), complete
            )

    # ------------------------------------------------------------------
    @property
    def is_warm(self) -> bool:
        """Whether the lanes went through setup + training and can serve."""
        return self._warmed

    # ------------------------------------------------------------------
    def warm_start(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        day_indices: np.ndarray | None = None,
        use_update: bool = True,
    ) -> None:
        """Run ``Setup()`` plus the single-epoch training pass.

        ``features`` has shape ``(D, K, f, w)`` and ``labels`` ``(D, K)``;
        ``day_indices`` selects the visited subsample (defaults to every day
        in order) and must match the offline evaluator's
        :meth:`~repro.core.interpreter.AlphaEvaluator.train_day_indices` for
        the two paths to stay bitwise identical.  The loop itself is the
        shared :func:`repro.engine.protocol.training_pass`, kept day-by-day
        so the suspended operand state evolves exactly as a live process's
        would; every lane advances in lock-step.
        """
        if self._warmed:
            raise StreamError("alpha is already warm; construct a fresh one "
                              "or resume a suspended state instead")
        self.executor.run_setup()
        training_pass(
            self.executor, features, labels,
            day_indices=day_indices, use_update=use_update,
        )
        self._warmed = True
        if self._can_snapshot:
            self._anchor = (0, self.executor.snapshot())

    # ------------------------------------------------------------------
    def step(self, features: np.ndarray) -> np.ndarray:
        """Advance one inference day and return the ``(P, K)`` predictions.

        Mirrors one iteration of the offline inference loop: the day's
        feature matrices go into ``m0``, ``Predict()`` runs once, and the
        predictions are returned *before* the day's label exists.  Call
        :meth:`reveal` once the label realises.
        """
        if not self._warmed:
            raise StreamError("alpha must be warm-started (or resumed) "
                              "before it can serve days")
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "call reveal() between steps")
        executor = self.executor
        executor.set_input(features)
        executor.run_predict()
        self.days_served += 1
        self._awaiting_label = True
        return executor.prediction.copy()

    def reveal(self, labels: np.ndarray) -> None:
        """Write the realised ``(K,)`` labels of the last stepped day.

        The offline inference stage never runs ``Update()`` — the trained
        parameters are frozen — and neither does this; the label is only
        made visible so the next day's ``Predict()`` reads what the batch
        path would read.
        """
        if not self._awaiting_label:
            raise StreamError("no prediction is pending a label; "
                              "call step() first")
        self.executor.set_label(labels)
        self._awaiting_label = False
        ring = self._ensure_ring()
        if ring is not None:
            ring.push(self.days_served, self.executor.snapshot())

    # ------------------------------------------------------------------
    def correct(
        self,
        day: int,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> CorrectionResult:
        """Delta-replay a correction to already-served day ``day``.

        ``features``/``labels`` are the *corrected* full served history
        (``(days_served, K, f, w)`` / ``(days_served, K)``).  Restores the
        newest clean snapshot at or before ``day`` — or, when the
        compile-time lookback bound is finite and cheaper, spins up from
        the current live state — and replays only the invalidated suffix,
        once for every lane.  The ``(days_served - day, P, K)`` predictions
        and the final operand state are bitwise-identical to a full
        warm-start replay of the corrected history; ``days_served`` is
        unchanged.
        """
        if not self._warmed:
            raise StreamError("alpha must be warm-started (or resumed) "
                              "before it can correct days")
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "reveal it before correcting history")
        return replay_correction(
            self.executor, day, features, labels,
            days_served=self.days_served,
            max_lookback=self.max_lookback,
            ring=self._ensure_ring(),
            anchor=self._anchor,
            take_snapshot=(self.executor.snapshot if self._can_snapshot
                           else None),
            restore_snapshot=(self.executor.restore if self._can_snapshot
                              else None),
            what=", ".join(program.name for program in self.executor.programs),
        )

    # ------------------------------------------------------------------
    def _tape_protocol(self, method: str):
        handler = getattr(self.executor, method, None)
        if handler is None:
            raise StreamError(
                f"the {type(self.executor).__name__} backend has no "
                f"suspend/resume tape protocol; serve it through the "
                f"compiled engine to checkpoint mid-stream"
            )
        return handler

    def suspend(self) -> tuple:
        """Snapshot the rolling operand state: one
        :class:`~repro.compile.executor.TapeState` per lane."""
        if self._awaiting_label:
            raise StreamError("cannot suspend between step() and reveal(); "
                              "reveal the pending label first")
        return self._tape_protocol("suspend")()

    def resume(self, states, days_served: int = 0) -> None:
        """Restore :meth:`suspend` output — one state per lane, from any
        lane layout — into this (fresh, un-warmed) executor."""
        if self._warmed:
            raise StreamError("cannot resume into an alpha that already ran; "
                              "construct a fresh one")
        self._tape_protocol("resume")(states)
        self.days_served = int(days_served)
        self._warmed = True
        # The resumed state is a clean snapshot entering this day; retain it
        # so corrections at or after the resume point need no warm anchor.
        # (restore_replay_state can still supply the original day-0 anchor.)
        self._anchor = (self.days_served, self.executor.snapshot())
