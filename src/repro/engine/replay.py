"""Bounded delta-replay: point corrections without a full warm-start.

A correction rewrites one already-served bar.  The naive fix is a full
warm-start replay — setup, the whole training stage, then every served day
again — which throws away exactly the incremental win the serving layer
exists for.  The static lookback analysis
(:mod:`repro.compile.lookback`) bounds how much of that work a correction
can actually invalidate, and this module turns the bound into a replay
plan:

* :class:`SnapshotRing` — a bounded ring of per-day loop-carried snapshots
  (the backend's own copy-on-write ``snapshot()`` tuples, which share the
  frozen trained memory between entries), pushed after every reveal.  A
  snapshot taken at day ``d`` is *clean* for a correction at day
  ``t >= d``: the correction only perturbs state from day ``t`` on.
* :func:`replay_correction` — pick the cheapest exact restart point and
  replay only the suffix.  Two plans compete:

  - **snapshot**: restore the newest retained snapshot at or before ``t``
    (the ring, or the permanent warm-start anchor) and replay forward;
  - **spin-up**: when the program's ``max_lookback`` ``L`` is finite, seed
    from the *current* live state at day ``t - L`` — frozen memory is
    correction-invariant, ``m0``/``s0`` are re-fed per replayed day, and
    every mutable operand is exact after at most ``L`` replayed days — so
    the replay is bitwise-identical to a full one without restoring
    anything.

  The replay re-pushes ring snapshots along the corrected timeline (spin-up
  only from the first provably-exact day), preserving the invariant that
  every retained snapshot equals what a clean full replay would have
  suspended at that day.  It pushes only the days the ring keeps — a
  replay longer than the ring would evict its earlier pushes before it
  returns — so the ring ends every replay exactly as if every day had
  been pushed.

The helper is engine-agnostic: it drives any
:class:`~repro.engine.backends.ExecutionEngine` surface
(``set_input``/``run_predict``/``prediction``/``set_label``) plus the
``take_snapshot``/``restore_snapshot`` callables it is handed;
:class:`~repro.engine.incremental.IncrementalExecutor` calls it once for
all the lanes of its backend.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import StreamError

__all__ = [
    "DEFAULT_UNBOUNDED_DEPTH",
    "CorrectionResult",
    "SnapshotRing",
    "replay_correction",
    "snapshot_depth_for",
]

#: Ring depth when the program's lookback is unbounded (self-recurrent
#: inference state): corrections within this many days of the present still
#: replay from a ring snapshot; older ones fall back to the warm anchor.
DEFAULT_UNBOUNDED_DEPTH = 8


def snapshot_depth_for(max_lookback: int | None) -> int:
    """Ring depth for a program with the given ``max_lookback``.

    Finite lookback needs at most ``max_lookback`` retained days (a deeper
    correction spins up from live state instead); zero-lookback programs
    keep one snapshot so the snapshot plan can serve day-0 corrections.
    """
    if max_lookback is None:
        return DEFAULT_UNBOUNDED_DEPTH
    return max(int(max_lookback), 1)


@dataclass(frozen=True)
class CorrectionResult:
    """What one backend replayed for one correction."""

    #: First corrected served-day index.
    day: int
    #: Served day the replay restarted from.
    start_day: int
    #: ``"snapshot"`` (restored a retained tape state) or ``"spinup"``
    #: (bounded-lookback replay from the live state).
    mode: str
    #: Days re-executed (``days_served - start_day``).
    replayed_days: int
    #: Corrected predictions for days ``day .. days_served - 1``; shape
    #: ``(days_served - day, P, K)`` for a backend's P lanes, one lane's
    #: ``(days_served - day, K)`` once a fleet scatters them to its keys.
    predictions: np.ndarray


class SnapshotRing:
    """Bounded, day-indexed ring of tape snapshots.

    Entries are ``(day, state)`` with strictly increasing days, ``day``
    being the serving-day index the state *enters* (i.e. the state after
    revealing day ``day - 1``).  Only the newest ``depth`` entries are
    retained.
    """

    def __init__(self, depth: int, entries=()) -> None:
        self.depth = max(int(depth), 1)
        self._entries: deque[tuple[int, object]] = deque(maxlen=self.depth)
        for day, state in entries:
            self.push(int(day), state)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, day: int, state: object) -> None:
        """Retain ``state`` as the snapshot entering serving day ``day``."""
        if self._entries and self._entries[-1][0] == day:
            self._entries[-1] = (day, state)
            return
        if self._entries and self._entries[-1][0] > day:
            raise StreamError(
                f"snapshot ring days must be non-decreasing: got day {day} "
                f"after day {self._entries[-1][0]}"
            )
        self._entries.append((day, state))

    def latest_at_or_before(self, day: int) -> tuple[int, object] | None:
        """The newest retained ``(day, state)`` clean for a correction at ``day``."""
        for entry_day, state in reversed(self._entries):
            if entry_day <= day:
                return entry_day, state
        return None

    def truncate_after(self, day: int) -> None:
        """Drop entries newer than ``day`` (stale under a rewritten timeline)."""
        while self._entries and self._entries[-1][0] > day:
            self._entries.pop()

    def entries(self) -> tuple[tuple[int, object], ...]:
        """The retained ``(day, state)`` pairs, oldest first (persistable)."""
        return tuple(self._entries)


def replay_correction(
    backend,
    day: int,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    days_served: int,
    max_lookback: int | None,
    ring: SnapshotRing | None = None,
    anchor: tuple[int, object] | None = None,
    take_snapshot=None,
    restore_snapshot=None,
    what: str = "alpha",
) -> CorrectionResult:
    """Replay the suffix a correction at served day ``day`` invalidates.

    ``features``/``labels`` are the full *corrected* served history
    (``(days_served, K, f, w)`` / ``(days_served, K)``) — every revealed
    day's bar, with the corrected rows already patched in.  ``anchor`` is a
    permanently retained clean ``(day, state)`` snapshot (the warm-start
    state at day 0, or the resume point); it is used when the ring holds
    nothing old enough.  Returns the corrected predictions for days ``day
    .. days_served - 1`` and leaves the backend in the exact state a clean
    full replay of the corrected history would have produced.
    """
    cur = int(days_served)
    if not 0 <= day < cur:
        raise StreamError(
            f"cannot correct day {day} of {what}: {cur} days served"
        )
    if len(features) != cur or len(labels) != cur:
        raise StreamError(
            f"corrected history must cover all {cur} served days of {what}: "
            f"got {len(features)} feature days, {len(labels)} label days"
        )

    # Plan: the cheapest exact restart wins.  Snapshot restarts need a
    # retained state at or before the corrected day; spin-up restarts need a
    # finite lookback and a previous served label to seed s0 (start >= 1 —
    # a day-0 restart is only exact from the warm anchor).
    clean = ring.latest_at_or_before(day) if ring is not None else None
    if clean is None and anchor is not None and anchor[0] <= day:
        clean = anchor
    options: list[tuple[int, str, object]] = []
    if clean is not None and restore_snapshot is not None:
        options.append((clean[0], "snapshot", clean[1]))
    if max_lookback is not None and day - max_lookback >= 1:
        options.append((day - max_lookback, "spinup", None))
    if not options:
        raise StreamError(
            f"cannot delta-replay a correction at day {day} of {what}: no "
            f"retained snapshot covers it and the program's lookback is "
            + ("unbounded" if max_lookback is None
               else f"{max_lookback} days (restart would precede serving)")
            + "; a full warm-start replay is required"
        )
    start, mode, state = max(options, key=lambda option: option[0])

    if mode == "snapshot":
        restore_snapshot(state)
        if ring is not None:
            ring.truncate_after(start)
        # Every replayed day restarts from an exact state.
        push_from = start + 1
    else:
        # Live state already holds exact frozen memory; seed s0 with the
        # label revealed before the restart day and let the bounded replay
        # converge every mutable operand.  States entering days before
        # ``day`` are not yet exact, so only push from ``day`` on.
        backend.set_label(labels[start - 1])
        if ring is not None:
            ring.truncate_after(day)
        push_from = day

    # A push the ring would evict before the replay returns is skipped:
    # only the days entering the newest ``depth`` are kept either way.
    if ring is None or take_snapshot is None:
        push_from = cur + 1
    else:
        push_from = max(push_from, cur - ring.depth + 1)
    predictions: np.ndarray | None = None
    for replay_day in range(start, cur):
        backend.set_input(features[replay_day])
        backend.run_predict()
        if replay_day >= day:
            if predictions is None:
                predictions = np.empty(
                    (cur - day,) + backend.prediction.shape
                )
            predictions[replay_day - day] = backend.prediction
        backend.set_label(labels[replay_day])
        if replay_day + 1 >= push_from:
            ring.push(replay_day + 1, take_snapshot())
    assert predictions is not None  # range(start, cur) includes day
    return CorrectionResult(
        day=day,
        start_day=start,
        mode=mode,
        replayed_days=cur - start,
        predictions=predictions,
    )
