"""The single implementation of the train/inference label-reveal protocol.

Section 2 of the paper fixes how every alpha is executed:

* ``Setup()`` runs once;
* **training stage** — for each training day, in order: the day's feature
  matrices go into ``m0``, ``Predict()`` runs, the prediction is recorded,
  the realised label is revealed into ``s0``, and ``Update()`` runs (memory
  persists, so ``Update()``-written operands are the alpha's parameters);
* **inference stage** — the trained memory is frozen; for each day
  ``Predict()`` runs and the label is revealed *after* the prediction is
  recorded (it is known the next day), so alphas may read recent returns
  without look-ahead.

This module is the only place in ``src/`` that protocol is implemented.
The offline evaluator (:class:`~repro.core.interpreter.AlphaEvaluator`),
the incremental streaming executor, the fleet server and the online
backtest driver all delegate here, driving any
:class:`~repro.engine.backends.ExecutionEngine` — which is what makes
"research and serving can never diverge" a structural property instead of
a test-enforced one.

Two time-vectorised fast paths live here (and only here), both gated on
backend capability flags and both bitwise identical to the day loop:

* **fused inference** (``supports_fused_inference``) — ``Predict()``
  reads neither the label nor its own writes, so the inference day loop
  (and its label reveals) is unobservable and a whole split collapses
  into one batched ``(D, K, ...)`` tape pass;
* **static-predict time batching** (``supports_static_predict``) — the
  entire ``Predict()`` tape is day-loop invariant (it also reads no
  ``Update()``-carried state), so even the *training-stage* predictions
  collapse into one vectorised kernel call: no per-day Python loop, no
  label reveals, no ``Update()`` execution — none of which the recorded
  predictions can observe.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..data.dataset import TaskSet
from ..obs import TELEMETRY
from .backends import ExecutionEngine

__all__ = [
    "stream_days",
    "can_batch_training",
    "training_pass",
    "inference_pass",
    "run_protocol",
]

#: The inference splits, in the chronological order the protocol visits
#: them (label state carries from the last validation day into the first
#: test day, exactly as in live serving).
INFERENCE_SPLITS = ("valid", "test")


def stream_days(
    features: np.ndarray,
    labels: np.ndarray,
    step: Callable[[int, np.ndarray], None],
    reveal: Callable[[np.ndarray], None],
) -> None:
    """THE inference day-loop: predict first, reveal the label after.

    ``step(day, bar)`` receives each arriving ``(K, f, w)`` bar in
    chronological order; ``reveal(labels_of_day)`` is called strictly
    afterwards, so a ``step`` can never observe the label of the day it is
    predicting.  Every consumer that replays days — the offline inference
    stage, the online backtest driver, the serve CLI — funnels through
    this one loop.
    """
    for day in range(features.shape[0]):
        step(day, features[day])
        reveal(labels[day])


def can_batch_training(backend: ExecutionEngine, use_update: bool = True) -> bool:
    """Whether the training stage may run as one batched kernel call.

    Requires a batched kernel (``supports_fused_inference``) plus the
    guarantee that ``Predict()`` sees identical operand state on every
    training day.  That holds when the predict tape is fully static
    (``supports_static_predict``: no dependence on ``Update()``-carried
    state) or when ``Update()`` is disabled outright (the ``*_P`` ablation
    of Table 4) — in either case the per-day label reveals and updates are
    unobservable to the recorded predictions.
    """
    if not backend.supports_fused_inference:
        return False
    if not use_update:
        return True
    return bool(backend.supports_static_predict)


def training_pass(
    backend: ExecutionEngine,
    features: np.ndarray,
    labels: np.ndarray,
    day_indices: np.ndarray | None = None,
    use_update: bool = True,
    predictions_out: np.ndarray | None = None,
    time_batched: bool = False,
) -> np.ndarray | None:
    """The single-epoch training stage over ``day_indices``.

    ``features``/``labels`` are the training split's ``(D, K, f, w)`` /
    ``(D, K)`` arrays; ``day_indices`` selects the visited subsample
    (defaults to every day in order) and must match the evaluator's
    :meth:`~repro.core.interpreter.AlphaEvaluator.train_day_indices` for
    offline/online parity.  When ``predictions_out`` is given, the visited
    days' predictions are written into it (unvisited rows are left
    untouched).

    With ``time_batched`` and an eligible backend (see
    :func:`can_batch_training`) the whole stage collapses into at most one
    vectorised kernel call; the recorded predictions are bitwise identical
    to the day loop.  Streaming consumers keep the day loop (their
    suspendable operand state must evolve exactly as a live process's
    would); the offline evaluator enables the fast path.
    """
    if day_indices is None:
        day_indices = np.arange(features.shape[0])
    if time_batched and can_batch_training(backend, use_update):
        # Telemetry is recorded per *stage call*, never per day: the
        # disabled cost of this instrumentation is one boolean test.
        if TELEMETRY.enabled:
            if predictions_out is not None:
                TELEMETRY.counter("engine.kernel.batched_calls").inc()
                TELEMETRY.counter("engine.kernel.batched_days").inc(
                    int(day_indices.size)
                )
            else:
                # The recorded predictions are unobservable: the whole
                # training stage is elided, not batched.
                TELEMETRY.counter("engine.kernel.elided_training_stages").inc()
        if predictions_out is not None:
            visited = (
                features if day_indices.size == features.shape[0]
                else features[day_indices]
            )
            predictions_out[day_indices] = backend.run_inference_batch(visited)
        return predictions_out
    if TELEMETRY.enabled:
        TELEMETRY.counter("engine.kernel.loop_calls").inc()
        TELEMETRY.counter("engine.kernel.loop_days").inc(int(day_indices.size))
    for day in day_indices:
        backend.set_input(features[day])
        backend.run_predict()
        if predictions_out is not None:
            predictions_out[day] = backend.prediction
        backend.set_label(labels[day])
        if use_update:
            backend.run_update()
    return predictions_out


def inference_pass(
    backend: ExecutionEngine,
    features: np.ndarray,
    labels: np.ndarray,
    time_batched: bool = True,
) -> np.ndarray:
    """The inference stage over one split: frozen memory, day-by-day reveal.

    Returns the ``(D, P, K)`` prediction panel of the backend's P lanes.
    With ``time_batched`` and a fused-eligible backend the split runs as
    one batched tape pass (the label reveals are unobservable —
    ``Predict()`` never reads the label); otherwise the split replays
    through :func:`stream_days`.
    """
    if time_batched and backend.supports_fused_inference:
        if TELEMETRY.enabled:
            TELEMETRY.counter("engine.kernel.batched_calls").inc()
            TELEMETRY.counter("engine.kernel.batched_days").inc(
                int(features.shape[0])
            )
        return backend.run_inference_batch(features)
    if TELEMETRY.enabled:
        TELEMETRY.counter("engine.kernel.loop_calls").inc()
        TELEMETRY.counter("engine.kernel.loop_days").inc(int(features.shape[0]))
    out = np.zeros((features.shape[0],) + np.shape(backend.prediction))

    def step(day: int, bar: np.ndarray) -> None:
        backend.set_input(bar)
        backend.run_predict()
        out[day] = backend.prediction

    stream_days(features, labels, step, backend.set_label)
    return out


def run_protocol(
    backend: ExecutionEngine,
    taskset: TaskSet,
    splits: tuple[str, ...] = ("valid", "test"),
    day_indices: np.ndarray | None = None,
    use_update: bool = True,
    time_batched: bool = True,
) -> dict[str, np.ndarray]:
    """Run the full Setup → train → inference protocol on one backend.

    The one-stop entry point behind
    :meth:`~repro.core.interpreter.AlphaEvaluator.run` and
    :meth:`~repro.engine.fleet.FleetEngine.run`: returns split name →
    ``(num_days_in_split, P, K)`` predictions of the backend's P lanes for
    every requested split (``"train"`` rows of unvisited subsampled days
    are zero, as they always were).  The backend reads the task set's
    gathered bars (:meth:`~repro.data.dataset.TaskSet.gather`): the visited
    training days and each inference split, copied once per task set.
    """
    backend.run_setup()
    train_features, train_labels = taskset.gather("train", day_indices)
    want_train = "train" in splits
    shape = np.shape(backend.prediction)
    visited_predictions = (
        np.zeros((train_features.shape[0],) + shape) if want_train else None
    )
    training_pass(
        backend,
        train_features,
        train_labels,
        use_update=use_update,
        predictions_out=visited_predictions,
        time_batched=time_batched,
    )

    predictions: dict[str, np.ndarray] = {}
    if want_train:
        train_predictions = np.zeros((taskset.split.train,) + shape)
        visited = slice(None) if day_indices is None else day_indices
        train_predictions[visited] = visited_predictions
        predictions["train"] = train_predictions
    for split in INFERENCE_SPLITS:
        if split not in splits:
            continue
        predictions[split] = inference_pass(
            backend, *taskset.gather(split), time_batched=time_batched,
        )
    return predictions
