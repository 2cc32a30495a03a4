"""Copy-on-write tape snapshots: sharing, read-only arrays and restore.

The compiled tape snapshots its operand state as a tuple of read-only
arrays in bind order (:meth:`repro.compile.stacked.StackedAlpha.snapshot`).
While serving, only ``m0``, ``s0`` and the carried operands ``Predict()``
writes back change, so a snapshot copies those and reuses the previous
snapshot's array for every other one.  These tests pin that contract on a
one-lane and a two-lane tape: what is shared and what is copied, when the
reuse base is dropped, and that ``restore`` puts back exactly what
``snapshot`` took.
"""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program
from repro.core import (
    INPUT_MATRIX,
    LABEL,
    PREDICTION,
    AlphaEvaluator,
    AlphaProgram,
    Operand,
    Operation,
)

S2, S3, S4, S5, S6 = (Operand.scalar(index) for index in range(2, 7))

#: Operand state arrays serving rewrites every day: the bar, the label and
#: the recurrent accumulator ``Predict()`` writes back.
PER_DAY = {"m0", "s0", "s3"}
#: Written only by ``Setup()`` (s2) or ``Update()`` (s5), or never (s1).
FROZEN = {"s1", "s2", "s5"}


def cow_program(constant=0.5, row=0, name="cow"):
    return AlphaProgram(
        setup=[Operation.make("s_const", (), S2, {"constant": constant})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": row, "col": 0}),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("s_mul", (S3, S2), S6),
            Operation.make("s_add", (S6, S5), PREDICTION),
        ],
        update=[Operation.make("s_add", (S5, LABEL), S5)],
        name=name,
    )


@pytest.fixture(params=["one-lane", "two-lane"])
def runner(request, small_taskset):
    ctx = AlphaEvaluator(small_taskset, seed=0).make_context()
    if request.param == "one-lane":
        return StackedAlpha([compile_program(cow_program())], ctx)
    return StackedAlpha(
        [compile_program(cow_program()),
         compile_program(cow_program(constant=0.25, row=1, name="twin"))],
        ctx,
    )


def lane_states(runner, snap):
    """``snap`` as the tape's external format: one TapeState per lane."""
    return [runner.tape_state(snap, lane)
            for lane in range(runner.num_programs)]


def by_name(runner, snap):
    return dict(zip(runner._names, snap))


def train(runner, taskset, days=4):
    features = taskset.split_features("train")
    labels = taskset.split_labels("train")
    runner.run_setup()
    for day in range(days):
        runner.set_input(features[day])
        runner.run_predict()
        runner.set_label(labels[day])
        runner.run_update()


def serve(runner, taskset, days):
    """Serve ``days`` of the valid split; returns the predictions."""
    features = taskset.split_features("valid")
    labels = taskset.split_labels("valid")
    predictions = []
    for day in days:
        runner.set_input(features[day])
        runner.run_predict()
        predictions.append(runner.prediction.copy())
        runner.set_label(labels[day])
    return np.array(predictions)


def same_bytes(left, right):
    return all(a.tobytes() == b.tobytes() for a, b in zip(left, right))


class TestCopyOnWrite:
    def test_layout_splits_per_day_from_frozen(self, runner):
        assert set(runner._names) == PER_DAY | FROZEN

    def test_consecutive_snapshots_share_frozen_arrays(
        self, runner, small_taskset
    ):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(2))
        first = by_name(runner, runner.snapshot())
        serve(runner, small_taskset, [2])
        second = by_name(runner, runner.snapshot())
        for name in FROZEN:
            assert second[name] is first[name], name
        for name in PER_DAY:
            assert not np.shares_memory(second[name], first[name]), name
        # what changed did change: the copies are not stale
        assert second["s3"].tobytes() != first["s3"].tobytes()

    def test_snapshot_arrays_are_read_only(self, runner, small_taskset):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(2))
        for snap in (runner.snapshot(), runner.snapshot()):
            for array in snap:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0.0

    @pytest.mark.parametrize(
        "event", ["run_setup", "run_update", "resume", "adopt"]
    )
    def test_snapshot_after_outside_writes_copies_everything(
        self, runner, small_taskset, event
    ):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(2))
        base = runner.snapshot()
        if event == "resume":
            runner.resume(lane_states(runner, base))
        elif event == "adopt":
            runner.adopt(lane_states(runner, base))
        else:
            getattr(runner, event)()
        fresh = runner.snapshot()
        for old, new in zip(base, fresh):
            assert not np.shares_memory(old, new)


class TestRestore:
    def test_restore_then_snapshot_equals_the_snapshot(
        self, runner, small_taskset
    ):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(2))
        saved = runner.snapshot()
        serve(runner, small_taskset, range(2, 5))
        runner.restore(saved)
        again = runner.snapshot()
        assert same_bytes(again, saved)
        named_again, named_saved = by_name(runner, again), by_name(runner, saved)
        for name in FROZEN:
            assert named_again[name] is named_saved[name]

    def test_replay_from_a_restored_snapshot_is_bitwise(
        self, runner, small_taskset
    ):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(2))
        saved = runner.snapshot()
        live = serve(runner, small_taskset, range(2, 6))
        live_end = runner.snapshot()
        runner.restore(saved)
        replayed = serve(runner, small_taskset, range(2, 6))
        assert replayed.tobytes() == live.tobytes()
        assert same_bytes(runner.snapshot(), live_end)

    def test_tape_states_round_trip_through_adopt(self, runner, small_taskset):
        train(runner, small_taskset)
        serve(runner, small_taskset, range(3))
        snap = runner.snapshot()
        adopted = runner.adopt(lane_states(runner, snap))
        assert same_bytes(adopted, snap)
        assert all(not array.flags.writeable for array in adopted)
        assert not any(np.shares_memory(a, b) for a, b in zip(adopted, snap))
