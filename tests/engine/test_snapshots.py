"""Copy-on-write tape snapshots: sharing, read-only arrays and restore.

The compiled tape snapshots its operand state as a tuple of read-only
arrays (:meth:`repro.compile.stacked.StackedAlpha.snapshot`): the one
``(K, f, w)`` input bar ``m0`` every lane reads, then the lane state in
bind order.  While serving, only the bar, ``s0`` and the carried operands
``Predict()`` writes back change, so a snapshot copies those and reuses the
previous snapshot's array for every other one.  These tests pin that
contract on a one-lane and a two-lane tape: what is shared and what is
copied, when the reuse base is dropped, and that ``restore`` puts back
exactly what ``snapshot`` took.  ``TestInputBar`` pins the input contract
on a four-lane group: the bar is held and copied once, and ``m0`` cannot
be observed at a resume point while ``s0`` stays each lane's own.
"""

from dataclasses import replace

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


def label_program(row=0, name="label"):
    """``Predict()`` reads the last revealed label ``s0``."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": row, "col": 0}),
            Operation.make("s_add", (S4, LABEL), PREDICTION),
        ],
        update=[],
        name=name,
    )


def group(taskset, build, lanes):
    """A ``lanes``-lane tape of ``build(row=lane)``, one row per lane."""
    ctx = AlphaEvaluator(taskset, seed=0).make_context()
    return StackedAlpha(
        [compile_program(build(row=lane, name=f"lane_{lane}"))
         for lane in range(lanes)],
        ctx,
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


class TestInputBar:
    def test_a_snapshot_holds_the_bar_once(self, small_taskset):
        snaps = {}
        for lanes in (1, 4):
            tape = group(small_taskset, cow_program, lanes)
            train(tape, small_taskset)
            serve(tape, small_taskset, range(3))
            snaps[lanes] = by_name(tape, tape.snapshot())
        bar = small_taskset.split_features("valid")[2]
        assert snaps[4]["m0"].shape == bar.shape
        assert snaps[4]["m0"].tobytes() == bar.tobytes()
        # Snapshot bytes grow with the lane count only through lane state.
        lane_bytes = sum(array.nbytes for name, array in snaps[1].items()
                         if name != "m0")
        total = {lanes: sum(array.nbytes for array in snap.values())
                 for lanes, snap in snaps.items()}
        assert total[4] - total[1] == 3 * lane_bytes

    def test_every_lane_state_holds_the_bar_and_adopt_round_trips(
        self, small_taskset
    ):
        tape = group(small_taskset, cow_program, 4)
        train(tape, small_taskset)
        serve(tape, small_taskset, range(3))
        snap = tape.snapshot()
        bar = small_taskset.split_features("valid")[2]
        states = lane_states(tape, snap)
        for state in states:
            assert state.operands["m0"].tobytes() == bar.tobytes()
        live = serve(tape, small_taskset, range(3, 6))
        tape.restore(tape.adopt(states))
        assert same_bytes(tape.snapshot(), snap)
        assert serve(tape, small_taskset, range(3, 6)).tobytes() == \
            live.tobytes()

    @pytest.mark.parametrize("how", ["resume", "adopt"])
    def test_m0_is_not_observable_at_a_resume_point(
        self, small_taskset, how
    ):
        """Lanes whose states carry different ``m0``s predict like the
        uninterrupted run: ``set_input`` writes the bar before any read."""
        tape = group(small_taskset, cow_program, 4)
        train(tape, small_taskset)
        serve(tape, small_taskset, range(3))
        states = list(tape.suspend())
        live = serve(tape, small_taskset, range(3, 6))
        blank = np.full_like(states[2].operands["m0"], np.nan)
        states[2] = replace(states[2],
                            operands={**states[2].operands, "m0": blank})
        if how == "resume":
            tape = group(small_taskset, cow_program, 4)
            tape.resume(states)
        else:
            tape.restore(tape.adopt(states))
        assert serve(tape, small_taskset, range(3, 6)).tobytes() == \
            live.tobytes()

    def test_each_lane_predicts_from_its_own_label(self, small_taskset):
        tape = group(small_taskset, label_program, 4)
        tape.run_setup()
        serve(tape, small_taskset, range(3))
        states = list(tape.suspend())
        live = serve(tape, small_taskset, range(3, 4))
        doctored = small_taskset.split_labels("valid")[0] * 2.0
        states[1] = replace(states[1],
                            operands={**states[1].operands, "s0": doctored})
        resumed = group(small_taskset, label_program, 4)
        resumed.resume(states)
        served = serve(resumed, small_taskset, range(3, 4))
        assert served[:, 1].tobytes() != live[:, 1].tobytes()
        for lane, state in enumerate(states):
            alone = StackedAlpha([resumed.group[lane]], resumed.ctx)
            alone.resume([state])
            assert served[:, lane].tobytes() == \
                serve(alone, small_taskset, range(3, 4))[:, 0].tobytes()
