"""Bounded delta-replay parity: ``IncrementalExecutor.correct`` vs full replay.

The hard contract of :mod:`repro.engine.replay`: a point correction to an
already-served bar, delta-replayed from a retained snapshot or a bounded
lookback spin-up, must be **bitwise identical** to throwing the executor
away and fully re-warm-starting over the corrected history — for the
replayed suffix, for every day served afterwards, and across
suspend/resume round trips through serialized replay state.
"""

import numpy as np
import pytest

from repro.core import (
    AlphaProgram,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.engine import IncrementalExecutor
from repro.engine.replay import (
    DEFAULT_UNBOUNDED_DEPTH,
    SnapshotRing,
    snapshot_depth_for,
)
from repro.errors import StreamError

SERVE_DAYS = 12
TAIL_DAYS = 3

S3, S4 = Operand.scalar(3), Operand.scalar(4)


def recurrent_alpha():
    """An EMA-style accumulator: unbounded lookback (``max_lookback=None``)."""
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("s_add", (S3, S4), PREDICTION),
        ],
        update=[],
        name="recurrent",
    )


def fuzz_programs(dims, mutator, count=6):
    bases = [get_initialization(code, dims, seed=3) for code in ("D", "NN")]
    programs = []
    while len(programs) < count:
        program = bases[len(programs) % len(bases)]
        for _ in range(len(programs) % 3):
            program = mutator.mutate(program)
        programs.append(program)
    return programs


def warm_executor(evaluator, program, engine="compiled"):
    taskset = evaluator.taskset
    executor = IncrementalExecutor(
        program, evaluator.make_context(), engine=engine
    )
    executor.warm_start(
        taskset.split_features("train"),
        taskset.split_labels("train"),
        day_indices=evaluator.train_day_indices(),
        use_update=evaluator.use_update,
    )
    return executor


def serve(executor, features, labels, start, stop):
    """Step days ``start .. stop`` and return the stacked predictions."""
    predictions = []
    for day in range(start, stop):
        predictions.append(executor.step(features[day]))
        executor.reveal(labels[day])
    return np.array(predictions)


def served_history(evaluator):
    taskset = evaluator.taskset
    features = taskset.split_features("valid")[:SERVE_DAYS + TAIL_DAYS]
    labels = taskset.split_labels("valid")[:SERVE_DAYS + TAIL_DAYS]
    return features, labels


class TestSnapshotRing:
    def state(self, tag):
        return {"tag": tag}

    def test_retains_newest_depth_entries(self):
        ring = SnapshotRing(3)
        for day in range(6):
            ring.push(day, self.state(day))
        assert len(ring) == 3
        assert [day for day, _ in ring.entries()] == [3, 4, 5]

    def test_same_day_push_replaces(self):
        ring = SnapshotRing(4)
        ring.push(2, self.state("old"))
        ring.push(2, self.state("new"))
        assert len(ring) == 1
        assert ring.entries()[0][1]["tag"] == "new"

    def test_decreasing_day_raises(self):
        ring = SnapshotRing(4)
        ring.push(5, self.state(5))
        with pytest.raises(StreamError, match="non-decreasing"):
            ring.push(3, self.state(3))

    def test_latest_at_or_before(self):
        ring = SnapshotRing(8)
        for day in (1, 4, 7):
            ring.push(day, self.state(day))
        assert ring.latest_at_or_before(5) == (4, self.state(4))
        assert ring.latest_at_or_before(7) == (7, self.state(7))
        assert ring.latest_at_or_before(0) is None

    def test_truncate_after_drops_stale_timeline(self):
        ring = SnapshotRing(8)
        for day in (1, 4, 7):
            ring.push(day, self.state(day))
        ring.truncate_after(4)
        assert [day for day, _ in ring.entries()] == [1, 4]

    def test_rebuild_from_entries(self):
        ring = SnapshotRing(4)
        for day in (2, 3, 4):
            ring.push(day, self.state(day))
        rebuilt = SnapshotRing(4, ring.entries())
        assert rebuilt.entries() == ring.entries()

    def test_snapshot_depth_for(self):
        assert snapshot_depth_for(None) == DEFAULT_UNBOUNDED_DEPTH
        assert snapshot_depth_for(0) == 1
        assert snapshot_depth_for(5) == 5


class TestCorrectionParity:
    def correct_and_compare(self, evaluator, program, correction_day,
                            engine="compiled"):
        """Delta-correct one served bar and compare to a full replay."""
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program, engine=engine)
        serve(executor, features, labels, 0, SERVE_DAYS)

        corrected = np.array(features, copy=True)
        corrected[correction_day] = corrected[correction_day] * 1.01
        result = executor.correct(
            correction_day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        assert result.day == correction_day
        assert result.replayed_days == SERVE_DAYS - result.start_day
        assert result.predictions.shape == (  # one lane
            SERVE_DAYS - correction_day, 1, evaluator.taskset.num_tasks
        )

        reference = warm_executor(evaluator, program, engine=engine)
        full = serve(reference, corrected, labels, 0, SERVE_DAYS)
        assert (result.predictions.tobytes()
                == full[correction_day:].tobytes()), (
            f"{program.name}: corrected suffix diverged from full replay"
        )
        # The rolling state must serve the future identically too.
        delta_tail = serve(executor, corrected, labels,
                           SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        full_tail = serve(reference, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert delta_tail.tobytes() == full_tail.tobytes(), (
            f"{program.name}: post-correction serving diverged"
        )
        return result

    def test_fuzzed_compiled_corrections_match_full_replay(
        self, evaluator, dims, mutator
    ):
        for index, program in enumerate(fuzz_programs(dims, mutator)):
            self.correct_and_compare(evaluator, program,
                                     correction_day=(3 * index) % SERVE_DAYS)

    def test_snapshot_path_replays_only_the_suffix(self, evaluator, dims):
        result = self.correct_and_compare(
            evaluator, get_initialization("NN", dims, seed=3),
            correction_day=SERVE_DAYS - 2,
        )
        assert result.mode in ("snapshot", "spinup")
        assert result.replayed_days <= 2 + 1  # suffix + at most L=1 spin-up

    def test_unbounded_program_corrects_from_ring(self, evaluator):
        result = self.correct_and_compare(
            evaluator, recurrent_alpha(),
            correction_day=SERVE_DAYS - 4,
        )
        assert result.mode == "snapshot"

    def test_deep_correction_leaves_an_exact_ring(self, evaluator):
        """A replay longer than the ring pushes only the days it keeps.

        A day-2 correction of the unbounded program restarts from the warm
        anchor and replays 12 days through an 8-deep ring.  Every day the
        ring retains afterwards must hold the exact corrected state, so a
        correction restarting from each of them (newest first, so each
        restores a snapshot the deep replay pushed) matches a full replay.
        """
        program = recurrent_alpha()
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program)
        serve(executor, features, labels, 0, SERVE_DAYS)
        corrected = np.array(features, copy=True)

        def correct(day):
            corrected[day] = corrected[day] * 1.01
            result = executor.correct(
                day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
            )
            reference = warm_executor(evaluator, program)
            full = serve(reference, corrected, labels, 0, SERVE_DAYS)
            assert result.predictions.tobytes() == full[day:].tobytes(), (
                f"correction at day {day} diverged from full replay"
            )
            return result

        deep = correct(2)
        assert deep.start_day == 0
        assert deep.replayed_days > DEFAULT_UNBOUNDED_DEPTH
        retained = [day for day, _ in executor._ring.entries()]
        assert retained == list(range(
            SERVE_DAYS - DEFAULT_UNBOUNDED_DEPTH + 1, SERVE_DAYS + 1
        ))
        for day in reversed(retained[:-1]):
            result = correct(day)
            assert (result.mode, result.start_day) == ("snapshot", day)

    def test_interpreter_spins_up_without_snapshots(self, evaluator, dims):
        # The interpreter has no tape protocol: corrections must come out of
        # the bounded-lookback spin-up alone, still bitwise-exact.
        result = self.correct_and_compare(
            evaluator, get_initialization("NN", dims, seed=3),
            correction_day=5, engine="interpreter",
        )
        assert result.mode == "spinup"

    def test_interpreter_unbounded_correction_raises(self, evaluator):
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, recurrent_alpha(),
                                 engine="interpreter")
        serve(executor, features, labels, 0, SERVE_DAYS)
        with pytest.raises(StreamError, match="unbounded"):
            executor.correct(3, features[:SERVE_DAYS], labels[:SERVE_DAYS])

    def test_out_of_order_corrections_truncate_the_ring(
        self, evaluator, dims
    ):
        # A second correction *earlier* than the first must not restore a
        # snapshot contaminated by the first correction's replay.
        program = get_initialization("NN", dims, seed=3)
        features, labels = served_history(evaluator)
        executor = warm_executor(evaluator, program)
        serve(executor, features, labels, 0, SERVE_DAYS)

        corrected = np.array(features, copy=True)
        for day in (9, 4):
            corrected[day] = corrected[day] * 1.02
            executor.correct(day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS])

        reference = warm_executor(evaluator, program)
        full = serve(reference, corrected, labels, 0, SERVE_DAYS)
        delta_tail = serve(executor, corrected, labels,
                           SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        full_tail = serve(reference, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert delta_tail.tobytes() == full_tail.tobytes()
        assert full.shape[0] == SERVE_DAYS  # reference replayed everything


class TestCorrectionGuards:
    def test_correct_before_warm_raises(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        executor = IncrementalExecutor(program, evaluator.make_context())
        features, labels = served_history(evaluator)
        with pytest.raises(StreamError, match="warm"):
            executor.correct(0, features[:1], labels[:1])

    def test_correct_with_pending_label_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        executor.step(features[0])
        with pytest.raises(StreamError, match="reveal"):
            executor.correct(0, features[:1], labels[:1])

    def test_correct_unserved_day_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        serve(executor, features, labels, 0, 4)
        with pytest.raises(StreamError, match="4 days served"):
            executor.correct(4, features[:4], labels[:4])

    def test_short_history_raises(self, evaluator, dims):
        features, labels = served_history(evaluator)
        executor = warm_executor(
            evaluator, get_initialization("D", dims, seed=3)
        )
        serve(executor, features, labels, 0, 4)
        with pytest.raises(StreamError, match="cover all 4 served days"):
            executor.correct(1, features[:3], labels[:3])


class TestReplayStateRoundTrip:
    def test_correct_after_resume_matches_live_executor(self, evaluator):
        # Unbounded program: a correction before the resume point is only
        # serveable if the persisted ring/anchor came back too.
        program = recurrent_alpha()
        features, labels = served_history(evaluator)
        live = warm_executor(evaluator, program)
        serve(live, features, labels, 0, SERVE_DAYS)

        state = live.suspend()
        payload = live.replay_state()

        resumed = IncrementalExecutor(program, evaluator.make_context())
        resumed.resume(state, days_served=SERVE_DAYS)
        resumed.restore_replay_state(payload)

        day = SERVE_DAYS - 5
        corrected = np.array(features, copy=True)
        corrected[day] = corrected[day] * 1.01
        from_resumed = resumed.correct(
            day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        from_live = live.correct(
            day, corrected[:SERVE_DAYS], labels[:SERVE_DAYS]
        )
        assert (from_resumed.predictions.tobytes()
                == from_live.predictions.tobytes())
        assert from_resumed.start_day == from_live.start_day
        tail_resumed = serve(resumed, corrected, labels,
                             SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        tail_live = serve(live, corrected, labels,
                          SERVE_DAYS, SERVE_DAYS + TAIL_DAYS)
        assert tail_resumed.tobytes() == tail_live.tobytes()

    def test_resume_without_replay_state_cannot_reach_back(self, evaluator):
        program = recurrent_alpha()
        features, labels = served_history(evaluator)
        live = warm_executor(evaluator, program)
        serve(live, features, labels, 0, SERVE_DAYS)

        resumed = IncrementalExecutor(program, evaluator.make_context())
        resumed.resume(live.suspend(), days_served=SERVE_DAYS)
        # Without the persisted ring, the resume anchor (day 12) is the only
        # snapshot — nothing covers an earlier day of an unbounded program.
        with pytest.raises(StreamError, match="full warm-start replay"):
            resumed.correct(3, features[:SERVE_DAYS], labels[:SERVE_DAYS])
