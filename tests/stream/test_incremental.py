"""Incremental-vs-batch parity for day-at-a-time compiled execution.

The hard contract of serving: fuzzed programs stepped one day at a time
through the one serving unit, :class:`~repro.engine.IncrementalExecutor`
on a one-lane compiled tape, must match the batched output (via
``AlphaEvaluator.run``) bit for bit — including across suspend/resume
round-trips through serialized state files.
"""

import numpy as np
import pytest

from repro.core import AlphaEvaluator, get_initialization
from repro.engine import IncrementalExecutor
from repro.errors import ExecutionError, StreamError
from repro.stream import load_state, save_state

SPLITS = ("valid", "test")


def fuzz_programs(dims, mutator, count=10):
    """A deterministic mixed bag of initialisation alphas and mutants."""
    bases = [get_initialization(code, dims, seed=3) for code in ("D", "NN", "R")]
    programs = []
    while len(programs) < count:
        program = bases[len(programs) % len(bases)]
        for _ in range(len(programs) % 4):
            program = mutator.mutate(program)
        programs.append(program)
    return programs


def batch_predictions(evaluator, program):
    return evaluator.run(program, splits=SPLITS)


def incremental_predictions(evaluator, program):
    """Stream the valid+test splits day by day through one lane."""
    taskset = evaluator.taskset
    alpha = IncrementalExecutor(program, evaluator.make_context())
    alpha.warm_start(
        taskset.split_features("train"),
        taskset.split_labels("train"),
        day_indices=evaluator.train_day_indices(),
        use_update=evaluator.use_update,
    )
    streamed = {}
    for split in SPLITS:
        features = taskset.split_features(split)
        labels = taskset.split_labels(split)
        predictions = np.zeros((features.shape[0], taskset.num_tasks))
        for day in range(features.shape[0]):
            predictions[day] = alpha.step(features[day])[0]
            alpha.reveal(labels[day])
        streamed[split] = predictions
    return streamed


class TestIncrementalParity:
    def test_fuzzed_programs_match_batch_bitwise(self, evaluator, dims, mutator):
        for program in fuzz_programs(dims, mutator, count=10):
            batch = batch_predictions(evaluator, program)
            streamed = incremental_predictions(evaluator, program)
            for split in SPLITS:
                assert streamed[split].tobytes() == batch[split].tobytes(), (
                    f"{program.name} diverged on the {split} split"
                )

    def test_matches_reference_interpreter(self, small_taskset, dims, mutator):
        """Transitivity check: incremental == compiled batch == interpreter."""
        interpreter = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=40, engine="interpreter"
        )
        compiled = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        program = fuzz_programs(dims, mutator, count=4)[-1]
        reference = interpreter.run(program, splits=SPLITS)
        streamed = incremental_predictions(compiled, program)
        for split in SPLITS:
            assert streamed[split].tobytes() == reference[split].tobytes()


class TestSuspendResume:
    def serve_with_restart(self, evaluator, program, restart_day, tmp_path):
        """Stream the valid split, suspending to disk at ``restart_day``."""
        taskset = evaluator.taskset
        features = taskset.split_features("valid")
        labels = taskset.split_labels("valid")

        alpha = IncrementalExecutor(program, evaluator.make_context())
        alpha.warm_start(
            taskset.split_features("train"),
            taskset.split_labels("train"),
            day_indices=evaluator.train_day_indices(),
        )
        predictions = np.zeros((features.shape[0], taskset.num_tasks))
        for day in range(restart_day):
            predictions[day] = alpha.step(features[day])[0]
            alpha.reveal(labels[day])

        path = tmp_path / "alpha.state"
        save_state(str(path), alpha.suspend())
        resumed = IncrementalExecutor(program, evaluator.make_context())
        resumed.resume(load_state(str(path)), days_served=alpha.days_served)

        for day in range(restart_day, features.shape[0]):
            predictions[day] = resumed.step(features[day])[0]
            resumed.reveal(labels[day])
        return predictions, resumed

    def test_roundtrip_matches_uninterrupted_run(self, evaluator, dims, mutator,
                                                 tmp_path):
        for index, program in enumerate(fuzz_programs(dims, mutator, count=5)):
            batch = batch_predictions(evaluator, program)
            restart_day = 1 + index * 5
            predictions, resumed = self.serve_with_restart(
                evaluator, program, restart_day, tmp_path
            )
            assert predictions.tobytes() == batch["valid"].tobytes()
            assert resumed.days_served == evaluator.taskset.split.valid

    def test_resume_restores_day_counter(self, evaluator, dims, tmp_path):
        program = get_initialization("D", dims, seed=3)
        _, resumed = self.serve_with_restart(evaluator, program, 7, tmp_path)
        assert resumed.is_warm

    def test_resume_rejects_other_program(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        other = get_initialization("NN", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        alpha.warm_start(
            evaluator.taskset.split_features("train"),
            evaluator.taskset.split_labels("train"),
        )
        state = alpha.suspend()
        stranger = IncrementalExecutor(other, evaluator.make_context())
        with pytest.raises(ExecutionError, match="different compiled program"):
            stranger.resume(state)

    def test_resume_rejects_version_mismatch(self, evaluator, dims):
        from dataclasses import replace

        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        alpha.warm_start(
            evaluator.taskset.split_features("train"),
            evaluator.taskset.split_labels("train"),
        )
        (state,) = alpha.suspend()
        fresh = IncrementalExecutor(program, evaluator.make_context())
        with pytest.raises(ExecutionError, match="version"):
            fresh.resume([replace(state, version=99)])

    def test_resume_rejects_other_seed(self, small_taskset, dims):
        program = get_initialization("D", dims, seed=3)
        one = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        two = AlphaEvaluator(small_taskset, seed=1, max_train_steps=40)
        alpha = IncrementalExecutor(program, one.make_context())
        alpha.warm_start(
            small_taskset.split_features("train"),
            small_taskset.split_labels("train"),
        )
        stranger = IncrementalExecutor(program, two.make_context())
        with pytest.raises(ExecutionError, match="base seed"):
            stranger.resume(alpha.suspend())


class TestProtocolErrors:
    def test_step_requires_warm_start(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        features = evaluator.taskset.split_features("valid")
        with pytest.raises(StreamError, match="warm-started"):
            alpha.step(features[0])

    def test_step_without_reveal_rejected(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        taskset = evaluator.taskset
        alpha.warm_start(
            taskset.split_features("train"), taskset.split_labels("train")
        )
        features = taskset.split_features("valid")
        alpha.step(features[0])
        with pytest.raises(StreamError, match="never revealed"):
            alpha.step(features[1])

    def test_reveal_without_step_rejected(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        taskset = evaluator.taskset
        alpha.warm_start(
            taskset.split_features("train"), taskset.split_labels("train")
        )
        with pytest.raises(StreamError, match="no prediction"):
            alpha.reveal(taskset.split_labels("valid")[0])

    def test_double_warm_start_rejected(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        taskset = evaluator.taskset
        alpha.warm_start(
            taskset.split_features("train"), taskset.split_labels("train")
        )
        with pytest.raises(StreamError, match="already warm"):
            alpha.warm_start(
                taskset.split_features("train"), taskset.split_labels("train")
            )

    def test_suspend_between_step_and_reveal_rejected(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        alpha = IncrementalExecutor(program, evaluator.make_context())
        taskset = evaluator.taskset
        alpha.warm_start(
            taskset.split_features("train"), taskset.split_labels("train")
        )
        alpha.step(taskset.split_features("valid")[0])
        with pytest.raises(StreamError, match="pending"):
            alpha.suspend()


class TestStateIO:
    def test_load_missing_state(self, tmp_path):
        with pytest.raises(StreamError, match="no stream state"):
            load_state(str(tmp_path / "missing.state"))

    def test_load_corrupt_state(self, tmp_path):
        path = tmp_path / "corrupt.state"
        path.write_bytes(b"not a pickle")
        with pytest.raises(StreamError, match="cannot read"):
            load_state(str(path))
