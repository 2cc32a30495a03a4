"""Tests for the vectorised alpha evaluator."""

import numpy as np
import pytest

from repro.config import AddressSpace
from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    Dimensions,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    neural_network_alpha,
)
from repro.core.fitness import INVALID_FITNESS
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.engine import FleetEngine
from repro.errors import ExecutionError


def extraction_alpha(row=11, col=-1, window=13):
    """Predict with a single extracted feature (deterministic, no parameters)."""
    col = window - 1 if col == -1 else col
    return AlphaProgram(
        setup=[Operation.make("s_const", (), Operand.scalar(2), {"constant": 0.0})],
        predict=[Operation.make("get_scalar", (INPUT_MATRIX,), PREDICTION,
                                {"row": row, "col": col})],
        update=[Operation.make("s_const", (), Operand.scalar(3), {"constant": 0.0})],
        name="extract",
    )


def label_memory_alpha():
    """Predict the running sum of past labels (a pure parameter alpha).

    Uses m0 in a way that does not change the prediction (adds 0 * norm(m0))
    so the program is not pruned as redundant.
    """
    s2, s3, s4, s5 = (Operand.scalar(i) for i in (2, 3, 4, 5))
    return AlphaProgram(
        setup=[Operation.make("s_const", (), s4, {"constant": 0.0})],
        predict=[
            Operation.make("m_norm", (INPUT_MATRIX,), s3),
            Operation.make("s_mul", (s3, s4), s5),        # 0 * norm(m0)
            Operation.make("s_add", (s2, s5), PREDICTION),
        ],
        update=[Operation.make("s_add", (s2, LABEL), s2)],
        name="label_memory",
    )


class TestEvaluatorBasics:
    def test_requires_square_features(self):
        panel = SyntheticMarket(MarketConfig(num_stocks=12, num_days=160), seed=5).generate()
        taskset = build_taskset(panel, window=7, split=Split(train=60, valid=20, test=20),
                                universe_filter=None)
        with pytest.raises(ExecutionError):
            AlphaEvaluator(taskset)

    def test_run_shapes(self, small_taskset, evaluator):
        predictions = evaluator.run(extraction_alpha(), splits=("train", "valid", "test"))
        assert predictions["train"].shape == (small_taskset.split.train,
                                              small_taskset.num_tasks)
        assert predictions["valid"].shape == (small_taskset.split.valid,
                                              small_taskset.num_tasks)
        assert predictions["test"].shape == (small_taskset.split.test,
                                             small_taskset.num_tasks)

    def test_extraction_alpha_reproduces_feature(self, small_taskset, evaluator):
        predictions = evaluator.run(extraction_alpha(), splits=("valid",))["valid"]
        expected = small_taskset.split_features("valid")[:, :, 11, -1]
        np.testing.assert_allclose(predictions, expected)

    def test_deterministic_across_calls(self, small_taskset):
        program = neural_network_alpha(Dimensions(13, 13))
        a = AlphaEvaluator(small_taskset, seed=3, max_train_steps=30).evaluate(program)
        b = AlphaEvaluator(small_taskset, seed=3, max_train_steps=30).evaluate(program)
        np.testing.assert_allclose(a.ic_valid, b.ic_valid)
        np.testing.assert_allclose(a.predictions["valid"], b.predictions["valid"])

    def test_different_seed_changes_stochastic_alphas(self, small_taskset):
        program = neural_network_alpha(Dimensions(13, 13))
        a = AlphaEvaluator(small_taskset, seed=1, max_train_steps=30).evaluate(program)
        b = AlphaEvaluator(small_taskset, seed=2, max_train_steps=30).evaluate(program)
        assert not np.allclose(a.predictions["valid"], b.predictions["valid"])

    def test_max_train_steps_subsamples(self, small_taskset):
        fast = AlphaEvaluator(small_taskset, seed=0, max_train_steps=10)
        assert len(fast.train_day_indices()) == 10
        full = AlphaEvaluator(small_taskset, seed=0)
        assert len(full.train_day_indices()) == small_taskset.split.train

    def test_invalid_program_raises(self, evaluator):
        program = extraction_alpha()
        program.predict.append(
            Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(9))
        )
        evaluator.address_space = AddressSpace(num_scalars=5, num_vectors=2, num_matrices=1)
        with pytest.raises(Exception):
            evaluator.run(program)


class TestTrainingAndParameters:
    def test_parameters_carry_into_inference(self, small_taskset):
        """The label-memory alpha predicts a constant (per stock) at inference:
        the accumulated training labels — i.e. a real parameter."""
        evaluator = AlphaEvaluator(small_taskset, seed=0)
        predictions = evaluator.run(label_memory_alpha(), splits=("valid",))["valid"]
        train_labels = small_taskset.split_labels("train")
        expected = train_labels.sum(axis=0)
        np.testing.assert_allclose(predictions[0], expected, rtol=1e-9)
        # Update() does not run at inference, so the parameter stays frozen at
        # its end-of-training value for every inference day.
        np.testing.assert_allclose(predictions[-1], expected, rtol=1e-9)

    def test_use_update_false_freezes_parameters(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0, use_update=False)
        frozen = evaluator.run(label_memory_alpha(), splits=("valid",))
        # Without Update() the accumulator never moves: predictions stay zero.
        np.testing.assert_allclose(frozen["valid"], 0.0)

    def test_ablation_changes_ic_for_parameter_alpha(self, small_taskset):
        with_update = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=60
        ).evaluate(label_memory_alpha())
        without_update = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=60, use_update=False
        ).evaluate(label_memory_alpha())
        assert with_update.is_valid
        # Freezing the parameter makes the prediction constant and invalid.
        assert not without_update.is_valid


class TestEvaluate:
    def test_domain_expert_alpha_has_positive_ic(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0)
        result = evaluator.evaluate(domain_expert_alpha(Dimensions(13, 13)))
        assert result.is_valid
        assert result.ic_valid > 0.0
        assert result.fitness == result.ic_valid

    def test_degenerate_alpha_flagged_invalid(self, evaluator):
        program = AlphaProgram(
            setup=[Operation.make("s_const", (), Operand.scalar(2), {"constant": 1.0})],
            predict=[Operation.make("s_abs", (Operand.scalar(2),), PREDICTION)],
            update=[Operation.make("s_const", (), Operand.scalar(3), {"constant": 0.0})],
        )
        result = evaluator.evaluate(program)
        assert not result.is_valid
        assert result.fitness == INVALID_FITNESS

    def test_report_round_trip(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=30)
        result = evaluator.evaluate(domain_expert_alpha(Dimensions(13, 13)))
        report = result.report
        assert report.fitness == result.fitness
        assert report.is_valid == result.is_valid

    def test_evaluate_runs_only_the_validation_split(self, small_taskset):
        """Fitness reads only the validation split, so neither evaluation
        path infers the test days."""
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=30)
        program = domain_expert_alpha(Dimensions(13, 13))
        result = evaluator.evaluate(program)
        assert set(result.predictions) == {"valid"}
        fleet = FleetEngine(evaluator)
        fleet.add(program)
        (fleet_result,) = fleet.evaluate().values()
        assert set(fleet_result.predictions) == {"valid"}
        np.testing.assert_array_equal(fleet_result.predictions["valid"],
                                      result.predictions["valid"])
        # run() still infers every requested split, validation bit for bit
        # as evaluate() saw it.
        both = evaluator.run(program)
        assert set(both) == {"valid", "test"}
        np.testing.assert_array_equal(both["valid"], result.predictions["valid"])
