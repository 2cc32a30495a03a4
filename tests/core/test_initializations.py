"""Tests for the starting alphas of Section 5.2."""

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    INITIALIZATION_NAMES,
    domain_expert_alpha,
    get_initialization,
    neural_network_alpha,
    noop_alpha,
    prune_program,
    random_alpha,
)
from repro.errors import ConfigurationError


class TestFactories:
    def test_all_codes_buildable(self, dims):
        for code in INITIALIZATION_NAMES:
            program = get_initialization(code, dims, seed=0)
            program.validate()

    def test_unknown_code_rejected(self, dims):
        with pytest.raises(ConfigurationError):
            get_initialization("XYZ", dims)

    def test_lowercase_codes_accepted(self, dims):
        assert get_initialization("nn", dims).name == "alpha_NN"

    def test_random_alpha_deterministic_per_seed(self, dims):
        assert random_alpha(dims, seed=5) == random_alpha(dims, seed=5)
        assert random_alpha(dims, seed=5) != random_alpha(dims, seed=6)

    def test_invalid_nn_learning_rate(self, dims):
        with pytest.raises(ConfigurationError):
            neural_network_alpha(dims, learning_rate=0.0)

    def test_none_are_redundant(self, dims):
        for code in ("D", "NOOP", "NN"):
            program = get_initialization(code, dims)
            assert not prune_program(program).is_redundant, code


class TestBehaviour:
    def test_domain_expert_is_a_formulaic_alpha(self, dims):
        """The expert alpha has no parameters: pruning drops Setup and Update."""
        pruned = prune_program(domain_expert_alpha(dims)).program
        assert pruned.setup == []
        assert pruned.update == []

    def test_noop_alpha_predicts_a_raw_feature(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        predictions = evaluator.run(noop_alpha(dims), splits=("valid",))["valid"]
        expected = small_taskset.split_features("valid")[:, :, 0, -1]
        np.testing.assert_allclose(predictions, expected)

    def test_neural_network_alpha_trains(self, small_taskset, dims):
        """The NN alpha's SGD update must actually move the prediction."""
        trained = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=60
        ).run(neural_network_alpha(dims), splits=("valid",))["valid"]
        frozen = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=60, use_update=False
        ).run(neural_network_alpha(dims), splits=("valid",))["valid"]
        assert not np.allclose(trained, frozen)

    def test_neural_network_alpha_produces_finite_predictions(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=1, max_train_steps=60)
        result = evaluator.evaluate(neural_network_alpha(dims))
        assert np.isfinite(result.predictions["valid"]).all()

    def test_expert_alpha_beats_noop_on_synthetic_market(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=60)
        expert = evaluator.evaluate(domain_expert_alpha(dims))
        noop = evaluator.evaluate(noop_alpha(dims))
        assert expert.ic_valid > noop.ic_valid - 0.05
