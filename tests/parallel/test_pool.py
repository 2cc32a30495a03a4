"""Tests for the process-pool candidate evaluation."""

import numpy as np
import pytest

from repro.backtest import BacktestEngine
from repro.core import (
    AlphaEvaluator,
    CandidateScorer,
    Mutator,
    domain_expert_alpha,
    get_initialization,
)
from repro.errors import ConfigurationError, EvolutionError, ParallelError
from repro.parallel import EvaluationPool


def assert_reports_identical(got, want):
    """The pool contract: reports are bitwise identical to serial ones."""
    assert got.fitness == want.fitness
    assert got.is_valid == want.is_valid
    assert got.reason == want.reason
    assert (got.ic_valid == want.ic_valid) or (
        np.isnan(got.ic_valid) and np.isnan(want.ic_valid)
    )
    assert np.array_equal(got.daily_ic_valid, want.daily_ic_valid)


@pytest.fixture(scope="module")
def programs(dims):
    """A mixed bag of programs: valid, degenerate, and mutated variants."""
    mutator = Mutator(dims, seed=5)
    bag = [get_initialization(code, dims, seed=3) for code in ("D", "NOOP", "R", "NN")]
    program = bag[0]
    for _ in range(6):
        program = mutator.mutate(program)
        bag.append(program)
    return bag


class TestEvaluationPool:
    def test_reports_bitwise_identical_to_serial(self, small_taskset, programs):
        serial = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        expected = [serial.evaluate(program).report for program in programs]
        with EvaluationPool(small_taskset, num_workers=2, evaluator_seed=0,
                            max_train_steps=20) as pool:
            got = pool.evaluate(programs)
        assert len(got) == len(expected)
        for left, right in zip(got, expected):
            assert_reports_identical(left, right)

    def test_single_worker_matches_many_workers(self, small_taskset, programs):
        with EvaluationPool(small_taskset, num_workers=1, evaluator_seed=0,
                            max_train_steps=20, batch_size=3) as pool:
            one = pool.evaluate(programs)
        with EvaluationPool(small_taskset, num_workers=3, evaluator_seed=0,
                            max_train_steps=20, batch_size=2) as pool:
            many = pool.evaluate(programs)
        for left, right in zip(one, many):
            assert_reports_identical(left, right)

    def test_valid_returns_match_backtest_engine(self, small_taskset, dims):
        program = domain_expert_alpha(dims)
        serial = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expected = engine.portfolio_returns(
            serial.run(program, splits=("valid",))["valid"], split="valid"
        )
        with EvaluationPool(small_taskset, num_workers=2, evaluator_seed=0,
                            max_train_steps=20, long_k=5, short_k=5,
                            compute_valid_returns=True) as pool:
            evaluation = pool.evaluate_detailed([program])[0]
        assert evaluation.valid_returns is not None
        assert np.array_equal(evaluation.valid_returns, expected)

    def test_returns_empty_for_empty_input(self, small_taskset):
        with EvaluationPool(small_taskset, num_workers=1, max_train_steps=20) as pool:
            assert pool.evaluate([]) == []

    def test_closed_pool_rejects_work(self, small_taskset, dims):
        pool = EvaluationPool(small_taskset, num_workers=1, max_train_steps=20)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelError):
            pool.evaluate([domain_expert_alpha(dims)])

    def test_pool_defaults_to_compiled_engine(self, small_taskset):
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            assert pool.spec.engine == "compiled"

    def test_invalid_parameters_rejected(self, small_taskset):
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=0)
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=1, batch_size=0)


class TestScorerWithPool:
    def test_pooled_scorer_matches_serial_scorer(self, small_taskset, programs):
        # Include duplicates so the fingerprint cache and the in-batch
        # aliasing are both exercised.
        batch = list(programs) + list(programs[:3])
        serial = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        expected = [serial.score(program) for program in batch]
        with EvaluationPool(small_taskset, num_workers=2, evaluator_seed=0,
                            max_train_steps=20) as pool:
            pooled = CandidateScorer(
                AlphaEvaluator(small_taskset, seed=0, max_train_steps=20), pool=pool
            )
            got = pooled.score_batch(batch)
        for left, right in zip(got, expected):
            assert_reports_identical(left, right)
        assert pooled.cache.stats.as_dict() == serial.cache.stats.as_dict()
        assert pooled.candidates_generated == serial.candidates_generated == len(batch)

    def test_correlation_filter_requires_returns_capable_pool(self, small_taskset, dims):
        from repro.core import CorrelationFilter

        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("ref", np.linspace(-0.01, 0.01, 30))
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with EvaluationPool(small_taskset, num_workers=1, evaluator_seed=0,
                            max_train_steps=20) as pool:
            with pytest.raises(EvolutionError):
                CandidateScorer(evaluator, correlation_filter=correlation_filter, pool=pool)

    def test_pooled_scorer_applies_cutoff(self, small_taskset, dims):
        from repro.core import CorrelationFilter

        program = domain_expert_alpha(dims)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        reference = engine.portfolio_returns(
            evaluator.run(program, splits=("valid",))["valid"], split="valid"
        )
        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("self", reference)
        with EvaluationPool(small_taskset, num_workers=2, evaluator_seed=0,
                            max_train_steps=20, long_k=5, short_k=5,
                            compute_valid_returns=True) as pool:
            scorer = CandidateScorer(
                evaluator, correlation_filter=correlation_filter, pool=pool
            )
            report = scorer.score(program)
        assert not report.is_valid
        assert "cutoff" in report.reason
