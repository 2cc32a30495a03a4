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
from repro.errors import ConfigurationError, ParallelError
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
        with EvaluationPool(small_taskset, num_workers=2,
                            max_train_steps=20) as pool:
            got = pool.evaluate(programs, evaluator_seed=0)
        assert len(got) == len(expected)
        for left, right in zip(got, expected):
            assert_reports_identical(left, right)

    def test_single_worker_matches_many_workers(self, small_taskset, programs):
        with EvaluationPool(small_taskset, num_workers=1,
                            max_train_steps=20, batch_size=3) as pool:
            one = pool.evaluate(programs, evaluator_seed=0)
        with EvaluationPool(small_taskset, num_workers=3,
                            max_train_steps=20, batch_size=2) as pool:
            many = pool.evaluate(programs, evaluator_seed=0)
        for left, right in zip(one, many):
            assert_reports_identical(left, right)

    def test_valid_returns_match_backtest_engine(self, small_taskset, dims):
        program = domain_expert_alpha(dims)
        serial = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expected = engine.portfolio_returns(
            serial.run(program, splits=("valid",))["valid"], split="valid"
        )
        with EvaluationPool(small_taskset, num_workers=2,
                            max_train_steps=20, long_k=5, short_k=5) as pool:
            evaluation = pool.evaluate_detailed(
                [program], evaluator_seed=0, valid_returns=True
            )[0]
        assert evaluation.valid_returns is not None
        assert np.array_equal(evaluation.valid_returns, expected)

    def test_returns_empty_for_empty_input(self, small_taskset):
        with EvaluationPool(small_taskset, num_workers=1, max_train_steps=20) as pool:
            assert pool.evaluate([], evaluator_seed=0) == []

    def test_closed_pool_rejects_work(self, small_taskset, dims):
        pool = EvaluationPool(small_taskset, num_workers=1, max_train_steps=20)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelError):
            pool.evaluate([domain_expert_alpha(dims)], evaluator_seed=0)

    def test_pool_defaults_to_compiled_engine(self, small_taskset):
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            assert pool.spec.engine == "compiled"

    def test_invalid_parameters_rejected(self, small_taskset):
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=0)
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=1, batch_size=0)

    def test_dispatch_needs_an_integer_seed(self, small_taskset, dims):
        """A worker rebuilds its evaluator from the dispatch's seed, so an
        evaluator built from a generator (seed ``None``) cannot be
        reproduced there."""
        with EvaluationPool(small_taskset, num_workers=1, max_train_steps=20) as pool:
            with pytest.raises(ConfigurationError, match="integer seed"):
                pool.evaluate([domain_expert_alpha(dims)], evaluator_seed=None)


class TestPerDispatchSettings:
    def test_one_pool_follows_each_dispatch_seed(self, small_taskset, dims):
        """Seeds A, B, A on one pool: every dispatch scores bit for bit like
        a serial evaluator under its seed, and returns validation returns
        only when it asks for them."""
        mutator = Mutator(dims, seed=2)
        batch = [get_initialization("NN", dims)]
        while len(batch) < 6:
            batch.append(mutator.mutate(batch[-1]))
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expected = {}
        for seed in (3, 8):
            serial = AlphaEvaluator(small_taskset, seed=seed, max_train_steps=20)
            results = [serial.evaluate(program) for program in batch]
            expected[seed] = [
                (result.report,
                 engine.portfolio_returns(result.predictions["valid"], split="valid")
                 if result.is_valid else None)
                for result in results
            ]
        # The NN initialiser draws its weights from the seed, so the two
        # seeds score this batch differently; otherwise the test shows
        # nothing.
        assert any(a[0].fitness != b[0].fitness
                   for a, b in zip(expected[3], expected[8]))
        assert any(returns is not None for _, returns in expected[8])
        with EvaluationPool(small_taskset, num_workers=2, max_train_steps=20,
                            long_k=5, short_k=5, batch_size=2) as pool:
            for seed, valid_returns in ((3, False), (8, True), (3, True)):
                got = pool.evaluate_detailed(batch, evaluator_seed=seed,
                                             valid_returns=valid_returns)
                for evaluation, (report, returns) in zip(got, expected[seed]):
                    assert_reports_identical(evaluation.report, report)
                    if valid_returns and returns is not None:
                        assert evaluation.valid_returns.tobytes() == returns.tobytes()
                    else:
                        assert evaluation.valid_returns is None


class TestScorerWithPool:
    def test_pooled_scorer_matches_serial_scorer(self, small_taskset, programs):
        # Include duplicates so the fingerprint cache and the in-batch
        # aliasing are both exercised.
        batch = list(programs) + list(programs[:3])
        serial = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        expected = [serial.score(program) for program in batch]
        with EvaluationPool(small_taskset, num_workers=2,
                            max_train_steps=20) as pool:
            pooled = CandidateScorer(
                AlphaEvaluator(small_taskset, seed=0, max_train_steps=20), pool=pool
            )
            got = pooled.score_batch(batch)
        for left, right in zip(got, expected):
            assert_reports_identical(left, right)
        assert pooled.cache.stats.as_dict() == serial.cache.stats.as_dict()
        assert pooled.candidates_generated == serial.candidates_generated == len(batch)

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
        with EvaluationPool(small_taskset, num_workers=2,
                            max_train_steps=20, long_k=5, short_k=5) as pool:
            scorer = CandidateScorer(
                evaluator, correlation_filter=correlation_filter, pool=pool
            )
            report = scorer.score(program)
        assert not report.is_valid
        assert "cutoff" in report.reason
