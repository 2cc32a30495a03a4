"""Tests for the process-pool candidate evaluation."""

import dataclasses

import numpy as np
import pytest

from repro.backtest import BacktestEngine
from repro.config import DEFAULT_ADDRESS_SPACE, AddressSpace
from repro.core import (
    AlphaEvaluator,
    Mutator,
    domain_expert_alpha,
    get_initialization,
)
from repro.core.evolution import evaluate_misses
from repro.errors import ConfigurationError, ParallelError, ProgramError
from repro.obs import TELEMETRY, telemetry_session
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


def nn_batch(dims, seed=2, size=6, address_space=DEFAULT_ADDRESS_SPACE):
    """An NN-family batch: the initialiser draws its weights from the
    evaluator's seed, so seeds score it differently."""
    mutator = Mutator(dims, address_space=address_space, seed=seed)
    batch = [get_initialization("NN", dims)]
    while len(batch) < size:
        batch.append(mutator.mutate(batch[-1]))
    return batch


def assert_pairs_identical(got, want):
    """Pooled evaluations equal the serial miss evaluator's pairs, report
    and validation-return series alike."""
    assert len(got) == len(want)
    for evaluation, (report, returns) in zip(got, want):
        assert_reports_identical(evaluation.report, report)
        if returns is None:
            assert evaluation.valid_returns is None
        else:
            assert evaluation.valid_returns.tobytes() == returns.tobytes()


class TestEvaluationPool:
    def test_reports_bitwise_identical_to_serial(self, small_taskset, programs):
        serial = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        expected = [serial.evaluate(program).report for program in programs]
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            got = pool.evaluate(programs, evaluator=serial)
        assert len(got) == len(expected)
        for left, right in zip(got, expected):
            assert_reports_identical(left, right)

    def test_single_worker_matches_many_workers(self, small_taskset, programs):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            one = pool.evaluate(programs, evaluator=evaluator)
        with EvaluationPool(small_taskset, num_workers=3) as pool:
            many = pool.evaluate(programs, evaluator=evaluator)
        for left, right in zip(one, many):
            assert_reports_identical(left, right)

    def test_valid_returns_match_backtest_engine(self, small_taskset, dims):
        program = domain_expert_alpha(dims)
        serial = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expected = engine.portfolio_returns(
            serial.run(program, splits=("valid",))["valid"], split="valid"
        )
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            evaluation = pool.evaluate_detailed(
                [program], evaluator=serial, backtest_engine=engine
            )[0]
        assert evaluation.valid_returns is not None
        assert np.array_equal(evaluation.valid_returns, expected)

    def test_returns_empty_for_empty_input(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            assert pool.evaluate([], evaluator=evaluator) == []

    def test_closed_pool_rejects_work(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        pool = EvaluationPool(small_taskset, num_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ParallelError):
            pool.evaluate([domain_expert_alpha(dims)], evaluator=evaluator)

    def test_invalid_parameters_rejected(self, small_taskset):
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=0)
        with pytest.raises(ConfigurationError):
            EvaluationPool(small_taskset, num_workers=1, max_batch_retries=-1)

    def test_dispatch_needs_an_integer_seed(self, small_taskset, dims):
        """A worker rebuilds its evaluator from the dispatch's seed, so an
        evaluator built from a generator (seed ``None``) cannot be
        reproduced there."""
        evaluator = AlphaEvaluator(small_taskset, seed=np.random.default_rng(0),
                                   max_train_steps=20)
        assert evaluator.seed is None
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            with pytest.raises(ConfigurationError, match="integer seed"):
                pool.evaluate([domain_expert_alpha(dims)], evaluator=evaluator)

    def test_dispatch_must_stay_on_the_pools_task_set(self, small_taskset, dims):
        """The workers hold the published panel only: an evaluator or a
        backtest engine over another task set, even one with equal
        contents, is refused rather than silently scored on this one."""
        other = dataclasses.replace(small_taskset)
        program = domain_expert_alpha(dims)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            with pytest.raises(ConfigurationError, match="evaluator"):
                pool.evaluate([program], evaluator=AlphaEvaluator(
                    other, seed=0, max_train_steps=20))
            with pytest.raises(ConfigurationError, match="backtest engine"):
                pool.evaluate_detailed([program], evaluator=evaluator,
                                       backtest_engine=BacktestEngine(other))
            # The pool still serves dispatches on its own task set.
            assert len(pool.evaluate([program], evaluator=evaluator)) == 1


class TestChunking:
    @pytest.mark.parametrize("size, chunks", [(1, 1), (2, 2), (5, 3), (10, 3)])
    def test_a_dispatch_makes_one_chunk_per_worker_at_most(
        self, small_taskset, dims, size, chunks
    ):
        """n programs make min(n, num_workers) contiguous chunks, counted by
        ``pool.batches``; the results come back in input order."""
        batch = nn_batch(dims, size=size)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=10)
        expected = evaluate_misses(evaluator, batch)
        with EvaluationPool(small_taskset, num_workers=3) as pool:
            with telemetry_session():
                got = pool.evaluate_detailed(batch, evaluator=evaluator)
                assert TELEMETRY.counter("pool.batches").value == chunks
                assert TELEMETRY.counter("pool.programs").value == size
        assert_pairs_identical(got, expected)


class TestPerDispatchSettings:
    def test_one_pool_follows_each_dispatch_seed(self, small_taskset, dims):
        """Seeds A, B, A on one pool: every dispatch scores bit for bit like
        a serial evaluator under its seed, and returns validation returns
        only when it names a backtest engine."""
        batch = nn_batch(dims)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        evaluators = {seed: AlphaEvaluator(small_taskset, seed=seed,
                                           max_train_steps=20)
                      for seed in (3, 8)}
        expected = {}
        for seed, serial in evaluators.items():
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
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            for seed, valid_returns in ((3, False), (8, True), (3, True)):
                got = pool.evaluate_detailed(
                    batch, evaluator=evaluators[seed],
                    backtest_engine=engine if valid_returns else None)
                for evaluation, (report, returns) in zip(got, expected[seed]):
                    assert_reports_identical(evaluation.report, report)
                    if valid_returns and returns is not None:
                        assert evaluation.valid_returns.tobytes() == returns.tobytes()
                    else:
                        assert evaluation.valid_returns is None

    def test_one_pool_follows_every_evaluator_setting(self, small_taskset, dims):
        """One pool serves evaluators that differ in seed, training steps,
        ``use_update``, engine and address space, under 5/5 and 10/10
        books: every report and series is the serial miss evaluator's."""
        wide = AddressSpace(num_scalars=14, num_vectors=20, num_matrices=6)
        batch, wide_batch = nn_batch(dims), nn_batch(dims, seed=4, size=10,
                                                     address_space=wide)
        # The wide batch writes operands the default space lacks, so a
        # worker that ignored the address space would refuse it.
        with pytest.raises(ProgramError):
            for program in wide_batch:
                program.validate(DEFAULT_ADDRESS_SPACE)
        books = {5: BacktestEngine(small_taskset, long_k=5, short_k=5),
                 10: BacktestEngine(small_taskset, long_k=10, short_k=10)}
        dispatches = [
            (dict(seed=3, max_train_steps=20), batch, 5),
            (dict(seed=8, max_train_steps=20), batch, 5),
            (dict(seed=8, max_train_steps=12), batch, 10),
            (dict(seed=8, max_train_steps=12, use_update=False), batch, 10),
            (dict(seed=8, max_train_steps=12, use_update=False,
                  engine="interpreter"), batch, None),
            (dict(seed=8, max_train_steps=12, address_space=wide),
             wide_batch, 5),
            (dict(seed=3, max_train_steps=20), batch, 10),
        ]
        expected = []
        for settings, programs, book in dispatches:
            evaluator = AlphaEvaluator(small_taskset, **settings)
            engine = books.get(book)
            expected.append((evaluator, programs, engine,
                             evaluate_misses(evaluator, programs, engine)))
        # Consecutive settings score the batch differently (the engine and
        # the address space change no bit by contract), so a worker that
        # kept a stale evaluator would show.
        for before, after in zip(expected[:4], expected[1:4]):
            assert any(left[0].fitness != right[0].fitness
                       for left, right in zip(before[3], after[3]))
        returns_5 = [r for _, r in expected[0][3] if r is not None]
        returns_10 = [r for _, r in expected[6][3] if r is not None]
        assert returns_5 and returns_10
        assert any(a.tobytes() != b.tobytes() for a, b in zip(returns_5, returns_10))
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            for evaluator, programs, engine, want in expected:
                got = pool.evaluate_detailed(programs, evaluator=evaluator,
                                             backtest_engine=engine)
                assert_pairs_identical(got, want)
