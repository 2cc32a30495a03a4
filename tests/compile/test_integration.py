"""End-to-end search parity: compiled vs interpreter execution.

The ``--engine`` choice must be a pure performance switch — an entire
mining search (pruning, caching, cutoffs, tournament selection) produces
the same mined alpha on the interpreter and on the compiled tape, serial
or island/pool.
"""

import numpy as np
import pytest

from repro.core import Dimensions, EvolutionConfig, MiningSession, domain_expert_alpha
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.parallel import EvaluationPool


@pytest.fixture(scope="module")
def taskset():
    market = SyntheticMarket(MarketConfig(num_stocks=20, num_days=170), seed=3)
    return build_taskset(market.generate(), split=Split(train=70, valid=25, test=25))


def run_search(taskset, engine, num_islands=1):
    config = EvolutionConfig(
        population_size=10,
        tournament_size=4,
        max_candidates=60,
        engine=engine,
        num_islands=num_islands,
    )
    session = MiningSession(
        taskset,
        evolution_config=config,
        max_train_steps=10,
        seed=5,
    )
    dims = Dimensions(taskset.num_features, taskset.window)
    return session.search(domain_expert_alpha(dims), name="alpha")


class TestSearchParity:
    def test_serial_search_identical(self, taskset):
        compiled = run_search(taskset, engine="compiled")
        interpreted = run_search(taskset, engine="interpreter")
        assert compiled.program == interpreted.program
        assert compiled.sharpe == interpreted.sharpe
        assert compiled.ic == interpreted.ic
        assert np.array_equal(compiled.valid_returns, interpreted.valid_returns)
        assert compiled.evolution.best_report.fitness == \
            interpreted.evolution.best_report.fitness
        assert compiled.evolution.cache_stats.as_dict() == \
            interpreted.evolution.cache_stats.as_dict()

    def test_island_search_identical(self, taskset):
        compiled = run_search(taskset, engine="compiled", num_islands=2)
        interpreted = run_search(taskset, engine="interpreter", num_islands=2)
        assert compiled.program == interpreted.program
        assert compiled.evolution.best_report.fitness == \
            interpreted.evolution.best_report.fitness


class TestPoolParity:
    def test_pool_compiled_matches_interpreter_reports(self, taskset):
        from repro.core import AlphaEvaluator, Mutator
        dims = Dimensions(taskset.num_features, taskset.window)
        mutator = Mutator(dims, seed=4)
        programs = [domain_expert_alpha(dims)]
        for _ in range(5):
            programs.append(mutator.mutate(programs[-1]))
        serial = AlphaEvaluator(taskset, seed=0, max_train_steps=10,
                                engine="interpreter")
        expected = [serial.evaluate(program).report for program in programs]
        with EvaluationPool(taskset, num_workers=2) as pool:
            got = pool.evaluate(programs, evaluator=AlphaEvaluator(
                taskset, seed=0, max_train_steps=10, engine="compiled"))
        for left, right in zip(expected, got):
            same = (left.fitness == right.fitness) or (
                np.isnan(left.fitness) and np.isnan(right.fitness)
            )
            assert same
            assert left.is_valid == right.is_valid
            assert np.array_equal(left.daily_ic_valid, right.daily_ic_valid)
