"""Tests for the regularised evolutionary search."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backtest import BacktestEngine
from repro.core import (
    AlphaEvaluator,
    CandidateScorer,
    CorrelationFilter,
    EvolutionConfig,
    Mutator,
    domain_expert_alpha,
    get_initialization,
)
from repro.core.fitness import INVALID_FITNESS
from repro.errors import EvolutionError
from repro.parallel import IslandEvolutionController, islands


def make_controller(taskset, dims, max_candidates=80, use_pruning=True,
                    correlation_filter=None, seed=3):
    """A one-island search: plain regularised evolution."""
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20)
    engine = BacktestEngine(taskset, long_k=5, short_k=5) if correlation_filter else None
    return IslandEvolutionController(
        evaluator=evaluator,
        dims=dims,
        config=EvolutionConfig(
            population_size=10,
            tournament_size=4,
            max_candidates=max_candidates,
            use_pruning=use_pruning,
        ),
        correlation_filter=correlation_filter,
        backtest_engine=engine,
        seed=seed,
    )


class TestEvolutionConfig:
    def test_invalid_population(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(population_size=1)

    def test_invalid_tournament(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(population_size=5, tournament_size=10)

    def test_budget_required(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=None, max_seconds=None)

    def test_invalid_parallel_settings(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(num_workers=0)
        with pytest.raises(EvolutionError):
            EvolutionConfig(num_islands=0)

    def test_negative_budgets_rejected(self):
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=0)
        with pytest.raises(EvolutionError):
            EvolutionConfig(max_candidates=None, max_seconds=-1.0)


class TestRegularisedEvolution:
    def test_requires_engine_with_filter(self, small_taskset, dims):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with pytest.raises(EvolutionError):
            IslandEvolutionController(
                evaluator=evaluator,
                dims=dims,
                correlation_filter=CorrelationFilter(),
                backtest_engine=None,
            )

    def test_run_respects_candidate_budget(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=60)
        result = controller.run(domain_expert_alpha(dims))
        assert result.candidates_generated == 60
        assert result.searched_alphas == 60

    def test_best_is_at_least_initial(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=120)
        initial = controller.evaluator.evaluate(domain_expert_alpha(dims))
        result = controller.run(domain_expert_alpha(dims))
        assert result.best_report.fitness >= initial.fitness - 1e-12

    def test_trajectory_monotone_and_aligned(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=80)
        result = controller.run(domain_expert_alpha(dims))
        fitness_curve = [point.best_fitness for point in result.trajectory]
        assert fitness_curve == sorted(fitness_curve)
        candidates = [point.candidates for point in result.trajectory]
        assert candidates == sorted(candidates)
        assert candidates[-1] == result.candidates_generated

    def test_pruning_reduces_evaluations(self, small_taskset, dims):
        with_pruning = make_controller(small_taskset, dims, max_candidates=100,
                                       use_pruning=True)
        without_pruning = make_controller(small_taskset, dims, max_candidates=100,
                                          use_pruning=False)
        pruned_result = with_pruning.run(domain_expert_alpha(dims))
        full_result = without_pruning.run(domain_expert_alpha(dims))
        assert pruned_result.cache_stats.evaluated < full_result.cache_stats.evaluated
        assert full_result.cache_stats.evaluated == 100

    def test_time_budget_stops_search(self, small_taskset, dims, monkeypatch):
        # A fake clock that advances 0.125 s per read.  The run reads it at
        # the start (read 1) and once to plan the segment (read 2, the
        # check before the fill).  The segment stamps the root and the
        # 3-child fill (reads 3-4), then each main-loop step reads it twice,
        # before and after scoring.  The check on the 17th read sees 2.0 s
        # and stops the search after 6 steps, at 10 candidates, however
        # fast the host is; the 18th read is the reported elapsed time.
        reads = []

        def clock():
            reads.append(None)
            return 0.125 * (len(reads) - 1)

        monkeypatch.setattr(islands, "time", SimpleNamespace(perf_counter=clock))
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        controller = IslandEvolutionController(
            evaluator=evaluator,
            dims=dims,
            config=EvolutionConfig(population_size=4, tournament_size=2,
                                   max_candidates=None, max_seconds=2.0),
            seed=1,
        )
        result = controller.run(domain_expert_alpha(dims))
        assert result.candidates_generated == 10
        assert len(reads) == 18
        assert result.elapsed_seconds == 2.125

    def test_correlation_filter_invalidates_clones(self, small_taskset, dims):
        """With the initial alpha itself registered as a reference, candidates
        that behave like it must be discarded as correlated."""
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        expert = domain_expert_alpha(dims)
        reference_returns = engine.portfolio_returns(
            evaluator.run(expert, splits=("valid",))["valid"], split="valid"
        )
        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("alpha_D_0", reference_returns)
        controller = make_controller(small_taskset, dims, max_candidates=40,
                                     correlation_filter=correlation_filter)
        report = controller.scorer.score(expert)
        assert not report.is_valid
        assert report.fitness == INVALID_FITNESS
        assert "cutoff" in report.reason

    def test_deterministic_given_seeds(self, small_taskset, dims):
        a = make_controller(small_taskset, dims, max_candidates=60, seed=9)
        b = make_controller(small_taskset, dims, max_candidates=60, seed=9)
        result_a = a.run(domain_expert_alpha(dims))
        result_b = b.run(domain_expert_alpha(dims))
        assert result_a.best_program == result_b.best_program
        assert result_a.best_report.fitness == pytest.approx(result_b.best_report.fitness)

    def test_run_is_reusable_with_fresh_cache(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=40)
        first = controller.run(domain_expert_alpha(dims))
        second = controller.run(domain_expert_alpha(dims))
        # Each run starts from a fresh fingerprint cache and counter, so the
        # per-run statistics do not accumulate across calls.
        assert first.candidates_generated == second.candidates_generated == 40
        assert first.cache_stats.searched == 40
        assert second.cache_stats.searched == 40
        assert len(controller.scorer.cache) <= second.cache_stats.evaluated


class TestCandidateScorer:
    def test_score_batch_matches_sequential_scoring(self, small_taskset, dims):
        mutator = Mutator(dims, seed=4)
        programs = [get_initialization(code, dims, seed=2) for code in ("D", "NOOP", "R")]
        for _ in range(4):
            programs.append(mutator.mutate(programs[-1]))
        programs += programs[:2]  # duplicates exercise the cache paths

        sequential = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        expected = [sequential.score(program) for program in programs]
        batched = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        got = batched.score_batch(programs)

        for left, right in zip(got, expected):
            assert left.fitness == right.fitness
            assert left.is_valid == right.is_valid
            assert np.array_equal(left.daily_ic_valid, right.daily_ic_valid)
        assert batched.cache.stats.as_dict() == sequential.cache.stats.as_dict()
        assert batched.candidates_generated == sequential.candidates_generated

    def test_reset_clears_cache_and_counter(self, small_taskset, dims):
        scorer = CandidateScorer(AlphaEvaluator(small_taskset, seed=0, max_train_steps=20))
        scorer.score(domain_expert_alpha(dims))
        assert scorer.candidates_generated == 1
        scorer.reset()
        assert scorer.candidates_generated == 0
        assert len(scorer.cache) == 0
        assert scorer.cache.stats.searched == 0

    def test_requires_engine_with_filter(self, small_taskset):
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
        with pytest.raises(EvolutionError):
            CandidateScorer(evaluator, correlation_filter=CorrelationFilter())
