"""Tests for the island-model evolutionary search."""

from collections import deque

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    Candidate,
    EvolutionConfig,
    FitnessReport,
    Mutator,
    domain_expert_alpha,
)
from repro.parallel import EvaluationPool, Island, IslandEvolutionController, islands


@pytest.fixture(autouse=True)
def short_migration_interval(monkeypatch):
    """Migrate every 5 steps, so these short searches migrate at all."""
    monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 5)


def make_controller(taskset, dims, *, max_candidates=60, num_islands=3,
                    population_size=8, pool=None, seed=5, **kwargs):
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20)
    return IslandEvolutionController(
        evaluator=evaluator,
        dims=dims,
        config=EvolutionConfig(
            population_size=population_size,
            tournament_size=3,
            max_candidates=max_candidates,
            num_islands=num_islands,
        ),
        seed=seed,
        mutation_seed=seed + 1,
        pool=pool,
        **kwargs,
    )


def fake_candidate(program, fitness):
    report = FitnessReport(
        fitness=fitness, ic_valid=fitness, daily_ic_valid=np.zeros(3), is_valid=True
    )
    return Candidate(program=program, report=report, born_at=0)


class TestIslandEvolution:
    def test_respects_candidate_budget_exactly(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=50)
        result = controller.run(domain_expert_alpha(dims))
        assert result.candidates_generated == 50
        assert result.searched_alphas == 50
        assert result.num_islands == 3

    def test_population_sizes_invariant(self, small_taskset, dims, monkeypatch):
        monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 2)
        controller = make_controller(small_taskset, dims, max_candidates=60)
        result = controller.run(domain_expert_alpha(dims))
        assert result.migrations > 0
        for island in controller.islands:
            assert len(island.population) == controller.config.population_size

    def test_trajectory_monotone_and_aligned(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=40)
        result = controller.run(domain_expert_alpha(dims))
        fitness_curve = [point.best_fitness for point in result.trajectory]
        assert fitness_curve == sorted(fitness_curve)
        candidates = [point.candidates for point in result.trajectory]
        assert candidates == sorted(candidates)
        assert candidates[-1] == result.candidates_generated

    def test_deterministic_given_seeds(self, small_taskset, dims):
        result_a = make_controller(small_taskset, dims).run(domain_expert_alpha(dims))
        result_b = make_controller(small_taskset, dims).run(domain_expert_alpha(dims))
        assert result_a.best_program == result_b.best_program
        assert result_a.best_report.fitness == result_b.best_report.fitness

    def test_pool_does_not_change_results(self, small_taskset, dims):
        serial = make_controller(small_taskset, dims).run(domain_expert_alpha(dims))
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            pooled = make_controller(small_taskset, dims, pool=pool).run(
                domain_expert_alpha(dims)
            )
        assert pooled.best_program == serial.best_program
        assert pooled.best_report.fitness == serial.best_report.fitness
        assert pooled.cache_stats.as_dict() == serial.cache_stats.as_dict()

    def test_run_is_reusable(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims, max_candidates=30)
        first = controller.run(domain_expert_alpha(dims))
        second = controller.run(domain_expert_alpha(dims))
        # Fresh cache and counters per run; the RNG streams advance, so the
        # searches themselves are independent restarts.
        assert first.candidates_generated == second.candidates_generated == 30
        assert second.cache_stats.searched == 30

    def test_single_island_needs_no_migration(self, small_taskset, dims,
                                              monkeypatch):
        monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 1)
        controller = make_controller(small_taskset, dims, num_islands=1,
                                     max_candidates=30)
        result = controller.run(domain_expert_alpha(dims))
        assert result.migrations == 0
        assert result.num_islands == 1


class TestPopulationFill:
    @pytest.mark.parametrize("max_candidates", [29, 27])
    def test_fill_is_one_dispatch_with_step_loop_counts(self, small_taskset,
                                                        dims, max_candidates):
        """Four islands of 8: the root and the fill (7 round-robin steps
        of 4 children, cut to the budget) reach the pool as one dispatch of
        one segment per island, and every child keeps the candidate count
        of its step."""
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            dispatched = []
            submit = pool.submit_detailed

            def recording_submit(segments, **kwargs):
                dispatched.append(len(segments))
                return submit(segments, **kwargs)

            pool.submit_detailed = recording_submit
            controller = make_controller(
                small_taskset, dims, num_islands=4, population_size=8,
                max_candidates=max_candidates, pool=pool,
            )
            result = controller.run(domain_expert_alpha(dims))
        # The root and the whole fill, as one segment per island.
        assert dispatched == [4]
        # What the round-robin step loop records: a step's children are
        # born at the candidate count at the end of that step.
        born = [[1] for _ in range(4)]
        trajectory = [1]
        count = 1
        while count < max_candidates:
            needy = [index for index in range(4) if len(born[index]) < 8]
            needy = needy[:max_candidates - count]
            count += len(needy)
            for index in needy:
                born[index].append(count)
            trajectory += [count] * len(needy)
        assert [[candidate.born_at for candidate in island.population]
                for island in controller.islands] == born
        assert [point.candidates for point in result.trajectory] == trajectory
        assert result.candidates_generated == max_candidates


class TestMigration:
    def _controller_with_fake_islands(self, small_taskset, dims, fitness_grid):
        controller = make_controller(small_taskset, dims,
                                     num_islands=len(fitness_grid))
        mutator = Mutator(dims, seed=9)
        program = domain_expert_alpha(dims)
        controller.islands = []
        for index, fitnesses in enumerate(fitness_grid):
            members = []
            for fitness in fitnesses:
                program = mutator.mutate(program)
                members.append(fake_candidate(program, fitness))
            controller.islands.append(
                Island(index=index, population=deque(members),
                       rng=np.random.default_rng(index), mutator=mutator)
            )
        return controller

    def test_ring_migration_replaces_worst(self, small_taskset, dims):
        controller = self._controller_with_fake_islands(
            small_taskset, dims,
            [[0.9, 0.5, 0.1], [0.4, 0.3, 0.2], [0.8, 0.6, 0.05]],
        )
        donors_best = [island.best for island in controller.islands]
        controller._migrate()
        for index, island in enumerate(controller.islands):
            assert len(island.population) == 3
            migrant = donors_best[(index - 1) % 3]
            assert any(member.program == migrant.program
                       for member in island.population)
        # Island 1 had no member fitter than island 0's best (0.9): its
        # worst member (0.2) must have been displaced by the migrant.
        fitnesses = sorted(candidate.fitness for candidate in
                           controller.islands[1].population)
        assert fitnesses == [0.3, 0.4, 0.9]

    def test_weaker_migrant_does_not_displace_fitter_member(self, small_taskset, dims):
        controller = self._controller_with_fake_islands(
            small_taskset, dims, [[0.2, 0.1], [0.9, 0.8]],
        )
        controller._migrate()
        # Island 1 receives island 0's best (0.2), weaker than its own worst
        # member (0.8): the migrant must be dropped, not swapped in.
        assert sorted(c.fitness for c in controller.islands[1].population) == [0.8, 0.9]
        # Island 0 receives island 1's best (0.9): its worst member (0.1)
        # must be displaced.
        assert sorted(c.fitness for c in controller.islands[0].population) == [0.2, 0.9]

    def test_migrant_already_present_is_not_duplicated(self, small_taskset, dims):
        controller = self._controller_with_fake_islands(
            small_taskset, dims, [[0.2, 0.1], [0.9, 0.8]],
        )
        # Plant island 1's best into island 0, so both rings now offer a
        # program the receiver already holds.
        shared = controller.islands[1].best
        controller.islands[0].population = deque(
            [shared, *list(controller.islands[0].population)[1:]]
        )
        before = {
            index: [candidate.program for candidate in island.population]
            for index, island in enumerate(controller.islands)
        }
        controller._migrate()
        for index, island in enumerate(controller.islands):
            assert [c.program for c in island.population] == before[index]

    def test_keys_each_program_once(self, small_taskset, dims, monkeypatch):
        """A migration reads each migrant's exact key once and each
        member's once: at most M·(N+1) keys for M islands of N members
        when no migrant is already present (pairwise ``==`` reads 2·M·N)."""
        grid = [[0.9, 0.5, 0.1, 0.3], [0.4, 0.3, 0.2, 0.1], [0.8, 0.6, 0.05, 0.7]]
        controller = self._controller_with_fake_islands(small_taskset, dims, grid)
        offers = [island.best.program for island in controller.islands]
        for index, island in enumerate(controller.islands):
            assert offers[index - 1] not in [c.program for c in island.population]
        calls = {"count": 0}
        exact_key = AlphaProgram.exact_key

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return exact_key(self, *args, **kwargs)

        monkeypatch.setattr(AlphaProgram, "exact_key", counting)
        controller._migrate()
        num_islands, members = len(grid), len(grid[0])
        assert 0 < calls["count"] <= num_islands * (members + 1)
