"""A pooled search is the serial search: workers own whole islands.

At every barrier a pooled search ships each island to the workers as one
segment, which a worker advances with its own scorer; the parent replays
the returned records in serial order.  These tests pin
that a pooled search reports what the in-process search reports — the
mined program, every island's programs and report bits, the cache
counts and the trajectory — for any island and worker count, across
migrations, the correlation cutoff, the pruning ablation, a kill and
resume and a killed worker, and that the parent itself mutates, prunes,
fingerprints and compiles nothing.
"""

import os

import numpy as np
import pytest

from repro.backtest import BacktestEngine
from repro.core import (
    AlphaEvaluator,
    CorrelationFilter,
    EvolutionConfig,
    domain_expert_alpha,
    get_initialization,
)
from repro.obs import TELEMETRY, telemetry_session
from repro.parallel import (
    CheckpointManager,
    EvaluationPool,
    IslandEvolutionController,
    islands,
    shared_segment_names,
)


@pytest.fixture(autouse=True)
def short_migration_interval(monkeypatch):
    """Migrate every 5 steps, so these short searches migrate."""
    monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 5)


@pytest.fixture(scope="module")
def pools(small_taskset):
    """One pool per worker count, shared by the module's searches."""
    made = {}

    def pool(workers):
        if workers not in made:
            made[workers] = EvaluationPool(small_taskset, num_workers=workers)
        return made[workers]

    yield pool
    for pool_ in made.values():
        pool_.close()
    assert shared_segment_names() == []


def make_controller(taskset, dims, *, num_islands, pool=None, max_candidates=48,
                    use_pruning=True, correlation_filter=None, evaluator=None,
                    checkpoint_path=None):
    engine = (BacktestEngine(taskset, long_k=5, short_k=5)
              if correlation_filter is not None else None)
    return IslandEvolutionController(
        evaluator=evaluator or AlphaEvaluator(taskset, seed=0, max_train_steps=10),
        dims=dims,
        config=EvolutionConfig(population_size=5, tournament_size=2,
                               max_candidates=max_candidates,
                               num_islands=num_islands, use_pruning=use_pruning),
        correlation_filter=correlation_filter,
        backtest_engine=engine,
        seed=7,
        mutation_seed=8,
        pool=pool,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=9,
    )


def report_bits(report):
    return (report.fitness.hex(), float(report.ic_valid).hex(), report.is_valid,
            report.reason, np.asarray(report.daily_ic_valid).tobytes())


def outcome(controller, result):
    """Everything a search reports, as comparable bits."""
    return {
        "best": (result.best_program.to_json(), report_bits(result.best_report)),
        "islands": [
            [(member.program.to_json(), report_bits(member.report),
              member.born_at, member.key) for member in island.population]
            for island in controller.islands
        ],
        "stats": result.cache_stats.as_dict(),
        "trajectory": [(point.candidates, point.evaluations,
                        point.best_fitness.hex()) for point in result.trajectory],
        "candidates": result.candidates_generated,
        "migrations": result.migrations,
    }


def run(controller, initial=None, **kwargs):
    result = controller.run(initial or domain_expert_alpha(controller.dims), **kwargs)
    return outcome(controller, result)


_SERIAL: dict = {}


def serial_outcome(taskset, dims, num_islands):
    if num_islands not in _SERIAL:
        _SERIAL[num_islands] = run(make_controller(taskset, dims,
                                                   num_islands=num_islands))
    return _SERIAL[num_islands]


class TestPooledEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("num_islands", [1, 2, 3, 4])
    def test_every_bit_and_count_matches(self, small_taskset, dims, pools,
                                         num_islands, workers):
        """1-4 islands on 2 and 3 workers, fewer islands than workers and
        uneven splits (4 islands on 3 workers) included."""
        want = serial_outcome(small_taskset, dims, num_islands)
        got = run(make_controller(small_taskset, dims, num_islands=num_islands,
                                  pool=pools(workers)))
        assert got == want
        if num_islands > 1:
            assert want["migrations"] > 0

    def test_correlation_cutoff_runs_in_the_workers(self, small_taskset, dims,
                                                    pools):
        """With the initial alpha as the accepted reference, clones of it
        fail the cutoff on the workers exactly as in-process."""
        initial = domain_expert_alpha(dims)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=10)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        correlation_filter = CorrelationFilter()
        correlation_filter.add_reference("accepted", engine.portfolio_returns(
            evaluator.run(initial, splits=("valid",))["valid"], split="valid"))
        serial = make_controller(small_taskset, dims, num_islands=3,
                                 correlation_filter=correlation_filter)
        want = run(serial, initial)
        pooled = make_controller(small_taskset, dims, num_islands=3,
                                 correlation_filter=correlation_filter,
                                 pool=pools(2))
        assert run(pooled, initial) == want
        reasons = {member.report.reason for island in pooled.islands
                   for member in island.population}
        assert any("cutoff" in reason for reason in reasons)

    def test_pruning_ablation(self, small_taskset, dims, pools):
        """Without pruning every candidate is evaluated, in-process or on
        the workers, and nothing is keyed."""
        want = run(make_controller(small_taskset, dims, num_islands=3,
                                   use_pruning=False))
        assert want["stats"]["evaluated"] == want["candidates"] == 48
        got = run(make_controller(small_taskset, dims, num_islands=3,
                                  use_pruning=False, pool=pools(2)))
        assert got == want

    def test_follows_a_non_default_evaluator(self, small_taskset, dims, pools):
        """The workers score under the search's own evaluator: 15 training
        steps without ``Update()`` mine the serial bits pooled, and other
        bits than the default evaluator's."""
        initial = get_initialization("NN", dims, seed=3)
        evaluator = AlphaEvaluator(small_taskset, seed=4, max_train_steps=15,
                                   use_update=False)
        want = run(make_controller(small_taskset, dims, num_islands=2,
                                   evaluator=evaluator), initial)
        defaults = run(make_controller(small_taskset, dims, num_islands=2),
                       initial)
        assert want["best"] != defaults["best"]
        got = run(make_controller(small_taskset, dims, num_islands=2,
                                  evaluator=evaluator, pool=pools(2)), initial)
        assert got == want


class TestThePooledParent:
    def test_mutates_prunes_fingerprints_and_compiles_nothing(
        self, small_taskset, dims, monkeypatch
    ):
        """Counted by wrapping each entry point in this process: the serial
        search calls all four, the pooled search none."""
        import repro.compile
        import repro.compile.compiler as compiler
        import repro.core.cache as cache
        import repro.core.mutation as mutation
        import repro.engine.backends as backends
        import repro.engine.fleet as fleet

        parent = os.getpid()
        calls = {"mutate": 0, "prune": 0, "fingerprint": 0, "compile": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                if os.getpid() == parent:
                    calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mutation.Mutator, "mutate",
                            counting("mutate", mutation.Mutator.mutate))
        monkeypatch.setattr(cache, "prune_program",
                            counting("prune", cache.prune_program))
        monkeypatch.setattr(cache, "fingerprint",
                            counting("fingerprint", cache.fingerprint))
        for module in (repro.compile, compiler, backends, fleet):
            monkeypatch.setattr(module, "compile_program",
                                counting("compile", module.compile_program))
        serial = run(make_controller(small_taskset, dims, num_islands=4))
        assert all(calls.values()), calls
        calls.update(dict.fromkeys(calls, 0))
        # A fresh pool: its workers fork with the counting wrappers.
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            pooled = run(make_controller(small_taskset, dims, num_islands=4,
                                         pool=pool))
        assert calls == {"mutate": 0, "prune": 0, "fingerprint": 0, "compile": 0}
        assert pooled == serial

    def test_counts_segments_and_duplicate_evaluations(self, small_taskset,
                                                       dims, pools):
        """The parent counts from the records: a pooled barrier is one
        dispatch of one segment per island, the logical evaluations are the
        cache's, and the initial program scored by each worker is a
        duplicate evaluation the serial search never makes."""
        pool = pools(2)
        dispatches = []
        submit = pool.submit_detailed

        def recording(segments, **kwargs):
            dispatches.append(len(segments))
            return submit(segments, **kwargs)

        counts = {}
        for name, search_pool in (("serial", None), ("pooled", pool)):
            controller = make_controller(small_taskset, dims, num_islands=4,
                                         pool=search_pool)
            pool.submit_detailed = recording
            try:
                with telemetry_session():
                    result = controller.run(domain_expert_alpha(dims))
                    counts[name] = {
                        key: TELEMETRY.counter(f"search.{key}").value
                        for key in ("segments", "evaluations",
                                    "duplicate_evaluations", "candidates")
                    }
            finally:
                del pool.submit_detailed
            assert counts[name]["evaluations"] == result.cache_stats.evaluated
            assert counts[name]["candidates"] == result.candidates_generated
        assert dispatches and set(dispatches) == {4}
        assert counts["serial"]["segments"] == len(dispatches)
        assert counts["pooled"]["segments"] == 4 * len(dispatches)
        assert counts["serial"]["duplicate_evaluations"] == 0
        assert counts["pooled"]["duplicate_evaluations"] >= 1


class TestRecovery:
    def test_killed_at_a_barrier_and_resumed(self, small_taskset, dims, pools,
                                             tmp_path, monkeypatch):
        """Serial and pooled searches killed right after a checkpoint save
        (a barrier) resume, on the pool, to the uninterrupted serial
        search's result."""
        want = serial_outcome(small_taskset, dims, 4)
        original_save = CheckpointManager.save
        for name, search_pool in (("serial", None), ("pooled", pools(2))):
            path = str(tmp_path / f"{name}.ckpt")
            saves = {"count": 0}

            def save_then_die(self, checkpoint):
                original_save(self, checkpoint)
                saves["count"] += 1
                if saves["count"] >= 2:
                    raise KeyboardInterrupt

            monkeypatch.setattr(CheckpointManager, "save", save_then_die)
            with pytest.raises(KeyboardInterrupt):
                make_controller(small_taskset, dims, num_islands=4,
                                pool=search_pool, checkpoint_path=path).run(
                    domain_expert_alpha(dims))
            monkeypatch.setattr(CheckpointManager, "save", original_save)
            resumed = make_controller(small_taskset, dims, num_islands=4,
                                      pool=pools(2), checkpoint_path=path)
            got = run(resumed, resume=True)
            # Resumed islands keep the trajectory and counts; only the
            # candidates' elapsed stamps differ.
            assert got == want, name

    def test_sigkilled_worker_reruns_its_segment(self, small_taskset, dims):
        """A worker killed after advancing its islands, before returning
        them: the pool reruns the segment from the shipped state."""
        want = serial_outcome(small_taskset, dims, 4)
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            pool._inject_fault_once = "sigkill"
            got = run(make_controller(small_taskset, dims, num_islands=4,
                                      pool=pool))
            assert pool.worker_restarts == 1
            assert pool.batches_retried >= 1
        assert got == want


class TestTimeBudget:
    def test_workers_stop_a_timed_search_on_the_shared_clock(
        self, small_taskset, dims, pools
    ):
        """A time-only budget on the pool: each worker reads the host's
        monotonic clock against the parent's reading, so the search stops
        soon after the budget even for islands whose segment waited for a
        free worker, and its counts stay consistent."""
        controller = IslandEvolutionController(
            evaluator=AlphaEvaluator(small_taskset, seed=0, max_train_steps=10),
            dims=dims,
            config=EvolutionConfig(population_size=5, tournament_size=2,
                                   max_candidates=None, max_seconds=0.5,
                                   num_islands=3),
            seed=7, mutation_seed=8, pool=pools(2),
        )
        result = controller.run(domain_expert_alpha(dims))
        assert 0.5 <= result.elapsed_seconds < 30.0
        # The root and the fill always run: the clock is read before them.
        assert result.candidates_generated >= 1 + 3 * 4
        assert result.cache_stats.searched == result.candidates_generated
        candidates = [point.candidates for point in result.trajectory]
        assert candidates == sorted(candidates)
        assert candidates[-1] == result.candidates_generated
