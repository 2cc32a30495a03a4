"""Fault-injection tests: crashed workers, poisoned batches, kill/resume.

Uses the pool's test-only ``_inject_fault_once`` hook to kill (``SIGKILL``)
or poison (raise) a worker mid-batch and asserts the robustness contract:
lost batches are retried to bitwise-identical results, errors propagate as
:class:`~repro.errors.ParallelError`, and **no** ``/dev/shm`` segment
outlives its pool on any path — including the historical silent-leak edge
where a batch raised inside the pool's ``with`` block.
"""

import os

import pytest

from repro.core import AlphaEvaluator, EvolutionConfig, domain_expert_alpha
from repro.errors import ParallelError
from repro.obs import TELEMETRY, telemetry_session
from repro.parallel import (
    CheckpointManager,
    EvaluationPool,
    IslandEvolutionController,
    islands,
    shared_segment_names,
)
from test_shared_memory import _fuzz_batch, assert_reports_equal


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = shared_segment_names()
    yield
    assert shared_segment_names() == before


class TestWorkerCrash:
    def test_sigkilled_batch_is_retried_bitwise_identical(self, small_taskset, dims):
        batch = _fuzz_batch(dims, seed=13)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=15)
        # Two workers cut the batch into two chunks: one is killed, the
        # other may finish or be lost with the executor.
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            with telemetry_session():
                clean = pool.evaluate_detailed(batch, evaluator=evaluator)
                assert TELEMETRY.counter("pool.batches").value == 2
            pool._inject_fault_once = "sigkill"
            retried = pool.evaluate_detailed(batch, evaluator=evaluator)
            assert pool.worker_restarts == 1
            assert pool.batches_retried >= 1
            # The pool stays usable after the rebuild.
            again = pool.evaluate_detailed(batch[:2], evaluator=evaluator)
        for left, right in zip(clean, retried):
            assert_reports_equal(left.report, right.report)
        for left, right in zip(clean[:2], again):
            assert_reports_equal(left.report, right.report)

    def test_retry_budget_exhaustion_raises(self, small_taskset, dims):
        batch = _fuzz_batch(dims, seed=17)[:3]
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=15)
        with EvaluationPool(small_taskset, num_workers=1,
                            max_batch_retries=0) as pool:
            pool._inject_fault_once = "sigkill"
            with pytest.raises(ParallelError, match="giving up"):
                pool.evaluate_detailed(batch, evaluator=evaluator)

    def test_worker_exception_inside_with_block_does_not_leak(
        self, small_taskset, dims
    ):
        """Regression: a batch that raises used to leave the pool's shared
        segment behind when the ``with`` block unwound."""
        batch = _fuzz_batch(dims, seed=19)[:3]
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=15)
        with pytest.raises(ParallelError, match="injected"):
            with EvaluationPool(small_taskset, num_workers=2) as pool:
                pool._inject_fault_once = "raise"
                pool.evaluate_detailed(batch, evaluator=evaluator)
        assert shared_segment_names() == []

    def test_close_after_crash_unlinks(self, small_taskset, dims):
        pool = EvaluationPool(small_taskset, num_workers=1, max_batch_retries=0)
        pool._inject_fault_once = "sigkill"
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=15)
        with pytest.raises(ParallelError):
            pool.evaluate_detailed(_fuzz_batch(dims, seed=23)[:2],
                                   evaluator=evaluator)
        pool.close()
        assert shared_segment_names() == []


def make_pooled_controller(taskset, dims, pool, *, checkpoint_path=None,
                           max_candidates=48, seed=5):
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=15)
    return IslandEvolutionController(
        evaluator=evaluator,
        dims=dims,
        config=EvolutionConfig(
            population_size=6,
            tournament_size=3,
            max_candidates=max_candidates,
            num_islands=2,
        ),
        seed=seed,
        mutation_seed=seed + 1,
        pool=pool,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=12,
    )


def pool_for(taskset):
    return EvaluationPool(taskset, num_workers=2)


class TestKillAndResumeWithFaults:
    @pytest.fixture(autouse=True)
    def short_migration_interval(self, monkeypatch):
        """Migrate every 4 steps, so the searches here migrate."""
        monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 4)

    def test_killed_pooled_search_resumes_bitwise_identical(
        self, small_taskset, dims, tmp_path, monkeypatch
    ):
        """Kill the search process mid-run AND SIGKILL a worker during the
        resumed run: the final result must equal an uninterrupted run's,
        and no shared segment may survive either run."""
        initial = domain_expert_alpha(dims)
        with pool_for(small_taskset) as pool:
            uninterrupted = make_pooled_controller(
                small_taskset, dims, pool
            ).run(initial)

        path = str(tmp_path / "search.ckpt")
        saves = {"count": 0}
        original_save = CheckpointManager.save

        def save_then_die(self, checkpoint):
            original_save(self, checkpoint)
            saves["count"] += 1
            if saves["count"] >= 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(CheckpointManager, "save", save_then_die)
        with pool_for(small_taskset) as pool:
            killed = make_pooled_controller(small_taskset, dims, pool,
                                            checkpoint_path=path)
            with pytest.raises(KeyboardInterrupt):
                killed.run(initial)
        monkeypatch.setattr(CheckpointManager, "save", original_save)
        assert os.path.exists(path)
        assert shared_segment_names() == []

        with pool_for(small_taskset) as pool:
            # Crash a worker mid-resume too: the retried batch must not
            # perturb determinism.
            pool._inject_fault_once = "sigkill"
            resumed = make_pooled_controller(
                small_taskset, dims, pool, checkpoint_path=path
            ).run(initial, resume=True)
            assert pool.worker_restarts == 1

        assert uninterrupted.migrations > 0
        assert resumed.candidates_generated == uninterrupted.candidates_generated
        assert resumed.migrations == uninterrupted.migrations
        assert resumed.best_program == uninterrupted.best_program
        assert_reports_equal(resumed.best_report, uninterrupted.best_report)
        assert resumed.cache_stats.as_dict() == uninterrupted.cache_stats.as_dict()
