"""Tests for search checkpointing and kill/resume determinism."""

import os
import pickle

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    EvolutionConfig,
    Operation,
    domain_expert_alpha,
    get_initialization,
)
from repro.errors import CheckpointError
from repro.parallel import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    IslandEvolutionController,
    SearchCheckpoint,
    islands,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(autouse=True)
def short_migration_interval(monkeypatch):
    """Migrate every 5 steps, so resumed state includes migrations."""
    monkeypatch.setattr(islands, "MIGRATION_INTERVAL", 5)


def make_controller(taskset, dims, *, max_candidates=60, population_size=8,
                    num_islands=2, checkpoint_path=None, checkpoint_interval=10,
                    seed=5, correlation_filter=None, backtest_engine=None):
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20)
    return IslandEvolutionController(
        evaluator=evaluator,
        dims=dims,
        correlation_filter=correlation_filter,
        backtest_engine=backtest_engine,
        config=EvolutionConfig(
            population_size=population_size,
            tournament_size=3,
            max_candidates=max_candidates,
            num_islands=num_islands,
        ),
        seed=seed,
        mutation_seed=seed + 1,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
    )


class TestCheckpointFiles:
    def test_save_load_roundtrip_restores_rng_state(self, tmp_path):
        rng = np.random.default_rng(3)
        rng.integers(0, 10, size=5)  # advance the stream
        checkpoint = SearchCheckpoint(
            version=CHECKPOINT_VERSION,
            candidates_generated=42,
            step=7,
            migrations=1,
            elapsed_seconds=1.5,
            keys={"key"},
            cache_stats=None,
            islands=[rng],
            best_ever=None,
            trajectory=[],
            initial_key="key",
            config_echo={"population_size": 8},
        )
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, checkpoint)
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
        loaded = load_checkpoint(path)
        assert loaded.candidates_generated == 42
        assert loaded.config_echo == {"population_size": 8}
        restored_rng = loaded.islands[0]
        assert restored_rng.bit_generator.state == rng.bit_generator.state
        assert restored_rng.integers(0, 10**6) == rng.integers(0, 10**6)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_load_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    # Version 1 cached fitness scores drawn with the hash-salted
    # initialiser RNG; mixing them into a later search would diverge.
    # Version 2 echoed a main-loop scheduler that no longer exists.
    # Version 3 keyed its cache by fingerprints blind to zero arithmetic.
    # Version 4 keyed it by fingerprints that sorted commutative operands.
    # Version 5 held the search's report cache and no per-candidate keys.
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, CHECKPOINT_VERSION + 1],
                             ids=["v1", "v2", "v3", "v4", "v5", "future"])
    def test_load_rejects_version_mismatch(self, tmp_path, version):
        checkpoint = SearchCheckpoint(
            version=version,
            candidates_generated=0, step=0, migrations=0, elapsed_seconds=0.0,
            keys=set(), cache_stats=None, islands=[], best_ever=None,
            trajectory=[], initial_key="key",
        )
        path = str(tmp_path / "future.ckpt")
        save_checkpoint(path, checkpoint)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_manager_cadence(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "c.ckpt"), interval=10)
        assert manager.due(0)  # first save is always due
        manager.save(SearchCheckpoint(
            version=CHECKPOINT_VERSION, candidates_generated=5, step=0,
            migrations=0, elapsed_seconds=0.0, keys=set(), cache_stats=None,
            islands=[], best_ever=None, trajectory=[], initial_key="key",
        ))
        assert not manager.due(9)
        assert manager.due(15)
        assert manager.exists()


def kill_after_third_save(taskset, dims, initial, path, monkeypatch):
    """Run a checkpointed search and kill it right after its third save."""
    killed = make_controller(taskset, dims, checkpoint_path=path)
    saves = {"count": 0}
    original_save = CheckpointManager.save

    def save_then_die(self, checkpoint):
        original_save(self, checkpoint)
        saves["count"] += 1
        if saves["count"] >= 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(CheckpointManager, "save", save_then_die)
    with pytest.raises(KeyboardInterrupt):
        killed.run(initial)
    monkeypatch.setattr(CheckpointManager, "save", original_save)
    assert os.path.exists(path)


class TestKillAndResume:
    def test_killed_search_resumes_to_identical_result(
        self, small_taskset, dims, tmp_path, monkeypatch
    ):
        """A search killed mid-run and resumed from its checkpoint finishes
        with the same best program as an uninterrupted run (same seeds)."""
        initial = domain_expert_alpha(dims)
        uninterrupted = make_controller(small_taskset, dims).run(initial)

        path = str(tmp_path / "search.ckpt")
        kill_after_third_save(small_taskset, dims, initial, path, monkeypatch)

        resumed = make_controller(small_taskset, dims, checkpoint_path=path).run(
            initial, resume=True
        )
        assert resumed.candidates_generated == uninterrupted.candidates_generated
        assert resumed.best_program == uninterrupted.best_program
        assert resumed.best_report.fitness == uninterrupted.best_report.fitness
        assert resumed.cache_stats.as_dict() == uninterrupted.cache_stats.as_dict()

    def test_auto_resume_of_finished_run_is_stable(self, small_taskset, dims, tmp_path):
        initial = domain_expert_alpha(dims)
        path = str(tmp_path / "search.ckpt")
        first = make_controller(small_taskset, dims, max_candidates=30,
                                checkpoint_path=path).run(initial)
        # resume=None auto-detects the final checkpoint; the budget is spent,
        # so the rerun returns the identical result without searching again.
        rerun = make_controller(small_taskset, dims, max_candidates=30,
                                checkpoint_path=path).run(initial)
        assert rerun.best_program == first.best_program
        assert rerun.candidates_generated == first.candidates_generated

    def test_resume_with_extended_budget_continues(self, small_taskset, dims, tmp_path):
        initial = domain_expert_alpha(dims)
        path = str(tmp_path / "search.ckpt")
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(initial)
        extended = make_controller(small_taskset, dims, max_candidates=45,
                                   checkpoint_path=path).run(initial, resume=True)
        assert extended.candidates_generated == 45

    def test_resume_requires_checkpoint_configuration(self, small_taskset, dims):
        controller = make_controller(small_taskset, dims)
        with pytest.raises(CheckpointError):
            controller.run(domain_expert_alpha(dims), resume=True)

    def test_resume_rejects_mismatched_population(self, small_taskset, dims, tmp_path):
        initial = domain_expert_alpha(dims)
        path = str(tmp_path / "search.ckpt")
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(initial)
        mismatched = make_controller(small_taskset, dims, max_candidates=30,
                                     population_size=10, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            mismatched.run(initial, resume=True)

    def test_resume_rejects_different_seed(self, small_taskset, dims, tmp_path):
        """A finished checkpoint must not hijack a search requested under a
        different seed: the configuration echo records the seeds."""
        initial = domain_expert_alpha(dims)
        path = str(tmp_path / "search.ckpt")
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(initial)
        reseeded = make_controller(small_taskset, dims, max_candidates=30,
                                   checkpoint_path=path, seed=99)
        with pytest.raises(CheckpointError):
            reseeded.run(initial)  # auto-resume detects the stale checkpoint

    def test_resume_rejects_changed_correlation_state(self, small_taskset, dims,
                                                      tmp_path):
        """Cached reports embed cutoff decisions; a resume under a different
        cutoff or accepted set must be refused."""
        from repro.backtest import BacktestEngine
        from repro.core import CorrelationFilter

        initial = domain_expert_alpha(dims)
        path = str(tmp_path / "search.ckpt")
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(initial)

        with_filter = CorrelationFilter()
        with_filter.add_reference("accepted", np.linspace(-0.01, 0.01, 30))
        changed = make_controller(small_taskset, dims, max_candidates=30,
                                  checkpoint_path=path,
                                  correlation_filter=with_filter,
                                  backtest_engine=engine)
        with pytest.raises(CheckpointError):
            changed.run(initial)

    def test_resume_rejects_different_initial_program(self, small_taskset, dims,
                                                      tmp_path):
        path = str(tmp_path / "search.ckpt")
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(domain_expert_alpha(dims))
        controller = make_controller(small_taskset, dims, max_candidates=30,
                                     checkpoint_path=path)
        with pytest.raises(CheckpointError):
            controller.run(get_initialization("NN", dims), resume=True)

    def test_resume_rejects_a_mirrored_initial_program(self, small_taskset, dims,
                                                       tmp_path):
        """The initial-program check reads the exact key: operands swapped
        in a sum make another initial program, whose mutants differ."""
        initial = domain_expert_alpha(dims)
        divide = initial.predict[-1]
        mirrored = initial.copy()
        mirrored.predict[-1] = Operation.make(
            "s_add", divide.inputs[::-1], divide.output)
        initial.predict[-1] = Operation.make("s_add", divide.inputs, divide.output)
        path = str(tmp_path / "search.ckpt")
        make_controller(small_taskset, dims, max_candidates=30,
                        checkpoint_path=path).run(initial)
        controller = make_controller(small_taskset, dims, max_candidates=30,
                                     checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different initial program"):
            controller.run(mirrored, resume=True)


class TestDerivedStateIsNotCheckpointed:
    """Each operation's cached exact key and the scorers' report caches are
    derived state: checkpoints and pool dispatches never carry them."""

    def test_pickles_carry_no_exact_key(self, dims):
        program = domain_expert_alpha(dims)
        program.exact_key()
        assert all("exact_key" in vars(operation) for operation in program.predict)
        assert pickle.dumps(program) == pickle.dumps(domain_expert_alpha(dims))
        loaded = pickle.loads(pickle.dumps(program))
        assert not any("exact_key" in vars(operation)
                       for operation in loaded.predict)
        assert loaded.exact_key() == program.exact_key()

    def test_checkpoint_holds_keys_and_resumes_identically(
        self, small_taskset, dims, tmp_path, monkeypatch
    ):
        """A checkpoint holds the search's key set, not its reports: every
        evaluated key once, and the key of every population member.  The
        resumed scorer reseeds from the populations, and the search ends
        with the uninterrupted run's program, report bits, counts and
        trajectory."""
        initial = domain_expert_alpha(dims)
        uninterrupted = make_controller(small_taskset, dims).run(initial)

        path = str(tmp_path / "search.ckpt")
        kill_after_third_save(small_taskset, dims, initial, path, monkeypatch)
        state = load_checkpoint(path)
        assert len(state.keys) == state.cache_stats.evaluated
        members = [candidate for island in state.islands
                   for candidate in island.population]
        assert any(candidate.key is not None for candidate in members)
        assert all(candidate.key is None or candidate.key in state.keys
                   for candidate in members)

        resumed = make_controller(small_taskset, dims, checkpoint_path=path).run(
            initial, resume=True
        )
        assert resumed.candidates_generated == uninterrupted.candidates_generated
        assert resumed.best_program.to_json() == uninterrupted.best_program.to_json()
        assert pickle.dumps(resumed.best_report) == \
            pickle.dumps(uninterrupted.best_report)
        assert resumed.cache_stats == uninterrupted.cache_stats
        assert [(point.candidates, point.evaluations, point.best_fitness)
                for point in resumed.trajectory] == \
            [(point.candidates, point.evaluations, point.best_fitness)
             for point in uninterrupted.trajectory]
