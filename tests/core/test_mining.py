"""Tests for the multi-round weakly-correlated mining session."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    MiningSession,
    domain_expert_alpha,
    get_initialization,
    prune_program,
)
from repro.errors import EvolutionError

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One NN-initialised search; prints the mined program and its fitness bits.
NN_SEARCH_SCRIPT = textwrap.dedent("""
    from repro.core import Dimensions, EvolutionConfig, MiningSession, get_initialization
    from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset

    market = SyntheticMarket(MarketConfig(num_stocks=16, num_days=130), seed=5)
    taskset = build_taskset(market.generate(),
                            split=Split(train=50, valid=15, test=15))
    dims = Dimensions(taskset.num_features, taskset.window)
    session = MiningSession(
        taskset,
        evolution_config=EvolutionConfig(population_size=6, tournament_size=3,
                                         max_candidates=30),
        long_k=4, short_k=4, max_train_steps=10, seed=3,
    )
    mined = session.search(get_initialization("NN", dims), name="alpha_AE_NN_0",
                           enforce_cutoff=False)
    print(mined.program.to_json(indent=None))
    print(mined.evolution.best_report.fitness.hex())
""")


@pytest.fixture()
def session(small_taskset):
    return MiningSession(
        small_taskset,
        evolution_config=EvolutionConfig(population_size=10, tournament_size=4,
                                         max_candidates=80),
        long_k=5,
        short_k=5,
        max_train_steps=20,
        seed=11,
    )


class TestEvaluateAlpha:
    def test_fixed_alpha_metrics(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        assert mined.name == "alpha_D_0"
        assert np.isfinite(mined.sharpe)
        assert np.isfinite(mined.ic)
        assert mined.valid_returns.shape == (session.taskset.split.valid,)
        assert np.isnan(mined.correlation_with_accepted)

    def test_use_update_flag_forwarded(self, session, dims):
        with_update = session.evaluate_alpha(domain_expert_alpha(dims), use_update=True)
        without_update = session.evaluate_alpha(domain_expert_alpha(dims), use_update=False)
        # The expert alpha has no parameters, so the ablation changes nothing.
        assert with_update.ic == pytest.approx(without_update.ic)

    def test_row_format(self, session, dims):
        row = session.evaluate_alpha(domain_expert_alpha(dims), name="x").row()
        assert set(row) == {"alpha", "sharpe", "ic", "correlation"}


class TestSearch:
    def test_search_improves_or_matches_initial(self, session, dims):
        initial = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        assert mined.name == "alpha_AE_D_0"
        assert mined.extras["valid_ic"] >= initial.extras.get("valid_ic", -1.0) - 0.05
        assert mined.extras["searched_alphas"] == 80
        assert mined.evolution is not None

    def test_accept_and_cutoff_reference(self, session, dims):
        first = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        session.accept(first)
        assert session.accepted_programs() == [first.program]
        second = session.search(domain_expert_alpha(dims), name="alpha_AE_D_1",
                                enforce_cutoff=True)
        # The correlation of the accepted alpha with itself is 1, so the new
        # alpha must have been checked against it.
        assert not np.isnan(second.correlation_with_accepted)

    def test_accept_requires_valid_returns(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        mined.valid_returns = np.empty(0)
        with pytest.raises(EvolutionError):
            session.accept(mined)

    def test_describe_accepted(self, session, dims):
        mined = session.evaluate_alpha(domain_expert_alpha(dims), name="alpha_D_0")
        session.accept(mined)
        rows = session.describe_accepted()
        assert rows[0]["alpha"] == "alpha_D_0"

    def test_simplify_delegates_to_pruning(self, dims):
        program = domain_expert_alpha(dims)
        assert MiningSession.simplify(program) == prune_program(program).program

    def test_pruning_ablation_override(self, session, dims):
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0_N",
                               enforce_cutoff=False, use_pruning=False)
        assert mined.extras["evaluated_alphas"] == mined.extras["searched_alphas"]

    def test_use_pruning_override_keeps_other_config_fields(self, small_taskset, dims):
        """The override rebuild must not drop fields (e.g. num_islands)."""
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40, num_islands=2),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
        )
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0_N",
                               enforce_cutoff=False, use_pruning=False)
        # Were num_islands dropped by the rebuild, the search would run one
        # island and report num_islands == 1.
        assert mined.extras["num_islands"] == 2
        assert mined.extras["searched_alphas"] == 40
        assert mined.extras["evaluated_alphas"] == mined.extras["searched_alphas"]

    def test_checkpoint_dir_alone_enables_checkpointing(self, small_taskset, dims,
                                                        tmp_path):
        """--checkpoint without --islands/--workers must not be ignored."""
        import os

        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
            checkpoint_dir=str(tmp_path),
        )
        mined = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        assert os.path.exists(tmp_path / "alpha_AE_D_0.ckpt")
        assert mined.extras["searched_alphas"] == 40

    def test_island_search_through_session(self, small_taskset, dims):
        session = MiningSession(
            small_taskset,
            evolution_config=EvolutionConfig(population_size=8, tournament_size=3,
                                             max_candidates=40, num_islands=3),
            long_k=5,
            short_k=5,
            max_train_steps=20,
            seed=11,
        )
        first = session.search(domain_expert_alpha(dims), name="alpha_AE_D_0",
                               enforce_cutoff=False)
        session.accept(first)
        # The island controller must honour the accepted-set cutoff too.
        second = session.search(domain_expert_alpha(dims), name="alpha_AE_D_1",
                                enforce_cutoff=True)
        assert first.extras["num_islands"] == 3
        assert not np.isnan(second.correlation_with_accepted)


class TestSessionPool:
    def test_searches_share_one_pool_until_the_config_changes(self, small_taskset,
                                                              dims):
        config = EvolutionConfig(population_size=6, tournament_size=3,
                                 max_candidates=20, num_workers=2)
        with MiningSession(small_taskset, evolution_config=config, long_k=5,
                           short_k=5, max_train_steps=10, seed=3) as session:
            def search(name, **overrides):
                session.search(domain_expert_alpha(dims), name=name,
                               enforce_cutoff=False,
                               evolution_config=replace(config, **overrides))
                return session._pool

            first = search("a")
            assert search("b") is first
            # The pool follows each dispatch's evaluator, so another
            # engine keeps it; another worker count replaces it.
            assert search("c", engine="interpreter") is first
            second = search("d", num_workers=3)
            assert second is not first and first._closed
            # A serial search needs no pool and leaves the session's alone.
            assert search("e", num_workers=1) is second
        assert session._pool is None and second._closed
        assert multiprocessing.active_children() == []
        session.close()  # idempotent

    def test_a_search_after_close_starts_a_new_pool(self, small_taskset, dims):
        config = EvolutionConfig(population_size=6, tournament_size=3,
                                 max_candidates=20, num_workers=2)
        session = MiningSession(small_taskset, evolution_config=config,
                                long_k=5, short_k=5, max_train_steps=10, seed=3)
        session.search(domain_expert_alpha(dims), name="a", enforce_cutoff=False)
        session.close()
        assert multiprocessing.active_children() == []
        mined = session.search(domain_expert_alpha(dims), name="b",
                               enforce_cutoff=False)
        assert mined.extras["searched_alphas"] == 20
        session.close()
        assert multiprocessing.active_children() == []


class TestProcessIndependence:
    """What a search mines depends on its seeds and islands only."""

    def test_same_result_under_any_hash_seed(self):
        """The NN initialisation's draws must not follow the string-hash
        salt, which differs between processes."""
        outputs = []
        for hash_seed in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", NN_SEARCH_SCRIPT],
                capture_output=True, text=True, timeout=120, cwd=REPO_ROOT,
                env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                         PYTHONHASHSEED=hash_seed),
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("num_workers, checkpoint",
                             [(1, True), (2, False)], ids=["checkpoint", "pool"])
    def test_checkpoint_and_pool_do_not_change_the_mined_program(
        self, small_taskset, dims, tmp_path, num_workers, checkpoint
    ):
        def mine(num_workers=1, checkpoint_dir=None):
            session = MiningSession(
                small_taskset,
                evolution_config=EvolutionConfig(
                    population_size=8, tournament_size=3, max_candidates=40,
                    num_workers=num_workers,
                ),
                long_k=5, short_k=5, max_train_steps=20, seed=11,
                checkpoint_dir=checkpoint_dir,
            )
            return session.search(get_initialization("NN", dims),
                                  name="alpha_AE_NN_0", enforce_cutoff=False)

        plain = mine()
        varied = mine(num_workers,
                      checkpoint_dir=str(tmp_path) if checkpoint else None)
        assert varied.program == plain.program
        assert varied.evolution.best_report.fitness.hex() == \
            plain.evolution.best_report.fitness.hex()
        assert varied.evolution.cache_stats == plain.evolution.cache_stats
