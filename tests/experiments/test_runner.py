"""Integration tests for the experiment runners (tiny budgets).

These tests exercise the full table/figure pipelines end-to-end on a very
small configuration; they check structure and internal consistency rather
than the magnitude of the results (that is what ``benchmarks/`` and
EXPERIMENTS.md are for).
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import AlphaEvaluator
from repro.experiments import (
    GeneticStudy,
    MiningStudy,
    SMOKE,
    run_figure6,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table6,
)
from repro.experiments.runner import run_study
from repro.parallel import EvaluationPool, shared_segment_names

TINY = SMOKE.scaled(
    name="tiny",
    num_stocks=40,
    num_days=260,
    population_size=8,
    tournament_size=3,
    max_candidates=60,
    max_train_steps=20,
    num_rounds=2,
    gp_population_size=10,
    gp_max_candidates=60,
    round_time_budget_seconds=0.5,
    pruning_time_budget_seconds=0.5,
    nn_num_seeds=1,
    nn_epochs=1,
)


@pytest.fixture(scope="module")
def tiny_study():
    return run_study(TINY, initializations=("D", "R"))


class TestStudyPool:
    def test_two_workers_share_one_pool_and_mine_the_serial_bits(
        self, small_taskset, monkeypatch
    ):
        """A round without the cutoff (D, NN) and a last round with it: one
        pool serves every search, the study reaps it before ``run``
        returns, and the mined programs, fitness bits and cache counts are
        the 1-worker study's."""
        before = shared_segment_names()
        serial = MiningStudy(TINY, taskset=small_taskset,
                             initializations=("D", "NN"))
        serial.run()
        pools, dispatches = [], []
        init = EvaluationPool.__init__
        submit = EvaluationPool.submit_detailed

        def counting_init(pool, *args, **kwargs):
            pools.append(pool)
            init(pool, *args, **kwargs)

        def recording_submit(pool, programs, **kwargs):
            dispatches.append((kwargs.get("evaluator_seed"),
                               kwargs.get("valid_returns")))
            return submit(pool, programs, **kwargs)

        monkeypatch.setattr(EvaluationPool, "__init__", counting_init)
        monkeypatch.setattr(EvaluationPool, "submit_detailed", recording_submit)
        pooled = MiningStudy(TINY.scaled(num_workers=2), taskset=small_taskset,
                             initializations=("D", "NN"))
        pooled.run()
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert shared_segment_names() == before
        # Three searches under three evaluator seeds; round 0 dispatches
        # without validation returns, the last round with them.
        assert len({seed for seed, _ in dispatches}) == 3
        assert {valid_returns for _, valid_returns in dispatches} == {False, True}
        for want, got in zip(serial.rounds, pooled.rounds):
            assert got.best_code == want.best_code
            assert got.results.keys() == want.results.keys()
            for code, mined in want.results.items():
                other = got.results[code]
                assert other.program == mined.program
                assert other.evolution.best_report.fitness.hex() == \
                    mined.evolution.best_report.fitness.hex()
                assert other.evolution.cache_stats == mined.evolution.cache_stats


class TestMiningStudy:
    def test_rounds_and_accepted(self, tiny_study):
        assert len(tiny_study.rounds) == TINY.num_rounds
        assert len(tiny_study.session.accepted) == TINY.num_rounds
        for record in tiny_study.rounds:
            assert record.best_code in record.results

    def test_last_round_uses_accepted_initializations(self, tiny_study):
        last = tiny_study.rounds[-1]
        assert all(code.startswith("B") for code in last.results)

    def test_rows_structure(self, tiny_study):
        rows = tiny_study.rows()
        assert len(rows) >= TINY.num_rounds
        for row in rows:
            assert {"alpha", "sharpe", "ic", "correlation", "round"} <= set(row)

    def test_correlation_reported_after_first_round(self, tiny_study):
        later_rows = [row for row in tiny_study.rows() if row["round"] > 0]
        assert all(np.isfinite(row["correlation"]) for row in later_rows)


class TestGeneticStudy:
    def test_rounds_structure(self):
        study = GeneticStudy(TINY, use_time_budget=True)
        rounds = study.run(2)
        assert len(rounds) == 2
        assert rounds[0].name == "alpha_G_0"
        assert np.isfinite(rounds[0].sharpe)

    def test_bad_rounds_lead_to_skip(self):
        study = GeneticStudy(TINY, stop_after_bad_rounds=1, bad_sharpe_threshold=np.inf)
        rounds = study.run(3)
        # With an impossible threshold every round counts as bad, so the later
        # rounds are skipped and reported as NA.
        assert rounds[-1].skipped


class TestTableRunners:
    def test_table1_rows(self):
        result = run_table1(TINY)
        names = [row["alpha"] for row in result.rows]
        assert names == ["alpha_D_0", "alpha_AE_D_0", "alpha_G_0"]
        assert "Table 1" in result.rendered
        assert np.isnan(result.rows[0]["correlation"])

    def test_table2_interleaves_ae_and_gp(self):
        result = run_table2(TINY.scaled(num_rounds=2))
        names = [row["alpha"] for row in result.rows]
        assert "alpha_AE_D_0" in names[0]
        assert any(name.startswith("alpha_G_") for name in names)

    def test_table3_uses_study(self, tiny_study):
        result = run_table3(TINY, study=tiny_study)
        assert len(result.rows) == len(tiny_study.rows())
        assert result.metadata["best_per_round"]

    def test_table4_pairs_ablation_rows(self, tiny_study):
        result = run_table4(TINY, study=tiny_study)
        names = [row["alpha"] for row in result.rows]
        assert len(names) == 2 * TINY.num_rounds
        assert names[1] == f"{names[0]}_P"

    def test_table6_reports_searched_counts(self):
        result = run_table6(TINY, initializations=("D",))
        assert len(result.rows) == 2
        with_pruning, without_pruning = result.rows
        assert with_pruning["pruning"] and not without_pruning["pruning"]
        assert with_pruning["searched"] > 0
        assert without_pruning["alpha"].endswith("_N")
        assert with_pruning["searched"] >= without_pruning["searched"]

    def test_table6_honours_the_engine(self, monkeypatch):
        """Table 6 builds its searches from ``evolution_config()``, like
        every other table, so ``--engine interpreter`` reaches every
        evaluator it builds."""
        engines = []
        original = AlphaEvaluator.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            engines.append(self.engine)

        monkeypatch.setattr(AlphaEvaluator, "__init__", recording)
        config = TINY.scaled(engine="interpreter", pruning_time_budget_seconds=0.2)
        run_table6(config, initializations=("D",))
        assert len(engines) == 2
        assert set(engines) == {"interpreter"}

    def test_table6_starts_one_pool(self, monkeypatch):
        """With workers, every Table 6 search evaluates on one pool (one
        start-up, no leaked segment or worker), and each search keeps the
        seeds a session of its own would draw.  The searches are
        time-budgeted, so this compares counts, not bits."""
        before = shared_segment_names()
        pools, seeds = [], []
        init = EvaluationPool.__init__
        evaluator_init = AlphaEvaluator.__init__

        def counting_init(pool, *args, **kwargs):
            pools.append(pool)
            init(pool, *args, **kwargs)

        def recording(self, *args, **kwargs):
            evaluator_init(self, *args, **kwargs)
            seeds.append(self.seed)

        monkeypatch.setattr(EvaluationPool, "__init__", counting_init)
        monkeypatch.setattr(AlphaEvaluator, "__init__", recording)
        config = TINY.scaled(num_workers=2, pruning_time_budget_seconds=0.3)
        result = run_table6(config, initializations=("D", "R"))
        assert len(result.rows) == 4
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        assert shared_segment_names() == before
        first_draw = [int(np.random.default_rng(config.search_seed + index)
                          .integers(0, 2**31 - 1)) for index in (0, 1)]
        assert seeds == [first_draw[0]] * 2 + [first_draw[1]] * 2

    def test_figure6_trajectories(self, tiny_study):
        result = run_figure6(TINY, study=tiny_study)
        assert set(result.metadata["series"]) == {
            record.best.name for record in tiny_study.rounds
        }
        for row in result.rows:
            assert row["at_100"] >= row["at_25"] - 1e-12
