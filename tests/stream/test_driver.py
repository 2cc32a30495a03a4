"""Tests for the online backtest driver and the ``repro serve`` plumbing."""

import numpy as np
import pytest

from repro.backtest.engine import BacktestEngine
from repro.core import AlphaEvaluator, get_initialization
from repro.errors import StreamError
from repro.experiments import SMOKE
from repro.stream import BarCorrection, OnlineBacktestDriver, run_serve


@pytest.fixture()
def driver(small_taskset, dims):
    programs = [
        get_initialization("D", dims, seed=3),
        get_initialization("NN", dims, seed=3),
    ]
    return OnlineBacktestDriver(
        small_taskset, programs, names=["alpha_D", "alpha_NN"],
        seed=0, max_train_steps=40, long_k=5, short_k=5,
    )


class TestDriver:
    def test_report_has_parity_and_metrics(self, driver):
        report = driver.run()
        assert report.parity
        assert [row.name for row in report.rows] == ["alpha_D", "alpha_NN"]
        for row in report.rows:
            assert np.isfinite(row.sharpe)
            assert np.isfinite(row.ic)
        assert report.stats["days_served"] == (
            driver.taskset.split.valid + driver.taskset.split.test
        )
        assert report.elapsed_seconds > 0

    def test_metrics_match_offline_backtest(self, driver, small_taskset):
        report = driver.run()
        offline = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        engine = BacktestEngine(small_taskset, long_k=5, short_k=5)
        for row, program in zip(report.rows, driver.programs):
            batch = offline.run(program, splits=("valid", "test"))
            expected = engine.evaluate(batch["test"], split="test")
            assert row.sharpe == expected.sharpe
            assert row.ic == expected.ic

    def test_streamed_predictions_recorded_per_split(self, driver):
        report = driver.run()
        taskset = driver.taskset
        for name in ("alpha_D", "alpha_NN"):
            assert report.predictions[name]["valid"].shape == (
                taskset.split.valid, taskset.num_tasks
            )
            assert report.predictions[name]["test"].shape == (
                taskset.split.test, taskset.num_tasks
            )

    def test_render_mentions_every_alpha_and_parity(self, driver):
        rendered = driver.run().render()
        assert "alpha_D" in rendered
        assert "alpha_NN" in rendered
        assert "bitwise identical" in rendered
        assert "bar latency" in rendered

    def test_verify_reuses_a_streamed_server(self, driver):
        """The benchmark path: one serve pass, then verify without re-serving."""
        server = driver.build_server()
        served = driver.stream(server)
        days_before = server.days_served
        report = driver.verify(server, served)
        assert report.parity
        assert server.days_served == days_before  # nothing was re-streamed
        assert report.stats["days_served"] == days_before

    def test_serves_without_update_like_its_evaluator(self, small_taskset,
                                                      dims):
        """Under ``use_update=False`` the streamed panels, and the corrected
        ones, equal the no-update evaluator's offline run bit for bit."""
        programs = [get_initialization("D", dims, seed=3),
                    get_initialization("NN", dims, seed=3)]
        driver = OnlineBacktestDriver(
            small_taskset, programs, names=["alpha_D", "alpha_NN"],
            seed=0, max_train_steps=40, use_update=False, long_k=5, short_k=5,
        )
        report = driver.run()
        assert report.parity
        frozen = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40,
                                use_update=False)
        trained = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        for name, program in zip(driver.names, programs):
            expected = frozen.run(program, splits=("valid", "test"))
            for split in ("valid", "test"):
                assert report.predictions[name][split].tobytes() == \
                    expected[split].tobytes()
        nn = trained.run(programs[1], splits=("valid",))["valid"]
        assert report.predictions["alpha_NN"]["valid"].tobytes() != nn.tobytes()

        server = driver.build_server()
        served = driver.stream(server)
        corrected = driver.apply_corrections(server, served, [
            BarCorrection(day=3, feature_scale=1.01),
            BarCorrection(day=12, label_scale=0.98),
        ])
        assert corrected["parity"], corrected["violations"]

    def test_rejects_empty_fleet(self, small_taskset):
        with pytest.raises(StreamError, match="no programs"):
            OnlineBacktestDriver(small_taskset, [])

    def test_rejects_mismatched_names(self, small_taskset, dims):
        with pytest.raises(StreamError, match="names for"):
            OnlineBacktestDriver(
                small_taskset,
                [get_initialization("D", dims, seed=3)],
                names=["a", "b"],
            )


class TestRunServe:
    def test_serves_given_programs_without_mining(self, dims):
        config = SMOKE.scaled(serve_top_k=2)
        programs = [
            get_initialization("D", dims, seed=3),
            get_initialization("NN", dims, seed=3),
        ]
        report = run_serve(config, programs=programs)
        assert report.parity
        assert len(report.rows) == 2
        assert report.metadata["scale"] == "smoke"
        assert report.metadata["serve_top_k"] == 2

    def test_mines_a_fleet_when_no_programs_given(self):
        config = SMOKE.scaled(serve_top_k=1, max_candidates=30, num_stocks=40)
        report = run_serve(config)
        assert report.parity
        assert len(report.rows) == 1
        assert report.rows[0].name == "alpha_AE_D_0"
