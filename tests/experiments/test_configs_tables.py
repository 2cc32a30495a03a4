"""Tests for experiment configurations, table rendering and result recording."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    LAPTOP,
    PAPER,
    PAPER_REFERENCE,
    SMOKE,
    format_mean_std,
    format_value,
    load_result,
    make_taskset,
    render_table,
    save_result,
)
from repro.errors import ConfigurationError


class TestExperimentConfig:
    def test_builtin_scales(self):
        assert LAPTOP.name == "laptop"
        assert SMOKE.num_stocks < LAPTOP.num_stocks
        assert PAPER.num_stocks == 1026
        assert PAPER.long_positions == 50

    def test_scaled_override(self):
        smaller = LAPTOP.scaled(num_stocks=50, max_candidates=100)
        assert smaller.num_stocks == 50
        assert smaller.max_candidates == 100
        assert smaller.num_days == LAPTOP.num_days

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_rounds=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_stocks=5)

    def test_scheduler_accepts_only_barrier(self):
        """Every search runs the one barrier main loop; the field remains
        only for callers that still pass ``scheduler="barrier"``."""
        assert LAPTOP.scaled(scheduler="barrier") == LAPTOP
        with pytest.raises(ConfigurationError, match="scheduler"):
            ExperimentConfig(scheduler="overlap")

    def test_evolution_config_overrides(self):
        config = LAPTOP.evolution_config(max_candidates=42, use_pruning=False)
        assert config.max_candidates == 42
        assert not config.use_pruning

    def test_market_config_mirrors_experiment(self):
        market = SMOKE.market_config()
        assert market.num_stocks == SMOKE.num_stocks
        assert market.num_days == SMOKE.num_days

    def test_make_taskset_cached_and_deterministic(self):
        a = make_taskset(SMOKE)
        b = make_taskset(SMOKE)
        assert a is b
        fresh = make_taskset(SMOKE, use_cache=False)
        np.testing.assert_allclose(a.labels, fresh.labels)

    def test_taskset_split_matches_config(self):
        taskset = make_taskset(SMOKE)
        assert taskset.split == SMOKE.split

    def test_scaled_unknown_field_names_the_config(self):
        """Rebuild paths must say which config produced the error."""
        with pytest.raises(ConfigurationError, match="'smoke'.*num_stokcs"):
            SMOKE.scaled(num_stokcs=11)

    def test_market_overrides_reach_market_config(self):
        config = SMOKE.scaled(market_overrides=(("market_vol", 0.02),))
        assert config.market_config().market_vol == 0.02

    def test_unknown_market_override_names_the_config(self):
        config = SMOKE.scaled(name="bad-market",
                              market_overrides=(("market_volatility", 0.02),))
        with pytest.raises(ConfigurationError, match="'bad-market'"):
            config.market_config()

    def test_structural_market_override_rejected(self):
        config = SMOKE.scaled(market_overrides=(("num_stocks", 10),))
        with pytest.raises(ConfigurationError, match="ExperimentConfig field"):
            config.market_config()

    def test_data_backend_errors_name_the_config(self):
        from repro.data import DataSpec

        config = SMOKE.scaled(name="file-no-path", data=DataSpec(kind="file"))
        with pytest.raises(ConfigurationError, match="'file-no-path'"):
            config.data_backend()

    def test_make_taskset_through_resampled_backend(self):
        from repro.data import DataSpec

        config = SMOKE.scaled(num_days=420, split=None,
                              data=DataSpec(frequency="weekly"))
        taskset = make_taskset(config, use_cache=False)
        assert 3 <= taskset.num_samples < 100


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "NA"
        assert format_value(float("nan")) == "NA"
        assert format_value(1.23456789, decimals=3) == "1.235"
        assert format_value("alpha_AE_D_0") == "alpha_AE_D_0"

    def test_format_mean_std(self):
        assert format_mean_std(1.5, 0.25, decimals=2) == "1.50+/-0.25"

    def test_render_table_layout(self):
        rows = [
            {"alpha": "alpha_D_0", "sharpe": 1.0, "ic": 0.01},
            {"alpha": "alpha_AE_D_0", "sharpe": 2.0},
        ]
        text = render_table(rows, [("alpha", "Alpha"), ("sharpe", "Sharpe"), ("ic", "IC")],
                            title="Table X")
        lines = text.splitlines()
        assert lines[0] == "Table X"
        assert "Alpha" in lines[1] and "Sharpe" in lines[1]
        assert "NA" in lines[4]  # missing IC for the second row

    def test_render_table_empty_rows(self):
        text = render_table([], [("alpha", "Alpha")])
        assert "Alpha" in text


class TestRecorder:
    def test_save_and_load_roundtrip(self, tmp_path):
        result = ExperimentResult(
            experiment="table1",
            rows=[{"alpha": "a", "sharpe": 1.0, "ic": float("nan"),
                   "series": np.array([1.0, 2.0])}],
            rendered="table text",
            metadata={"config": "smoke"},
        )
        path = save_result(result, tmp_path)
        assert path.name == "table1.json"
        loaded = load_result(path)
        assert loaded.experiment == "table1"
        assert loaded.rows[0]["alpha"] == "a"
        assert loaded.rows[0]["ic"] is None          # NaN serialised as null
        assert loaded.rows[0]["series"] == [1.0, 2.0]
        assert loaded.rendered == "table text"

    def test_paper_reference_contains_all_experiments(self):
        assert {"table1", "table2", "table4", "table5", "table6"} <= set(PAPER_REFERENCE)
        assert PAPER_REFERENCE["table1"][1]["alpha"] == "alpha_AE_D_0"
