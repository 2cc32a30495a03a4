"""Experiment runners regenerating every table and figure of the paper.

Each ``run_table*`` / ``run_figure6`` function builds (or reuses) the
synthetic task set for the requested :class:`ExperimentConfig`, runs the
corresponding protocol and returns an :class:`ExperimentResult` whose rows
mirror the paper's table layout.  The benchmark harness under ``benchmarks/``
calls these functions one-to-one.

The heavy lifting is shared by two protocol classes:

* :class:`MiningStudy`   — the multi-round, multi-initialisation AlphaEvolve
  protocol of Section 5.4.1 (used by Tables 2, 3, 4, 6 and Figure 6);
* :class:`GeneticStudy`  — the same protocol applied to the genetic-programming
  baseline (used by Tables 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..backtest.engine import BacktestEngine
from ..core.correlation import CorrelationFilter
from ..core.initializations import get_initialization
from ..core.mining import MinedAlpha, MiningSession
from ..core.ops import Dimensions
from ..data.dataset import TaskSet
from ..baselines.genetic import GeneticAlphaMiner, GeneticConfig
from ..baselines.neural import TrainingConfig, train_rank_lstm, train_rsr
from ..baselines.neural.rank_lstm import grid_search_rank_lstm
from ..errors import ConfigurationError
from .configs import ExperimentConfig, LAPTOP, make_taskset
from .recorder import ExperimentResult
from .tables import format_mean_std, render_table

__all__ = [
    "MiningStudy",
    "GeneticStudy",
    "RoundRecord",
    "run_study",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_figure6",
    "run_all",
]

_TABLE_COLUMNS = [
    ("alpha", "Alpha"),
    ("sharpe", "Sharpe ratio"),
    ("ic", "IC"),
    ("correlation", "Correlation with the best alphas"),
]


# ---------------------------------------------------------------------------
# AlphaEvolve multi-round protocol
# ---------------------------------------------------------------------------

@dataclass
class RoundRecord:
    """Results of one mining round: every initialisation plus the accepted best."""

    round_index: int
    results: dict[str, MinedAlpha]
    best_code: str

    @property
    def best(self) -> MinedAlpha:
        """The alpha accepted into the mined set ``A`` for this round."""
        return self.results[self.best_code]


class MiningStudy:
    """Runs the Section 5.4.1 protocol for AlphaEvolve.

    Per round, one evolutionary search is launched per initialisation (with
    the accumulated correlation cutoffs); the alpha with the highest Sharpe
    ratio is accepted into ``A``.  In the last round the accepted alphas are
    used as initialisations (the ``B0..B3`` rows of Tables 2/3).  All
    searches share the session's evaluation pool, which :meth:`run` closes
    before it returns.
    """

    def __init__(
        self,
        config: ExperimentConfig = LAPTOP,
        taskset: TaskSet | None = None,
        initializations: tuple[str, ...] = ("D", "NOOP", "R", "NN"),
        use_pruning: bool = True,
        use_time_budget: bool = False,
    ) -> None:
        if not initializations:
            raise ConfigurationError("at least one initialisation is required")
        self.config = config
        self.taskset = taskset if taskset is not None else make_taskset(config)
        self.initializations = initializations
        self.use_pruning = use_pruning
        if use_time_budget:
            evolution_config = config.evolution_config(
                max_candidates=10**9,
                max_seconds=config.round_time_budget_seconds,
                use_pruning=use_pruning,
            )
        else:
            evolution_config = config.evolution_config(use_pruning=use_pruning)
        self.session = MiningSession(
            self.taskset,
            evolution_config=evolution_config,
            correlation_cutoff=config.correlation_cutoff,
            long_k=config.long_positions,
            short_k=config.short_positions,
            max_train_steps=config.max_train_steps,
            seed=config.search_seed,
            checkpoint_dir=config.checkpoint_dir,
        )
        self.dims = Dimensions(self.taskset.num_features, self.taskset.window)
        self.rounds: list[RoundRecord] = []

    # ------------------------------------------------------------------
    def _round_initializations(self, round_index: int, num_rounds: int) -> dict[str, object]:
        last_round = round_index == num_rounds - 1 and num_rounds > 1
        if last_round and self.session.accepted:
            return {
                f"B{i}": alpha.program
                for i, alpha in enumerate(self.session.accepted)
            }
        return {
            code: get_initialization(code, self.dims, seed=self.config.search_seed + round_index)
            for code in self.initializations
        }

    def run(self, num_rounds: int | None = None) -> list[RoundRecord]:
        """Execute the full multi-round protocol and return one record per round."""
        num_rounds = num_rounds or self.config.num_rounds
        self.rounds = []
        try:
            for round_index in range(num_rounds):
                results: dict[str, MinedAlpha] = {}
                initializations = self._round_initializations(round_index, num_rounds)
                for code, program in initializations.items():
                    name = f"alpha_AE_{code}_{round_index}"
                    results[code] = self.session.search(
                        program,
                        name=name,
                        enforce_cutoff=bool(self.session.accepted),
                    )
                best_code = max(results, key=lambda code: results[code].sharpe)
                record = RoundRecord(round_index=round_index, results=results,
                                     best_code=best_code)
                self.session.accept(record.best)
                self.rounds.append(record)
        finally:
            # Reap the pool's workers here, not at some later garbage
            # collection: their CPU time belongs to this run.
            self.session.close()
        return self.rounds

    # ------------------------------------------------------------------
    def rows(self, codes: tuple[str, ...] | None = None) -> list[dict]:
        """Table rows (Tables 2/3 layout) for the requested initialisation codes."""
        rows: list[dict] = []
        for record in self.rounds:
            for code, mined in record.results.items():
                if codes is not None and code not in codes and not code.startswith("B"):
                    continue
                rows.append(
                    {
                        "alpha": mined.name,
                        "sharpe": mined.sharpe,
                        "ic": mined.ic,
                        "correlation": mined.correlation_with_accepted,
                        "round": record.round_index,
                        "initialization": code,
                        "best": code == record.best_code,
                        "searched": mined.extras.get("searched_alphas"),
                        "evaluated": mined.extras.get("evaluated_alphas"),
                    }
                )
        return rows

    def best_per_round(self) -> list[MinedAlpha]:
        """The accepted (best) alpha of every round — the mined set ``A``."""
        return [record.best for record in self.rounds]


# ---------------------------------------------------------------------------
# Genetic-programming multi-round protocol
# ---------------------------------------------------------------------------

@dataclass
class GeneticRound:
    """One mining round of the GP baseline."""

    round_index: int
    name: str
    sharpe: float
    ic: float
    correlation: float
    valid_returns: np.ndarray
    skipped: bool = False


class GeneticStudy:
    """The same weakly-correlated mining protocol applied to the GP baseline.

    As in the paper, the search for a later round is abandoned (reported NA)
    after two consecutive rounds with very poor performance.
    """

    def __init__(
        self,
        config: ExperimentConfig = LAPTOP,
        taskset: TaskSet | None = None,
        stop_after_bad_rounds: int = 2,
        bad_sharpe_threshold: float = 0.0,
        use_time_budget: bool = False,
    ) -> None:
        self.config = config
        self.taskset = taskset if taskset is not None else make_taskset(config)
        self.engine = BacktestEngine(
            self.taskset, long_k=config.long_positions, short_k=config.short_positions
        )
        self.stop_after_bad_rounds = stop_after_bad_rounds
        self.bad_sharpe_threshold = bad_sharpe_threshold
        self.use_time_budget = use_time_budget
        self.rounds: list[GeneticRound] = []

    def _genetic_config(self) -> GeneticConfig:
        if self.use_time_budget:
            return GeneticConfig(
                population_size=self.config.gp_population_size,
                tournament_size=self.config.tournament_size,
                max_candidates=None,
                max_seconds=self.config.round_time_budget_seconds,
            )
        return GeneticConfig(
            population_size=self.config.gp_population_size,
            tournament_size=self.config.tournament_size,
            max_candidates=self.config.gp_max_candidates,
        )

    def _run_round(self, round_index: int, correlation_filter: CorrelationFilter | None,
                   seed: int) -> GeneticRound:
        miner = GeneticAlphaMiner(
            self.taskset,
            self._genetic_config(),
            correlation_filter=correlation_filter,
            backtest_engine=self.engine,
            seed=seed,
        )
        result = miner.run()
        name = f"alpha_G_{round_index}"
        valid_predictions = miner.evaluate_tree(result.best.tree, "valid")
        test_predictions = miner.evaluate_tree(result.best.tree, "test")
        valid_returns = self.engine.portfolio_returns(valid_predictions, split="valid")
        backtest = self.engine.evaluate(test_predictions, split="test", name=name)
        correlation = (
            correlation_filter.max_correlation(valid_returns)
            if correlation_filter is not None and correlation_filter.num_references
            else float("nan")
        )
        return GeneticRound(
            round_index=round_index,
            name=name,
            sharpe=backtest.sharpe,
            ic=backtest.ic,
            correlation=correlation,
            valid_returns=valid_returns,
        )

    def run(self, num_rounds: int | None = None) -> list[GeneticRound]:
        """Run the GP baseline for ``num_rounds`` rounds with accumulating cutoffs."""
        num_rounds = num_rounds or self.config.num_rounds
        self.rounds = []
        correlation_filter = CorrelationFilter(cutoff=self.config.correlation_cutoff)
        consecutive_bad = 0
        for round_index in range(num_rounds):
            if consecutive_bad >= self.stop_after_bad_rounds:
                self.rounds.append(
                    GeneticRound(
                        round_index=round_index,
                        name=f"alpha_G_{round_index}",
                        sharpe=float("nan"),
                        ic=float("nan"),
                        correlation=float("nan"),
                        valid_returns=np.empty(0),
                        skipped=True,
                    )
                )
                continue
            round_result = self._run_round(
                round_index,
                correlation_filter if correlation_filter.num_references else None,
                seed=self.config.search_seed + 100 + round_index,
            )
            self.rounds.append(round_result)
            correlation_filter.add_reference(round_result.name, round_result.valid_returns)
            if round_result.sharpe < self.bad_sharpe_threshold:
                consecutive_bad += 1
            else:
                consecutive_bad = 0
        return self.rounds

    def rows(self) -> list[dict]:
        """Table rows for every GP round."""
        return [
            {
                "alpha": record.name,
                "sharpe": record.sharpe,
                "ic": record.ic,
                "correlation": record.correlation,
                "round": record.round_index,
                "skipped": record.skipped,
            }
            for record in self.rounds
        ]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def run_table1(config: ExperimentConfig = LAPTOP) -> ExperimentResult:
    """Table 1: mining a weakly correlated alpha against an existing expert alpha."""
    taskset = make_taskset(config)
    dims = Dimensions(taskset.num_features, taskset.window)
    with MiningSession(
        taskset,
        evolution_config=config.evolution_config(),
        correlation_cutoff=config.correlation_cutoff,
        long_k=config.long_positions,
        short_k=config.short_positions,
        max_train_steps=config.max_train_steps,
        seed=config.search_seed,
        checkpoint_dir=config.checkpoint_dir,
    ) as session:
        expert = session.evaluate_alpha(get_initialization("D", dims), name="alpha_D_0")
        # AlphaEvolve and the GP baseline get the same wall-clock budget per
        # round, as in the paper (60 hours there, a few seconds at laptop
        # scale).
        time_budgeted = config.evolution_config(
            max_candidates=10**9, max_seconds=config.round_time_budget_seconds
        )
        evolved = session.search(
            get_initialization("D", dims), name="alpha_AE_D_0", enforce_cutoff=False,
            evolution_config=time_budgeted,
        )

    genetic_study = GeneticStudy(config, taskset=taskset, use_time_budget=True)
    genetic_round = genetic_study._run_round(0, None, seed=config.search_seed + 100)

    reference = CorrelationFilter(cutoff=config.correlation_cutoff)
    reference.add_reference("alpha_D_0", expert.valid_returns)
    rows = [
        {"alpha": "alpha_D_0", "sharpe": expert.sharpe, "ic": expert.ic,
         "correlation": float("nan")},
        {"alpha": "alpha_AE_D_0", "sharpe": evolved.sharpe, "ic": evolved.ic,
         "correlation": reference.max_correlation(evolved.valid_returns)},
        {"alpha": "alpha_G_0", "sharpe": genetic_round.sharpe, "ic": genetic_round.ic,
         "correlation": reference.max_correlation(genetic_round.valid_returns)},
    ]
    columns = list(_TABLE_COLUMNS)
    columns[-1] = ("correlation", "Correlation with the existing alpha")
    rendered = render_table(rows, columns, title="Table 1: mining with an existing expert alpha")
    return ExperimentResult("table1", rows, rendered, metadata={"config": config.name})


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

def run_table2(config: ExperimentConfig = LAPTOP) -> ExperimentResult:
    """Table 2: weakly correlated mining, AlphaEvolve (D init) vs. the GP baseline."""
    taskset = make_taskset(config)
    study = MiningStudy(config, taskset=taskset, initializations=("D",), use_time_budget=True)
    study.run(config.num_rounds)
    genetic_study = GeneticStudy(config, taskset=taskset, use_time_budget=True)
    genetic_study.run(config.num_rounds)

    rows: list[dict] = []
    ae_by_round = {record.round_index: record.best for record in study.rounds}
    gp_by_round = {record.round_index: record for record in genetic_study.rounds}
    for round_index in range(config.num_rounds):
        ae = ae_by_round.get(round_index)
        if ae is not None:
            rows.append({"alpha": ae.name, "sharpe": ae.sharpe, "ic": ae.ic,
                         "correlation": ae.correlation_with_accepted})
        gp = gp_by_round.get(round_index)
        if gp is not None:
            rows.append({"alpha": gp.name,
                         "sharpe": None if gp.skipped else gp.sharpe,
                         "ic": None if gp.skipped else gp.ic,
                         "correlation": None if gp.skipped else gp.correlation})
    rendered = render_table(rows, _TABLE_COLUMNS,
                            title="Table 2: weakly correlated alpha mining (AE vs GP)")
    return ExperimentResult("table2", rows, rendered, metadata={"config": config.name})


# ---------------------------------------------------------------------------
# Table 3 (and the shared study used by Tables 4/6 and Figure 6)
# ---------------------------------------------------------------------------

def run_study(config: ExperimentConfig = LAPTOP,
              initializations: tuple[str, ...] = ("D", "NOOP", "R", "NN")) -> MiningStudy:
    """Run the full multi-initialisation protocol once and return the study."""
    study = MiningStudy(config, initializations=initializations)
    study.run(config.num_rounds)
    return study


def run_table3(config: ExperimentConfig = LAPTOP,
               study: MiningStudy | None = None) -> ExperimentResult:
    """Table 3: weakly correlated mining across the four initialisations."""
    study = study or run_study(config)
    rows = study.rows()
    rendered = render_table(rows, _TABLE_COLUMNS,
                            title="Table 3: mining for different initializations")
    return ExperimentResult(
        "table3", rows, rendered,
        metadata={"config": config.name,
                  "best_per_round": [alpha.name for alpha in study.best_per_round()]},
    )


# ---------------------------------------------------------------------------
# Table 4: parameter-updating ablation
# ---------------------------------------------------------------------------

def run_table4(config: ExperimentConfig = LAPTOP,
               study: MiningStudy | None = None) -> ExperimentResult:
    """Table 4: ablation of the parameter-updating function on the best alphas."""
    study = study or run_study(config)
    rows: list[dict] = []
    for mined in study.best_per_round():
        rows.append({"alpha": mined.name, "sharpe": mined.sharpe, "ic": mined.ic,
                     "correlation": mined.correlation_with_accepted})
        ablated = study.session.evaluate_alpha(
            mined.program, name=f"{mined.name}_P", use_update=False
        )
        rows.append({"alpha": ablated.name, "sharpe": ablated.sharpe, "ic": ablated.ic,
                     "correlation": ablated.correlation_with_accepted})
    rendered = render_table(rows, _TABLE_COLUMNS,
                            title="Table 4: ablation of the parameter-updating function")
    return ExperimentResult("table4", rows, rendered, metadata={"config": config.name})


# ---------------------------------------------------------------------------
# Table 5: comparison with the complex machine-learning alphas
# ---------------------------------------------------------------------------

def run_table5(config: ExperimentConfig = LAPTOP) -> ExperimentResult:
    """Table 5: AlphaEvolve alphas vs. Rank_LSTM and RSR (mean ± std over seeds)."""
    taskset = make_taskset(config)
    dims = Dimensions(taskset.num_features, taskset.window)
    with MiningSession(
        taskset,
        evolution_config=config.evolution_config(),
        correlation_cutoff=config.correlation_cutoff,
        long_k=config.long_positions,
        short_k=config.short_positions,
        max_train_steps=config.max_train_steps,
        seed=config.search_seed,
        checkpoint_dir=config.checkpoint_dir,
    ) as session:
        evolved_d = session.search(get_initialization("D", dims), name="alpha_AE_D_0",
                                   enforce_cutoff=False)
        session.accept(evolved_d)
        evolved_nn = session.search(get_initialization("NN", dims),
                                    name="alpha_AE_NN_1", enforce_cutoff=True)
    engine = session.engine

    # Grid search for Rank_LSTM on the validation IC, then 5-seed reporting.
    grid = grid_search_rank_lstm(
        taskset,
        sequence_lengths=config.nn_sequence_lengths,
        hidden_sizes=config.nn_hidden_sizes,
        loss_alphas=config.nn_loss_alphas,
        epochs=config.nn_epochs,
        seed=config.search_seed,
    )
    best = grid.best_config
    lstm_sharpes, lstm_ics, rsr_sharpes, rsr_ics = [], [], [], []
    for seed_offset in range(config.nn_num_seeds):
        seeded = TrainingConfig(
            sequence_length=best.sequence_length,
            hidden_size=best.hidden_size,
            loss_alpha=best.loss_alpha,
            learning_rate=best.learning_rate,
            epochs=config.nn_epochs,
            batch_days=config.nn_batch_days,
            seed=config.search_seed + seed_offset,
        )
        model, outcome = train_rank_lstm(taskset, seeded)
        lstm_backtest = engine.evaluate(outcome.predictions["test"], split="test",
                                        name="Rank_LSTM")
        lstm_sharpes.append(lstm_backtest.sharpe)
        lstm_ics.append(lstm_backtest.ic)
        _, rsr_outcome = train_rsr(taskset, model, seeded)
        rsr_backtest = engine.evaluate(rsr_outcome.predictions["test"], split="test",
                                       name="RSR")
        rsr_sharpes.append(rsr_backtest.sharpe)
        rsr_ics.append(rsr_backtest.ic)

    rows = [
        {"alpha": "alpha_AE_D_0", "sharpe": evolved_d.sharpe, "ic": evolved_d.ic},
        {"alpha": "alpha_AE_NN_1", "sharpe": evolved_nn.sharpe, "ic": evolved_nn.ic},
        {
            "alpha": "Rank_LSTM",
            "sharpe": float(np.mean(lstm_sharpes)),
            "ic": float(np.mean(lstm_ics)),
            "sharpe_std": float(np.std(lstm_sharpes)),
            "ic_std": float(np.std(lstm_ics)),
            "display_sharpe": format_mean_std(np.mean(lstm_sharpes), np.std(lstm_sharpes)),
            "display_ic": format_mean_std(np.mean(lstm_ics), np.std(lstm_ics)),
        },
        {
            "alpha": "RSR",
            "sharpe": float(np.mean(rsr_sharpes)),
            "ic": float(np.mean(rsr_ics)),
            "sharpe_std": float(np.std(rsr_sharpes)),
            "ic_std": float(np.std(rsr_ics)),
            "display_sharpe": format_mean_std(np.mean(rsr_sharpes), np.std(rsr_sharpes)),
            "display_ic": format_mean_std(np.mean(rsr_ics), np.std(rsr_ics)),
        },
    ]
    rendered = render_table(
        rows, [("alpha", "Alpha"), ("sharpe", "Sharpe ratio"), ("ic", "IC")],
        title="Table 5: comparison with the complex machine learning alphas",
    )
    metadata = {
        "config": config.name,
        "grid_best": {
            "sequence_length": best.sequence_length,
            "hidden_size": best.hidden_size,
            "loss_alpha": best.loss_alpha,
        },
    }
    return ExperimentResult("table5", rows, rendered, metadata=metadata)


# ---------------------------------------------------------------------------
# Table 6: pruning-technique efficiency
# ---------------------------------------------------------------------------

def run_table6(config: ExperimentConfig = LAPTOP,
               initializations: tuple[str, ...] = ("D", "NN", "R")) -> ExperimentResult:
    """Table 6: number of searched alphas with / without the pruning technique.

    Both variants get the same wall-clock budget
    (``config.pruning_time_budget_seconds``); the ``*_N`` rows disable the
    prune-before-evaluate fingerprinting, so every candidate pays the full
    evaluation cost, and far fewer candidates are searched.
    """
    taskset = make_taskset(config)
    dims = Dimensions(taskset.num_features, taskset.window)
    rows: list[dict] = []
    for index, code in enumerate(initializations):
        for use_pruning in (True, False):
            evolution_config = replace(
                config.evolution_config(
                    max_seconds=config.pruning_time_budget_seconds,
                    use_pruning=use_pruning,
                ),
                max_candidates=None,
            )
            with MiningSession(
                taskset,
                evolution_config=evolution_config,
                correlation_cutoff=config.correlation_cutoff,
                long_k=config.long_positions,
                short_k=config.short_positions,
                max_train_steps=config.max_train_steps,
                seed=config.search_seed + index,
                checkpoint_dir=config.checkpoint_dir,
            ) as session:
                suffix = "" if use_pruning else "_N"
                name = f"alpha_AE_{code}_{index}{suffix}"
                mined = session.search(
                    get_initialization(code, dims, seed=config.search_seed + index),
                    name=name,
                    enforce_cutoff=False,
                )
            rows.append(
                {
                    "alpha": name,
                    "sharpe": mined.sharpe,
                    "ic": mined.ic,
                    "correlation": mined.correlation_with_accepted,
                    "searched": int(mined.extras["searched_alphas"]),
                    "evaluated": int(mined.extras["evaluated_alphas"]),
                    "pruning": use_pruning,
                }
            )
    columns = _TABLE_COLUMNS + [("searched", "Number of searched alphas")]
    rendered = render_table(rows, columns, title="Table 6: efficiency of the pruning technique")
    return ExperimentResult("table6", rows, rendered, metadata={"config": config.name})


# ---------------------------------------------------------------------------
# Figure 6: evolutionary trajectories
# ---------------------------------------------------------------------------

def run_figure6(config: ExperimentConfig = LAPTOP,
                study: MiningStudy | None = None) -> ExperimentResult:
    """Figure 6: best-validation-IC trajectories of the best alpha of each round."""
    study = study or run_study(config)
    rows: list[dict] = []
    series: dict[str, list[list[float]]] = {}
    for record in study.rounds:
        best = record.best
        trajectory = best.evolution.trajectory if best.evolution is not None else []
        points = [[point.candidates, point.best_fitness] for point in trajectory]
        series[best.name] = points
        milestones = _trajectory_milestones(points)
        rows.append({"alpha": best.name, **milestones})
    columns = [("alpha", "Alpha")] + [
        (f"at_{percent}", f"best IC @ {percent}% budget") for percent in (25, 50, 75, 100)
    ]
    rendered = render_table(rows, columns, title="Figure 6: evolutionary trajectories")
    return ExperimentResult("figure6", rows, rendered,
                            metadata={"config": config.name, "series": series})


def _trajectory_milestones(points: list[list[float]]) -> dict[str, float]:
    if not points:
        return {f"at_{p}": float("nan") for p in (25, 50, 75, 100)}
    total = points[-1][0]
    milestones = {}
    for percent in (25, 50, 75, 100):
        threshold = total * percent / 100.0
        reached = [fitness for candidates, fitness in points if candidates <= threshold]
        milestones[f"at_{percent}"] = reached[-1] if reached else points[0][1]
    return milestones


# ---------------------------------------------------------------------------
# Convenience: run everything
# ---------------------------------------------------------------------------

def run_all(config: ExperimentConfig = LAPTOP) -> dict[str, ExperimentResult]:
    """Run every table and figure once (sharing the heavy multi-round study)."""
    study = run_study(config)
    return {
        "table1": run_table1(config),
        "table2": run_table2(config),
        "table3": run_table3(config, study=study),
        "table4": run_table4(config, study=study),
        "table5": run_table5(config),
        "table6": run_table6(config),
        "figure6": run_figure6(config, study=study),
    }
