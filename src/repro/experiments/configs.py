"""Experiment configurations.

Two scales are provided:

* ``LAPTOP`` — the default used by the benchmark harness: a reduced universe,
  shorter history and small search budgets so that every table regenerates in
  seconds to minutes on a laptop, while preserving the *shape* of the paper's
  results (who wins, what degrades with accumulating cutoffs, what the
  pruning technique buys).
* ``PAPER`` — the paper-scale parameters (1026 stocks, 1220 days, population
  100, 60-hour budgets) for reference; running it requires real NASDAQ data
  and a large compute budget and is not exercised by the test-suite.

Every configuration is an immutable dataclass, and :func:`make_taskset`
deterministically builds the corresponding task set through the
configuration's data backend (:mod:`repro.data.backends`) — the synthetic
market simulator by default, or any registered backend via the ``data``
spec.  Named workload presets live in :mod:`repro.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..config import (
    CORRELATION_CUTOFF,
    PAPER_NUM_STOCKS,
    PAPER_TRAIN_DAYS,
    PAPER_VALID_DAYS,
    PAPER_TEST_DAYS,
)
from ..core.evolution import EvolutionConfig
from ..data import DataSpec, MarketConfig, Split, TaskSet, backend_from_spec
from ..data.backends import DataBackend
from ..errors import ConfigurationError, DataError
from ..obs import TELEMETRY

__all__ = ["ExperimentConfig", "LAPTOP", "SCALES", "SMOKE", "PAPER", "make_taskset"]

#: :class:`~repro.data.market_sim.MarketConfig` fields that mirror explicit
#: ``ExperimentConfig`` fields; overriding them through ``market_overrides``
#: would desynchronise the two, so it is rejected.
_STRUCTURAL_MARKET_FIELDS = frozenset(
    {"num_stocks", "num_days", "num_sectors", "industries_per_sector"}
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs needed to regenerate the paper's tables and figure."""

    name: str = "laptop"

    # ----- market / data ------------------------------------------------
    num_stocks: int = 80
    num_days: int = 420
    num_sectors: int = 8
    industries_per_sector: int = 3
    data_seed: int = 2021
    split: Split | None = Split(train=255, valid=60, test=60)
    #: Declarative data-backend selection (:mod:`repro.data.backends`).  The
    #: default synthetic spec reproduces the pre-backend-layer data path bit
    #: for bit; scenarios swap in file-backed or resampled specs.
    data: DataSpec = DataSpec()
    #: Extra :class:`~repro.data.market_sim.MarketConfig` fields as
    #: ``(name, value)`` pairs — the regime axis of the scenario suite
    #: (volatilities, signal strengths, spillover).  Structural fields
    #: (``num_stocks`` …) must be set on the config itself.
    market_overrides: tuple[tuple[str, object], ...] = ()

    # ----- portfolio ------------------------------------------------------
    long_positions: int = 10
    short_positions: int = 10
    correlation_cutoff: float = CORRELATION_CUTOFF

    # ----- AlphaEvolve search --------------------------------------------
    population_size: int = 30
    tournament_size: int = 10
    max_candidates: int = 600
    max_seconds: float | None = None
    max_train_steps: int | None = 60
    num_rounds: int = 5
    search_seed: int = 7
    #: Parallel-search subsystem (:mod:`repro.parallel`): number of
    #: evaluation worker processes and of evolution islands per search, and
    #: an optional directory for search checkpoints (one file per search
    #: name; an existing checkpoint is resumed automatically).  The defaults
    #: select the serial controller, which every table was calibrated on.
    num_workers: int = 1
    num_islands: int = 1
    #: Island-controller scheduling strategy (``"barrier"`` / ``"overlap"``;
    #: see :class:`repro.core.evolution.EvolutionConfig`).  The CLI exposes
    #: it as ``--scheduler``.
    scheduler: str = "barrier"
    checkpoint_dir: str | None = None
    #: Execution-engine name (see :data:`repro.engine.ENGINES`; ``None`` is
    #: the default, ``"compiled"``) forwarded to the search.  Bitwise
    #: identical across engines.  The CLI exposes it as ``--engine``.
    engine: str | None = None
    #: Wall-clock budget per mining round used when AlphaEvolve and the GP
    #: baseline are compared under the same time budget (Tables 1 and 2); the
    #: paper uses 60 hours per round.
    round_time_budget_seconds: float = 6.0

    # ----- streaming serving (repro serve) ---------------------------------
    #: Number of weakly correlated alphas ``repro serve`` mines and registers
    #: on the :class:`repro.stream.server.AlphaServer` (one mining round per
    #: alpha, cycling the D / NN / R initialisations).
    serve_top_k: int = 3

    # ----- genetic-programming baseline -----------------------------------
    gp_population_size: int = 30
    gp_max_candidates: int = 600

    # ----- neural baselines ------------------------------------------------
    nn_epochs: int = 2
    nn_hidden_sizes: tuple[int, ...] = (16, 32)
    nn_sequence_lengths: tuple[int, ...] = (4, 8)
    nn_loss_alphas: tuple[float, ...] = (0.1, 1.0)
    nn_batch_days: int | None = 60
    nn_num_seeds: int = 3

    # ----- Table 6 (pruning ablation) --------------------------------------
    pruning_time_budget_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ConfigurationError("num_rounds must be at least 1")
        if self.num_stocks < 10:
            raise ConfigurationError("need at least 10 stocks for a long-short book")
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if self.num_islands < 1:
            raise ConfigurationError("num_islands must be at least 1")
        # Imported lazily: repro.experiments builds on repro.core.
        from ..core.evolution import SCHEDULERS

        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                + ", ".join(SCHEDULERS)
            )
        if self.serve_top_k < 1:
            raise ConfigurationError("serve_top_k must be at least 1")
        if self.engine is not None:
            # Imported lazily: repro.engine builds on repro.core submodules.
            from ..engine import resolve_engine
            from ..errors import EngineError

            try:
                resolve_engine(self.engine)
            except EngineError as exc:
                raise ConfigurationError(str(exc)) from exc

    # ------------------------------------------------------------------
    def market_config(self) -> MarketConfig:
        """The synthetic-market parameters, with regime overrides applied.

        Unknown or structural ``market_overrides`` keys raise a
        :class:`~repro.errors.ConfigurationError` that names this
        configuration, so a broken scenario spec is attributable from the
        message alone.
        """
        overrides = dict(self.market_overrides)
        known = {field.name for field in fields(MarketConfig)}
        structural = sorted(set(overrides) & _STRUCTURAL_MARKET_FIELDS)
        if structural:
            raise ConfigurationError(
                f"config {self.name!r}: market_overrides may not set "
                f"{structural}; set the matching ExperimentConfig field instead"
            )
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigurationError(
                f"config {self.name!r}: unknown MarketConfig field(s) "
                f"{unknown}; valid regime fields: "
                f"{sorted(known - _STRUCTURAL_MARKET_FIELDS)}"
            )
        return MarketConfig(
            num_stocks=self.num_stocks,
            num_days=self.num_days,
            num_sectors=self.num_sectors,
            industries_per_sector=self.industries_per_sector,
            **overrides,
        )

    def data_backend(self) -> DataBackend:
        """Materialise this configuration's :class:`~repro.data.DataSpec`.

        Backend construction errors (unknown kind, missing path) are
        re-raised as :class:`~repro.errors.ConfigurationError` carrying the
        configuration name.
        """
        try:
            return backend_from_spec(
                self.data, market_config=self.market_config(), seed=self.data_seed
            )
        except DataError as exc:
            raise ConfigurationError(f"config {self.name!r}: {exc}") from exc

    def evolution_config(self, max_candidates: int | None = None,
                         max_seconds: float | None = None,
                         use_pruning: bool = True) -> EvolutionConfig:
        """The evolutionary-search configuration (optionally overridden)."""
        return EvolutionConfig(
            population_size=self.population_size,
            tournament_size=self.tournament_size,
            max_candidates=self.max_candidates if max_candidates is None else max_candidates,
            max_seconds=self.max_seconds if max_seconds is None else max_seconds,
            use_pruning=use_pruning,
            engine=self.engine,
            num_workers=self.num_workers,
            num_islands=self.num_islands,
            scheduler=self.scheduler,
        )

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy of this configuration with some fields replaced.

        Unknown field names raise a
        :class:`~repro.errors.ConfigurationError` that includes this
        configuration's name — every rebuild path (CLI overrides, scenario
        materialisation, benchmark trims) funnels through here, so the
        error always says which config produced it.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigurationError(
                f"config {self.name!r}: unknown ExperimentConfig field(s) "
                f"{unknown}; valid fields: {sorted(known)}"
            )
        return replace(self, **overrides)


#: Default laptop-scale configuration used by the benchmark harness.
LAPTOP = ExperimentConfig()

#: Tiny configuration for CI smoke tests (seconds, not minutes).
SMOKE = ExperimentConfig(
    name="smoke",
    num_stocks=40,
    num_days=260,
    split=Split(train=136, valid=40, test=40),
    population_size=15,
    tournament_size=5,
    max_candidates=150,
    max_train_steps=40,
    num_rounds=3,
    round_time_budget_seconds=1.5,
    gp_population_size=15,
    gp_max_candidates=150,
    nn_epochs=1,
    nn_hidden_sizes=(16,),
    nn_sequence_lengths=(4,),
    nn_loss_alphas=(0.1,),
    nn_batch_days=30,
    nn_num_seeds=2,
    pruning_time_budget_seconds=2.0,
)

#: Paper-scale configuration (documented; not run by the harness).
PAPER = ExperimentConfig(
    name="paper",
    num_stocks=PAPER_NUM_STOCKS,
    num_days=1220 + 60,
    split=Split(train=PAPER_TRAIN_DAYS, valid=PAPER_VALID_DAYS, test=PAPER_TEST_DAYS),
    long_positions=50,
    short_positions=50,
    population_size=100,
    tournament_size=10,
    max_candidates=1_000_000,
    max_seconds=60 * 3600.0,
    max_train_steps=None,
    round_time_budget_seconds=60 * 3600.0,
    gp_population_size=100,
    gp_max_candidates=1_000_000,
    nn_epochs=50,
    nn_hidden_sizes=(32, 64, 128, 256),
    nn_sequence_lengths=(4, 8, 16, 32),
    nn_loss_alphas=(0.01, 0.1, 1.0, 10.0),
    nn_batch_days=None,
    nn_num_seeds=5,
    pruning_time_budget_seconds=60 * 3600.0,
)

#: The named experiment scales the CLI's ``--scale`` and the scenario
#: suite materialise against — the single registry both consult.
SCALES: dict[str, ExperimentConfig] = {"laptop": LAPTOP, "smoke": SMOKE}

_TASKSET_CACHE: dict[tuple, TaskSet] = {}

#: Bound on the task-set memo: file-backend keys embed content signatures
#: (mtimes), so an unbounded dict would strand one dead TaskSet per
#: re-export in a long-lived process.
_TASKSET_CACHE_MAX = 8


def make_taskset(config: ExperimentConfig, use_cache: bool = True) -> TaskSet:
    """Build (and memoise) the task set for an experiment configuration.

    The panel comes from the configuration's data backend
    (:meth:`ExperimentConfig.data_backend`); the memo key is the backend's
    :meth:`~repro.data.backends.DataBackend.cache_key`, so a synthetic
    config, a file directory (keyed by content signature) and a resampled
    view each cache independently (oldest entries are evicted beyond
    :data:`_TASKSET_CACHE_MAX`).  The default synthetic spec produces a
    task set bitwise identical to the pre-backend-layer data path.
    """
    backend = config.data_backend()
    key = (backend.cache_key(), config.split)
    if use_cache and key in _TASKSET_CACHE:
        if TELEMETRY.enabled:
            TELEMETRY.counter("data.taskset_memo.hits").inc()
        return _TASKSET_CACHE[key]
    if TELEMETRY.enabled:
        TELEMETRY.counter("data.taskset_memo.misses").inc()
    with TELEMETRY.span("data.build_taskset", split=str(config.split)):
        taskset = backend.build_taskset(split=config.split)
    if use_cache:
        while len(_TASKSET_CACHE) >= _TASKSET_CACHE_MAX:
            _TASKSET_CACHE.pop(next(iter(_TASKSET_CACHE)))
        _TASKSET_CACHE[key] = taskset
    return taskset
