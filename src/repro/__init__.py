"""AlphaEvolve reproduction.

A from-scratch implementation of *"AlphaEvolve: A Learning Framework to
Discover Novel Alphas in Quantitative Investment"* (Cui et al., SIGMOD 2021):
an AutoML-style evolutionary framework that mines a weakly correlated set of
"new class" alphas — programs over scalar, vector and matrix operands that
combine the simplicity of formulaic alphas with the data-driven parameters of
machine-learning alphas.

Public API highlights
---------------------
* :mod:`repro.data`       — synthetic NASDAQ-like market, features, task sets
* :mod:`repro.core`       — the alpha language, evaluator, pruning and search
* :mod:`repro.compile`    — SSA IR, optimiser passes and the fused executor
* :mod:`repro.engine`     — the unified execution-engine layer: one
  train/inference protocol implementation, selectable backends
  (interpreter / compiled), fleet evaluation and time-batched fast paths
* :mod:`repro.backtest`   — long-short portfolio backtesting and metrics
* :mod:`repro.parallel`   — worker-pool evaluation, island evolution and
  checkpoint/resume for the search
* :mod:`repro.stream`     — incremental streaming serving of mined alphas
  (AlphaServer, suspend/resume, the online backtest driver)
* :mod:`repro.baselines`  — genetic-programming, Rank_LSTM and RSR baselines
* :mod:`repro.experiments`— runners that regenerate every table and figure

See ``docs/ARCHITECTURE.md`` for the subsystem map and ``docs/API.md`` for
runnable (doctested) examples of the public surface.
"""

from . import backtest, compile, config, core, data, engine, errors, parallel, stream
from .engine import ExecutionEngine, FleetEngine
from .stream import AlphaServer, OnlineBacktestDriver
from .backtest import BacktestEngine, BacktestResult, sharpe_ratio
from .core import (
    AlphaEvaluator,
    AlphaProgram,
    CorrelationFilter,
    Dimensions,
    EvolutionConfig,
    EvolutionController,
    MinedAlpha,
    MiningSession,
    Mutator,
    Operand,
    Operation,
    domain_expert_alpha,
    get_initialization,
    neural_network_alpha,
    prune_program,
)
from .data import (
    MarketConfig,
    Split,
    StockPanel,
    SyntheticMarket,
    TaskSet,
    UniverseFilter,
    build_taskset,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaEvaluator",
    "AlphaProgram",
    "AlphaServer",
    "BacktestEngine",
    "BacktestResult",
    "CorrelationFilter",
    "Dimensions",
    "EvolutionConfig",
    "EvolutionController",
    "ExecutionEngine",
    "FleetEngine",
    "MarketConfig",
    "MinedAlpha",
    "MiningSession",
    "Mutator",
    "OnlineBacktestDriver",
    "Operand",
    "Operation",
    "Split",
    "StockPanel",
    "SyntheticMarket",
    "TaskSet",
    "UniverseFilter",
    "__version__",
    "backtest",
    "build_taskset",
    "compile",
    "config",
    "core",
    "data",
    "domain_expert_alpha",
    "engine",
    "errors",
    "parallel",
    "get_initialization",
    "neural_network_alpha",
    "prune_program",
    "sharpe_ratio",
    "stream",
]
