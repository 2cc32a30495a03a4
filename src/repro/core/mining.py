"""Multi-round mining of weakly correlated alphas (Section 5.4.1).

The experimental protocol of the paper runs several mining rounds.  In each
round an evolutionary search is launched (per initialisation), the best alpha
of the round is added to the mined set ``A``, and subsequent rounds discard
candidates whose validation portfolio returns correlate above the 15 % cutoff
with *any* alpha already in ``A``.  In the last round the alphas in ``A``
themselves are used as initialisations (``alpha_AE_B0_4`` etc.).

:class:`MiningSession` encapsulates that protocol: it owns the task set, the
accepted set ``A`` (with the validation return series the cutoff needs), and
a :meth:`search` method that runs one evolutionary search under the current
cutoffs and reports the paper's metrics for the evolved alpha.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..backtest.engine import BacktestEngine, BacktestResult
from ..config import (
    CORRELATION_CUTOFF,
    LONG_POSITIONS,
    SHORT_POSITIONS,
    make_rng,
)
from ..data.dataset import TaskSet
from ..errors import EvolutionError
from .correlation import CorrelationFilter
from .evolution import EvolutionConfig, EvolutionResult
from .interpreter import AlphaEvaluator
from .mutation import MutationConfig
from .ops import Dimensions
from .program import AlphaProgram
from .pruning import prune_program

__all__ = ["MinedAlpha", "MiningSession"]


@dataclass
class MinedAlpha:
    """One evolved (or baseline) alpha with the metrics the paper tabulates."""

    name: str
    program: AlphaProgram
    sharpe: float
    ic: float
    correlation_with_accepted: float
    valid_returns: np.ndarray
    test_result: BacktestResult
    evolution: EvolutionResult | None = None
    extras: dict[str, float] = field(default_factory=dict)

    def row(self) -> dict[str, float | str]:
        """A table row in the format of Tables 1-3."""
        return {
            "alpha": self.name,
            "sharpe": self.sharpe,
            "ic": self.ic,
            "correlation": self.correlation_with_accepted,
        }


class MiningSession:
    """Stateful weakly-correlated alpha mining over one task set.

    The session owns at most one
    :class:`~repro.parallel.pool.EvaluationPool`.  Its first search with
    ``num_workers > 1`` starts the pool, later searches reuse it under any
    seed, engine or cutoff (each dispatch names its evaluator), and a
    search that needs another worker count replaces it.  :meth:`close`
    shuts it down; the session is a context manager that closes on exit,
    and a search after :meth:`close` starts a new pool.
    """

    def __init__(
        self,
        taskset: TaskSet,
        evolution_config: EvolutionConfig | None = None,
        mutation_config: MutationConfig | None = None,
        correlation_cutoff: float = CORRELATION_CUTOFF,
        long_k: int = LONG_POSITIONS,
        short_k: int = SHORT_POSITIONS,
        max_train_steps: int | None = None,
        seed: int | np.random.Generator | None = 0,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 500,
    ) -> None:
        self.taskset = taskset
        self.evolution_config = evolution_config or EvolutionConfig()
        self.mutation_config = mutation_config or MutationConfig()
        self.correlation_cutoff = correlation_cutoff
        self.max_train_steps = max_train_steps
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.rng = make_rng(seed)
        self.engine = BacktestEngine(taskset, long_k=long_k, short_k=short_k)
        self.dims = Dimensions(
            num_features=taskset.num_features, window=taskset.window
        )
        #: the mined set A: alphas accepted so far, with their validation
        #: portfolio returns (the reference series for the cutoff).
        self.accepted: list[MinedAlpha] = []
        self._pool = None

    # ------------------------------------------------------------------
    def _pool_for(self, config: EvolutionConfig):
        """The pool a search under ``config`` evaluates on (``None`` for
        one worker): the session's own, started or replaced on demand."""
        # Imported lazily: repro.parallel depends on repro.core submodules.
        from ..parallel.pool import EvaluationPool

        if config.num_workers == 1:
            return None
        if self._pool is None or self._pool.num_workers != config.num_workers:
            self.close()
            self._pool = EvaluationPool(self.taskset,
                                        num_workers=config.num_workers)
        return self._pool

    def close(self) -> None:
        """Shut the session's evaluation pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _correlation_filter(self, enforce_cutoff: bool) -> CorrelationFilter | None:
        if not enforce_cutoff or not self.accepted:
            return None
        correlation_filter = CorrelationFilter(cutoff=self.correlation_cutoff)
        for alpha in self.accepted:
            correlation_filter.add_reference(alpha.name, alpha.valid_returns)
        return correlation_filter

    def _assess(
        self,
        name: str,
        program: AlphaProgram,
        evaluator: AlphaEvaluator,
        evolution: EvolutionResult | None = None,
    ) -> MinedAlpha:
        """Backtest ``program`` on the test split and measure its correlation."""
        predictions = evaluator.run(program, splits=("valid", "test"))
        valid_returns = self.engine.portfolio_returns(predictions["valid"], split="valid")
        test_result = self.engine.evaluate(predictions["test"], split="test", name=name)
        reference_filter = self._correlation_filter(enforce_cutoff=True)
        correlation = (
            reference_filter.max_correlation(valid_returns)
            if reference_filter is not None
            else float("nan")
        )
        return MinedAlpha(
            name=name,
            program=program,
            sharpe=test_result.sharpe,
            ic=test_result.ic,
            correlation_with_accepted=correlation,
            valid_returns=valid_returns,
            test_result=test_result,
            evolution=evolution,
        )

    # ------------------------------------------------------------------
    def evaluate_alpha(self, program: AlphaProgram, name: str | None = None,
                       use_update: bool = True) -> MinedAlpha:
        """Backtest a fixed alpha program without evolving it.

        Used for the un-evolved domain-expert alpha of Table 1 and for the
        parameter-updating ablation of Table 4 (``use_update=False``).
        """
        evaluator = AlphaEvaluator(
            self.taskset,
            seed=int(self.rng.integers(0, 2**31 - 1)),
            max_train_steps=self.max_train_steps,
            use_update=use_update,
            engine=self.evolution_config.execution_engine,
        )
        return self._assess(name or program.name, program, evaluator)

    def search(
        self,
        initial_program: AlphaProgram,
        name: str,
        enforce_cutoff: bool = True,
        evolution_config: EvolutionConfig | None = None,
        use_pruning: bool | None = None,
    ) -> MinedAlpha:
        """Run one evolutionary search and return the evolved alpha's metrics.

        Parameters
        ----------
        initial_program:
            The starting parent alpha (one of the Section 5.2 initialisations
            or a previously mined alpha for the last round).
        name:
            Name given to the evolved alpha (e.g. ``"alpha_AE_D_0"``).
        enforce_cutoff:
            Whether candidates are checked against the accepted set ``A``.
        evolution_config / use_pruning:
            Optional overrides of the session-level configuration (used by
            the pruning ablation of Table 6).

        The search runs on the island controller of :mod:`repro.parallel`
        with ``num_islands`` populations; with ``num_workers > 1`` the
        session's worker pool advances its islands, one segment per island
        per barrier.  With a session ``checkpoint_dir``
        the search state is checkpointed to ``<dir>/<name>.ckpt`` and an
        existing checkpoint of that name is resumed automatically.  Neither
        the pool nor the checkpoint changes the mined program.
        """
        # Imported lazily: repro.parallel depends on repro.core submodules.
        from ..parallel.islands import IslandEvolutionController

        config = evolution_config or self.evolution_config
        if use_pruning is not None:
            config = replace(config, use_pruning=use_pruning)
        evaluator = AlphaEvaluator(
            self.taskset,
            seed=int(self.rng.integers(0, 2**31 - 1)),
            max_train_steps=self.max_train_steps,
            engine=config.execution_engine,
        )
        mutation_seed = int(self.rng.integers(0, 2**31 - 1))
        controller_seed = int(self.rng.integers(0, 2**31 - 1))
        correlation_filter = self._correlation_filter(enforce_cutoff)
        checkpoint_path = None
        if self.checkpoint_dir is not None:
            checkpoint_path = os.path.join(self.checkpoint_dir, f"{name}.ckpt")
        evolution = IslandEvolutionController(
            evaluator=evaluator,
            dims=self.dims,
            config=config,
            mutation_config=self.mutation_config,
            correlation_filter=correlation_filter,
            backtest_engine=self.engine,
            seed=controller_seed,
            mutation_seed=mutation_seed,
            pool=self._pool_for(config),
            checkpoint_path=checkpoint_path,
            checkpoint_interval=self.checkpoint_interval,
        ).run(initial_program)
        evolved = evolution.best_program.copy(name=name)
        mined = self._assess(name, evolved, evaluator, evolution=evolution)
        mined.extras["searched_alphas"] = float(evolution.searched_alphas)
        mined.extras["evaluated_alphas"] = float(evolution.cache_stats.evaluated)
        mined.extras["elapsed_seconds"] = float(evolution.elapsed_seconds)
        mined.extras["valid_ic"] = float(evolution.best_report.ic_valid)
        mined.extras["num_islands"] = float(config.num_islands)
        mined.extras["num_workers"] = float(config.num_workers)
        return mined

    # ------------------------------------------------------------------
    def accept(self, alpha: MinedAlpha) -> None:
        """Add ``alpha`` to the mined set ``A`` (future searches respect it)."""
        if alpha.valid_returns.size < 2:
            raise EvolutionError(
                f"cannot accept alpha {alpha.name!r}: its validation return "
                "series is too short for correlation checks"
            )
        self.accepted.append(alpha)

    def accepted_programs(self) -> list[AlphaProgram]:
        """The programs of the mined set ``A`` (used to seed the last round)."""
        return [alpha.program for alpha in self.accepted]

    def describe_accepted(self) -> list[dict[str, float | str]]:
        """Table rows for every accepted alpha."""
        return [alpha.row() for alpha in self.accepted]

    @staticmethod
    def simplify(program: AlphaProgram) -> AlphaProgram:
        """Prune an evolved alpha for presentation (Section 5.4.2 style)."""
        return prune_program(program).program
