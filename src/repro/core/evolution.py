"""Regularised evolutionary search over alpha programs (Section 3).

The search maintains an aging population of candidate alphas:

1. the population is seeded by mutating the initial (parent) alpha;
2. each iteration samples a *tournament* of fixed size, takes the member
   with the highest fitness as the new parent, mutates it into a child,
   evaluates the child, appends it to the population and removes the oldest
   member;
3. when the search budget is exhausted, the alpha with the highest fitness
   in the final population is returned as the evolved alpha.

This module holds what every search shares: its configuration
(:class:`EvolutionConfig`), its outcome (:class:`EvolutionResult`) and the
candidate scoring pipeline (:class:`CandidateScorer`).  The loop itself is
:class:`repro.parallel.islands.IslandEvolutionController`: one island is
the regularised evolution above, and several islands run that loop side by
side with periodic ring migration.

Candidate scoring runs through the pruning + fingerprint cache
(:mod:`repro.core.cache`) and, when a set of previously accepted alphas is
supplied, through the 15 % correlation cutoff
(:mod:`repro.core.correlation`): a candidate that violates the cutoff
receives the invalid sentinel fitness and effectively drops out of
tournament selection, exactly like the paper's "candidate alphas are
eliminated if they are correlated with a given set of alphas".

A scorer is always in-process: a pooled search runs one per worker, for
the island segments that worker advances (:mod:`repro.parallel.islands`).
Cache misses evaluate through one
function, :func:`evaluate_misses`: one
:class:`repro.engine.fleet.FleetEngine` batch over a shared execution
context and data pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backtest.engine import BacktestEngine
from ..config import POPULATION_SIZE, TOURNAMENT_SIZE
from ..errors import EvolutionError
from .cache import CacheStats, FingerprintCache
from .correlation import CorrelationFilter
from .fitness import INVALID_FITNESS, FitnessReport
from .interpreter import AlphaEvaluator
from .program import AlphaProgram

__all__ = ["EvolutionConfig", "Candidate", "TrajectoryPoint", "EvolutionResult",
           "Scored", "CandidateScorer", "evaluate_misses"]


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary search.

    The budget can be expressed as a maximum number of candidate alphas
    (``max_candidates``, counting pruned/cached/evaluated candidates alike —
    the paper's "searched alphas") and/or a wall-clock limit in seconds
    (``max_seconds``, the paper uses 60 hours per round); the search stops at
    whichever limit is hit first.  The candidate budget is exact.  The
    clock is read before the population fill, which is scored in one go
    with the initial program, and between main-loop steps by whichever
    process runs them, so a search may overrun ``max_seconds`` by the fill
    or by one step.  In a pooled search each island's worker checks the
    host's monotonic clock before each of that island's steps, so islands
    advanced at different paces may end a timed search at different
    steps.

    ``num_islands`` is the number of populations the search evolves side
    by side (one is the paper's regularised evolution), exchanging their
    best candidates along a ring (:mod:`repro.parallel.islands`).
    ``num_workers`` above one runs the islands on that many worker
    processes, each island advanced from one barrier to the next by
    whichever worker is free (:mod:`repro.parallel`); workers beyond
    ``num_islands`` idle.
    Results depend on the islands, never on the worker count.
    """

    population_size: int = POPULATION_SIZE
    tournament_size: int = TOURNAMENT_SIZE
    max_candidates: int | None = 2000
    max_seconds: float | None = None
    use_pruning: bool = True
    #: Execution-engine name candidates run on (see
    #: :data:`repro.engine.ENGINES`; ``None`` is the default,
    #: ``"compiled"``).  Results are bitwise identical across engines.  The
    #: CLI exposes it as ``--engine``.
    engine: str | None = None
    num_workers: int = 1
    num_islands: int = 1

    @property
    def execution_engine(self) -> str:
        """The resolved engine name."""
        from ..engine import resolve_engine

        return resolve_engine(self.engine)

    def __post_init__(self) -> None:
        # Validate the engine name eagerly so a typo fails at configuration
        # time, not in a worker process mid-search — raising the same error
        # type as every other invalid field of this config.
        from ..errors import EngineError

        try:
            self.execution_engine
        except EngineError as exc:
            raise EvolutionError(str(exc)) from exc
        if self.population_size < 2:
            raise EvolutionError("population_size must be at least 2")
        if self.tournament_size < 1 or self.tournament_size > self.population_size:
            raise EvolutionError(
                "tournament_size must lie in [1, population_size]"
            )
        if self.max_candidates is None and self.max_seconds is None:
            raise EvolutionError("at least one of max_candidates/max_seconds is required")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise EvolutionError("max_candidates must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise EvolutionError("max_seconds must be positive")
        if self.num_workers < 1:
            raise EvolutionError("num_workers must be at least 1")
        if self.num_islands < 1:
            raise EvolutionError("num_islands must be at least 1")


@dataclass
class Candidate:
    """A scored member of the population.

    ``key`` is the fingerprint of its pruned program (``None`` when it
    pruned away or pruning is off): a worker seeds its cache with the keys
    and reports of the populations it is shipped.
    """

    program: AlphaProgram
    report: FitnessReport
    born_at: int
    key: str | None = None

    @property
    def fitness(self) -> float:
        """Fitness used by tournament selection."""
        return self.report.fitness


@dataclass(frozen=True)
class TrajectoryPoint:
    """One point of the evolutionary trajectory (for Figure 6)."""

    candidates: int
    evaluations: int
    best_fitness: float
    elapsed_seconds: float


@dataclass
class EvolutionResult:
    """Outcome of one evolutionary run, with island-level diagnostics."""

    best_program: AlphaProgram
    best_report: FitnessReport
    best_in_population: Candidate
    trajectory: list[TrajectoryPoint]
    cache_stats: CacheStats
    candidates_generated: int
    elapsed_seconds: float
    num_islands: int
    migrations: int
    island_best_fitness: list[float]

    @property
    def searched_alphas(self) -> int:
        """Total candidates processed, the quantity reported in Table 6."""
        return self.cache_stats.searched


@dataclass(frozen=True)
class Scored:
    """How :class:`CandidateScorer` handled one candidate.

    ``outcome`` is ``"redundant"`` (pruning removed every operation),
    ``"hit"`` (its fingerprint was cached or queued earlier) or
    ``"evaluated"``; ``key`` is the fingerprint (``None`` when redundant or
    with pruning off) and ``pruned_operations`` what pruning removed.
    """

    report: FitnessReport
    key: str | None
    pruned_operations: int
    outcome: str


@dataclass
class _PendingEvaluation:
    """A cache miss awaiting evaluation, plus every batch slot it fills."""

    key: str | None
    program: AlphaProgram
    slots: list[int]


class CandidateScorer:
    """The prune → cache → evaluate → cutoff scoring pipeline.

    A search scores its candidates in the process that advances their
    islands (:mod:`repro.parallel.islands`): one scorer in-process, or one
    per worker of a pooled search.  Its cache statistics are that
    process's own; the search replays each candidate's :class:`Scored`
    record in serial order to count its :class:`~repro.core.cache.CacheStats`.

    Parameters
    ----------
    evaluator:
        Evaluates every cache miss, in-process.
    correlation_filter / backtest_engine:
        When a filter with references is present, a valid candidate whose
        validation portfolio returns correlate above the cutoff with any
        reference is invalidated.  The engine computes those returns; a
        filter therefore needs an engine.
    use_pruning:
        Disables the prune-before-evaluate fingerprint cache (Table 6's
        ``*_N`` ablation) when False.
    """

    def __init__(
        self,
        evaluator: AlphaEvaluator,
        correlation_filter: CorrelationFilter | None = None,
        backtest_engine: BacktestEngine | None = None,
        use_pruning: bool = True,
    ) -> None:
        if correlation_filter is not None and backtest_engine is None:
            raise EvolutionError(
                "a backtest engine is required when a correlation filter is used"
            )
        self.evaluator = evaluator
        self.correlation_filter = correlation_filter
        self.backtest_engine = backtest_engine
        self.use_pruning = use_pruning
        self.cache = FingerprintCache(enabled=use_pruning)
        self.candidates_generated = 0

    @property
    def _cutoff_active(self) -> bool:
        """Whether the correlation cutoff has references to check against
        (and evaluations must therefore yield validation returns)."""
        return (self.correlation_filter is not None
                and self.correlation_filter.num_references > 0)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached fingerprints and restart the candidate counter.

        Called at the start of every search run so that back-to-back runs do
        not share stale fingerprints (cached reports embed correlation-cutoff
        decisions that may no longer hold).
        """
        self.cache = FingerprintCache(enabled=self.use_pruning)
        self.candidates_generated = 0

    def seed(self, candidates) -> None:
        """Cache the reports of already-scored ``candidates`` under their
        keys, without counting them."""
        self.cache.seed((candidate.key, candidate.report)
                        for candidate in candidates if candidate.key is not None)

    # ------------------------------------------------------------------
    def score(self, program: AlphaProgram) -> FitnessReport:
        """Score one candidate through pruning, cache, evaluation and cutoff."""
        return self.score_batch([program])[0]

    def score_batch(self, programs: list[AlphaProgram]) -> list[FitnessReport]:
        """The reports of :meth:`score_detailed`."""
        return [scored.report for scored in self.score_detailed(programs)]

    def score_detailed(self, programs: list[AlphaProgram]) -> list[Scored]:
        """Score a batch of candidates, evaluating the cache misses together.

        Semantics match scoring the programs one by one with :meth:`score`:
        a program whose pruned fingerprint already appeared earlier in the
        batch reuses that evaluation (and counts as a fingerprint hit), so
        serial and batched scoring produce identical reports and cache
        statistics.  The cache misses evaluate as one fleet batch.
        """
        count = len(programs)
        reports: list[FitnessReport | None] = [None] * count
        keys: list[str | None] = [None] * count
        removed = [0] * count
        outcomes = ["evaluated"] * count
        pending: list[_PendingEvaluation] = []
        pending_by_key: dict[str, int] = {}
        for index, program in enumerate(programs):
            self.candidates_generated += 1
            prune_result, key, cached = self.cache.prepare(program)
            keys[index] = key
            if prune_result is not None:
                removed[index] = prune_result.removed_operations
            if cached is not None:
                reports[index] = cached
                outcomes[index] = "redundant" if key is None else "hit"
                continue
            if key is not None and key in pending_by_key:
                # An identical pruned program is already queued in this batch;
                # scored one-by-one the later copy would hit the cache.
                self.cache.stats.fingerprint_hits += 1
                outcomes[index] = "hit"
                pending[pending_by_key[key]].slots.append(index)
                continue
            # With pruning enabled the evaluator runs the pruned program,
            # which is cheaper and numerically identical for the prediction;
            # with the technique disabled (Table 6 ablation) the full program
            # runs.
            to_run = prune_result.program if prune_result is not None else program
            if key is not None:
                pending_by_key[key] = len(pending)
            pending.append(_PendingEvaluation(key=key, program=to_run, slots=[index]))

        # Validation returns are only needed while the cutoff has references.
        backtest_engine = self.backtest_engine if self._cutoff_active else None
        pairs = evaluate_misses(self.evaluator, [item.program for item in pending],
                                backtest_engine)
        for item, (report, valid_returns) in zip(pending, pairs):
            report = self._apply_cutoff(report, valid_returns)
            self.cache.record(item.key, report)
            for slot in item.slots:
                reports[slot] = report
        return [Scored(*fields) for fields in zip(reports, keys, removed, outcomes)]

    # ------------------------------------------------------------------
    def _apply_cutoff(
        self, report: FitnessReport, valid_returns: np.ndarray | None
    ) -> FitnessReport:
        """Invalidate a valid report that violates the correlation cutoff."""
        if not report.is_valid or not self._cutoff_active or valid_returns is None:
            return report
        max_corr = self.correlation_filter.max_correlation(valid_returns)
        if max_corr <= self.correlation_filter.cutoff:
            return report
        return FitnessReport(
            fitness=INVALID_FITNESS,
            ic_valid=report.ic_valid,
            daily_ic_valid=report.daily_ic_valid,
            is_valid=False,
            reason=(
                f"correlation {max_corr:.3f} with an accepted alpha exceeds "
                f"the {self.correlation_filter.cutoff:.0%} cutoff"
            ),
        )


def evaluate_misses(
    evaluator: AlphaEvaluator,
    programs: list[AlphaProgram],
    backtest_engine: BacktestEngine | None = None,
) -> list[tuple[FitnessReport, np.ndarray | None]]:
    """Evaluate cache misses as one fleet batch, in input order.

    The search's one miss evaluation: every :class:`CandidateScorer` calls
    it, and so does every :class:`repro.parallel.pool.EvaluationPool`
    worker on its chunk of a program-batch dispatch, so pooled and serial
    reports are bitwise identical by construction.  Returns ``(report,
    valid_returns)`` pairs; ``valid_returns`` is the validation
    portfolio-return series the correlation cutoff reads, computed by
    ``backtest_engine`` for every valid report (``None`` without an engine
    or for an invalid report).
    """
    if not programs:
        return []
    # Imported lazily: repro.engine builds on repro.core submodules.
    from ..engine import evaluate_program_batch

    # The fleet stacks programs by signature and never deduplicates: the
    # cache above already decided which candidates share an evaluation,
    # and the pruning-disabled ablation must not dedup behind its back.
    pairs = []
    for result in evaluate_program_batch(evaluator, programs):
        valid_returns = None
        if backtest_engine is not None and result.is_valid:
            valid_returns = backtest_engine.portfolio_returns(
                result.predictions["valid"], split="valid"
            )
        pairs.append((result.report, valid_returns))
    return pairs
