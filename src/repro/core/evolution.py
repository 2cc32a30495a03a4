"""Regularised evolutionary search over alpha programs (Section 3).

The search maintains an aging population of candidate alphas:

1. the population is seeded by mutating the initial (parent) alpha;
2. each iteration samples a *tournament* of fixed size, takes the member
   with the highest fitness as the new parent, mutates it into a child,
   evaluates the child, appends it to the population and removes the oldest
   member;
3. when the search budget is exhausted, the alpha with the highest fitness
   in the final population is returned as the evolved alpha.

Candidate scoring runs through the pruning + fingerprint cache
(:mod:`repro.core.cache`) and, when a set of previously accepted alphas is
supplied, through the 15 % correlation cutoff
(:mod:`repro.core.correlation`): a candidate that violates the cutoff
receives the invalid sentinel fitness and effectively drops out of
tournament selection, exactly like the paper's "candidate alphas are
eliminated if they are correlated with a given set of alphas".

That prune → cache → evaluate → cutoff pipeline lives in
:class:`CandidateScorer` so that the serial :class:`EvolutionController` and
the island-model controller in :mod:`repro.parallel.islands` share one
scoring path.  Cache misses evaluate either on worker processes
(:class:`repro.parallel.pool.EvaluationPool`) or — serially — as one
:class:`repro.engine.fleet.FleetEngine` batch over a shared execution
context and data pass; both run the single protocol implementation of
:mod:`repro.engine.protocol` on the engine named by
:attr:`EvolutionConfig.engine`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..backtest.engine import BacktestEngine
from ..config import POPULATION_SIZE, TOURNAMENT_SIZE, make_rng
from ..errors import EvolutionError
from ..obs import TELEMETRY
from .cache import CacheStats, FingerprintCache
from .correlation import CorrelationFilter
from .fitness import INVALID_FITNESS, FitnessReport
from .interpreter import AlphaEvaluator
from .mutation import Mutator
from .program import AlphaProgram

__all__ = ["EvolutionConfig", "Candidate", "TrajectoryPoint", "EvolutionResult",
           "CandidateScorer", "ScoreBatchHandle", "EvolutionController"]

#: Island-controller scheduling strategies (see
#: :meth:`repro.parallel.islands.IslandEvolutionController`).
SCHEDULERS = ("barrier", "overlap")


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary search.

    The budget can be expressed as a maximum number of candidate alphas
    (``max_candidates``, counting pruned/cached/evaluated candidates alike —
    the paper's "searched alphas") and/or a wall-clock limit in seconds
    (``max_seconds``, the paper uses 60 hours per round); the search stops at
    whichever limit is hit first.

    ``num_workers`` and ``num_islands`` configure the parallel search
    subsystem (:mod:`repro.parallel`): with either above one,
    :meth:`repro.core.mining.MiningSession.search` runs the island-model
    controller, fanning candidate evaluation out to ``num_workers``
    processes.  Both default to one, which selects the serial controller.
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
    log_every: int = 0
    num_workers: int = 1
    num_islands: int = 1
    #: Island-controller scheduling strategy: ``"barrier"`` (score, then
    #: migrate, strictly in turn) or ``"overlap"`` (ring migration runs
    #: while the evaluation pool is busy scoring; migrants land one step
    #: later).  The CLI exposes it as ``--scheduler``.
    scheduler: str = "barrier"

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
        if self.scheduler not in SCHEDULERS:
            raise EvolutionError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                + ", ".join(SCHEDULERS)
            )


@dataclass
class Candidate:
    """A scored member of the population."""

    program: AlphaProgram
    report: FitnessReport
    born_at: int

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
    """Outcome of one evolutionary run."""

    best_program: AlphaProgram
    best_report: FitnessReport
    best_in_population: Candidate
    trajectory: list[TrajectoryPoint]
    cache_stats: CacheStats
    candidates_generated: int
    elapsed_seconds: float

    @property
    def searched_alphas(self) -> int:
        """Total candidates processed, the quantity reported in Table 6."""
        return self.cache_stats.searched


@dataclass
class _PendingEvaluation:
    """A cache miss awaiting evaluation, plus every batch slot it fills."""

    key: str | None
    program: AlphaProgram
    slots: list[int]


class ScoreBatchHandle:
    """An in-flight :meth:`CandidateScorer.score_batch_async` call.

    The scorer has already done all bookkeeping that must happen in
    proposal order (pruning, fingerprint-cache lookups, the searched-alpha
    counter) and — when a pool is attached — dispatched the cache misses to
    the workers.  :meth:`result` collects the evaluations, applies the
    correlation cutoff, records the cache entries and returns the reports;
    until then the caller is free to do unrelated work (the islands overlap
    scheduler performs ring migration here).  Reports are bitwise identical
    to a plain :meth:`~CandidateScorer.score_batch` call.
    """

    def __init__(self, scorer: "CandidateScorer", reports: list,
                 pending: list[_PendingEvaluation], dispatch,
                 started: float) -> None:
        self._scorer = scorer
        self._reports = reports
        self._pending = pending
        self._dispatch = dispatch
        self._started = started
        self._done = False

    def result(self) -> list[FitnessReport]:
        """Collect the evaluations and finalise the batch (idempotent)."""
        if not self._done:
            self._done = True
            self._scorer._finish_batch(
                self._reports, self._pending, self._dispatch, self._started
            )
        return self._reports


class CandidateScorer:
    """The shared prune → cache → evaluate → cutoff scoring pipeline.

    Both the serial :class:`EvolutionController` and the island-model
    controller (:mod:`repro.parallel.islands`) funnel every candidate through
    one scorer, so pruning, fingerprint caching, correlation cutoffs and the
    searched-alpha accounting behave identically in both search modes.

    Parameters
    ----------
    evaluator:
        Evaluates cache misses when no ``pool`` is supplied.
    correlation_filter / backtest_engine:
        When a filter with references is present, a valid candidate whose
        validation portfolio returns correlate above the cutoff with any
        reference is invalidated.  The engine computes those returns in the
        serial path; a pool must be constructed with
        ``compute_valid_returns=True`` so its workers return them instead.
    use_pruning:
        Disables the prune-before-evaluate fingerprint cache (Table 6's
        ``*_N`` ablation) when False.
    pool:
        Optional :class:`repro.parallel.pool.EvaluationPool`; cache misses in
        a batch are then evaluated by worker processes instead of
        ``evaluator``.
    canonical_fingerprint:
        Whether the cache fingerprints the canonicalised IR (the default) or
        uses the historical render-based key; see
        :class:`~repro.core.cache.FingerprintCache`.
    """

    def __init__(
        self,
        evaluator: AlphaEvaluator,
        correlation_filter: CorrelationFilter | None = None,
        backtest_engine: BacktestEngine | None = None,
        use_pruning: bool = True,
        pool=None,
        canonical_fingerprint: bool = True,
    ) -> None:
        if correlation_filter is not None and backtest_engine is None and pool is None:
            raise EvolutionError(
                "a backtest engine is required when a correlation filter is used"
            )
        if correlation_filter is not None and pool is not None \
                and not pool.compute_valid_returns:
            raise EvolutionError(
                "the evaluation pool must be built with compute_valid_returns=True "
                "when a correlation filter is used"
            )
        self.evaluator = evaluator
        self.correlation_filter = correlation_filter
        self.backtest_engine = backtest_engine
        self.use_pruning = use_pruning
        self.pool = pool
        self.canonical_fingerprint = canonical_fingerprint
        self.cache = FingerprintCache(enabled=use_pruning,
                                      canonical=canonical_fingerprint)
        self.candidates_generated = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all cached fingerprints and restart the candidate counter.

        Called at the start of every search run so that back-to-back runs do
        not share stale fingerprints (cached reports embed correlation-cutoff
        decisions that may no longer hold).
        """
        self.cache = FingerprintCache(enabled=self.use_pruning,
                                      canonical=self.canonical_fingerprint)
        self.candidates_generated = 0

    # ------------------------------------------------------------------
    def score(self, program: AlphaProgram) -> FitnessReport:
        """Score one candidate through pruning, cache, evaluation and cutoff."""
        return self.score_batch([program])[0]

    def score_batch(self, programs: list[AlphaProgram]) -> list[FitnessReport]:
        """Score a batch of candidates, dispatching cache misses together.

        Semantics match scoring the programs one by one with :meth:`score`:
        a program whose pruned fingerprint already appeared earlier in the
        batch reuses that evaluation (and counts as a fingerprint hit), so
        serial and batched scoring produce identical reports and cache
        statistics.
        """
        return self.score_batch_async(programs).result()

    def score_batch_async(self, programs: list[AlphaProgram]) -> ScoreBatchHandle:
        """Start scoring a batch; collect the reports on ``.result()``.

        All order-sensitive bookkeeping — pruning, fingerprint-cache
        lookups, the searched-alpha counter — happens here, synchronously,
        so interleaving other work before ``result()`` cannot change any
        outcome.  With a pool attached the cache misses are already on the
        workers when this returns; the caller overlaps useful work with
        their wall clock (the islands overlap scheduler migrates here).
        Serial scorers defer evaluation to ``result()`` instead.
        """
        batch_started = time.perf_counter() if TELEMETRY.enabled else 0.0
        reports: list[FitnessReport | None] = [None] * len(programs)
        pending: list[_PendingEvaluation] = []
        pending_by_key: dict[str, int] = {}
        for index, program in enumerate(programs):
            self.candidates_generated += 1
            prune_result, key, cached = self.cache.prepare(program)
            if cached is not None:
                reports[index] = cached
                continue
            if key is not None and key in pending_by_key:
                # An identical pruned program is already queued in this batch;
                # scored one-by-one the later copy would hit the cache.
                self.cache.stats.fingerprint_hits += 1
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

        dispatch = None
        if pending and self.pool is not None:
            dispatch = self.pool.submit_detailed(
                [item.program for item in pending]
            )
        return ScoreBatchHandle(self, reports, pending, dispatch, batch_started)

    def _finish_batch(self, reports: list, pending: list[_PendingEvaluation],
                      dispatch, started: float) -> None:
        """Collect evaluations, apply the cutoff, record cache entries."""
        if dispatch is not None:
            outcomes = dispatch.result()
            pairs = [(outcome.report, outcome.valid_returns)
                     for outcome in outcomes]
        else:
            pairs = self._evaluate_serial(pending)
        for item, (report, valid_returns) in zip(pending, pairs):
            report = self._apply_cutoff(report, valid_returns)
            self.cache.record(item.key, report)
            for slot in item.slots:
                reports[slot] = report
        if TELEMETRY.enabled:
            TELEMETRY.counter("search.candidates").inc(len(reports))
            TELEMETRY.counter("search.evaluations").inc(len(pending))
            TELEMETRY.histogram("search.score_batch_seconds").observe(
                time.perf_counter() - started
            )

    # ------------------------------------------------------------------
    def _evaluate_serial(
        self, pending: list[_PendingEvaluation]
    ) -> list[tuple[FitnessReport, np.ndarray | None]]:
        """Evaluate cache misses in-process, as one fleet batch.

        Returns ``(report, valid_returns)`` pairs where ``valid_returns`` is
        the validation portfolio-return series needed by the correlation
        cutoff (``None`` when no cutoff is active or the report is invalid).
        """
        if not pending:
            return []
        # Imported lazily: repro.engine builds on repro.core submodules.
        from ..engine import evaluate_program_batch

        cutoff_active = (
            self.correlation_filter is not None
            and self.correlation_filter.num_references > 0
        )
        # The whole batch of cache misses evaluates as one fleet over a
        # shared context and data pass.  Deduplication stays off: the cache
        # layer above already decided which candidates share an evaluation,
        # and the pruning-disabled ablation must not dedup behind its back.
        # This is the same entry point the pool workers run, which is what
        # keeps pooled and serial scoring bitwise identical.
        evaluated = evaluate_program_batch(
            self.evaluator, [item.program for item in pending]
        )
        results = []
        for result in evaluated:
            valid_returns = None
            if cutoff_active and result.is_valid:
                valid_returns = self.backtest_engine.portfolio_returns(
                    result.predictions["valid"], split="valid"
                )
            results.append((result.report, valid_returns))
        return results

    def _apply_cutoff(
        self, report: FitnessReport, valid_returns: np.ndarray | None
    ) -> FitnessReport:
        """Invalidate a valid report that violates the correlation cutoff."""
        if not report.is_valid or self.correlation_filter is None \
                or not self.correlation_filter.num_references:
            return report
        if valid_returns is None:
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


class EvolutionController:
    """Runs regularised evolution for one alpha-mining round."""

    def __init__(
        self,
        evaluator: AlphaEvaluator,
        mutator: Mutator,
        config: EvolutionConfig | None = None,
        correlation_filter: CorrelationFilter | None = None,
        backtest_engine: BacktestEngine | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.mutator = mutator
        self.config = config or EvolutionConfig()
        self.correlation_filter = correlation_filter
        self.backtest_engine = backtest_engine
        self.rng = make_rng(seed)
        self.scorer = CandidateScorer(
            evaluator,
            correlation_filter=correlation_filter,
            backtest_engine=backtest_engine,
            use_pruning=self.config.use_pruning,
        )
        self._start_time = 0.0
        self._best_ever: Candidate | None = None
        self._trajectory: list[TrajectoryPoint] = []

    # ------------------------------------------------------------------
    @property
    def cache(self) -> FingerprintCache:
        """The scorer's fingerprint cache (reset at the start of each run)."""
        return self.scorer.cache

    def score(self, program: AlphaProgram) -> FitnessReport:
        """Score one candidate through pruning, cache, evaluation and cutoff."""
        return self.scorer.score(program)

    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        config = self.config
        if config.max_candidates is not None and \
                self.scorer.candidates_generated >= config.max_candidates:
            return True
        if config.max_seconds is not None and \
                time.perf_counter() - self._start_time >= config.max_seconds:
            return True
        return False

    def _register(self, candidate: Candidate) -> None:
        if self._best_ever is None or candidate.fitness > self._best_ever.fitness:
            self._best_ever = candidate
        self._trajectory.append(
            TrajectoryPoint(
                candidates=self.scorer.candidates_generated,
                evaluations=self.cache.stats.evaluated,
                best_fitness=self._best_ever.fitness,
                elapsed_seconds=time.perf_counter() - self._start_time,
            )
        )

    # ------------------------------------------------------------------
    def run(self, initial_program: AlphaProgram) -> EvolutionResult:
        """Evolve ``initial_program`` until the budget is exhausted.

        ``run`` is reusable: every call starts from a fresh fingerprint cache
        and candidate counter, so back-to-back runs never reuse stale cached
        fitness reports (the mutator and tournament RNGs do advance across
        calls, as independent restarts should).
        """
        with TELEMETRY.span("search.run"):
            result = self._run(initial_program)
        if TELEMETRY.enabled:
            stats = result.cache_stats
            if stats.searched:
                TELEMETRY.gauge("search.cache_hit_rate").set(
                    stats.skipped / stats.searched
                )
            if result.elapsed_seconds > 0:
                TELEMETRY.gauge("search.candidates_per_second").set(
                    result.candidates_generated / result.elapsed_seconds
                )
        return result

    def _run(self, initial_program: AlphaProgram) -> EvolutionResult:
        config = self.config
        self._start_time = time.perf_counter()
        self.scorer.reset()
        self._best_ever = None
        self._trajectory = []

        population: deque[Candidate] = deque()
        parent_program = initial_program
        parent = Candidate(
            program=parent_program,
            report=self.score(parent_program),
            born_at=self.scorer.candidates_generated,
        )
        population.append(parent)
        self._register(parent)

        # ----- populate P0 by mutating the initial parent (Section 3 step 1)
        while len(population) < config.population_size and not self._budget_exhausted():
            child_program = self.mutator.mutate(parent_program)
            child = Candidate(
                program=child_program,
                report=self.score(child_program),
                born_at=self.scorer.candidates_generated,
            )
            population.append(child)
            self._register(child)

        # ----- main tournament loop (Section 3 steps 3-4)
        while not self._budget_exhausted():
            indices = self.rng.choice(
                len(population),
                size=min(config.tournament_size, len(population)),
                replace=False,
            )
            tournament = [population[int(i)] for i in indices]
            parent = max(tournament, key=lambda candidate: candidate.fitness)
            child_program = self.mutator.mutate(parent.program)
            child = Candidate(
                program=child_program,
                report=self.score(child_program),
                born_at=self.scorer.candidates_generated,
            )
            population.append(child)
            population.popleft()
            self._register(child)

        best_in_population = max(population, key=lambda candidate: candidate.fitness)
        # The paper selects the best alpha of the final population; if every
        # surviving member is invalid (tiny budgets), fall back to the best
        # candidate seen over the whole run.
        best = best_in_population
        if best.fitness <= INVALID_FITNESS and self._best_ever is not None:
            best = self._best_ever
        return EvolutionResult(
            best_program=best.program,
            best_report=best.report,
            best_in_population=best_in_population,
            trajectory=self._trajectory,
            cache_stats=self.cache.stats,
            candidates_generated=self.scorer.candidates_generated,
            elapsed_seconds=time.perf_counter() - self._start_time,
        )
