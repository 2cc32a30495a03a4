"""The search controller: regularised evolution on one or more islands.

Every :meth:`repro.core.mining.MiningSession.search` runs here.  The search
evolves ``M`` regularised-evolution populations ("islands"), each with its
own tournament RNG and mutator stream; ``M = 1`` is the paper's single
aging population.  The populations are first filled with mutations of the
initial program, in round-robin order.  Every main-loop step each island
then proposes one child (tournament → mutate) and scores it.  Every
:data:`MIGRATION_INTERVAL` steps each island offers its best candidate
along a ring (island ``i`` receives from island ``i-1``), replacing the
receiver's worst member, so good genetic material spreads without
collapsing the scenario diversity that independent populations provide.

Between two migrations an island reads nothing but its own state: its
population, its RNGs and the reports of the children it proposes, and a
report depends only on the child's fingerprint.  So the search runs in
*segments*.  From one barrier to the next — a migration step, a due
checkpoint or the end of the budget — :func:`advance` takes islands
through the fill and the main-loop steps with one in-process
:class:`~repro.core.evolution.CandidateScorer` (tournament, mutate, prune,
fingerprint, evaluate, cutoff) and returns one :class:`CandidateRecord`
per candidate.  Without a pool the controller advances every island
in-process, with one scorer for the whole search.  With an
:class:`~repro.parallel.pool.EvaluationPool` it dispatches each island as
one :class:`Segment`, which carries the island's state (population,
tournament RNG, mutator) there and back; the executor hands the next
segment to whichever worker is free.  A worker keeps one scorer per
search across the segments it runs, seeds it from the populations it is
shipped, and scores the initial program itself in its first segment.

The parent process only plans segments, merges their islands, replays
the records in serial order — the initial program, the fill's
round-robin order, then each step's active islands — against one key set
for the whole search, migrates and checkpoints.  So the cache statistics
(``evaluated`` stays the distinct keys the search had to evaluate), the
candidates' ``born_at``, the trajectory and the mined program equal the
serial search's, whatever the worker count.  A key that another worker
already evaluated is evaluated again, to a bitwise-equal report: that
work is physical only, counted as ``search.duplicate_evaluations``.

The controller mirrors the paper's distributed search loop: a fleet of
evaluation workers, several concurrent populations, and checkpoints so a
60-hour round survives restarts (:mod:`repro.parallel.checkpoint`).  A
search's result depends on its seeds and ``num_islands``, never on whether
a pool runs it or a checkpoint records it.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..backtest.engine import BacktestEngine
from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE, make_rng
from ..core.cache import CacheStats
from ..core.correlation import CorrelationFilter
from ..core.evolution import (
    Candidate,
    CandidateScorer,
    EvolutionConfig,
    EvolutionResult,
    TrajectoryPoint,
)
from ..core.fitness import INVALID_FITNESS
from ..core.interpreter import AlphaEvaluator
from ..core.mutation import MutationConfig, Mutator
from ..core.ops import Dimensions
from ..core.program import AlphaProgram, ComponentLimits
from ..errors import CheckpointError
from ..obs import TELEMETRY
from .checkpoint import CHECKPOINT_VERSION, CheckpointManager, SearchCheckpoint
from .pool import EvaluationPool

__all__ = ["MIGRATION_INTERVAL", "CandidateRecord", "Island",
           "IslandEvolutionController", "Segment", "SegmentPlan",
           "SegmentResult", "advance"]

#: Main-loop steps (one child per island) between two ring migrations;
#: every such step is a barrier, with one island or several.
MIGRATION_INTERVAL = 25

#: Numbers the search runs of this process (see :class:`Segment`).
_RUNS = itertools.count()


@dataclass
class Island:
    """One independent population with its own RNG and mutation stream."""

    index: int
    population: deque
    rng: np.random.Generator
    mutator: Mutator

    @property
    def best(self) -> Candidate:
        """The fittest member of the population (first of equals)."""
        return max(self.population, key=lambda candidate: candidate.fitness)


@dataclass
class CandidateRecord:
    """One scored candidate of a segment, for the parent's replay.

    ``island`` is ``None`` for the initial program.  ``outcome`` is the
    scorer's (:class:`~repro.core.evolution.Scored`): whether this process
    found the candidate redundant, hit its cache or evaluated it.
    ``elapsed`` is the search's elapsed seconds when its batch was scored.
    The parent sets ``candidate.born_at`` when it replays the record.
    """

    island: int | None
    candidate: Candidate
    pruned_operations: int
    outcome: str
    elapsed: float


@dataclass(frozen=True)
class SegmentPlan:
    """What every process advancing islands does up to the next barrier.

    ``root``: score the initial program first (a fresh search's first
    segment).  ``fill``: ``(island, born_at)`` per fill child, in the
    fill's round-robin order.  ``steps``: per main-loop step, how many
    islands it advances (a prefix of the island indices; fewer than all
    only on the step that spends the candidate budget).  ``elapsed`` is
    the search's elapsed seconds at the :func:`time.perf_counter` reading
    ``clock``; a process checks the time budget ``max_seconds`` against
    them before every step.  That clock is the host's monotonic clock
    (``CLOCK_MONOTONIC`` on Linux), which every process on the host
    reads alike, so a segment that waited for a free worker does not
    restart the budget.
    """

    root: bool
    fill: tuple[tuple[int, int], ...]
    steps: tuple[int, ...]
    elapsed: float
    clock: float
    max_seconds: float | None


@dataclass
class SegmentResult:
    """The islands one process advanced, and the records of their
    candidates: ``fill`` in round-robin order, ``steps`` one list per step
    run (fewer than planned when the clock stopped it).  ``evaluations``
    and ``fingerprints`` count the evaluations and fingerprint pipeline
    runs this process made."""

    islands: list[Island]
    root: CandidateRecord | None
    fill: list[CandidateRecord]
    steps: list[list[CandidateRecord]]
    evaluations: int
    fingerprints: int


def _tournament(island: Island, size: int) -> Candidate:
    """The fittest of ``size`` members drawn without replacement."""
    population = island.population
    indices = island.rng.choice(
        len(population), size=min(size, len(population)), replace=False
    )
    return max((population[int(i)] for i in indices),
               key=lambda candidate: candidate.fitness)


def advance(islands: list[Island], scorer: CandidateScorer, plan: SegmentPlan,
            initial_program: AlphaProgram, tournament_size: int) -> SegmentResult:
    """Take ``islands`` through ``plan`` with ``scorer``, in place.

    The one search loop: the controller runs it in-process, and a pool
    worker runs it on the island of each :class:`Segment` it is handed.
    """
    keyed = scorer.cache.keyed
    evaluations = 0

    def elapsed() -> float:
        return plan.elapsed + (time.perf_counter() - plan.clock)

    def score(pairs: list[tuple[int | None, AlphaProgram]]) -> list[CandidateRecord]:
        nonlocal evaluations
        if not pairs:
            return []
        scored = scorer.score_detailed([program for _, program in pairs])
        stamp = elapsed()
        evaluations += sum(item.outcome == "evaluated" for item in scored)
        return [
            CandidateRecord(index, Candidate(program, item.report, 0, item.key),
                            item.pruned_operations, item.outcome, stamp)
            for (index, program), item in zip(pairs, scored)
        ]

    root = None
    if plan.root:
        [root] = score([(None, initial_program)])
        root.candidate.born_at = 1
        for island in islands:
            island.population.append(root.candidate)
    mine = {island.index: island for island in islands}
    fill = score([(index, mine[index].mutator.mutate(initial_program))
                  for index, _ in plan.fill if index in mine])
    for record in fill:
        mine[record.island].population.append(record.candidate)
    steps = []
    for count in plan.steps:
        if plan.max_seconds is not None and elapsed() >= plan.max_seconds:
            break
        active = [island for island in islands if island.index < count]
        records = score([
            (island.index,
             island.mutator.mutate(_tournament(island, tournament_size).program))
            for island in active
        ])
        for island, record in zip(active, records):
            island.population.append(record.candidate)
            island.population.popleft()
        steps.append(records)
    return SegmentResult(islands, root, fill, steps, evaluations,
                         scorer.cache.keyed - keyed)


#: A pool worker's scorer for the search it last ran a segment of:
#: ``(search, scorer)``.  One search at a time, so it holds no more than
#: that search's own cache.
_WORKER_SCORER: tuple[str, CandidateScorer] | None = None


@dataclass
class Segment:
    """A pool worker's job at a barrier: advance ``island`` through
    ``plan``.  The worker keeps one scorer per ``search`` (an id of the
    search run) across the segments it runs, seeded from the population
    of each; a retried segment on a fresh worker reseeds to equal
    reports."""

    search: str
    island: Island
    plan: SegmentPlan
    initial_program: AlphaProgram
    tournament_size: int
    use_pruning: bool
    correlation_filter: CorrelationFilter | None

    def run(self, evaluator: AlphaEvaluator,
            backtest_engine: BacktestEngine | None) -> SegmentResult:
        global _WORKER_SCORER
        if _WORKER_SCORER is None or _WORKER_SCORER[0] != self.search:
            _WORKER_SCORER = (self.search, CandidateScorer(
                evaluator, self.correlation_filter, backtest_engine,
                self.use_pruning))
        scorer = _WORKER_SCORER[1]
        scorer.seed(self.island.population)
        return advance([self.island], scorer, self.plan, self.initial_program,
                       self.tournament_size)


class IslandEvolutionController:
    """The search controller: ``M`` regularised-evolution islands, advanced
    segment by segment (``M = 1`` is plain regularised evolution).

    Parameters
    ----------
    evaluator:
        Scores every cache miss, in-process or on the ``pool``'s workers:
        each dispatch ships this evaluator's settings, so serial and pooled
        runs agree.
    dims:
        Problem dimensions used to build the per-island mutators.
    config:
        The usual evolutionary hyper-parameters; ``population_size`` and the
        tournament apply per island, the budget is global across islands.
        ``num_islands`` sets the topology.
    seed / mutation_seed:
        ``seed`` drives the per-island tournament RNGs, ``mutation_seed``
        (defaulting to the same stream) the per-island mutators.
    pool:
        Optional :class:`EvaluationPool` over ``evaluator``'s task set; at
        each barrier every island is then dispatched as one
        :class:`Segment`, run by whichever worker is free (workers beyond
        the island count idle).  Results are identical with or without a
        pool (and for any worker count).
    checkpoint_path / checkpoint_interval:
        When a path is given, the full search state is checkpointed every
        ``checkpoint_interval`` searched candidates and once more at the
        end; :meth:`run` can resume from it.
    """

    def __init__(
        self,
        evaluator: AlphaEvaluator,
        dims: Dimensions,
        config: EvolutionConfig | None = None,
        mutation_config: MutationConfig | None = None,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
        limits: ComponentLimits | None = None,
        correlation_filter: CorrelationFilter | None = None,
        backtest_engine: BacktestEngine | None = None,
        seed: int | np.random.Generator | None = None,
        mutation_seed: int | np.random.Generator | None = None,
        pool: EvaluationPool | None = None,
        checkpoint_path: str | None = None,
        checkpoint_interval: int = 500,
    ) -> None:
        self.evaluator = evaluator
        self.dims = dims
        self.config = config or EvolutionConfig()
        self.mutation_config = mutation_config or MutationConfig()
        self.address_space = address_space
        self.limits = limits
        self.correlation_filter = correlation_filter
        self.backtest_engine = backtest_engine
        self.pool = pool
        self.rng = make_rng(seed)
        self._mutation_rng = self.rng if mutation_seed is None else make_rng(mutation_seed)
        # Integer seeds identify the search for the checkpoint configuration
        # echo; generator/None seeds have no stable identity to compare.
        self._seed_echo = int(seed) if isinstance(seed, (int, np.integer)) else "external"
        self._mutation_seed_echo = (
            int(mutation_seed)
            if isinstance(mutation_seed, (int, np.integer))
            else "external"
        )
        #: The in-process scorer: it advances the islands when there is no
        #: pool, and keeps its cache across the search's segments.
        self.scorer = CandidateScorer(
            evaluator,
            correlation_filter=correlation_filter,
            backtest_engine=backtest_engine,
            use_pruning=self.config.use_pruning,
        )
        self.checkpoint = (
            CheckpointManager(checkpoint_path, interval=checkpoint_interval)
            if checkpoint_path is not None
            else None
        )
        self.islands: list[Island] = []
        # The search's own counts, replayed from the segments' records.
        self._candidates = 0
        self._stats = CacheStats()
        self._keys: set[str] = set()
        self._step = 0
        self._migrations = 0
        self._best_ever: Candidate | None = None
        self._trajectory: list[TrajectoryPoint] = []
        self._elapsed_offset = 0.0
        self._start_time = 0.0
        self._initial_program: AlphaProgram | None = None
        #: This run's id, which keys each pool worker's scorer.
        self._search = ""

    # ------------------------------------------------------------------
    # Run / resume entry point
    # ------------------------------------------------------------------
    def run(
        self, initial_program: AlphaProgram, resume: bool | None = None
    ) -> EvolutionResult:
        """Evolve ``initial_program`` on all islands until the budget runs out.

        ``resume=None`` (the default) resumes automatically when a
        checkpoint file exists at the configured path; ``resume=True``
        requires one; ``resume=False`` always starts fresh.  A resumed run
        continues bit-for-bit where the checkpointed one stopped, so a
        killed search finishes with the same best program as an
        uninterrupted run under the same seed.

        ``run`` is reusable: a fresh start resets the fingerprint cache and
        candidate counter, so back-to-back runs never reuse stale cached
        fitness reports (the seed streams advance across calls, as
        independent restarts should).
        """
        with TELEMETRY.span("search.run") as span:
            result = self._run(initial_program, resume)
        if TELEMETRY.enabled:
            # Run-level gauges over every search of the telemetry session,
            # from counters that accumulate across searches.
            run_seconds = TELEMETRY.histogram("search.run_seconds")
            run_seconds.observe(span.seconds)
            candidates = TELEMETRY.counter("search.candidates").value
            if candidates:
                evaluations = TELEMETRY.counter("search.evaluations").value
                TELEMETRY.gauge("search.cache_hit_rate").set(
                    1.0 - evaluations / candidates
                )
            if run_seconds.total > 0:
                TELEMETRY.gauge("search.candidates_per_second").set(
                    candidates / run_seconds.total
                )
        return result

    def _run(self, initial_program: AlphaProgram,
             resume: bool | None) -> EvolutionResult:
        if resume is None:
            resume = self.checkpoint is not None and self.checkpoint.exists()
        self._start_time = time.perf_counter()
        self._initial_program = initial_program
        self._search = f"{os.getpid()}-{next(_RUNS)}"
        if resume:
            if self.checkpoint is None:
                raise CheckpointError(
                    "cannot resume: no checkpoint path was configured"
                )
            self._restore(self.checkpoint.load(), initial_program)
        else:
            self._fresh_start()
        while (plan := self._plan()) is not None:
            if not self._barrier(plan, self._advance(plan)):
                break
        if self.checkpoint is not None:
            self._save_checkpoint()
        return self._result()

    # ------------------------------------------------------------------
    # State initialisation and restoration
    # ------------------------------------------------------------------
    def _fresh_start(self) -> None:
        self.scorer.reset()
        self._candidates = 0
        self._stats = CacheStats()
        self._keys = set()
        self._step = 0
        self._migrations = 0
        self._best_ever = None
        self._trajectory = []
        self._elapsed_offset = 0.0
        num_islands = self.config.num_islands
        mutator_seeds = self._mutation_rng.integers(0, 2**63 - 1, size=num_islands)
        rng_seeds = self.rng.integers(0, 2**63 - 1, size=num_islands)
        # The first segment scores the initial parent and shares it with
        # every island.
        self.islands = [
            Island(
                index=index,
                population=deque(),
                rng=np.random.default_rng(int(rng_seeds[index])),
                mutator=Mutator(
                    self.dims,
                    address_space=self.address_space,
                    limits=self.limits,
                    config=self.mutation_config,
                    seed=int(mutator_seeds[index]),
                ),
            )
            for index in range(num_islands)
        ]

    def _config_echo(self) -> dict:
        return {
            "population_size": self.config.population_size,
            "tournament_size": self.config.tournament_size,
            "use_pruning": self.config.use_pruning,
            "num_islands": self.config.num_islands,
            "seed": self._seed_echo,
            "mutation_seed": self._mutation_seed_echo,
            "evaluator_base_seed": self.evaluator.base_seed,
            "max_train_steps": self.evaluator.max_train_steps,
            "use_update": self.evaluator.use_update,
            # Cached reports embed cutoff decisions, so the cutoff and the
            # accepted reference series are part of the search's identity.
            "correlation": (
                self.correlation_filter.fingerprint()
                if self.correlation_filter is not None
                else None
            ),
        }

    def _restore(self, state: SearchCheckpoint, initial_program: AlphaProgram) -> None:
        if state.initial_key != initial_program.exact_key():
            raise CheckpointError(
                "checkpoint was taken for a different initial program; "
                "resume with the same initial alpha or start fresh"
            )
        echo = self._config_echo()
        if state.config_echo != echo:
            changed = sorted(
                key for key in set(echo) | set(state.config_echo)
                if echo.get(key) != state.config_echo.get(key)
            )
            raise CheckpointError(
                f"checkpoint configuration differs from this controller's "
                f"({', '.join(changed)}); resuming would silently diverge"
            )
        self.islands = state.islands
        self._candidates = state.candidates_generated
        self._stats = state.cache_stats
        self._keys = state.keys
        self._step = state.step
        self._migrations = state.migrations
        self._best_ever = state.best_ever
        self._trajectory = list(state.trajectory)
        self._elapsed_offset = state.elapsed_seconds
        self.scorer.reset()
        self.scorer.seed(candidate for island in self.islands
                         for candidate in island.population)

    # ------------------------------------------------------------------
    # Budget / bookkeeping helpers
    # ------------------------------------------------------------------
    def _elapsed(self) -> float:
        return self._elapsed_offset + (time.perf_counter() - self._start_time)

    def _checkpoint_due(self, candidates: int) -> bool:
        return self.checkpoint is not None and self.checkpoint.due(candidates)

    def _save_checkpoint(self) -> None:
        self.checkpoint.save(
            SearchCheckpoint(
                version=CHECKPOINT_VERSION,
                candidates_generated=self._candidates,
                step=self._step,
                migrations=self._migrations,
                elapsed_seconds=self._elapsed(),
                keys=self._keys,
                cache_stats=self._stats,
                islands=self.islands,
                best_ever=self._best_ever,
                trajectory=list(self._trajectory),
                initial_key=self._initial_program.exact_key(),
                config_echo=self._config_echo(),
            )
        )

    # ------------------------------------------------------------------
    # Segments: plan, advance, replay
    # ------------------------------------------------------------------
    def _plan(self) -> SegmentPlan | None:
        """The next segment, up to the next barrier (``None``: the budget
        is spent).

        The fill is drawn in round-robin steps — one child per island that
        still needs one, cut to the candidate budget — and each child's
        ``born_at`` is the candidate count at the end of its step.  The
        clock is read here, before the fill; the main-loop steps read it
        in the process that runs them.  A segment ends after the fill when
        a checkpoint is then due, else after the first step that migrates
        (every :data:`MIGRATION_INTERVAL` steps), makes a checkpoint due or
        spends the candidate budget.
        """
        config = self.config
        clock = time.perf_counter()
        elapsed = self._elapsed_offset + (clock - self._start_time)
        count = self._candidates
        root = count == 0
        count += root
        fill: list[tuple[int, int]] = []
        steps: list[int] = []
        exhausted = (
            (config.max_candidates is not None and count >= config.max_candidates)
            or (config.max_seconds is not None and elapsed >= config.max_seconds)
        )
        if not exhausted:
            sizes = [len(island.population) + root for island in self.islands]
            while True:
                needy = [index for index, size in enumerate(sizes)
                         if size < config.population_size]
                if config.max_candidates is not None:
                    needy = needy[:config.max_candidates - count]
                if not needy:
                    break
                count += len(needy)
                for index in needy:
                    sizes[index] += 1
                    fill.append((index, count))
            if not (fill and self._checkpoint_due(count)):
                steps = self._plan_steps(count)
        if not (root or fill or steps):
            return None
        return SegmentPlan(root=root, fill=tuple(fill), steps=tuple(steps),
                           elapsed=elapsed, clock=clock,
                           max_seconds=config.max_seconds)

    def _plan_steps(self, count: int) -> list[int]:
        """Active-island counts of the main-loop steps from ``count``
        candidates up to the next barrier."""
        steps: list[int] = []
        step = self._step
        while True:
            active = len(self.islands)
            if self.config.max_candidates is not None:
                active = min(active, self.config.max_candidates - count)
            if active <= 0:
                return steps
            steps.append(active)
            count += active
            step += 1
            if step % MIGRATION_INTERVAL == 0 or self._checkpoint_due(count):
                return steps

    def _advance(self, plan: SegmentPlan) -> list[SegmentResult]:
        """Run ``plan`` in-process, or as one segment per island on the
        pool, in one dispatch."""
        if self.pool is None:
            return [advance(self.islands, self.scorer, plan,
                            self._initial_program, self.config.tournament_size)]
        segments = [
            Segment(search=self._search, island=island, plan=plan,
                    initial_program=self._initial_program,
                    tournament_size=self.config.tournament_size,
                    use_pruning=self.config.use_pruning,
                    correlation_filter=self.correlation_filter)
            for island in self.islands
        ]
        engine = self.backtest_engine if self.correlation_filter is not None else None
        return self.pool.submit_detailed(
            segments, evaluator=self.evaluator, backtest_engine=engine
        ).result()

    def _barrier(self, plan: SegmentPlan, results: list[SegmentResult]) -> bool:
        """Merge the segments' islands, replay their records in serial
        order, then migrate and checkpoint as the serial loop would.
        Returns False when a process stopped on the clock."""
        for result in results:
            for island in result.islands:
                self.islands[island.index] = island
        candidates, evaluated = self._candidates, self._stats.evaluated
        if plan.root:
            # Every segment scored the initial program; one counts.
            self._replay([results[0].root], [1])
        if plan.fill:
            queues: dict[int, deque] = {}
            for result in results:
                for record in result.fill:
                    queues.setdefault(record.island, deque()).append(record)
            self._replay([queues[index].popleft() for index, _ in plan.fill],
                         [born_at for _, born_at in plan.fill])
        done = max(len(result.steps) for result in results)
        for step in range(done):
            records = sorted(
                (record for result in results if step < len(result.steps)
                 for record in result.steps[step]),
                key=lambda record: record.island,
            )
            self._replay(records, [self._candidates + len(records)] * len(records))
        self._step += done
        if TELEMETRY.enabled:
            evaluated = self._stats.evaluated - evaluated
            TELEMETRY.counter("search.segments").inc(len(results))
            TELEMETRY.counter("search.candidates").inc(self._candidates - candidates)
            TELEMETRY.counter("search.evaluations").inc(evaluated)
            TELEMETRY.counter("search.duplicate_evaluations").inc(
                sum(result.evaluations for result in results) - evaluated
            )
            TELEMETRY.counter("search.fingerprints").inc(
                sum(result.fingerprints for result in results)
            )
        if done and len(self.islands) > 1 and self._step % MIGRATION_INTERVAL == 0:
            self._migrate()
        if (plan.fill or done) and self._checkpoint_due(self._candidates):
            self._save_checkpoint()
        return all(len(result.steps) == len(plan.steps) for result in results)

    def _replay(self, records: list[CandidateRecord], born_at: list[int]) -> None:
        """Count one scoring batch against the search's key set, then
        register its candidates in order."""
        stats = self._stats
        for record in records:
            self._candidates += 1
            key = record.candidate.key
            stats.pruned_operations += record.pruned_operations
            if record.outcome == "redundant":
                stats.redundant_alphas += 1
            elif key is not None and key in self._keys:
                stats.fingerprint_hits += 1
            else:
                stats.evaluated += 1
                if key is not None:
                    self._keys.add(key)
        for record, born in zip(records, born_at):
            candidate = record.candidate
            candidate.born_at = born
            if self._best_ever is None or candidate.fitness > self._best_ever.fitness:
                self._best_ever = candidate
            self._trajectory.append(
                TrajectoryPoint(
                    candidates=born,
                    evaluations=stats.evaluated,
                    best_fitness=self._best_ever.fitness,
                    elapsed_seconds=record.elapsed,
                )
            )

    def _migrate(self) -> None:
        """Ring migration: island ``i`` receives island ``i-1``'s best.

        The migrant replaces the receiving island's worst member, and only
        if it is fitter and not already present, so population sizes are
        invariant and clones do not pile up.
        """
        offers = [island.best for island in self.islands]
        for index, island in enumerate(self.islands):
            migrant = offers[index - 1]
            population = island.population
            # Program equality is exact-key equality; key the migrant once
            # instead of once per member.
            key = migrant.program.exact_key()
            if any(member.program.exact_key() == key for member in population):
                continue
            worst = min(range(len(population)), key=lambda j: population[j].fitness)
            if migrant.fitness > population[worst].fitness:
                population[worst] = migrant
        self._migrations += 1

    # ------------------------------------------------------------------
    def _result(self) -> EvolutionResult:
        candidates = [
            candidate for island in self.islands for candidate in island.population
        ]
        best_in_population = max(candidates, key=lambda candidate: candidate.fitness)
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
            cache_stats=self._stats,
            candidates_generated=self._candidates,
            elapsed_seconds=self._elapsed(),
            num_islands=len(self.islands),
            migrations=self._migrations,
            island_best_fitness=[island.best.fitness for island in self.islands],
        )
