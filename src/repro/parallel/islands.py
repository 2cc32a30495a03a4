"""The search controller: regularised evolution on one or more islands.

Every :meth:`repro.core.mining.MiningSession.search` runs here.  The search
evolves ``M`` regularised-evolution populations ("islands"), each with its
own tournament RNG and mutator stream; ``M = 1`` is the paper's single
aging population.  The populations are first filled with mutations of the
initial program, all islands' fill scored as one batch.  Every main-loop
step each island then proposes one child (tournament → mutate), and the
``M`` proposals are scored as one batch through the shared
:class:`~repro.core.evolution.CandidateScorer` — which is what lets a
:class:`~repro.parallel.pool.EvaluationPool` evaluate them concurrently.
Every :data:`MIGRATION_INTERVAL` steps each island offers its
best candidate along a ring (island ``i`` receives from island ``i-1``),
replacing the receiver's worst member, so good genetic material spreads without
collapsing the scenario diversity that independent populations provide.

The controller mirrors the paper's distributed search loop: a fleet of
evaluation workers, several concurrent populations, and checkpoints so a
60-hour round survives restarts (:mod:`repro.parallel.checkpoint`).  A
search's result depends on its seeds and ``num_islands``, never on whether
a pool evaluates it or a checkpoint records it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..backtest.engine import BacktestEngine
from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE, make_rng
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

__all__ = ["MIGRATION_INTERVAL", "Island", "IslandEvolutionController"]

#: Main-loop steps (one child per island) between two ring migrations.
MIGRATION_INTERVAL = 25


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


class IslandEvolutionController:
    """The search controller: ``M`` regularised-evolution islands over one
    shared scorer (``M = 1`` is plain regularised evolution).

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
        Optional :class:`EvaluationPool` over ``evaluator``'s task set; the
        population fill and the per-step proposal batches are then
        evaluated by worker processes.  Results are identical with or
        without a pool (and for any worker count).
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
        self.scorer = CandidateScorer(
            evaluator,
            correlation_filter=correlation_filter,
            backtest_engine=backtest_engine,
            use_pruning=self.config.use_pruning,
            pool=pool,
        )
        self.checkpoint = (
            CheckpointManager(checkpoint_path, interval=checkpoint_interval)
            if checkpoint_path is not None
            else None
        )
        self.islands: list[Island] = []
        self._step = 0
        self._migrations = 0
        self._best_ever: Candidate | None = None
        self._trajectory: list[TrajectoryPoint] = []
        self._elapsed_offset = 0.0
        self._start_time = 0.0
        self._initial_program: AlphaProgram | None = None

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
        if resume:
            if self.checkpoint is None:
                raise CheckpointError(
                    "cannot resume: no checkpoint path was configured"
                )
            self._restore(self.checkpoint.load(), initial_program)
        else:
            self._fresh_start(initial_program)
        self._seed_phase(initial_program)
        self._main_phase()
        if self.checkpoint is not None:
            self._save_checkpoint()
        return self._result()

    # ------------------------------------------------------------------
    # State initialisation and restoration
    # ------------------------------------------------------------------
    def _fresh_start(self, initial_program: AlphaProgram) -> None:
        self.scorer.reset()
        self._step = 0
        self._migrations = 0
        self._best_ever = None
        self._trajectory = []
        self._elapsed_offset = 0.0
        num_islands = self.config.num_islands
        mutator_seeds = self._mutation_rng.integers(0, 2**63 - 1, size=num_islands)
        rng_seeds = self.rng.integers(0, 2**63 - 1, size=num_islands)
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
        # The initial parent is scored once and shared by every island.
        root = Candidate(
            program=initial_program,
            report=self.scorer.score(initial_program),
            born_at=self.scorer.candidates_generated,
        )
        for island in self.islands:
            island.population.append(root)
        self._register(root)

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
                self.scorer.correlation_filter.fingerprint()
                if self.scorer.correlation_filter is not None
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
        self.scorer.cache = state.cache
        self.scorer.candidates_generated = state.candidates_generated
        self._step = state.step
        self._migrations = state.migrations
        self._best_ever = state.best_ever
        self._trajectory = list(state.trajectory)
        self._elapsed_offset = state.elapsed_seconds

    # ------------------------------------------------------------------
    # Budget / bookkeeping helpers
    # ------------------------------------------------------------------
    def _elapsed(self) -> float:
        return self._elapsed_offset + (time.perf_counter() - self._start_time)

    def _budget_exhausted(self) -> bool:
        config = self.config
        if config.max_candidates is not None and \
                self.scorer.candidates_generated >= config.max_candidates:
            return True
        if config.max_seconds is not None and self._elapsed() >= config.max_seconds:
            return True
        return False

    def _remaining_candidates(self) -> int | None:
        if self.config.max_candidates is None:
            return None
        return max(0, self.config.max_candidates - self.scorer.candidates_generated)

    def _register(self, candidate: Candidate) -> None:
        if self._best_ever is None or candidate.fitness > self._best_ever.fitness:
            self._best_ever = candidate
        self._trajectory.append(
            TrajectoryPoint(
                candidates=candidate.born_at,
                evaluations=self.scorer.cache.stats.evaluated,
                best_fitness=self._best_ever.fitness,
                elapsed_seconds=self._elapsed(),
            )
        )

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint is not None and \
                self.checkpoint.due(self.scorer.candidates_generated):
            self._save_checkpoint()

    def _save_checkpoint(self) -> None:
        self.checkpoint.save(
            SearchCheckpoint(
                version=CHECKPOINT_VERSION,
                candidates_generated=self.scorer.candidates_generated,
                step=self._step,
                migrations=self._migrations,
                elapsed_seconds=self._elapsed(),
                cache=self.scorer.cache,
                islands=self.islands,
                best_ever=self._best_ever,
                trajectory=list(self._trajectory),
                initial_key=self._initial_program.exact_key(),
                config_echo=self._config_echo(),
            )
        )

    # ------------------------------------------------------------------
    # Search phases
    # ------------------------------------------------------------------
    def _seed_phase(self, initial_program: AlphaProgram) -> None:
        """Fill every island's population by mutating the initial parent.

        The fill is drawn in round-robin steps — one child per island that
        still needs one, cut to the candidate budget — and scored as one
        batch, so a pool sees the whole fill at once.  Every fill child
        mutates the same parent on its island's own mutator stream and
        none depends on another's fitness, so the programs, reports and
        cache statistics equal those of scoring the fill step by step;
        each child's ``born_at`` (and trajectory ``candidates``) is the
        candidate count at the end of its round-robin step.  The time
        budget is checked once, before the fill.
        """
        if self._budget_exhausted():
            return
        target = self.config.population_size
        remaining = self._remaining_candidates()
        sizes = [len(island.population) for island in self.islands]
        counted = self.scorer.candidates_generated
        fill: list[tuple[Island, int]] = []
        while remaining is None or remaining > 0:
            needy = [index for index, size in enumerate(sizes) if size < target]
            if remaining is not None:
                needy = needy[:remaining]
                remaining -= len(needy)
            if not needy:
                break
            counted += len(needy)
            for index in needy:
                sizes[index] += 1
                fill.append((self.islands[index], counted))
        if not fill:
            return
        programs = [island.mutator.mutate(initial_program) for island, _ in fill]
        reports = self.scorer.score_batch(programs)
        for (island, born_at), program, report in zip(fill, programs, reports):
            child = Candidate(program=program, report=report, born_at=born_at)
            island.population.append(child)
            self._register(child)
        self._maybe_checkpoint()

    def _propose(self, active: list[Island]) -> list[AlphaProgram]:
        """Draw one tournament → mutate proposal per active island."""
        config = self.config
        proposals = []
        for island in active:
            population = island.population
            indices = island.rng.choice(
                len(population),
                size=min(config.tournament_size, len(population)),
                replace=False,
            )
            parent = max(
                (population[int(i)] for i in indices),
                key=lambda candidate: candidate.fitness,
            )
            proposals.append(island.mutator.mutate(parent.program))
        return proposals

    def _insert(self, active: list[Island], proposals: list[AlphaProgram],
                reports: list) -> None:
        """Age each active island by its scored child."""
        for island, program, report in zip(active, proposals, reports):
            child = Candidate(
                program=program,
                report=report,
                born_at=self.scorer.candidates_generated,
            )
            island.population.append(child)
            island.population.popleft()
            self._register(child)

    def _active_islands(self) -> list[Island]:
        active = self.islands
        remaining = self._remaining_candidates()
        if remaining is not None:
            active = active[:remaining]
        return active

    def _main_phase(self) -> None:
        """Tournament → mutate → batch-score → age, one child per island,
        with a ring migration every :data:`MIGRATION_INTERVAL` steps."""
        while not self._budget_exhausted():
            active = self._active_islands()
            proposals = self._propose(active)
            reports = self.scorer.score_batch(proposals)
            self._insert(active, proposals, reports)
            self._step += 1
            if len(self.islands) > 1 and self._step % MIGRATION_INTERVAL == 0:
                self._migrate()
            self._maybe_checkpoint()

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
            cache_stats=self.scorer.cache.stats,
            candidates_generated=self.scorer.candidates_generated,
            elapsed_seconds=self._elapsed(),
            num_islands=len(self.islands),
            migrations=self._migrations,
            island_best_fitness=[island.best.fitness for island in self.islands],
        )
