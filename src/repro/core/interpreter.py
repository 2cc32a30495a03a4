"""Evaluation of alpha programs over a task set (the engine-layer facade).

The evaluator owns the *evaluation policy* of Section 2 — which splits
exist, how training days are subsampled, how a prediction panel turns into
a fitness — and delegates all *execution* to the unified engine layer
(:mod:`repro.engine`):

* the train/inference label-reveal protocol is implemented exactly once, in
  :mod:`repro.engine.protocol` (this module historically held two copies of
  that day-loop; both are gone);
* the execution backend is selected by name — ``"interpreter"`` for the
  reference per-operation loop, ``"compiled"`` for the flat-tape pipeline
  of :mod:`repro.compile` — via :func:`repro.engine.make_backend`;
* the engine's time-vectorised fast paths (fused inference, static-predict
  time batching) are enabled by default and are bitwise identical to the
  day loop, a contract gated by ``benchmarks/bench_engine.py`` and the
  ``tests/engine`` parity suite.

The evaluator executes every operation for all ``K`` stocks at once (see
:mod:`repro.core.memory`), which is what makes the cross-sectional
RelationOps well-defined and the search fast enough in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE, make_rng
from ..data.dataset import TaskSet
from ..errors import ExecutionError
from .fitness import FitnessReport, INVALID_FITNESS, daily_ic, mean_ic
from .ops import ExecutionContext
from .program import AlphaProgram

__all__ = ["EvaluationResult", "AlphaEvaluator"]


@dataclass
class EvaluationResult:
    """Outcome of evaluating one alpha program on a task set."""

    program: AlphaProgram
    fitness: float
    ic_valid: float
    ic_test: float
    predictions: dict[str, np.ndarray]
    daily_ic_valid: np.ndarray = field(default_factory=lambda: np.empty(0))
    is_valid: bool = True
    reason: str = ""

    @property
    def report(self) -> FitnessReport:
        """The fitness report corresponding to this evaluation."""
        return FitnessReport(
            fitness=self.fitness,
            ic_valid=self.ic_valid,
            daily_ic_valid=self.daily_ic_valid,
            is_valid=self.is_valid,
            reason=self.reason,
        )


class AlphaEvaluator:
    """Executes and scores alpha programs on a :class:`TaskSet`.

    Parameters
    ----------
    taskset:
        The samples of all stock tasks.
    address_space:
        Operand address-space sizes (defaults to the paper's 10/16/4).
    seed:
        Seed of the evaluator's RNG (used only by stochastic initialiser
        operators such as ``vector_uniform``); fixing it makes evaluation
        deterministic.
    max_train_steps:
        Optional cap on the number of training days used during the (single
        epoch) training pass.  When set, training days are subsampled evenly.
        This mirrors the paper's "train by one epoch for fast evaluation" and
        lets the laptop-scale experiment configs trade accuracy for speed.
    use_update:
        When False the ``Update()`` component is skipped entirely — this is
        the ``*_P`` ablation of Table 4 (alpha without the parameter-updating
        function).
    evaluate_test:
        Whether :meth:`evaluate` also produces test-split predictions.
    engine:
        Execution-engine name from :data:`repro.engine.ENGINES`
        (``"interpreter"`` / ``"compiled"``, the default).  Results are
        bitwise identical either way.
    time_batched:
        Whether the engine layer may collapse eligible stages into one
        vectorised kernel call (fused inference, static-predict time
        batching).  On by default; results are bitwise identical with it
        off — the flag exists so benchmarks and the parity suite can A/B
        the fast paths.
    """

    def __init__(
        self,
        taskset: TaskSet,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
        seed: int | np.random.Generator | None = 0,
        max_train_steps: int | None = None,
        use_update: bool = True,
        evaluate_test: bool = True,
        engine: str | None = None,
        time_batched: bool = True,
    ) -> None:
        if taskset.num_features != taskset.window:
            raise ExecutionError(
                "the alpha language requires square feature matrices (f == w); "
                f"got f={taskset.num_features}, w={taskset.window}"
            )
        # Imported lazily: repro.engine builds on repro.core submodules.
        from ..engine import resolve_engine

        self.taskset = taskset
        self.address_space = address_space
        self._seed_rng = make_rng(seed)
        self._base_seed = int(self._seed_rng.integers(0, 2**63 - 1))
        self.max_train_steps = max_train_steps
        self.use_update = use_update
        self.evaluate_test = evaluate_test
        self.engine = resolve_engine(engine)
        self.time_batched = bool(time_batched)
        self._sector_index = taskset.taxonomy.group_index("sector")
        self._industry_index = taskset.taxonomy.group_index("industry")

    # ------------------------------------------------------------------
    @property
    def base_seed(self) -> int:
        """The derived seed all evaluation RNGs start from.

        Two evaluators with equal ``base_seed`` (and equal settings) produce
        bitwise-identical results; search checkpoints record it to detect a
        resume under a different evaluator.
        """
        return self._base_seed

    # ------------------------------------------------------------------
    def make_context(self) -> ExecutionContext:
        """A fresh :class:`ExecutionContext` for one program execution.

        :meth:`run` builds one per call; the engine layer
        (:class:`~repro.engine.fleet.FleetEngine`) and the streaming
        subsystem (:mod:`repro.stream`) build theirs through this same
        method, which is what keeps fleet evaluation and online serving
        bitwise identical to the offline batch path.
        """
        return ExecutionContext(
            num_tasks=self.taskset.num_tasks,
            num_features=self.taskset.num_features,
            window=self.taskset.window,
            sector_index=self._sector_index,
            industry_index=self._industry_index,
            rng=np.random.default_rng(self._base_seed),
            base_seed=self._base_seed,
        )

    def train_day_indices(self) -> np.ndarray:
        """The training-day subsample the (single-epoch) training pass visits.

        With ``max_train_steps`` unset this is every training day in order;
        otherwise the days are subsampled evenly.  Public because the engine
        and streaming layers must warm their executors over *exactly* this
        subsample to stay bitwise identical to the offline batch path.
        """
        train_days = self.taskset.split.train
        if self.max_train_steps is None or self.max_train_steps >= train_days:
            return np.arange(train_days)
        return np.linspace(0, train_days - 1, self.max_train_steps).astype(np.int64)

    # ------------------------------------------------------------------
    def make_backend(self, program: AlphaProgram):
        """A fresh one-lane execution backend for ``program`` under this
        evaluator."""
        # Imported lazily: repro.engine builds on repro.core submodules.
        from ..engine import make_backend

        return make_backend(
            program,
            self.make_context(),
            engine=self.engine,
            address_space=self.address_space,
        )

    def run(
        self,
        program: AlphaProgram,
        splits: tuple[str, ...] = ("valid", "test"),
        use_update: bool | None = None,
    ) -> dict[str, np.ndarray]:
        """Train the alpha and return its predictions on the requested splits.

        The training pass always runs (one epoch over the training days); the
        returned dictionary maps each requested split name to an array of
        shape ``(num_days_in_split, K)`` — the one lane of the backend's
        ``(num_days_in_split, 1, K)`` panel.  Execution is delegated to the
        single protocol implementation in :mod:`repro.engine.protocol`.
        """
        # Imported lazily: repro.engine builds on repro.core submodules.
        from ..engine import run_protocol

        use_update = self.use_update if use_update is None else use_update
        # Validation happens inside the backend constructor (every backend
        # validates against this evaluator's address space).
        panels = run_protocol(
            self.make_backend(program),
            self.taskset,
            splits=splits,
            day_indices=self.train_day_indices(),
            use_update=use_update,
            time_batched=self.time_batched,
        )
        return {split: panel[:, 0] for split, panel in panels.items()}

    # ------------------------------------------------------------------
    def score(
        self,
        program: AlphaProgram,
        predictions: dict[str, np.ndarray],
    ) -> EvaluationResult:
        """Turn a prediction panel into an :class:`EvaluationResult`.

        The scoring half of :meth:`evaluate`, split out so the fleet engine
        (:meth:`repro.engine.fleet.FleetEngine.evaluate`) can score
        predictions it produced over a shared data pass with exactly the
        evaluator's fitness semantics.
        """
        valid_preds = predictions["valid"]
        valid_labels = self.taskset.split_labels("valid")
        per_day_variance = valid_preds.std(axis=1)
        if not np.isfinite(valid_preds).all() or np.all(per_day_variance < 1e-12):
            return EvaluationResult(
                program=program,
                fitness=INVALID_FITNESS,
                ic_valid=float("nan"),
                ic_test=float("nan"),
                predictions=predictions,
                is_valid=False,
                reason="degenerate predictions on the validation split",
            )

        ic_series = daily_ic(valid_preds, valid_labels)
        ic_valid = float(ic_series.mean())
        ic_test = float("nan")
        if "test" in predictions:
            ic_test = mean_ic(predictions["test"], self.taskset.split_labels("test"))
        return EvaluationResult(
            program=program,
            fitness=ic_valid,
            ic_valid=ic_valid,
            ic_test=ic_test,
            predictions=predictions,
            daily_ic_valid=ic_series,
            is_valid=True,
        )

    def evaluate(
        self,
        program: AlphaProgram,
        use_update: bool | None = None,
    ) -> EvaluationResult:
        """Train and score ``program``; never raises on numerical failures.

        Structural failures (invalid operands, disallowed operators) do raise
        :class:`~repro.errors.ProgramError` because they indicate a bug in the
        caller (the mutator never produces them); numerical degeneracies such
        as constant predictions yield an invalid :class:`EvaluationResult`
        with the sentinel fitness instead.
        """
        splits: tuple[str, ...] = ("valid", "test") if self.evaluate_test else ("valid",)
        predictions = self.run(program, splits=splits, use_update=use_update)
        return self.score(program, predictions)
