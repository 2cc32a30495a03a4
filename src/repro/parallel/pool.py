"""Worker-pool evaluation of candidate alphas over zero-copy shared panels.

The paper's search is distributed: candidate alphas are scored on a fleet of
evaluation workers for 60-hour rounds.  :class:`EvaluationPool` reproduces
that shape on one machine with a :class:`concurrent.futures.ProcessPoolExecutor`
— around two structural moves that make the fan-out actually cheap:

* **Zero-copy shared panels.**  The task-set feature/label arrays are
  published once into a :class:`~repro.parallel.shm.SharedPanelStore`
  (``multiprocessing.shared_memory``); each worker's initializer attaches
  read-only NumPy views and rebuilds its :class:`~repro.data.dataset.TaskSet`
  around them.  Physical memory holds one copy of the panel however many
  workers (or executor restarts) the pool sees; for a window-view task set
  that copy is the panel rows the windows span, not the windows.  Each
  worker's task set gathers the bars its evaluations read once
  (:meth:`~repro.data.dataset.TaskSet.gather`), and the per-worker
  :class:`PoolSpec` shrinks to a handle plus scalars.  A content-signature
  echo in the store header guards against attaching to a stale store
  (:class:`~repro.errors.SharedPanelMismatchError`).
* **Stacked batch dispatch.**  ``evaluate_detailed`` partitions each batch
  by :func:`~repro.compile.stacked.stack_signature`
  (:func:`repro.engine.stack_partition`) before chunking, so a worker
  dispatch carries programs of **one** signature group and executes them as
  a single :class:`~repro.compile.stacked.StackedAlpha` tape
  (:func:`repro.engine.evaluate_program_batch`) — one batched kernel call
  per instruction per day instead of a per-candidate loop.  Per-candidate
  IPC is just the (tiny) :class:`~repro.core.program.AlphaProgram` payload
  out and a :class:`PoolEvaluation` back.

**Robustness.**  A worker that dies mid-batch (OOM-killed, segfault) breaks
the executor; the pool detects it, rebuilds the executor — workers re-attach
to the *same* shared store, so the restart ships no data — and requeues the
lost batches, each at most ``max_batch_retries`` times before a
:class:`~repro.errors.ParallelError` surfaces.  Evaluation is deterministic,
so a retried batch returns bitwise-identical results.  :meth:`close` (and
the context-manager exit) shuts the executor down and unlinks the shared
segment even when a batch raised; the store's own atexit/signal/crash
guards cover the paths that never reach ``close``.

**Lifetime.**  A pool outlives any one search: a
:class:`~repro.core.mining.MiningSession` builds one on its first pooled
search and every later search reuses it.  What differs between those
searches travels with each dispatch instead of with the pool: the
evaluator seed, and whether the workers also return validation
portfolio-return series (a search's first round runs without the
correlation cutoff, later rounds with it).

Determinism: every dispatch names the evaluator seed its programs are
scored under; a worker rebuilds its ``AlphaEvaluator`` whenever a batch
names a seed other than the last one, and evaluation derives its RNG from
that seed per call.  So a program's fitness report is bitwise identical no
matter which worker (or how many retries, or which earlier dispatches)
produced it — and identical to a serial ``AlphaEvaluator`` built from the
same seed.

Telemetry (behind :data:`repro.obs.TELEMETRY`): ``pool.shm_bytes`` (gauge,
bytes of shared panel currently published), ``pool.batches_retried`` and
``pool.worker_restarts`` (counters), next to the existing ``pool.batches`` /
``pool.programs`` / ``pool.dispatch_seconds``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as _signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..backtest.engine import BacktestEngine
from ..config import LONG_POSITIONS, SHORT_POSITIONS
from ..core.fitness import FitnessReport
from ..core.program import AlphaProgram
from ..data.dataset import TaskSet
from ..errors import ConfigurationError, ParallelError
from ..obs import TELEMETRY
from .shm import SharedPanelHandle, SharedPanelStore

__all__ = ["PoolSpec", "PoolEvaluation", "EvaluationPool", "PendingEvaluations"]


@dataclass(frozen=True)
class PoolSpec:
    """Everything a worker needs to rebuild the evaluation stack.

    Shipped to each worker once at executor (re)start.  The panel itself
    never rides in the spec: ``panel`` is a
    :class:`~repro.parallel.shm.SharedPanelHandle` the worker attaches to,
    and only the small sidecar metadata (dates, taxonomy, split, tickers)
    is pickled.
    """

    panel: SharedPanelHandle
    dates: np.ndarray
    taxonomy: object
    split: object
    tickers: tuple[str, ...]
    max_train_steps: int | None = None
    use_update: bool = True
    long_k: int = LONG_POSITIONS
    short_k: int = SHORT_POSITIONS
    #: Execution-engine name each worker's evaluator runs candidates on
    #: (see :data:`repro.engine.ENGINES`; bitwise identical across
    #: engines).
    engine: str = "compiled"


@dataclass
class PoolEvaluation:
    """One worker-evaluated candidate.

    ``valid_returns`` carries the validation long-short portfolio-return
    series when the dispatch asked for it (``valid_returns=True``) and the
    report is valid; the parent process needs it to apply the correlation
    cutoff without re-running the program.
    """

    report: FitnessReport
    valid_returns: np.ndarray | None = None


@dataclass
class _WorkBatch:
    """One worker dispatch: programs of a single stack-signature group,
    the evaluator seed they are scored under and whether their validation
    portfolio returns come back.

    ``fault`` is a test-only hook (``"sigkill"`` / ``"raise"``) injected by
    the fault tests; it is never set on a retry resubmission, so an
    injected crash exercises exactly one requeue.
    """

    programs: list[AlphaProgram]
    evaluator_seed: int
    valid_returns: bool = False
    fault: str | None = None


@dataclass
class _WorkerState:
    """Per-process evaluation stack, built once by the pool initializer;
    the evaluator follows the seed each batch names."""

    spec: PoolSpec
    taskset: TaskSet
    engine: BacktestEngine
    store: SharedPanelStore
    evaluator: object = None

    @classmethod
    def from_spec(cls, spec: PoolSpec) -> "_WorkerState":
        store = SharedPanelStore.attach(spec.panel)
        taskset = TaskSet(
            features=store.features,
            labels=store.labels,
            dates=spec.dates,
            taxonomy=spec.taxonomy,
            split=spec.split,
            tickers=spec.tickers,
        )
        engine = BacktestEngine(taskset, long_k=spec.long_k, short_k=spec.short_k)
        return cls(spec=spec, taskset=taskset, engine=engine, store=store)

    def evaluator_for(self, seed: int):
        """The worker's evaluator under ``seed``, rebuilt when it changes."""
        if self.evaluator is None or self.evaluator.seed != seed:
            # Imported lazily: repro.parallel sits below the engine layer,
            # and the interpreter facade imports the engine package itself.
            from ..core.interpreter import AlphaEvaluator

            spec = self.spec
            self.evaluator = AlphaEvaluator(
                self.taskset,
                seed=seed,
                max_train_steps=spec.max_train_steps,
                use_update=spec.use_update,
                engine=spec.engine,
            )
        return self.evaluator


_WORKER: _WorkerState | None = None


def _init_worker(spec: PoolSpec) -> None:
    """Executor initializer: attach the shared panel, build the stack."""
    global _WORKER
    _WORKER = _WorkerState.from_spec(spec)


def _evaluate_batch(batch: _WorkBatch) -> list[PoolEvaluation]:
    """Evaluate one signature-grouped batch inside a worker process.

    The whole batch runs as one fleet over the worker's shared-view task
    set — a single :class:`~repro.compile.stacked.StackedAlpha` tape when
    the programs stack — via :func:`repro.engine.evaluate_program_batch`,
    the same entry point the serial scorer evaluates through.
    """
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always runs first
        raise ParallelError("evaluation worker was not initialised")
    if batch.fault == "sigkill":  # pragma: no cover - kills this process
        os.kill(os.getpid(), _signal.SIGKILL)
    if batch.fault == "raise":
        raise ParallelError("injected worker fault (test hook)")
    # Imported lazily: repro.engine builds on repro.core submodules.
    from ..engine import evaluate_program_batch

    results = evaluate_program_batch(
        state.evaluator_for(batch.evaluator_seed), batch.programs
    )
    evaluations: list[PoolEvaluation] = []
    for result in results:
        valid_returns = None
        if batch.valid_returns and result.is_valid:
            valid_returns = state.engine.portfolio_returns(
                result.predictions["valid"], split="valid"
            )
        evaluations.append(PoolEvaluation(report=result.report,
                                          valid_returns=valid_returns))
    return evaluations


def _pool_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Pick the multiprocessing context; prefer ``fork`` for instant startup."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


@dataclass
class _Chunk:
    """One in-flight dispatch unit and where its results land."""

    indices: list[int]
    batch: _WorkBatch
    retries: int = 0
    future: object = None
    evaluations: list[PoolEvaluation] | None = None


class PendingEvaluations:
    """A dispatched batch whose results are collected on :meth:`result`.

    Returned by :meth:`EvaluationPool.submit_detailed`.  The split is the
    pool's dispatch/wait boundary: :meth:`EvaluationPool.evaluate_detailed`
    submits, then waits here at once.
    """

    def __init__(self, pool: "EvaluationPool", chunks: list[_Chunk],
                 num_programs: int, started: float) -> None:
        self._pool = pool
        self._chunks = chunks
        self._num_programs = num_programs
        self._started = started
        self._evaluations: list[PoolEvaluation] | None = None

    def result(self) -> list[PoolEvaluation]:
        """Block until every chunk finished (retrying lost batches)."""
        if self._evaluations is None:
            self._evaluations = self._pool._collect(
                self._chunks, self._num_programs, self._started
            )
        return self._evaluations


class EvaluationPool:
    """Fans candidate-alpha evaluation out to ``num_workers`` processes.

    Parameters
    ----------
    taskset:
        The task set candidates are evaluated on; its feature/label panel
        is published to shared memory once, here.
    num_workers:
        Number of worker processes; defaults to the machine's CPU count.
    max_train_steps / use_update:
        Forwarded to each worker's :class:`AlphaEvaluator`; use the same
        values as the serial evaluator to get bitwise-identical reports.
        The evaluator seed is not a pool setting: every dispatch names it
        (``evaluator_seed=``), so one pool serves searches under any seeds.
    long_k / short_k:
        Position counts of the validation long-short portfolio whose
        return series a dispatch with ``valid_returns=True`` gets back for
        every valid candidate (needed by the correlation cutoff).
    engine:
        Execution-engine name the workers run candidates on (see
        :data:`repro.engine.ENGINES`); bitwise identical across engines.
    batch_size:
        Programs per worker dispatch.  Batching amortises the per-task
        overhead and widens the stacked tapes; results always come back in
        input order.
    max_batch_retries:
        How many times a batch lost to a worker crash is requeued before
        the pool gives up with a :class:`~repro.errors.ParallelError`.
    start_method:
        Optional multiprocessing start method override (default: ``fork``
        where available, the platform default elsewhere).

    The pool is a context manager; :meth:`close` shuts the workers down and
    unlinks the shared panel — even when a batch raised inside the block.
    """

    def __init__(
        self,
        taskset: TaskSet,
        num_workers: int | None = None,
        *,
        max_train_steps: int | None = None,
        use_update: bool = True,
        long_k: int = LONG_POSITIONS,
        short_k: int = SHORT_POSITIONS,
        engine: str | None = None,
        batch_size: int = 8,
        max_batch_retries: int = 2,
        start_method: str | None = None,
    ) -> None:
        # Imported lazily: repro.parallel sits below the engine layer.
        from ..engine import resolve_engine

        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if max_batch_retries < 0:
            raise ConfigurationError("max_batch_retries cannot be negative")
        self._mp_context = _pool_context(start_method)
        self._store = SharedPanelStore.publish(taskset.features, taskset.labels)
        self.spec = PoolSpec(
            panel=self._store.handle,
            dates=taskset.dates,
            taxonomy=taskset.taxonomy,
            split=taskset.split,
            tickers=taskset.tickers,
            max_train_steps=max_train_steps,
            use_update=use_update,
            long_k=long_k,
            short_k=short_k,
            engine=resolve_engine(engine),
        )
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.max_batch_retries = max_batch_retries
        #: Lost batches requeued after worker crashes (lifetime total).
        self.batches_retried = 0
        #: Executor rebuilds forced by worker crashes (lifetime total).
        self.worker_restarts = 0
        #: Test-only fault hook: set to ``"sigkill"`` or ``"raise"`` to
        #: inject the fault into the first chunk of the next dispatch.
        self._inject_fault_once: str | None = None
        self._executor = self._make_executor()
        self._closed = False
        if TELEMETRY.enabled:
            TELEMETRY.gauge("pool.shm_bytes").set(self._store.nbytes)

    # ------------------------------------------------------------------
    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=self._mp_context,
            initializer=_init_worker,
            initargs=(self.spec,),
        )

    # ------------------------------------------------------------------
    @property
    def shm_bytes(self) -> int:
        """Bytes of shared panel this pool published."""
        return self._store.nbytes

    @property
    def panel_signature(self) -> str:
        """Content signature of the published panel (the attach guard)."""
        return self._store.handle.signature

    # ------------------------------------------------------------------
    # Dispatch / collect
    # ------------------------------------------------------------------
    def _plan_chunks(self, programs: list[AlphaProgram], evaluator_seed: int,
                     valid_returns: bool) -> list[_Chunk]:
        """Cut ``programs`` into signature-grouped, size-bounded chunks.

        Grouping first (by stacked-tape signature) makes every chunk a
        single stacked execution worker-side; the chunk size is additionally
        capped so a small batch (e.g. one proposal per island) still
        spreads across all workers.  With chunks of one program the
        grouping cannot matter, so the parent skips the compile it needs.
        """
        # Imported lazily: repro.engine builds on repro.core submodules.
        from ..engine import stack_partition

        chunk_size = min(
            self.batch_size,
            max(1, (len(programs) + self.num_workers - 1) // self.num_workers),
        )
        if chunk_size == 1:
            groups = [list(range(len(programs)))]
        else:
            groups = stack_partition(programs, engine=self.spec.engine)
        chunks: list[_Chunk] = []
        for group in groups:
            for start in range(0, len(group), chunk_size):
                indices = group[start:start + chunk_size]
                chunks.append(_Chunk(indices=indices, batch=_WorkBatch(
                    programs=[programs[i] for i in indices],
                    evaluator_seed=evaluator_seed,
                    valid_returns=valid_returns,
                )))
        return chunks

    def submit_detailed(self, programs: list[AlphaProgram], *,
                        evaluator_seed: int,
                        valid_returns: bool = False) -> PendingEvaluations:
        """Dispatch ``programs`` to the workers without blocking.

        The workers score them under an evaluator built from
        ``evaluator_seed`` (the integer seed a serial ``AlphaEvaluator``
        would be built with) and, with ``valid_returns=True``, also return
        each valid program's validation portfolio-return series.  Returns a
        :class:`PendingEvaluations` whose ``result()`` yields the
        evaluations in input order.
        """
        if self._closed:
            raise ParallelError("the evaluation pool has been closed")
        if not isinstance(evaluator_seed, (int, np.integer)):
            raise ConfigurationError(
                "a pool dispatch needs the integer seed its evaluator is "
                f"rebuilt from, got {evaluator_seed!r}"
            )
        programs = list(programs)
        started = time.perf_counter() if TELEMETRY.enabled else 0.0
        chunks = self._plan_chunks(programs, int(evaluator_seed), valid_returns)
        if chunks and self._inject_fault_once is not None:
            chunks[0].batch.fault = self._inject_fault_once
            self._inject_fault_once = None
        for chunk in chunks:
            self._submit(chunk)
        return PendingEvaluations(self, chunks, len(programs), started)

    def _submit(self, chunk: _Chunk) -> None:
        """Submit one chunk; a broken executor leaves it for the retry path.

        A crashing worker can break the executor *while* a batch is still
        being submitted, so even first submission must tolerate
        ``BrokenExecutor`` — the chunk is left future-less and
        :meth:`_collect` requeues it like any other lost chunk.
        """
        try:
            chunk.future = self._executor.submit(_evaluate_batch, chunk.batch)
        except BrokenExecutor:
            chunk.future = None

    def _collect(self, chunks: list[_Chunk], num_programs: int,
                 started: float) -> list[PoolEvaluation]:
        """Gather chunk results, rebuilding the executor after crashes."""
        with TELEMETRY.span(
            "pool.dispatch", programs=num_programs, chunks=len(chunks)
        ):
            while True:
                lost = [chunk for chunk in chunks if chunk.evaluations is None]
                if not lost:
                    break
                broken = False
                for chunk in lost:
                    if chunk.future is None:
                        broken = True
                        break
                    try:
                        chunk.evaluations = chunk.future.result()
                    except BrokenExecutor:
                        broken = True
                        break
                if broken:
                    self._requeue_lost(chunks)
        evaluations: list[PoolEvaluation] = [None] * num_programs
        for chunk in chunks:
            for index, evaluation in zip(chunk.indices, chunk.evaluations):
                evaluations[index] = evaluation
        if TELEMETRY.enabled:
            TELEMETRY.counter("pool.batches").inc(len(chunks))
            TELEMETRY.counter("pool.programs").inc(num_programs)
            TELEMETRY.histogram("pool.dispatch_seconds").observe(
                time.perf_counter() - started
            )
        return evaluations

    def _requeue_lost(self, chunks: list[_Chunk]) -> None:
        """A worker died mid-batch: rebuild the executor, requeue the rest.

        The replacement workers attach to the same shared panel store, so
        the restart ships zero panel bytes.  Each lost chunk may be
        requeued at most ``max_batch_retries`` times; evaluation is
        deterministic, so retried chunks return bitwise-identical results.
        """
        if self._closed:  # pragma: no cover - close() raced a crash
            raise ParallelError("the evaluation pool has been closed")
        lost = [chunk for chunk in chunks if chunk.evaluations is None]
        for chunk in lost:
            chunk.retries += 1
            if chunk.retries > self.max_batch_retries:
                raise ParallelError(
                    f"a worker batch of {len(chunk.batch.programs)} program(s) "
                    f"crashed the pool {chunk.retries} times "
                    f"(max_batch_retries={self.max_batch_retries}); "
                    "giving up"
                )
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._make_executor()
        self.worker_restarts += 1
        self.batches_retried += len(lost)
        if TELEMETRY.enabled:
            TELEMETRY.counter("pool.worker_restarts").inc()
            TELEMETRY.counter("pool.batches_retried").inc(len(lost))
        for chunk in lost:
            # Injected faults are not re-armed: the retry must succeed.
            chunk.batch.fault = None
            self._submit(chunk)

    # ------------------------------------------------------------------
    def evaluate_detailed(self, programs: list[AlphaProgram], *,
                          evaluator_seed: int,
                          valid_returns: bool = False) -> list[PoolEvaluation]:
        """Evaluate ``programs`` across the workers, preserving input order
        (the arguments are :meth:`submit_detailed`'s)."""
        programs = list(programs)
        if not programs:
            if self._closed:
                raise ParallelError("the evaluation pool has been closed")
            return []
        return self.submit_detailed(
            programs, evaluator_seed=evaluator_seed, valid_returns=valid_returns
        ).result()

    def evaluate(self, programs: list[AlphaProgram], *,
                 evaluator_seed: int) -> list[FitnessReport]:
        """Evaluate ``programs`` under ``evaluator_seed`` and return just
        their fitness reports."""
        return [
            evaluation.report
            for evaluation in self.evaluate_detailed(
                programs, evaluator_seed=evaluator_seed
            )
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and unlink the shared panel (idempotent).

        The unlink runs even when the executor shutdown fails — losing a
        worker must never leak a ``/dev/shm`` segment.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._executor.shutdown(wait=True)
        finally:
            self._store.close()
            if TELEMETRY.enabled:
                TELEMETRY.gauge("pool.shm_bytes").set(0)

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
