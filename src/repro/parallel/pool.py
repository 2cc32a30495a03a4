"""Worker-pool execution over zero-copy shared panels.

The paper's search is distributed: candidate alphas are scored on a fleet of
evaluation workers for 60-hour rounds.  :class:`EvaluationPool` reproduces
that shape on one machine with a :class:`concurrent.futures.ProcessPoolExecutor`.
The pool is a transport: it holds the published panel and the workers, and
every dispatch names the evaluator (and backtest engine) its work runs
under.

* **Zero-copy shared panels.**  The task-set feature/label arrays are
  published once into a :class:`~repro.parallel.shm.SharedPanelStore`
  (``multiprocessing.shared_memory``); each worker's initializer attaches
  read-only NumPy views and rebuilds its :class:`~repro.data.dataset.TaskSet`
  around them.  Physical memory holds one copy of the panel however many
  workers (or executor restarts) the pool sees; for a window-view task set
  that copy is the panel rows the windows span, not the windows.  Each
  worker's task set gathers the bars its evaluations read once
  (:meth:`~repro.data.dataset.TaskSet.gather`), and the per-worker
  :class:`PoolSpec` is the panel handle plus the task set's sidecar.  A
  content-signature echo in the store header guards against attaching to
  a stale store (:class:`~repro.errors.SharedPanelMismatchError`).
* **Jobs.**  :meth:`EvaluationPool.submit_detailed` dispatches a list of
  jobs, one future each; a worker runs a job as ``job.run(evaluator,
  backtest_engine)`` under its own copies of the dispatch's evaluator and
  engine.  A pooled search dispatches one
  :class:`~repro.parallel.islands.Segment` per island at each barrier: a
  worker advances the island itself, from tournament to cutoff, and the
  parent compiles nothing.  :meth:`EvaluationPool.evaluate_detailed` is the
  program-batch unit: it cuts a list of programs into at most
  ``num_workers`` contiguous chunks, each scored by
  :func:`repro.core.evolution.evaluate_misses`, the miss evaluation every
  scorer runs.

**Robustness.**  A worker that dies mid-job (OOM-killed, segfault) breaks
the executor; the pool detects it, rebuilds the executor — workers re-attach
to the *same* shared store, so the restart ships no data — and requeues the
lost jobs, each at most ``max_batch_retries`` times before a
:class:`~repro.errors.ParallelError` surfaces.  A job carries every input
it reads (a segment ships its island's state), and evaluation is
deterministic, so a retried job returns a bitwise-identical result.
:meth:`close` (and the context-manager exit) shuts the executor down and
unlinks the shared segment even when a job raised; the store's own
atexit/signal/crash guards cover the paths that never reach ``close``.

**Lifetime.**  A pool outlives any one search: a
:class:`~repro.core.mining.MiningSession` builds one on its first pooled
search and every later search reuses it, whatever its seed, engine or
cutoff, until a search asks for another worker count.  Everything that
differs between those searches travels with each dispatch.

**Determinism.**  A dispatch ships its evaluator's constructor arguments
(:attr:`~repro.core.interpreter.AlphaEvaluator.settings`) and, when it
names a backtest engine, that engine's book sizes.  A worker rebuilds its
evaluator whenever a dispatch names other settings, and its backtest engine
whenever a dispatch names other books; evaluation derives its RNG from the
evaluator's seed per call.  So a program's fitness report is bitwise
identical no matter which worker (or how many retries, or which earlier
dispatches) produced it — and identical to the dispatching evaluator's own.
A dispatch whose evaluator or backtest engine is over another task set,
or whose evaluator was built from a generator seed, raises
:class:`~repro.errors.ConfigurationError`.

Telemetry (behind :data:`repro.obs.TELEMETRY`): ``pool.shm_bytes`` (gauge,
bytes of shared panel currently published), ``pool.batches_retried`` and
``pool.worker_restarts`` (counters), next to ``pool.batches`` (jobs) /
``pool.programs`` (programs of program-batch dispatches) /
``pool.dispatch_seconds``.
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
from ..core.evolution import evaluate_misses
from ..core.fitness import FitnessReport
from ..core.interpreter import AlphaEvaluator
from ..core.program import AlphaProgram
from ..data.dataset import TaskSet
from ..errors import ConfigurationError, ParallelError
from ..obs import TELEMETRY
from .shm import SharedPanelHandle, SharedPanelStore

__all__ = ["PoolSpec", "PoolEvaluation", "EvaluationPool", "PendingEvaluations"]


@dataclass(frozen=True)
class PoolSpec:
    """What a worker needs to rebuild the pool's task set.

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


@dataclass
class PoolEvaluation:
    """One worker-evaluated candidate.

    ``valid_returns`` carries the validation long-short portfolio-return
    series when the dispatch named a backtest engine and the report is
    valid; the parent process needs it to apply the correlation cutoff
    without re-running the program.
    """

    report: FitnessReport
    valid_returns: np.ndarray | None = None


@dataclass
class _ProgramChunk:
    """A job of a program-batch dispatch: a contiguous chunk of it."""

    programs: list[AlphaProgram]

    def run(self, evaluator: AlphaEvaluator,
            backtest_engine: BacktestEngine | None) -> list[PoolEvaluation]:
        return [PoolEvaluation(report=report, valid_returns=valid_returns)
                for report, valid_returns in evaluate_misses(
                    evaluator, self.programs, backtest_engine)]


@dataclass
class _WorkerState:
    """Per-process evaluation stack, built once by the pool initializer;
    the evaluator and backtest engine follow what each dispatch names."""

    taskset: TaskSet
    store: SharedPanelStore
    evaluator: AlphaEvaluator | None = None
    engine: BacktestEngine | None = None

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
        return cls(taskset=taskset, store=store)

    def evaluator_for(self, settings: dict) -> AlphaEvaluator:
        """The worker's evaluator under ``settings``, rebuilt when they
        change."""
        if self.evaluator is None or self.evaluator.settings != settings:
            self.evaluator = AlphaEvaluator(self.taskset, **settings)
        return self.evaluator

    def engine_for(self, books: tuple[int, int] | None) -> BacktestEngine | None:
        """The worker's backtest engine with ``books`` (``None`` for no
        engine), rebuilt when they change."""
        if books is None:
            return None
        if self.engine is None or _books(self.engine) != books:
            self.engine = BacktestEngine(self.taskset, *books)
        return self.engine


_WORKER: _WorkerState | None = None


def _books(engine: BacktestEngine) -> tuple[int, int]:
    """The (long, short) book sizes of ``engine``'s portfolio."""
    return engine.portfolio.long_k, engine.portfolio.short_k


def _init_worker(spec: PoolSpec) -> None:
    """Executor initializer: attach the shared panel, build the stack."""
    global _WORKER
    _WORKER = _WorkerState.from_spec(spec)


def _run_job(job, settings: dict, books: tuple[int, int] | None,
             fault: str | None):
    """Run one job inside a worker process.

    ``fault`` is a test-only hook set by the fault tests and never on a
    retry: ``"raise"`` fails the job before it runs, ``"sigkill"`` kills
    the worker after the job ran but before its result is returned.
    """
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always runs first
        raise ParallelError("evaluation worker was not initialised")
    if fault == "raise":
        raise ParallelError("injected worker fault (test hook)")
    result = job.run(state.evaluator_for(settings), state.engine_for(books))
    if fault == "sigkill":  # pragma: no cover - kills this process
        os.kill(os.getpid(), _signal.SIGKILL)
    return result


def _pool_context(start_method: str | None) -> multiprocessing.context.BaseContext:
    """Pick the multiprocessing context; prefer ``fork`` for instant startup."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


@dataclass
class _Job:
    """One in-flight job of a dispatch and its result."""

    work: object
    settings: dict
    books: tuple[int, int] | None
    retries: int = 0
    fault: str | None = None
    future: object = None
    done: bool = False
    result: object = None


class PendingEvaluations:
    """A dispatch whose job results are collected on :meth:`result`.

    Returned by :meth:`EvaluationPool.submit_detailed`.  The split is the
    pool's dispatch/wait boundary: a pooled search submits its segments at
    a barrier, then waits here.
    """

    def __init__(self, pool: "EvaluationPool", jobs: list[_Job],
                 started: float) -> None:
        self._pool = pool
        self._jobs = jobs
        self._started = started
        self._results: list | None = None

    def result(self) -> list:
        """Block until every job finished (retrying lost jobs); the job
        results in dispatch order."""
        if self._results is None:
            self._results = self._pool._collect(self._jobs, self._started)
        return self._results


class EvaluationPool:
    """Runs search segments and program batches on ``num_workers`` processes.

    Parameters
    ----------
    taskset:
        The task set candidates are evaluated on; its feature/label panel
        is published to shared memory once, here.  Every dispatch's
        evaluator (and backtest engine) must be over this task set.
    num_workers:
        Number of worker processes; defaults to the machine's CPU count.
        A program batch is cut into at most this many chunks.
    max_batch_retries:
        How many times a job lost to a worker crash is requeued before
        the pool gives up with a :class:`~repro.errors.ParallelError`.
    start_method:
        Optional multiprocessing start method override (default: ``fork``
        where available, the platform default elsewhere).

    The pool holds no evaluation settings: every dispatch names the
    :class:`~repro.core.interpreter.AlphaEvaluator` its work runs under, so
    its reports equal that evaluator's bit for bit.  The pool is a context
    manager; :meth:`close` shuts the workers down and unlinks the shared
    panel — even when a job raised inside the block.
    """

    def __init__(
        self,
        taskset: TaskSet,
        num_workers: int | None = None,
        *,
        max_batch_retries: int = 2,
        start_method: str | None = None,
    ) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ConfigurationError("num_workers must be at least 1")
        if max_batch_retries < 0:
            raise ConfigurationError("max_batch_retries cannot be negative")
        self._mp_context = _pool_context(start_method)
        self._store = SharedPanelStore.publish(taskset.features, taskset.labels)
        self.taskset = taskset
        self.spec = PoolSpec(
            panel=self._store.handle,
            dates=taskset.dates,
            taxonomy=taskset.taxonomy,
            split=taskset.split,
            tickers=taskset.tickers,
        )
        self.num_workers = num_workers
        self.max_batch_retries = max_batch_retries
        #: Lost jobs requeued after worker crashes (lifetime total).
        self.batches_retried = 0
        #: Executor rebuilds forced by worker crashes (lifetime total).
        self.worker_restarts = 0
        #: Test-only fault hook: set to ``"sigkill"`` or ``"raise"`` to
        #: inject the fault into the first job of the next dispatch.
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
    def _over_taskset(self, what: str, owner) -> None:
        """Refuse a dispatch whose ``owner`` reads another task set."""
        if owner.taskset is not self.taskset:
            raise ConfigurationError(
                f"a pool dispatch's {what} must be over the task set the "
                "pool published, not another one"
            )

    def submit_detailed(self, jobs: list, *, evaluator: AlphaEvaluator,
                        backtest_engine: BacktestEngine | None = None,
                        ) -> PendingEvaluations:
        """Dispatch ``jobs`` to the workers without blocking.

        Each job runs on one worker as ``job.run(evaluator,
        backtest_engine)``, under an evaluator rebuilt from ``evaluator``'s
        settings and, given a ``backtest_engine``, an engine with its
        books.  Both must be over the pool's task set, and ``evaluator``
        must be built from an integer seed.  Returns a
        :class:`PendingEvaluations` whose ``result()`` yields the job
        results in input order.
        """
        if self._closed:
            raise ParallelError("the evaluation pool has been closed")
        self._over_taskset("evaluator", evaluator)
        settings = evaluator.settings
        if settings["seed"] is None:
            raise ConfigurationError(
                "a pool dispatch needs an evaluator built from an integer "
                "seed: the workers rebuild it from that seed, and a "
                "generator or fresh entropy cannot be rebuilt"
            )
        books = None
        if backtest_engine is not None:
            self._over_taskset("backtest engine", backtest_engine)
            books = _books(backtest_engine)
        started = time.perf_counter() if TELEMETRY.enabled else 0.0
        pending = [_Job(work=work, settings=settings, books=books) for work in jobs]
        if pending and self._inject_fault_once is not None:
            pending[0].fault = self._inject_fault_once
            self._inject_fault_once = None
        for job in pending:
            self._submit(job)
        return PendingEvaluations(self, pending, started)

    def _submit(self, job: _Job) -> None:
        """Submit one job; a broken executor leaves it for the retry path.

        A crashing worker can break the executor *while* a dispatch is
        still being submitted, so even first submission must tolerate
        ``BrokenExecutor`` — the job is left future-less and
        :meth:`_collect` requeues it like any other lost job.
        """
        try:
            job.future = self._executor.submit(
                _run_job, job.work, job.settings, job.books, job.fault)
        except BrokenExecutor:
            job.future = None

    def _collect(self, jobs: list[_Job], started: float) -> list:
        """Gather job results, rebuilding the executor after crashes."""
        with TELEMETRY.span("pool.dispatch", jobs=len(jobs)):
            while True:
                lost = [job for job in jobs if not job.done]
                if not lost:
                    break
                broken = False
                for job in lost:
                    if job.future is None:
                        broken = True
                        break
                    try:
                        job.result = job.future.result()
                    except BrokenExecutor:
                        broken = True
                        break
                    job.done = True
                if broken:
                    self._requeue_lost(jobs)
        if TELEMETRY.enabled:
            TELEMETRY.counter("pool.batches").inc(len(jobs))
            TELEMETRY.histogram("pool.dispatch_seconds").observe(
                time.perf_counter() - started
            )
        return [job.result for job in jobs]

    def _requeue_lost(self, jobs: list[_Job]) -> None:
        """A worker died mid-job: rebuild the executor, requeue the rest.

        The replacement workers attach to the same shared panel store, so
        the restart ships zero panel bytes.  Each lost job may be requeued
        at most ``max_batch_retries`` times; a job carries all its inputs
        and evaluation is deterministic, so retried jobs return
        bitwise-identical results.
        """
        if self._closed:  # pragma: no cover - close() raced a crash
            raise ParallelError("the evaluation pool has been closed")
        lost = [job for job in jobs if not job.done]
        for job in lost:
            job.retries += 1
            if job.retries > self.max_batch_retries:
                raise ParallelError(
                    f"a worker job ({type(job.work).__name__}) crashed the "
                    f"pool {job.retries} times "
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
        for job in lost:
            # Injected faults are not re-armed: the retry must succeed.
            job.fault = None
            self._submit(job)

    # ------------------------------------------------------------------
    def evaluate_detailed(self, programs: list[AlphaProgram], *,
                          evaluator: AlphaEvaluator,
                          backtest_engine: BacktestEngine | None = None,
                          ) -> list[PoolEvaluation]:
        """Evaluate ``programs`` across the workers, preserving input order.

        The programs are cut into at most ``num_workers`` contiguous
        chunks, one job each; a worker returns each valid program's
        validation portfolio-return series when ``backtest_engine`` is
        given (the arguments are :meth:`submit_detailed`'s).
        """
        programs = list(programs)
        count = min(len(programs), self.num_workers)
        chunks = [
            _ProgramChunk(programs[len(programs) * index // count:
                                   len(programs) * (index + 1) // count])
            for index in range(count)
        ]
        results = self.submit_detailed(
            chunks, evaluator=evaluator, backtest_engine=backtest_engine
        ).result()
        if TELEMETRY.enabled:
            TELEMETRY.counter("pool.programs").inc(len(programs))
        return [evaluation for chunk in results for evaluation in chunk]

    def evaluate(self, programs: list[AlphaProgram], *,
                 evaluator: AlphaEvaluator) -> list[FitnessReport]:
        """Evaluate ``programs`` under ``evaluator`` and return just their
        fitness reports."""
        return [
            evaluation.report
            for evaluation in self.evaluate_detailed(programs, evaluator=evaluator)
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
