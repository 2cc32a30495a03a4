"""Fleet execution: N programs, one shared context, one data pass.

Two workloads in this repository evaluate *many* programs against the same
task set — the search scoring candidate batches, and the server fanning an
arriving bar across its registered alphas.  Both used to own their fan-out;
:class:`FleetEngine` is the one engine-layer implementation they now share:

* **deduplication by tape key** — members are fingerprinted on their
  pruned program's tape IR (the same prune →
  :func:`repro.core.cache.fingerprint` flow the search cache uses), so
  programs that run the same tape — renamed registers, duplicated
  subexpressions, arithmetic on zero-initialised memory — share one
  backend and are executed once, however many names point at them (equal
  keys run the same tape, so they predict bit for bit alike);
* **one shared** :class:`~repro.core.ops.ExecutionContext` — contexts are
  read-only during execution (initialiser operators derive their RNGs from
  their own parameters), so the whole fleet binds to a single context
  object instead of building one per program;
* **one shared data pass** — the training-day subsample is resolved once
  per fleet call, every group reads the task set's gathered bars
  (:meth:`~repro.data.dataset.TaskSet.gather`, copied once per task set,
  not once per program), and every member runs under the single
  protocol implementation of :mod:`repro.engine.protocol` (including its
  static-predict time-batched fast path);
* **cross-program mega-batching** — after dedup, the surviving unique
  programs are grouped by :func:`~repro.compile.stacked.stack_signature`
  (same opcode sequence and SSA wiring; parameter values free to differ)
  and every group executes as **one**
  :class:`~repro.compile.stacked.StackedAlpha` tape with one lane per
  program — one batched ``(P, T, K, ...)`` kernel call per instruction
  offline, one ``(P, K, ...)`` call per bar online, instead of P separate
  tape walks.  A group of one is the one-lane tape every single program
  runs on.  Mining fleets are near-duplicate-heavy by construction, so
  most of a candidate generation lands in a few groups.  Under the
  interpreter every key is its own one-lane group.

Offline, :meth:`run` / :meth:`evaluate` replace looping a fresh
:class:`~repro.core.interpreter.AlphaEvaluator` over the programs; online,
:meth:`warm_start` / :meth:`step_bar` / :meth:`reveal` back
:class:`repro.stream.server.AlphaServer`, with one
:class:`~repro.engine.incremental.IncrementalExecutor` per group.  Either
way every backend reports ``(P, K)`` lanes, which the fleet scatters to
its member keys.  Results are bitwise identical to the per-program paths
in both modes (a tested contract — stacked kernel calls are restricted to
the same elementwise-exact kernel registry the fused day path trusts).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..compile import StackedAlpha, compile_program, stack_signature
from ..core.cache import fingerprint
from ..core.program import AlphaProgram
from ..core.pruning import prune_program
from ..errors import StreamError
from ..obs import TELEMETRY
from .backends import make_backend
from .incremental import IncrementalExecutor
from .protocol import run_protocol
# Not called here: kept so the outside-in tracer of perfbench/tracing.py,
# which wraps this module's ``training_pass``, still resolves it.
from .protocol import training_pass
from .replay import CorrectionResult

__all__ = [
    "FleetMember",
    "FleetEngine",
    "evaluate_program_batch",
    "stack_partition",
    "training_pass",
]


# ----------------------------------------------------------------------
# Signature grouping and the batch entry point
# ----------------------------------------------------------------------
def stack_partition(compiled) -> list[list[int]]:
    """Partition compiled programs into stack-signature groups of indices.

    Programs whose tapes share a
    :func:`~repro.compile.stacked.stack_signature` land in one group
    (groups and their members in first-appearance order), and each group
    executes as **one** :class:`~repro.compile.stacked.StackedAlpha` tape
    instead of a per-program loop.  This is the grouping every fleet runs,
    so a worker's chunk of a pool dispatch stacks exactly as a serial
    batch of the same programs does.
    """
    compiled = list(compiled)
    if len(compiled) < 2:
        return [[index] for index in range(len(compiled))]
    groups: dict[str, list[int]] = {}
    for index, artefact in enumerate(compiled):
        groups.setdefault(stack_signature(artefact), []).append(index)
    return list(groups.values())


def evaluate_program_batch(evaluator, programs):
    """Evaluate ``programs`` as one fleet over a shared context/data pass.

    Returns one :class:`~repro.core.interpreter.EvaluationResult` per
    program, in input order.  Deduplication stays off — the caller (the
    search's :func:`~repro.core.evolution.evaluate_misses`, in-process or
    on a pool worker) already decided which programs to run — while each
    signature group executes as a single tape.
    """
    fleet = FleetEngine(evaluator, dedup=False)
    for index, program in enumerate(programs):
        fleet.add(program, name=f"batch-{index}")
    results = fleet.evaluate()
    return [results[f"batch-{index}"] for index in range(len(programs))]


@dataclass(frozen=True)
class FleetMember:
    """One registered fleet name and where its predictions come from."""

    name: str
    #: Fingerprint (tape key) of the pruned program — or a positional
    #: key when the fleet was built with ``dedup=False``.
    key: str
    #: Whether this name shares a previously added member's backend.
    deduplicated: bool
    #: Whether pruning proved the prediction independent of the input
    #: matrix (the member still executes, but a constant is all it can
    #: emit).
    redundant: bool


class FleetEngine:
    """Executes a fleet of programs over one shared context and data pass.

    Parameters
    ----------
    evaluator:
        The paired :class:`~repro.core.interpreter.AlphaEvaluator` and the
        one owner of the fleet's evaluation settings: the task set, the
        execution contexts, the engine, the training-day subsample,
        ``use_update``, ``time_batched`` and the scoring all come from it,
        which is what keeps fleet results bitwise identical to
        per-program evaluation.
    dedup:
        Whether members are fingerprinted and deduplicated.
        The scorer disables this: its cache layer already decides which
        candidates share an evaluation, and the pruning-disabled ablation
        must not dedup behind its back.
    """

    def __init__(self, evaluator, dedup: bool = True) -> None:
        self.evaluator = evaluator
        self.dedup = bool(dedup)
        self.members: list[FleetMember] = []
        self._by_name: dict[str, str] = {}
        #: name → the program registered under that name (deduplicated
        #: names *execute* through the representative's backend, but keep
        #: their own program for result attribution).
        self._program_by_name: dict[str, AlphaProgram] = {}
        #: key → representative program, in registration order.
        self._programs: dict[str, AlphaProgram] = {}
        #: Serving units: a group's keys (one per lane) and its executor,
        #: built lazily on warm_start/resume.
        self._units: list[tuple[list[str], IncrementalExecutor]] = []
        #: key → the executor serving it (shared by a group's keys).
        self._executors: dict[str, IncrementalExecutor] = {}
        self._ctx = None
        self._warmed = False
        self._stack_group_count: int | None = None
        self._reported_kernel_calls = 0

    # ------------------------------------------------------------------
    @property
    def taskset(self):
        """The task set the fleet executes against."""
        return self.evaluator.taskset

    @property
    def num_members(self) -> int:
        """Number of registered member names."""
        return len(self.members)

    @property
    def num_unique(self) -> int:
        """Number of distinct programs (lanes) behind those names."""
        return len(self._programs)

    @property
    def names(self) -> list[str]:
        """Member names, in registration order."""
        return [member.name for member in self.members]

    @property
    def is_warm(self) -> bool:
        """Whether the fleet has been warm-started (or resumed)."""
        return self._warmed

    @property
    def executors(self) -> dict[str, IncrementalExecutor]:
        """key → the :class:`~repro.engine.incremental.IncrementalExecutor`
        serving it (the keys of one signature group share one).

        Empty until :meth:`warm_start` or :meth:`resume_tapes` builds the
        backends — reading this never triggers compilation as a side
        effect.
        """
        return self._executors

    @property
    def stack_groups(self) -> int:
        """Number of ≥2-member signature groups behind the unique programs.

        Zero under the interpreter (or for an empty fleet); computed from
        the registered programs, so it is valid before and after
        warm-start.
        """
        if self.evaluator.engine != "compiled" or not self._programs:
            return 0
        if self._stack_group_count is None:
            self._stack_group_count = sum(
                1 for keys, _ in self._signature_groups() if len(keys) >= 2
            )
        return self._stack_group_count

    # ------------------------------------------------------------------
    def add(self, program: AlphaProgram, name: str | None = None) -> FleetMember:
        """Register ``program`` under ``name`` and return its membership.

        With deduplication on, a program whose fingerprint
        matches an already added one shares that backend
        (``deduplicated=True``): it executes once per day/evaluation and
        both names receive the same predictions.
        """
        if self._warmed:
            raise StreamError("cannot add members to a warm fleet; "
                              "register the whole fleet first")
        name = name or program.name
        if name in self._by_name:
            raise StreamError(f"fleet member {name!r} is already registered")
        # Fail at registration time, naming the offending alpha — not later,
        # mid-fleet, when warm_start builds the backends.  (Backends validate
        # again at construction; validation is a handful of integer checks,
        # negligible next to one day of execution.)
        program.validate(self.evaluator.address_space)
        if self.dedup:
            prune_result = prune_program(program)
            key = fingerprint(prune_result.program)
            redundant = prune_result.is_redundant
        else:
            key = f"member-{len(self.members)}"
            redundant = False
        deduplicated = key in self._programs
        if not deduplicated:
            self._programs[key] = program
            self._stack_group_count = None
        member = FleetMember(
            name=name, key=key,
            deduplicated=deduplicated, redundant=redundant,
        )
        self.members.append(member)
        self._by_name[name] = key
        self._program_by_name[name] = program
        return member

    def key_of(self, name: str) -> str:
        """The backend key serving ``name``."""
        return self._by_name[name]

    # ------------------------------------------------------------------
    # Signature groups: one backend per group
    # ------------------------------------------------------------------
    def _signature_groups(self):
        """Compile every unique program and group them by tape signature.

        Returns ``(keys, compiled)`` pairs, one per group, in registration
        order (:func:`stack_partition`).  Only meaningful under the
        compiled engine.
        """
        keys = list(self._programs)
        compiled = [compile_program(self._programs[key]) for key in keys]
        return [([keys[index] for index in group],
                 [compiled[index] for index in group])
                for group in stack_partition(compiled)]

    def _bind_groups(self, ctx):
        """Yield one backend per signature group bound to ``ctx`` — per key
        under the interpreter — with the group's keys in lane order.

        Each group's tape is bound only when the caller asks for it, so an
        offline :meth:`run` holds one group's tape at a time.
        """
        if self.evaluator.engine != "compiled":
            for key, program in self._programs.items():
                yield [key], make_backend(
                    program, ctx, engine=self.evaluator.engine,
                    address_space=self.evaluator.address_space,
                )
            return
        groups = self._signature_groups()
        stacked_groups = [keys for keys, _ in groups if len(keys) >= 2]
        self._stack_group_count = len(stacked_groups)
        if TELEMETRY.enabled and stacked_groups:
            TELEMETRY.counter("engine.fleet.stack_groups").inc(
                len(stacked_groups)
            )
            TELEMETRY.counter("engine.fleet.stacked_programs").inc(
                sum(len(keys) for keys in stacked_groups)
            )
        for keys, compiled in groups:
            yield keys, StackedAlpha(compiled, ctx)

    # ------------------------------------------------------------------
    # Offline: one-shot batch evaluation over a shared data pass
    # ------------------------------------------------------------------
    def run(
        self, splits: tuple[str, ...] = ("valid", "test"),
    ) -> dict[str, dict[str, np.ndarray]]:
        """Run the full protocol for every member; name → split → ``(D, K)``.

        One fresh shared context and one training-day subsample serve the
        whole call; each signature group gets a fresh backend (repeatable,
        independent of any serving state), its ``(D, P, K)`` panels are
        scattered back to the member keys, and deduplicated names
        reference the representative's prediction panels — bitwise
        identical to the paired evaluator's
        :meth:`~repro.core.interpreter.AlphaEvaluator.run`.
        """
        evaluator = self.evaluator
        ctx = evaluator.make_context()
        day_indices = evaluator.train_day_indices()
        by_key: dict[str, dict[str, np.ndarray]] = {}
        for keys, backend in self._bind_groups(ctx):
            panels = run_protocol(
                backend,
                self.taskset,
                splits=splits,
                day_indices=day_indices,
                use_update=evaluator.use_update,
                time_batched=evaluator.time_batched,
            )
            if TELEMETRY.enabled and len(keys) >= 2:
                TELEMETRY.counter("engine.fleet.stacked_kernel_calls").inc(
                    backend.kernel_calls
                )
            for lane, key in enumerate(keys):
                by_key[key] = {
                    split: np.ascontiguousarray(panel[:, lane])
                    for split, panel in panels.items()
                }
            # Free this group's tape before the next group binds its own.
            del backend
        return {member.name: by_key[member.key] for member in self.members}

    def evaluate(self) -> dict[str, "EvaluationResult"]:  # noqa: F821 - documented type
        """Score every member; name → :class:`~repro.core.interpreter.EvaluationResult`.

        Like the evaluator's own :meth:`~repro.core.interpreter.AlphaEvaluator.evaluate`,
        only the validation split runs and the evaluator scores it, so a
        fleet evaluation of ``[p]`` equals ``evaluator.evaluate(p)`` bit for
        bit.
        """
        evaluator = self.evaluator
        runs = self.run(splits=("valid",))
        # Each result is attributed to the program registered under that
        # name, not the deduplicated representative it executed through.
        return {
            name: evaluator.score(self._program_by_name[name], predictions)
            for name, predictions in runs.items()
        }

    # ------------------------------------------------------------------
    # Online: stateful day-major serving (behind AlphaServer)
    # ------------------------------------------------------------------
    def _ensure_executors(self) -> None:
        if self._units:
            return
        if self._ctx is None:
            self._ctx = self.evaluator.make_context()
        for keys, backend in self._bind_groups(self._ctx):
            executor = IncrementalExecutor(backend)
            self._units.append((keys, executor))
            self._executors.update(dict.fromkeys(keys, executor))

    def _drain_stacked_kernel_calls(self) -> None:
        """Feed the kernel calls multi-lane tapes issued since the last
        drain to telemetry."""
        if not TELEMETRY.enabled:
            return
        total = sum(executor.executor.kernel_calls
                    for keys, executor in self._units if len(keys) >= 2)
        delta = total - self._reported_kernel_calls
        self._reported_kernel_calls = total
        if delta:
            TELEMETRY.counter("engine.fleet.stacked_kernel_calls").inc(delta)

    def warm_start(self) -> None:
        """Set up and train every unique backend over the training split.

        Replays exactly the evaluator's training stage — same gathered
        bars, same ``max_train_steps`` day subsample, same ``use_update``,
        same label-reveal ordering (via the shared
        :func:`repro.engine.protocol.training_pass`) — once per signature
        group, every lane advancing in lock-step through the same day loop.
        """
        if self._warmed:
            raise StreamError("fleet is already warm")
        if not self._programs:
            raise StreamError("no members registered; nothing to warm-start")
        evaluator = self.evaluator
        self._ensure_executors()
        # The visited training days, gathered once per task set.
        features, labels = self.taskset.gather(
            "train", evaluator.train_day_indices()
        )
        for _, executor in self._units:
            executor.warm_start(features, labels,
                                use_update=evaluator.use_update)
        self._drain_stacked_kernel_calls()
        self._warmed = True

    def step_bar(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Advance every unique backend one day; key → ``(K,)`` prediction.

        Each signature group advances as one ``(P, K, ...)`` kernel call
        per instruction, and its ``(P, K)`` predictions are scattered to
        the group's keys.
        """
        if not self._warmed:
            raise StreamError("fleet must be warm-started (or resumed) "
                              "before serving bars")
        predictions: dict[str, np.ndarray] = {}
        for keys, executor in self._units:
            predictions.update(zip(keys, executor.step(features)))
        self._drain_stacked_kernel_calls()
        return predictions

    def reveal(self, labels: np.ndarray) -> None:
        """Reveal the last bar's realised labels to every unique backend."""
        for _, executor in self._units:
            executor.reveal(labels)

    def correct(
        self,
        day: int,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> dict[str, CorrectionResult]:
        """Delta-replay a correction across the fleet; key → result.

        ``features``/``labels`` are the *corrected* full served history
        (``(days_served, K, f, w)`` / ``(days_served, K)``).  Every
        signature group replays only its invalidated suffix, once for all
        its lanes, and is left bitwise-identical to a full warm-start
        replay of the corrected history; its ``(R, P, K)`` corrected
        predictions are scattered to the group's keys as ``(R, K)``.
        """
        if not self._warmed:
            raise StreamError("fleet must be warm-started (or resumed) "
                              "before correcting served days")
        results: dict[str, CorrectionResult] = {}
        for keys, executor in self._units:
            result = executor.correct(day, features, labels)
            for lane, key in enumerate(keys):
                results[key] = replace(
                    result,
                    predictions=np.ascontiguousarray(
                        result.predictions[:, lane]
                    ),
                )
        self._drain_stacked_kernel_calls()
        return results

    def suspend_replay_states(self) -> dict[str, dict]:
        """key → persistable delta-replay payload (anchor + ring entries).

        Lane states are per-program
        :class:`~repro.compile.executor.TapeState` objects, so payloads
        restore into any grouping of the same programs (a group keeps only
        the days retained for every lane).
        """
        payloads: dict[str, dict] = {}
        for keys, executor in self._units:
            payloads.update(zip(keys, executor.replay_state()))
        return payloads

    def resume_replay_states(self, payloads: dict[str, dict]) -> None:
        """Restore :meth:`suspend_replay_states` output (after resume).

        Each persisted state is validated against its executor as
        ``resume`` validates a tape state, raising
        :class:`~repro.errors.ExecutionError` before a bad one is adopted.
        """
        for keys, executor in self._units:
            executor.restore_replay_state([payloads.get(key) for key in keys])

    def suspend_tapes(self) -> dict[str, object]:
        """key → suspended tape state of every unique backend.

        Each is the lane's own :class:`~repro.compile.executor.TapeState`,
        so the snapshot resumes into any grouping of the same programs.
        """
        if not self._warmed:
            raise StreamError("cannot suspend a fleet that was never warmed")
        tapes: dict[str, object] = {}
        for keys, executor in self._units:
            tapes.update(zip(keys, executor.suspend()))
        return tapes

    def resume_tapes(self, tapes: dict[str, object],
                     days_served: int = 0) -> None:
        """Restore :meth:`suspend_tapes` output into this (fresh) fleet."""
        if self._warmed:
            raise StreamError("cannot resume into a fleet that already ran")
        self._ensure_executors()
        for keys, executor in self._units:
            executor.resume([tapes[key] for key in keys],
                            days_served=days_served)
        self._warmed = True
