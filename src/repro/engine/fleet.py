"""Fleet execution: N programs, one shared context, one data pass.

Two workloads in this repository evaluate *many* programs against the same
task set — the search scoring candidate batches, and the server fanning an
arriving bar across its registered alphas.  Both used to own their fan-out;
:class:`FleetEngine` is the one engine-layer implementation they now share:

* **canonical deduplication** — members are fingerprinted on their pruned
  canonical IR (the same prune → :func:`repro.core.cache.fingerprint` flow
  the search cache uses), so trivially equivalent programs — mirrored
  commutative operands, renamed registers, duplicated subexpressions —
  share one backend and are executed once, however many names point at
  them;
* **one shared** :class:`~repro.core.ops.ExecutionContext` — contexts are
  read-only during execution (initialiser operators derive their RNGs from
  their own parameters), so the whole fleet binds to a single context
  object instead of building one per program;
* **one shared data pass** — the split feature/label panels and the
  training-day subsample are resolved once per fleet call, not once per
  program, and every member runs under the single protocol implementation
  of :mod:`repro.engine.protocol` (including its static-predict
  time-batched fast path);
* **cross-program mega-batching** — after dedup, the surviving unique
  programs are grouped by :func:`~repro.compile.stacked.stack_signature`
  (same opcode sequence and SSA wiring; parameter values free to differ)
  and every group of two or more executes as **one**
  :class:`~repro.compile.stacked.StackedAlpha` tape whose state carries a
  leading program axis — one batched ``(P, T, K, ...)`` kernel call per
  instruction offline, one ``(P, K, ...)`` call per bar online, instead of
  P separate tape walks.  Mining fleets are near-duplicate-heavy by
  construction, so most of a candidate generation lands in a few groups.

Offline, :meth:`run` / :meth:`evaluate` replace looping a fresh
:class:`~repro.core.interpreter.AlphaEvaluator` over the programs; online,
:meth:`warm_start` / :meth:`step_bar` / :meth:`reveal` back
:class:`repro.stream.server.AlphaServer`.  Results are bitwise identical
to the per-program paths in both modes and with stacking on or off (a
tested contract — stacked entries are restricted to the same
elementwise-exact kernel registry the fused day path trusts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compile import (
    CompiledAlpha, StackedAlpha, compile_program, stack_signature,
)
from ..core.cache import fingerprint
from ..core.program import AlphaProgram
from ..core.pruning import prune_program
from ..errors import StreamError
from ..obs import TELEMETRY
from .backends import make_backend, resolve_engine
from .incremental import IncrementalExecutor
from .protocol import run_protocol, training_pass
from .replay import (
    CorrectionResult, SnapshotRing, replay_correction, snapshot_depth_for,
)

__all__ = [
    "FleetMember",
    "FleetEngine",
    "evaluate_program_batch",
    "stack_partition",
]


# ----------------------------------------------------------------------
# Signature-grouped batch entry points (the worker-pool dispatch surface)
# ----------------------------------------------------------------------
def stack_partition(programs, engine: str | None = "compiled") -> list[list[int]]:
    """Partition ``programs`` into stack-signature groups of indices.

    The dispatch planner of the shared-memory worker pool: programs whose
    compiled tapes share a :func:`~repro.compile.stacked.stack_signature`
    land in one group (first-appearance order), so a batch cut from a
    single group executes worker-side as **one**
    :class:`~repro.compile.stacked.StackedAlpha` tape instead of a
    per-candidate loop.  Under the interpreter engine there is no tape to
    stack and every program lands in one group.
    """
    programs = list(programs)
    if resolve_engine(engine) != "compiled" or len(programs) < 2:
        return [list(range(len(programs)))] if programs else []
    groups: dict[str, list[int]] = {}
    for index, program in enumerate(programs):
        signature = stack_signature(compile_program(program))
        groups.setdefault(signature, []).append(index)
    return list(groups.values())


def evaluate_program_batch(evaluator, programs, stacked: bool | None = None):
    """Evaluate ``programs`` as one fleet over a shared context/data pass.

    Returns one :class:`~repro.core.interpreter.EvaluationResult` per
    program, in input order.  Deduplication stays off — callers (the
    scorer's cache, the pool's dispatch planner) already decided which
    programs to run — while stacking (on by default under the compiled
    engine) executes each signature group as a single stacked tape.  This
    is the one evaluation entry point shared by the serial scorer and the
    pool workers, which is what keeps pooled results bitwise identical to
    serial ones.
    """
    fleet = FleetEngine(evaluator, dedup=False, stacked=stacked)
    for index, program in enumerate(programs):
        fleet.add(program, name=f"batch-{index}")
    results = fleet.evaluate()
    return [results[f"batch-{index}"] for index in range(len(programs))]


@dataclass(frozen=True)
class FleetMember:
    """One registered fleet name and where its predictions come from."""

    name: str
    #: Canonical-IR fingerprint of the (pruned) program — or a positional
    #: key when the fleet was built with ``dedup=False``.
    key: str
    #: Whether this name shares a previously added member's backend.
    deduplicated: bool
    #: Whether pruning proved the prediction independent of the input
    #: matrix (the member still executes, but a constant is all it can
    #: emit).
    redundant: bool


class _SingleUnit:
    """Serving unit for a key whose signature matched no other member."""

    def __init__(self, key: str, executor: IncrementalExecutor) -> None:
        self.key = key
        self.executor = executor

    def warm_start(self, features, labels, day_indices=None,
                   use_update=True) -> None:
        self.executor.warm_start(
            features, labels, day_indices=day_indices, use_update=use_update
        )

    def step_bar(self, features) -> dict[str, np.ndarray]:
        return {self.key: self.executor.step(features)}

    def reveal(self, labels) -> None:
        self.executor.reveal(labels)

    def suspend(self) -> dict[str, object]:
        return {self.key: self.executor.suspend()}

    def resume(self, tapes: dict[str, object], days_served: int = 0) -> None:
        self.executor.resume(tapes[self.key], days_served=days_served)

    def correct(self, day, features, labels) -> dict[str, CorrectionResult]:
        return {self.key: self.executor.correct(day, features, labels)}

    def replay_states(self) -> dict[str, dict]:
        return {self.key: self.executor.replay_state()}

    def restore_replay_states(self, payloads: dict[str, dict]) -> None:
        payload = payloads.get(self.key)
        if payload is not None:
            self.executor.restore_replay_state(payload)

    def views(self) -> dict[str, object]:
        return {self.key: self.executor}


class _StackedUnit:
    """Serving unit for one signature group: P lanes, one stacked tape.

    Mirrors :class:`~repro.engine.incremental.IncrementalExecutor`'s
    step/reveal contract (including the pending-label guards) around a
    :class:`~repro.compile.stacked.StackedAlpha`, scattering the ``(P, K)``
    per-bar prediction back to the group's member keys.
    """

    def __init__(self, keys, backend: StackedAlpha) -> None:
        self.keys = list(keys)
        self.backend = backend
        self.days_served = 0
        self._warmed = False
        self._awaiting_label = False
        self._reported_kernel_calls = 0
        # Delta-replay state.  Signature groups share opcode sequence and
        # SSA wiring, so every lane has the template's lookback structure;
        # ring entries are whole-group snapshots of the stacked tape.
        self._lookback = backend.group[0].lookback
        self._ring: SnapshotRing | None = None
        self._anchor: tuple[int, tuple] | None = None

    @property
    def max_lookback(self) -> int | None:
        return None if self._lookback is None else self._lookback.max_lookback

    def _ensure_ring(self) -> SnapshotRing:
        if self._ring is None:
            self._ring = SnapshotRing(snapshot_depth_for(self.max_lookback))
        return self._ring

    @property
    def is_warm(self) -> bool:
        return self._warmed

    def warm_start(self, features, labels, day_indices=None,
                   use_update=True) -> None:
        if self._warmed:
            raise StreamError("stacked group is already warm")
        self.backend.run_setup()
        # Day loop, exactly as IncrementalExecutor: the suspended operand
        # state must evolve as a live process's would — the stacking win is
        # one (P, K, ...) call per instruction per day instead of P walks.
        training_pass(
            self.backend, features, labels,
            day_indices=day_indices, use_update=use_update,
        )
        self._warmed = True
        self._anchor = (0, self.backend.snapshot())

    def step_bar(self, features) -> dict[str, np.ndarray]:
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "call reveal() between steps")
        backend = self.backend
        backend.set_input(features)
        backend.run_predict()
        self.days_served += 1
        self._awaiting_label = True
        prediction = backend.prediction
        return {
            key: prediction[lane].copy()
            for lane, key in enumerate(self.keys)
        }

    def reveal(self, labels) -> None:
        if not self._awaiting_label:
            raise StreamError("no prediction is pending a label; "
                              "call step() first")
        self.backend.set_label(labels)
        self._awaiting_label = False
        self._ensure_ring().push(self.days_served, self.backend.snapshot())

    def correct(self, day, features, labels) -> dict[str, CorrectionResult]:
        """Delta-replay a correction once for the whole group.

        One bounded replay of the stacked tape serves every lane; the
        ``(R, P, K)`` corrected prediction block is scattered back to the
        member keys, exactly as :meth:`step_bar` scatters live bars.
        """
        if not self._warmed:
            raise StreamError("stacked group must be warm-started (or "
                              "resumed) before it can correct days")
        if self._awaiting_label:
            raise StreamError("previous day's label was never revealed; "
                              "reveal it before correcting history")
        result = replay_correction(
            self.backend, day, features, labels,
            days_served=self.days_served,
            max_lookback=self.max_lookback,
            ring=self._ensure_ring(),
            anchor=self._anchor,
            take_snapshot=self.backend.snapshot,
            restore_snapshot=self.backend.restore,
            what=f"stacked group of {len(self.keys)}",
        )
        return {
            key: CorrectionResult(
                day=result.day,
                start_day=result.start_day,
                mode=result.mode,
                replayed_days=result.replayed_days,
                predictions=np.ascontiguousarray(
                    result.predictions[:, lane]
                ),
            )
            for lane, key in enumerate(self.keys)
        }

    def replay_states(self) -> dict[str, dict]:
        """Per-key delta-replay payloads (solo-compatible tape states)."""
        tape_state = self.backend.tape_state
        entries = self._ring.entries() if self._ring is not None else ()
        payloads: dict[str, dict] = {}
        for lane, key in enumerate(self.keys):
            anchor = None
            if self._anchor is not None:
                anchor = (self._anchor[0], tape_state(self._anchor[1], lane))
            payloads[key] = {
                "anchor": anchor,
                "entries": tuple(
                    (day, tape_state(snap, lane)) for day, snap in entries
                ),
            }
        return payloads

    def restore_replay_states(self, payloads: dict[str, dict]) -> None:
        """Regroup per-key payloads into group-wide snapshots.

        Only anchor/ring days retained for *every* lane are restored — a
        group snapshot needs all lanes at the same day.  Each lane's states
        are validated as :meth:`resume` validates its own before any is
        adopted.
        """
        mine = [payloads.get(key) for key in self.keys]
        if any(payload is None for payload in mine):
            return
        adopt = self.backend.adopt
        anchor = None
        anchors = [payload.get("anchor") for payload in mine]
        if all(lane_anchor is not None for lane_anchor in anchors):
            days = {int(lane_anchor[0]) for lane_anchor in anchors}
            if len(days) == 1:
                anchor = (days.pop(), adopt(
                    [lane_anchor[1] for lane_anchor in anchors]
                ))
        by_day: dict[int, dict[str, object]] = {}
        for key, payload in zip(self.keys, mine):
            for day, state in payload.get("entries") or ():
                by_day.setdefault(int(day), {})[key] = state
        complete = [
            (day, adopt([states[key] for key in self.keys]))
            for day, states in sorted(by_day.items())
            if len(states) == len(self.keys)
        ]
        if anchor is not None:
            self._anchor = anchor
        if complete:
            self._ring = SnapshotRing(
                snapshot_depth_for(self.max_lookback), complete
            )

    def suspend(self) -> dict[str, object]:
        if self._awaiting_label:
            raise StreamError("cannot suspend between step() and reveal(); "
                              "reveal the pending label first")
        backend = self.backend
        snap = backend.snapshot()
        return {
            key: backend.tape_state(snap, lane)
            for lane, key in enumerate(self.keys)
        }

    def resume(self, tapes: dict[str, object], days_served: int = 0) -> None:
        if self._warmed:
            raise StreamError("cannot resume into a stacked group that "
                              "already ran")
        self.backend.resume([tapes[key] for key in self.keys])
        self.days_served = int(days_served)
        self._warmed = True
        # The resumed lanes form a clean group snapshot entering this day
        # (restore_replay_states may still supply the day-0 one).
        self._anchor = (self.days_served, self.backend.snapshot())

    def drain_kernel_calls(self) -> int:
        """Batched kernel calls issued since the last drain (telemetry)."""
        total = self.backend.kernel_calls
        delta = total - self._reported_kernel_calls
        self._reported_kernel_calls = total
        return delta

    def views(self) -> dict[str, object]:
        return {
            key: _StackedLane(self, lane)
            for lane, key in enumerate(self.keys)
        }


class _StackedLane:
    """Per-key executor view of one lane of a :class:`_StackedUnit`.

    Presents the :class:`~repro.engine.incremental.IncrementalExecutor`
    read surface (``is_warm`` / ``days_served`` / ``suspend``) for one
    member of a stacked group, so fleet consumers that inspect
    :attr:`FleetEngine.executors` see the same shape whether or not the
    key's program was stacked.
    """

    def __init__(self, unit: _StackedUnit, lane: int) -> None:
        self._unit = unit
        self._lane = lane

    @property
    def program(self) -> AlphaProgram:
        return self._unit.backend.group[self._lane].program

    @property
    def is_warm(self) -> bool:
        return self._unit.is_warm

    @property
    def days_served(self) -> int:
        return self._unit.days_served

    def suspend(self):
        """This lane's :class:`~repro.compile.executor.TapeState`."""
        if self._unit._awaiting_label:
            raise StreamError("cannot suspend between step() and reveal(); "
                              "reveal the pending label first")
        return self._unit.backend.suspend_member(self._lane)


class FleetEngine:
    """Executes a fleet of programs over one shared context and data pass.

    Parameters
    ----------
    evaluator:
        The paired :class:`~repro.core.interpreter.AlphaEvaluator`: source
        of the task set, the execution contexts, the training-day subsample
        and the scoring — which is what keeps fleet results bitwise
        identical to per-program evaluation.
    engine:
        Backend selection for every member (defaults to the evaluator's).
    dedup:
        Whether members are canonically fingerprinted and deduplicated.
        The scorer disables this: its cache layer already decides which
        candidates share an evaluation, and the pruning-disabled ablation
        must not dedup behind its back.
    stacked:
        Whether unique programs sharing a tape signature execute as one
        stacked ``(P, ...)`` tape.  Defaults on for the compiled engine
        (the interpreter has no tape to stack).  Stacking never changes a
        bit of any result — it only changes how many NumPy calls produce
        them — and unlike ``dedup`` it is safe under the scorer, since
        every member keeps its own lane, parameters and score.
    program_chunk:
        Program-axis chunking for matrix-heavy stacked kernels, passed
        through to :class:`~repro.compile.stacked.StackedAlpha`: ``None``
        derives a cache-resident chunk automatically, ``0`` disables
        chunking, a positive int forces that chunk size.  Bitwise-neutral
        either way.
    """

    def __init__(self, evaluator, engine: str | None = None,
                 dedup: bool = True, stacked: bool | None = None,
                 program_chunk: int | None = None) -> None:
        self.evaluator = evaluator
        self.program_chunk = program_chunk
        self.engine_name = resolve_engine(
            engine if engine is not None else getattr(evaluator, "engine", None)
        )
        self.dedup = bool(dedup)
        if stacked is None:
            stacked = self.engine_name == "compiled"
        self.stacked = bool(stacked) and self.engine_name == "compiled"
        self.members: list[FleetMember] = []
        self._by_name: dict[str, str] = {}
        #: name → the program registered under that name (deduplicated
        #: names *execute* through the representative's backend, but keep
        #: their own program for result attribution).
        self._program_by_name: dict[str, AlphaProgram] = {}
        #: key → representative program, in registration order.
        self._programs: dict[str, AlphaProgram] = {}
        #: key → serving executor view (built lazily on warm_start/resume).
        self._executors: dict[str, object] = {}
        #: Serving units: one per stacked signature group or unmatched key.
        self._units: list[object] = []
        self._ctx = None
        self._warmed = False
        self._stack_group_count: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_backend(
        cls,
        backend,
        programs=(),
        split=None,
        seed: int | None = 0,
        max_train_steps: int | None = None,
        engine: str | None = None,
        dedup: bool = True,
        stacked: bool | None = None,
    ) -> "FleetEngine":
        """Build a fleet straight from a :class:`~repro.data.DataBackend`.

        Loads the backend's panel, builds the task set (optionally under an
        explicit ``split``) and the paired evaluator, and registers
        ``programs`` — the shortest path from *any* data source (synthetic,
        file-backed, resampled) to a runnable fleet.  Execution contexts
        are therefore built from the backend's data, never hand-assembled.
        """
        # Imported lazily: repro.core.interpreter imports this package.
        from ..core.interpreter import AlphaEvaluator

        taskset = backend.build_taskset(split=split)
        evaluator = AlphaEvaluator(
            taskset, seed=seed, max_train_steps=max_train_steps, engine=engine
        )
        fleet = cls(evaluator, engine=engine, dedup=dedup, stacked=stacked)
        for program in programs:
            fleet.add(program)
        return fleet

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
        """Number of distinct backends behind those names."""
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
    def executors(self) -> dict[str, object]:
        """key → serving executor view (one per unique program).

        Unstacked keys map to their
        :class:`~repro.engine.incremental.IncrementalExecutor`; keys served
        through a stacked group map to a per-lane view with the same read
        surface (``is_warm`` / ``days_served`` / ``suspend``).  Empty until
        :meth:`warm_start` or :meth:`resume_tapes` builds the backends —
        reading this never triggers compilation as a side effect.
        """
        return self._executors

    @property
    def stack_groups(self) -> int:
        """Number of ≥2-member signature groups behind the unique programs.

        Zero when stacking is off (or the fleet is empty); computed from
        the registered programs, so it is valid before and after
        warm-start.
        """
        if not self.stacked or not self._programs:
            return 0
        if self._stack_group_count is None:
            groups = self._signature_groups()[1]
            self._stack_group_count = sum(
                1 for group in groups if len(group) >= 2
            )
        return self._stack_group_count

    # ------------------------------------------------------------------
    def add(self, program: AlphaProgram, name: str | None = None) -> FleetMember:
        """Register ``program`` under ``name`` and return its membership.

        With deduplication on, a program whose canonical-IR fingerprint
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
    # Stacked grouping
    # ------------------------------------------------------------------
    def _signature_groups(self):
        """Compile every unique program and group keys by tape signature.

        Returns ``(compiled, groups)``: key → CompiledProgram, plus the key
        groups in registration order (group order follows first
        appearance).  Only meaningful under the compiled engine.
        """
        compiled = {
            key: compile_program(program)
            for key, program in self._programs.items()
        }
        groups: dict[str, list[str]] = {}
        for key, artefact in compiled.items():
            groups.setdefault(stack_signature(artefact), []).append(key)
        return compiled, list(groups.values())

    def _record_stack_telemetry(self, groups) -> None:
        stacked_groups = [group for group in groups if len(group) >= 2]
        self._stack_group_count = len(stacked_groups)
        if TELEMETRY.enabled and stacked_groups:
            TELEMETRY.counter("engine.fleet.stack_groups").inc(
                len(stacked_groups)
            )
            TELEMETRY.counter("engine.fleet.stacked_programs").inc(
                sum(len(group) for group in stacked_groups)
            )

    # ------------------------------------------------------------------
    # Offline: one-shot batch evaluation over a shared data pass
    # ------------------------------------------------------------------
    def run(
        self,
        splits: tuple[str, ...] = ("valid", "test"),
        use_update: bool | None = None,
        time_batched: bool | None = None,
    ) -> dict[str, dict[str, np.ndarray]]:
        """Run the full protocol for every member; name → split → ``(D, K)``.

        One fresh shared context and one training-day subsample serve the
        whole call; each *unique* program gets a fresh backend (repeatable,
        independent of any serving state) and deduplicated names reference
        the representative's prediction panels.  With stacking on, every
        signature group of two or more unique programs executes as one
        stacked tape and its ``(D, P, K)`` panels are scattered back to the
        member keys — bitwise identical to the per-program path.
        ``use_update`` and ``time_batched`` default to the paired
        evaluator's settings.
        """
        evaluator = self.evaluator
        use_update = evaluator.use_update if use_update is None else use_update
        if time_batched is None:
            time_batched = getattr(evaluator, "time_batched", True)
        ctx = evaluator.make_context()
        day_indices = evaluator.train_day_indices()
        by_key: dict[str, dict[str, np.ndarray]] = {}
        singles = list(self._programs)
        single_backend = lambda key: make_backend(  # noqa: E731
            self._programs[key], ctx, engine=self.engine_name,
            address_space=evaluator.address_space,
        )
        if self.stacked and len(self._programs) >= 2:
            compiled, groups = self._signature_groups()
            self._record_stack_telemetry(groups)
            singles = [key for group in groups if len(group) == 1
                       for key in group]
            # Singleton groups reuse the compile the signature pass already
            # paid for instead of recompiling through make_backend.
            single_backend = lambda key: CompiledAlpha(  # noqa: E731
                compiled[key], ctx
            )
            for group in groups:
                if len(group) < 2:
                    continue
                backend = StackedAlpha(
                    [compiled[key] for key in group], ctx,
                    program_chunk=self.program_chunk,
                )
                panels = run_protocol(
                    backend,
                    self.taskset,
                    splits=splits,
                    day_indices=day_indices,
                    use_update=use_update,
                    time_batched=time_batched,
                )
                if TELEMETRY.enabled:
                    TELEMETRY.counter(
                        "engine.fleet.stacked_kernel_calls"
                    ).inc(backend.kernel_calls)
                for lane, key in enumerate(group):
                    by_key[key] = {
                        split: np.ascontiguousarray(panel[:, lane])
                        for split, panel in panels.items()
                    }
        for key in singles:
            by_key[key] = run_protocol(
                single_backend(key),
                self.taskset,
                splits=splits,
                day_indices=day_indices,
                use_update=use_update,
                time_batched=time_batched,
            )
        return {member.name: by_key[member.key] for member in self.members}

    def evaluate(
        self,
        use_update: bool | None = None,
        time_batched: bool | None = None,
    ) -> dict[str, "EvaluationResult"]:  # noqa: F821 - documented type
        """Score every member; name → :class:`~repro.core.interpreter.EvaluationResult`.

        The splits and the scoring are the evaluator's own
        (:meth:`~repro.core.interpreter.AlphaEvaluator.score`), so a fleet
        evaluation of ``[p]`` equals ``evaluator.evaluate(p)`` bit for bit.
        """
        evaluator = self.evaluator
        splits: tuple[str, ...] = (
            ("valid", "test") if evaluator.evaluate_test else ("valid",)
        )
        runs = self.run(splits=splits, use_update=use_update,
                        time_batched=time_batched)
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
        if len(self._executors) == len(self._programs):
            return
        if self._ctx is None:
            self._ctx = self.evaluator.make_context()
        singles = list(self._programs)
        single_backend = lambda key: make_backend(  # noqa: E731
            self._programs[key], self._ctx, engine=self.engine_name,
            address_space=self.evaluator.address_space,
        )
        if self.stacked and len(self._programs) >= 2:
            compiled, groups = self._signature_groups()
            self._record_stack_telemetry(groups)
            singles = [key for group in groups if len(group) == 1
                       for key in group]
            # Reuse the signature pass's compiles for singleton serving
            # units instead of recompiling through make_backend.
            single_backend = lambda key: CompiledAlpha(  # noqa: E731
                compiled[key], self._ctx
            )
            for group in groups:
                if len(group) < 2:
                    continue
                unit = _StackedUnit(
                    group,
                    StackedAlpha([compiled[key] for key in group], self._ctx,
                                 program_chunk=self.program_chunk),
                )
                self._units.append(unit)
                self._executors.update(unit.views())
        for key in singles:
            unit = _SingleUnit(key, IncrementalExecutor(
                self._programs[key],
                backend=single_backend(key),
            ))
            self._units.append(unit)
            self._executors.update(unit.views())

    def _drain_stacked_kernel_calls(self) -> None:
        if not TELEMETRY.enabled:
            return
        for unit in self._units:
            if isinstance(unit, _StackedUnit):
                delta = unit.drain_kernel_calls()
                if delta:
                    TELEMETRY.counter(
                        "engine.fleet.stacked_kernel_calls"
                    ).inc(delta)

    def warm_start(self, use_update: bool | None = None) -> None:
        """Set up and train every unique backend over the training split.

        Replays exactly the evaluator's training stage — same feature
        tensors, same ``max_train_steps`` day subsample, same label-reveal
        ordering (via the shared
        :func:`repro.engine.protocol.training_pass`) — once per unique
        backend; stacked groups replay it once per *group*, every lane
        advancing in lock-step through the same day loop.
        """
        if self._warmed:
            raise StreamError("fleet is already warm")
        if not self._programs:
            raise StreamError("no members registered; nothing to warm-start")
        evaluator = self.evaluator
        use_update = evaluator.use_update if use_update is None else use_update
        self._ensure_executors()
        features = self.taskset.split_features("train")
        labels = self.taskset.split_labels("train")
        day_indices = evaluator.train_day_indices()
        for unit in self._units:
            unit.warm_start(
                features, labels, day_indices=day_indices,
                use_update=use_update,
            )
        self._drain_stacked_kernel_calls()
        self._warmed = True

    def step_bar(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Advance every unique backend one day; key → ``(K,)`` prediction.

        Stacked groups advance as one ``(P, K, ...)`` kernel call per
        instruction; the returned mapping is key-per-key identical to the
        unstacked fleet's.
        """
        if not self._warmed:
            raise StreamError("fleet must be warm-started (or resumed) "
                              "before serving bars")
        predictions: dict[str, np.ndarray] = {}
        for unit in self._units:
            predictions.update(unit.step_bar(features))
        self._drain_stacked_kernel_calls()
        return predictions

    def reveal(self, labels: np.ndarray) -> None:
        """Reveal the last bar's realised labels to every unique backend."""
        for unit in self._units:
            unit.reveal(labels)

    def correct(
        self,
        day: int,
        features: np.ndarray,
        labels: np.ndarray,
    ) -> dict[str, CorrectionResult]:
        """Delta-replay a correction across the fleet; key → result.

        ``features``/``labels`` are the *corrected* full served history
        (``(days_served, K, f, w)`` / ``(days_served, K)``).  Every unique
        backend replays only its invalidated suffix — stacked groups once
        per group — and is left bitwise-identical to a full warm-start
        replay of the corrected history.
        """
        if not self._warmed:
            raise StreamError("fleet must be warm-started (or resumed) "
                              "before correcting served days")
        results: dict[str, CorrectionResult] = {}
        for unit in self._units:
            results.update(unit.correct(day, features, labels))
        self._drain_stacked_kernel_calls()
        return results

    def suspend_replay_states(self) -> dict[str, dict]:
        """key → persistable delta-replay payload (anchor + ring entries).

        Lane states are solo-compatible
        :class:`~repro.compile.executor.TapeState` objects, so payloads
        restore into stacked and unstacked fleets alike (group rings keep
        only days retained for every lane).
        """
        payloads: dict[str, dict] = {}
        for unit in self._units:
            payloads.update(unit.replay_states())
        return payloads

    def resume_replay_states(self, payloads: dict[str, dict]) -> None:
        """Restore :meth:`suspend_replay_states` output (after resume).

        Each persisted state is validated against its executor as
        ``resume`` validates a tape state, raising
        :class:`~repro.errors.ExecutionError` before a bad one is adopted.
        """
        for unit in self._units:
            unit.restore_replay_states(payloads)

    def suspend_tapes(self) -> dict[str, object]:
        """key → suspended tape state of every unique backend.

        Stacked lanes emit the same :class:`~repro.compile.executor.TapeState`
        a per-program executor would, so the snapshot resumes into stacked
        and unstacked fleets alike.
        """
        if not self._warmed:
            raise StreamError("cannot suspend a fleet that was never warmed")
        tapes: dict[str, object] = {}
        for unit in self._units:
            tapes.update(unit.suspend())
        return tapes

    def resume_tapes(self, tapes: dict[str, object],
                     days_served: int = 0) -> None:
        """Restore :meth:`suspend_tapes` output into this (fresh) fleet."""
        if self._warmed:
            raise StreamError("cannot resume into a fleet that already ran")
        self._ensure_executors()
        for unit in self._units:
            unit.resume(tapes, days_served=days_served)
        self._warmed = True
