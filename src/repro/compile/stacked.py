"""The compiled tape: a signature group of compiled alphas, one lane each.

:class:`StackedAlpha` binds the optimised IR (:mod:`.compiler`) of P ≥ 1
compiled programs sharing one :func:`stack_signature` (same opcode
sequence, same SSA wiring, same operand inputs/exports; parameter *values*
free to differ) to one problem shape, and executes them as **one** tape
whose state and buffers carry a leading program (*lane*) axis: scalars are
``(P, K)``, vectors ``(P, K, w)``, matrices ``(P, K, f, w)``.  A single
program is the one-lane tape, which is what
:func:`repro.engine.make_backend` binds for the compiled engine, so mining,
offline fleets and serving all run this one runner:

* **pre-resolved dispatch** — every instruction becomes one or more kernel
  calls with their function, input arrays, preallocated output buffer and
  sanitize steps resolved at bind time from its operator's registry entry
  (:class:`~repro.core.ops.OpSpec`).  An instruction whose parameters
  agree across the lanes and whose operator has a leading-axis kernel
  (:data:`repro.compile.executor.KERNELS`) runs as one NumPy call for the
  whole group, through the operator's ``out=`` form where it has one; an
  operator with a gather form (the extractions) and per-lane indices runs
  as one advanced-indexing gather; anything else calls the operator once
  per lane on that lane's views.  At one lane, that is exactly the
  per-program call;
* **allocation-free execution** — each SSA value owns one buffer and each
  live operand one state array; a result lands in its buffer through the
  ``out=`` form or the clip ufunc, so a call allocates at most its
  kernel's own result and a NaN mask, and the day loop builds no dicts;
* **static hoisting** — instructions whose transitive inputs are constants
  or parameter-free initialisers run once in a prologue instead of once
  per day;
* **fused batched inference** — when ``Predict()`` neither reads the label
  nor an operand it also writes, the inference stage runs over a leading
  *day* axis instead of a Python loop over days, chunked so a
  ``(P, C, K, f, w)`` buffer stays bounded however large the group;
* **one input bar** — ``m0`` is an input, not lane state: the tape holds
  one ``(K, f, w)`` bar that :meth:`StackedAlpha.set_input` writes once
  and every lane reads through one read-only stride-0 view.  No program
  writes ``m0`` (:meth:`~repro.core.program.AlphaProgram.validate`), and
  every protocol path calls ``set_input`` before ``run_predict``, so
  ``m0`` cannot be observed at a restore or resume point;
* **copy-on-write snapshots** — :meth:`StackedAlpha.snapshot` /
  :meth:`StackedAlpha.restore` save and rewind the operand state for
  delta-replay serving.  While serving only the bar, ``s0`` and the
  carried operands ``Predict()`` writes back change, so a snapshot copies
  the bar once per tape and ``s0`` and those write-backs per lane, and
  shares every frozen array with the previous snapshot;
* **suspend/resume** — a lane leaves as a
  :class:`~repro.compile.executor.TapeState` carrying that program's own
  tape key and per-program operand shapes, so it resumes into a lane of
  any group holding the same program, the one-lane tape included.
  ``TapeState`` stays the only external format, for checkpoints and
  persisted replay state.

Bitwise parity with the interpreter is a hard contract (the fingerprint
cache and the search both rely on it): the registry's kernels equal the
per-slice registry call bit for bit under any leading axes (see
:mod:`repro.core.ops`), which is what a lane axis — or, on the fused
path, a lane axis plus a day axis — needs.  Each instruction's
sanitize steps are resolved at bind from its operator's registry contract
(:func:`~repro.compile.executor._sanitize_steps`); a binding keeps that
elision only while every value in it came from its own tape, so
:meth:`StackedAlpha.resume` and :meth:`StackedAlpha.adopt` restore full
sanitizing for the rest of the binding.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.ops import CLIP_VALUE
from ..errors import ExecutionError
from .compiler import CompiledProgram
from .executor import (
    KERNELS,
    TAPE_STATE_VERSION,
    TapeState,
    _clip,
    _sanitize_into,
    _sanitize_steps,
    tape_key_for,
)

__all__ = ["StackedAlpha", "stack_signature"]

#: Ceiling on elements of one stacked+day-batched buffer; the fused path
#: chunks the day axis so a ``(P, C, K, f, w)`` matrix buffer stays around
#: 32 MB however large the fleet grows.
_MAX_CHUNK_ELEMENTS = 1 << 22


def stack_signature(compiled: CompiledProgram) -> str:
    """The stacking key: the execution IR rendered with parameters masked.

    Two compiled programs with equal signatures have identical opcode
    sequences, SSA wiring, operand input/export sets and parameter *names*
    per instruction — everything :class:`StackedAlpha` needs to run them as
    one tape — while parameter *values* (constants, seeds, extraction
    indices) are lifted into the stacked per-program axis.  Fused-inference
    and static-predict eligibility are pure functions of this structure, so
    they always agree within a group.
    """
    return compiled.ir.render(mask_params=True)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Call:
    """One kernel call of the day loop.

    ``out_func(inputs, target)`` when set, else ``func(ctx, inputs,
    params)`` stored into ``target`` — through the clip ufunc when ``clip``.
    ``scan`` marks an instruction's last call, which NaN-scans the whole
    ``output`` buffer its calls wrote.
    """

    __slots__ = ("func", "out_func", "inputs", "params", "target", "output",
                 "clip", "scan")

    def __init__(self, func, inputs, params, target, output, out_func=None):
        self.func = func
        self.out_func = out_func
        self.inputs = inputs
        self.params = params
        self.target = target
        self.output = output
        self.clip = self.scan = True


class _StackedEntry:
    """One instruction of the tape, its execution strategy resolved at bind.

    ``mode`` is ``"stacked"`` (one leading-axis kernel call for every
    lane), ``"gather"`` (per-lane indices: one advanced-indexing call) or
    ``"loop"`` (the operator once per lane).  ``kernel`` is the operator's
    admitted leading-axis kernel or ``None``; ``calls`` are the day loop's
    :class:`_Call`\\ s; ``clip`` / ``scan`` the sanitize steps the result
    still owes.
    """

    __slots__ = ("mode", "kernel", "spec", "inputs", "input_ids", "output",
                 "output_id", "member_params", "calls", "clip", "scan")

    def __init__(self, mode, kernel, instr, inputs, output, member_params,
                 calls) -> None:
        self.mode = mode
        self.kernel = kernel
        self.spec = instr.spec
        self.inputs = inputs
        self.input_ids = instr.inputs
        self.output = output
        self.output_id = instr.result
        self.member_params = member_params
        self.calls = calls

    def set_steps(self, clip: bool, scan: bool) -> None:
        self.clip, self.scan = clip, scan
        for call in self.calls:
            call.clip, call.scan = clip, False
        self.calls[-1].scan = scan


class StackedAlpha:
    """The compiled tape of one signature group of P ≥ 1 programs.

    Satisfies the :class:`~repro.engine.backends.ExecutionEngine` per-day
    vocabulary with every array carrying the leading lane axis:
    :attr:`prediction` is ``(P, K)``, :meth:`run_inference_batch` returns
    ``(D, P, K)``, and :meth:`set_input` / :meth:`set_label` hand one
    shared bar to every lane — so the engine-layer protocol drives a group
    exactly as it drives one program.

    Parameters
    ----------
    compiled_group:
        The lanes' :class:`~repro.compile.compiler.CompiledProgram`\\ s, all
        sharing one :func:`stack_signature` (validated here).  One program
        makes the one-lane tape.
    ctx:
        The evaluation context (task count, dimensions, relation indices and
        base seed) every lane binds to — the same object the interpreter
        would hand to every operator.
    """

    def __init__(self, compiled_group, ctx) -> None:
        compiled_group = list(compiled_group)
        if not compiled_group:
            raise ExecutionError("cannot stack an empty program group")
        template = compiled_group[0]
        if len(compiled_group) > 1:
            signature = stack_signature(template)
            for other in compiled_group[1:]:
                if stack_signature(other) != signature:
                    raise ExecutionError(
                        f"cannot stack {other.program.name!r} with "
                        f"{template.program.name!r}: tape signatures differ"
                    )
        self.group = compiled_group
        self.ctx = ctx
        self.num_programs = P = len(compiled_group)
        #: NumPy kernel calls issued so far (telemetry counter feed).
        self.kernel_calls = 0

        shapes = {
            OperandType.SCALAR: (P, ctx.num_tasks),
            OperandType.VECTOR: (P, ctx.num_tasks, ctx.window),
            OperandType.MATRIX: (P, ctx.num_tasks, ctx.num_features,
                                 ctx.window),
        }
        ir = template.ir
        carried = template.dataflow.carried

        #: The input bar: one ``(K, f, w)`` buffer :meth:`set_input` writes
        #: once, which every lane reads through one read-only stride-0 view.
        self._bar = np.zeros(shapes[OperandType.MATRIX][1:])
        #: Operand state arrays: the loop-carried memory between components
        #: and days.  Allocated for every operand the program observes plus
        #: the three reserved addresses; ``m0`` is the bar's view.
        self._state: dict[Operand, np.ndarray] = {
            INPUT_MATRIX: np.broadcast_to(self._bar, shapes[OperandType.MATRIX]),
        }

        def state_array(operand: Operand) -> np.ndarray:
            array = self._state.get(operand)
            if array is None:
                array = np.zeros(shapes[operand.type])
                self._state[operand] = array
            return array

        for operand in (INPUT_MATRIX, LABEL, PREDICTION):
            state_array(operand)

        self._buffers: dict[int, np.ndarray] = {}
        self._entries: list[_StackedEntry] = []
        static_entries: list[_StackedEntry] = []
        component_entries: dict[str, list[_StackedEntry]] = {}
        self._copies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

        for name, component in ir.components.items():
            static_ids: set[int] = set()
            entries: list[_StackedEntry] = []
            for index, instr in enumerate(component.instructions):
                arrays = []
                for vid in instr.inputs:
                    value = ir.values[vid]
                    if value.operand is not None:
                        arrays.append(state_array(value.operand))
                    else:
                        arrays.append(self._buffers[vid])
                output = np.zeros(shapes[ir.values[instr.result].type])
                self._buffers[instr.result] = output
                member_params = tuple(
                    member.ir.components[name].instructions[index].param_dict
                    for member in compiled_group
                )
                entry = self._bind_entry(
                    instr, tuple(arrays), output, member_params
                )
                self._entries.append(entry)
                # Setup already runs exactly once; hoisting only pays off for
                # the components inside the per-day loops.
                is_static = name != "setup" and all(
                    vid in static_ids for vid in instr.inputs
                )
                if is_static:
                    static_ids.add(instr.result)
                    static_entries.append(entry)
                else:
                    entries.append(entry)
            component_entries[name] = entries
            self._copies[name] = [
                (state_array(operand), self._buffers[vid])
                for operand, vid in component.exports.items()
                if operand in carried
            ]
        self._static_tape = self._flatten(static_entries)
        self._tapes = {
            name: self._flatten(entries)
            for name, entries in component_entries.items()
        }

        predict = ir.components["predict"]
        self._prediction_id = predict.exports.get(PREDICTION)
        if self._prediction_id is not None:
            self._prediction = self._buffers[self._prediction_id]
        else:
            self._prediction = self._state[PREDICTION]

        # Fused inference: which predict values carry the day axis is
        # structural, so the day-axis entries and the day-invariant ones
        # are split once here.
        self._input_matrix_id = predict.inputs.get(INPUT_MATRIX)
        day_ids = set() if self._input_matrix_id is None else {
            self._input_matrix_id
        }
        for entry in component_entries["predict"]:
            if any(vid in day_ids for vid in entry.input_ids):
                day_ids.add(entry.output_id)
        self._day_entries = [
            entry for entry in component_entries["predict"]
            if entry.output_id in day_ids
        ]
        self._invariant_tape = self._flatten(
            entry for entry in component_entries["predict"]
            if entry.output_id not in day_ids
        )
        self._prediction_on_day_axis = self._prediction_id in day_ids

        # Snapshot layout.  A snapshot holds the bar, then one read-only
        # array per lane state array, in bind order; the per-day ones are
        # copied each time, the frozen ones shared with the previous
        # snapshot (see snapshot()).
        state = self._state
        per_day = {id(state[LABEL])}
        per_day.update(id(target) for target, _ in self._copies["predict"])
        self._arrays = tuple(state.values())[1:]
        #: Operand names in bind order (``m0`` first), for the TapeState
        #: conversions.
        self._names = tuple(operand.name for operand in state)
        self._lane_shapes = tuple(array.shape[1:] for array in state.values())
        self._per_day = tuple(id(array) in per_day for array in self._arrays)
        #: The snapshot whose frozen arrays equal the live ones, or ``None``.
        self._cow_base: tuple | None = None

    # ------------------------------------------------------------------
    def _bind_entry(self, instr, inputs, output, member_params):
        spec = instr.spec
        params0 = member_params[0]
        same_params = all(p == params0 for p in member_params[1:])
        kernel = KERNELS.get(instr.op)
        # One lane gains nothing from a leading-axis kernel without an out=
        # form: it takes the per-lane call, the operator's own function.
        if same_params and kernel is not None and (
            spec.out is not None or self.num_programs > 1
        ):
            mode = "stacked"
            calls = [_Call(kernel, inputs, params0, output, output, spec.out)]
        elif not same_params and spec.gather is not None:
            mode = "gather"
            calls = [_Call(spec.gather(self.ctx, member_params), inputs, None,
                           output, output)]
        else:
            mode = "loop"
            calls = [
                _Call(spec.func, tuple(array[lane] for array in inputs),
                      params, output[lane], output)
                for lane, params in enumerate(member_params)
            ]
        entry = _StackedEntry(mode, kernel, instr, inputs, output,
                              member_params, calls)
        entry.set_steps(*_sanitize_steps(
            instr.op, inputs, (self._state[INPUT_MATRIX], self._state[LABEL])
        ))
        return entry

    @staticmethod
    def _flatten(entries) -> list[_Call]:
        return [call for entry in entries for call in entry.calls]

    # ------------------------------------------------------------------
    @property
    def prediction(self) -> np.ndarray:
        """The ``(P, K)`` predictions left by the last ``run_predict``."""
        return self._prediction

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the inference stage can run as batched tape passes."""
        return self.group[0].fused_inference

    @property
    def supports_static_predict(self) -> bool:
        """Whether the whole ``Predict()`` tape is day-loop invariant.

        True when, beyond fused-inference eligibility, ``Predict()`` reads
        no ``Update()``-carried operand — so the engine layer may run even
        the *training-stage* predictions as one batched
        :meth:`run_inference_batch` call (see
        :func:`repro.engine.protocol.training_pass`).
        """
        return self.group[0].static_predict

    @property
    def programs(self) -> tuple:
        """The lanes' :class:`~repro.core.program.AlphaProgram`\\ s."""
        return tuple(member.program for member in self.group)

    @property
    def lookback(self):
        """The lanes' shared :class:`~repro.compile.lookback.LookbackInfo`
        (one tape structure, one lookback)."""
        return self.group[0].lookback

    @cached_property
    def tape_keys(self) -> tuple[str, ...]:
        """Per-lane tape identity: the hash of that program's execution IR,
        the same for whatever group its lane sits in."""
        return tuple(tape_key_for(member.ir) for member in self.group)

    # ------------------------------------------------------------------
    def set_input(self, features: np.ndarray) -> None:
        """Write one day's shared ``(K, f, w)`` bar, once for every lane."""
        self._bar[...] = features

    def set_label(self, labels: np.ndarray) -> None:
        """Broadcast one day's realised ``(K,)`` labels into every lane."""
        self._state[LABEL][...] = labels

    def run_setup(self) -> None:
        """Run every lane's ``Setup()`` once, plus the hoisted static
        prologue."""
        self._cow_base = None
        self._run_tape(self._tapes["setup"])
        self._write_back(self._copies["setup"])
        self._run_tape(self._static_tape)

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""
        self._run_tape(self._tapes["predict"])
        self._write_back(self._copies["predict"])

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""
        self._cow_base = None
        self._run_tape(self._tapes["update"])
        self._write_back(self._copies["update"])

    @staticmethod
    def _write_back(copies: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for target, source in copies:
            target[...] = source

    def _run_tape(self, tape: list[_Call]) -> None:
        # The hot loop: every sanitize step inlined and in place.
        ctx = self.ctx
        clip, isnan = _clip, np.isnan
        low, high = -CLIP_VALUE, CLIP_VALUE
        for call in tape:
            target = call.target
            if call.out_func is not None:
                call.out_func(call.inputs, target)
                if call.clip:
                    clip(target, low, high, out=target)
            elif call.clip:
                clip(call.func(ctx, call.inputs, call.params), low, high,
                     out=target)
            else:
                target[...] = call.func(ctx, call.inputs, call.params)
            if call.scan:
                output = call.output
                output[isnan(output)] = 0.0
        self.kernel_calls += len(tape)

    # ------------------------------------------------------------------
    # Copy-on-write snapshots and the suspend / resume tape protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """A read-only copy-on-write snapshot of the operand state: the
        ``(K, f, w)`` bar, then each lane state array in bind order.

        ``run_setup``, ``run_update``, :meth:`resume` and :meth:`adopt`
        drop the reuse base, so the next snapshot copies everything;
        :meth:`restore` makes the restored snapshot the base.
        """
        base = self._cow_base
        if base is None:
            lanes = tuple(_read_only(array.copy()) for array in self._arrays)
        else:
            lanes = tuple(
                _read_only(array.copy()) if per_day else kept
                for array, per_day, kept in zip(self._arrays, self._per_day,
                                                base[1:])
            )
        snap = (_read_only(self._bar.copy()),) + lanes
        self._cow_base = snap
        return snap

    def restore(self, snap: tuple) -> None:
        """Write a :meth:`snapshot` of this binding back into its state.

        Neither validates nor reruns the static prologue: the binding is
        live and its prologue buffers have not changed.  A snapshot holds
        only values this tape produced, so the sanitize elision stays.
        """
        self._bar[...] = snap[0]
        for array, saved in zip(self._arrays, snap[1:]):
            array[...] = saved
        self._cow_base = snap

    def tape_state(self, snap: tuple, lane: int) -> TapeState:
        """Lane ``lane`` of a :meth:`snapshot` as a :class:`TapeState`;
        its ``m0`` is the snapshot's one bar, the same for every lane."""
        ctx = self.ctx
        return TapeState(
            version=TAPE_STATE_VERSION,
            tape_key=self.tape_keys[lane],
            base_seed=ctx.base_seed,
            shape=(ctx.num_tasks, ctx.num_features, ctx.window),
            operands=dict(zip(self._names, (snap[0],) + tuple(
                array[lane] for array in snap[1:]
            ))),
        )

    def suspend(self) -> tuple[TapeState, ...]:
        """Every lane's loop-carried state, one :class:`TapeState` each.

        A state holds everything :meth:`resume` needs to continue
        day-by-day execution bitwise identically to an uninterrupted run:
        the operand state arrays (the cross-day memory) plus the tape and
        binding identity.  The hoisted static prologue is *not* captured —
        it is a deterministic function of the bound context and is
        recomputed on resume.
        """
        snap = self.snapshot()
        return tuple(self.tape_state(snap, lane) for lane in range(
            self.num_programs))

    def _check_states(self, states) -> list[TapeState]:
        """``states``, one per lane, or :class:`ExecutionError`."""
        states = list(states)
        if len(states) != self.num_programs:
            raise ExecutionError(
                f"expected {self.num_programs} tape states for this tape, "
                f"got {len(states)}"
            )
        ctx = self.ctx
        shape = (ctx.num_tasks, ctx.num_features, ctx.window)
        expected = set(self._names)
        for state, tape_key in zip(states, self.tape_keys):
            if state.version != TAPE_STATE_VERSION:
                raise ExecutionError(
                    f"tape state has version {state.version}, this build "
                    f"reads version {TAPE_STATE_VERSION}"
                )
            if state.tape_key != tape_key:
                raise ExecutionError(
                    "tape state was suspended from a different compiled "
                    "program"
                )
            if state.shape != shape:
                raise ExecutionError(
                    f"tape state was bound to shape {state.shape}, "
                    f"this executor is bound to {shape}"
                )
            if state.base_seed != ctx.base_seed:
                raise ExecutionError(
                    f"tape state was produced under base seed "
                    f"{state.base_seed}, this executor runs under "
                    f"{ctx.base_seed}"
                )
            found = set(state.operands)
            if found != expected:
                raise ExecutionError(
                    "tape state operand set does not match this tape "
                    f"(missing {sorted(expected - found)}, "
                    f"unexpected {sorted(found - expected)})"
                )
            for name, lane_shape in zip(self._names, self._lane_shapes):
                if np.shape(state.operands[name]) != lane_shape:
                    raise ExecutionError(
                        f"tape state operand {name} has shape "
                        f"{np.shape(state.operands[name])}, this tape holds "
                        f"{lane_shape}"
                    )
        return states

    def _admit_outside_state(self) -> None:
        """Outside data may hold raw captures: sanitize every call fully
        from now on, and copy everything at the next snapshot."""
        for entry in self._entries:
            entry.set_steps(True, True)
        self._cow_base = None

    def resume(self, states) -> None:
        """Restore one :class:`TapeState` per lane into this fresh binding.

        Validates every state against its lane (tape key, binding shape,
        seed, operand set and shapes) before any lane is touched, re-runs
        the static prologue (pure, so bit-for-bit reproducible), then
        writes the operand state; the next ``run_predict`` /
        ``run_update`` continues exactly where the suspended tape stopped.
        The bar is the first state's ``m0``: every protocol path calls
        ``set_input`` before ``run_predict``, so no lane can observe it,
        while ``s0`` stays each lane's own.
        """
        states = self._check_states(states)
        self._run_tape(self._static_tape)
        self._bar[...] = states[0].operands[INPUT_MATRIX.name]
        for array, name in zip(self._arrays, self._names[1:]):
            for lane, state in enumerate(states):
                array[lane] = state.operands[name]
        self._admit_outside_state()

    def adopt(self, states) -> tuple:
        """Validate persisted per-lane :class:`TapeState`\\ s (as
        :meth:`resume` does) and stack them into one :meth:`snapshot` for
        :meth:`restore`, whose bar is the first state's ``m0`` (see
        :meth:`resume`)."""
        states = self._check_states(states)
        self._admit_outside_state()
        bar = np.array(states[0].operands[INPUT_MATRIX.name], dtype=np.float64)
        return (_read_only(bar),) + tuple(
            _read_only(np.stack(
                [state.operands[name] for state in states], dtype=np.float64
            ))
            for name in self._names[1:]
        )

    # ------------------------------------------------------------------
    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Run the inference stage of every lane in batched tape passes.

        ``features`` is the shared ``(D, K, f, w)`` split, in any memory
        order; the return value holds the ``(D, P, K)`` predictions,
        bit-for-bit equal to looping ``set_input`` / ``run_predict`` over
        the days.  Only valid when
        :attr:`supports_fused_inference` is True.
        """
        if not self.supports_fused_inference:
            raise ValueError(
                "program is not eligible for fused inference; run day by day"
            )
        # Entries off the day axis read only static memory: one execution
        # covers every day.
        self._run_tape(self._invariant_tape)
        num_days = features.shape[0]
        if not self._prediction_on_day_axis:
            # The prediction does not depend on the input matrix: every day
            # sees the same (static) value.
            return np.broadcast_to(
                self._prediction, (num_days,) + self._prediction.shape
            ).copy()

        ctx = self.ctx
        P = self.num_programs
        out = np.empty((num_days, P, ctx.num_tasks))
        per_day = P * ctx.num_tasks * ctx.num_features * ctx.window
        chunk = max(1, _MAX_CHUNK_ELEMENTS // max(per_day, 1))
        calls = 0
        for day0 in range(0, num_days, chunk):
            # Kernels reduce in memory order: a C-ordered chunk keeps their
            # bits equal to the day loop's (a no-op on gathered bars).
            days = np.ascontiguousarray(features[day0:day0 + chunk])
            # Stride-0 view: the shared bar chunk is never materialised P
            # times.
            batched = {self._input_matrix_id: np.broadcast_to(
                days, (P,) + days.shape
            )}
            for entry in self._day_entries:
                inputs = tuple(
                    batched[vid] if vid in batched else array[:, None]
                    for vid, array in zip(entry.input_ids, entry.inputs)
                )
                output = np.empty((P, days.shape[0]) + entry.output.shape[1:])
                calls += self._run_batched(entry, inputs, output, batched)
                batched[entry.output_id] = output
            out[day0:day0 + days.shape[0]] = (
                batched[self._prediction_id].transpose(1, 0, 2)
            )
        self.kernel_calls += calls
        return out

    def _run_batched(self, entry, inputs, output, batched) -> int:
        """Run one day-axis entry over ``(P, C, …)`` inputs into ``output``;
        returns its kernel calls."""
        ctx, kernel, out_form = self.ctx, entry.kernel, entry.spec.out
        if entry.mode == "stacked":
            if out_form is not None:
                out_form(inputs, output)
                _sanitize_into(output, output, entry.clip, entry.scan)
            else:
                _sanitize_into(output, kernel(ctx, inputs, entry.member_params[0]),
                               entry.clip, entry.scan)
            return 1
        if kernel is not None:
            # Per-lane parameters, but the operator batches over the day
            # axis: one day-batched call per lane, clipped straight into the
            # lane (the elementwise NaN scan hoists to one pass).
            for lane, params in enumerate(entry.member_params):
                _sanitize_into(output[lane], kernel(
                    ctx, tuple(array[lane] for array in inputs), params
                ), entry.clip, False)
            _sanitize_into(output, output, False, entry.scan)
            return self.num_programs
        day_flags = tuple(vid in batched for vid in entry.input_ids)
        for lane, params in enumerate(entry.member_params):
            lane_inputs = tuple(array[lane] for array in inputs)
            for day in range(output.shape[1]):
                output[lane, day] = entry.spec.func(ctx, tuple(
                    array[day] if flag else array[0]
                    for array, flag in zip(lane_inputs, day_flags)
                ), params)
        # sanitize is elementwise: one pass equals a pass per lane and day.
        _sanitize_into(output, output, entry.clip, entry.scan)
        return self.num_programs * output.shape[1]
