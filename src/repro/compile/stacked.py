"""Stacked (cross-program) execution of signature-grouped compiled alphas.

:class:`CompiledAlpha` removed the per-operation bookkeeping; its fused
inference path removed the per-*day* dispatch.  The one axis still paid per
member is the *program* axis: a fleet of P structurally identical programs
costs P separate tape walks however similar they are.  :class:`StackedAlpha`
removes it — a group of compiled programs sharing one
:func:`stack_signature` (same opcode sequence, same SSA wiring, same operand
inputs/exports; parameter *values* free to differ) executes as **one** tape
whose state and buffers carry a leading program axis:

* scalar operands/values become ``(P, K)``, vectors ``(P, K, w)``, matrices
  ``(P, K, f, w)``;
* an instruction whose parameters agree across the group and whose operator
  has a leading-axis kernel in the registry both tape runners share
  (:data:`repro.compile.executor.KERNELS`) runs as **one** NumPy call for
  the whole group, through the kernel's ``out=`` form where it has one;
* the extraction operators (``get_scalar`` / ``get_row`` / ``get_column``)
  with *differing* per-member indices run as one advanced-indexing gather;
* everything else falls back to a per-member slice loop *inside* the entry
  — bitwise identical by construction (the per-lane raw results are written
  first and sanitised in one elementwise pass), while the batched majority
  still collapses P-fold dispatch into one call.

Bitwise parity with per-program execution is the same hard contract the
compiled executor honours against the interpreter.  The registry's kernels
equal the per-slice registry call bit for bit under any leading axes (see
:mod:`repro.compile.executor`), which is exactly what a program axis — or,
on the fused path, a program axis plus a day axis — needs.  Each entry's
sanitize steps are resolved at bind time from the same registry contract
as the solo tape's, and outside state — :meth:`StackedAlpha.resume` or an
adopted persisted snapshot — restores full sanitizing for the rest of the
binding.

Delta-replay snapshots are the solo tape's copy-on-write snapshots
(:class:`~repro.compile.executor._TapeRunner`) over the stacked buffers:
one ``(P, …)`` copy per per-day operand for the whole group, the frozen
ones shared with the previous snapshot.  Suspend/resume slices cleanly in
and out of them: :meth:`StackedAlpha.suspend_member` and
:meth:`StackedAlpha.tape_state` emit a :class:`TapeState` indistinguishable
from the one a solo :class:`CompiledAlpha` of the same program would
produce (same ``tape_key``, same operand set), so checkpoints move freely
between stacked and per-program serving.
"""

from __future__ import annotations

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.program import COMPONENTS
from ..errors import ExecutionError
from .compiler import CompiledProgram
from .executor import (
    KERNELS,
    TapeState,
    _read_only,
    _sanitize_into,
    _sanitize_steps,
    _TapeRunner,
    tape_key_for,
)

__all__ = ["StackedAlpha", "stack_signature"]

#: Ceiling on elements of one stacked+day-batched buffer; the fused path
#: chunks the day axis so a ``(P, C, K, f, w)`` matrix buffer stays around
#: 32 MB however large the fleet grows.
_MAX_CHUNK_ELEMENTS = 1 << 22

#: Stacked-mode operators worth chunking over the program axis: the
#: matrix-heavy contractions whose per-lane working set is large enough
#: that a monolithic ``(P, ...)`` call spills cache.  Batch elements are
#: contracted independently, so any leading-axis split is bitwise-neutral.
_PROGRAM_CHUNK_OPS = frozenset({"matmul", "matvec", "v_dot"})


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
    ir = compiled.ir
    lines: list[str] = []
    for name in COMPONENTS:
        component = ir.components[name]
        lines.append(f"{name}:")
        names: dict[int, str] = {
            vid: operand.name for operand, vid in component.inputs.items()
        }
        if component.inputs:
            declared = ", ".join(
                operand.name for operand in sorted(component.inputs)
            )
            lines.append(f"  in {declared}")
        for index, instr in enumerate(component.instructions):
            names[instr.result] = f"%{index}"
            args = ", ".join(names.get(vid, f"?{vid}") for vid in instr.inputs)
            masked = "; " + ", ".join(
                f"{key}=*" for key, _ in sorted(instr.params)
            ) if instr.params else ""
            lines.append(f"  %{index} = {instr.op}({args}{masked})")
        if component.exports:
            exported = ", ".join(
                f"{operand.name}={names.get(vid, f'?{vid}')}"
                for operand, vid in sorted(component.exports.items())
            )
            lines.append(f"  out {exported}")
    return "\n".join(lines)


class _StackedEntry:
    """One instruction of the stacked tape, execution strategy pre-resolved.

    ``mode`` is decided once at bind time:

    * ``"stacked"`` — parameters identical across members and the operator
      has a leading-axis kernel: one call over ``(P, ...)`` arrays;
    * ``"gather"`` — an extraction operator with per-member indices: one
      advanced-indexing call with precomputed index vectors;
    * ``"loop"`` — per-member slice fallback (exact by construction).

    ``clip`` / ``scan`` are the sanitize steps the result still owes, as on
    the solo tape.
    """

    __slots__ = (
        "op", "mode", "func", "out_func", "clip", "scan", "spec_func",
        "gather", "inputs", "input_ids", "output", "output_id", "params0",
        "member_params", "calls", "pchunk",
    )

    def __init__(self, op, mode, func, spec_func, gather, inputs, input_ids,
                 output, output_id, params0, member_params, calls, steps):
        self.op = op
        self.mode = mode
        self.func = func
        #: ``out=``-writing variant (stacked mode only).
        kernel = KERNELS.get(op)
        self.out_func = (
            kernel.out if mode == "stacked" and kernel is not None else None
        )
        self.clip, self.scan = steps
        self.spec_func = spec_func
        self.gather = gather
        self.inputs = inputs
        self.input_ids = input_ids
        self.output = output
        self.output_id = output_id
        self.params0 = params0
        self.member_params = member_params
        #: Kernel calls one execution of this entry issues (telemetry).
        self.calls = calls
        #: Whether the program axis may be chunked for cache residency
        #: (stacked-mode matrix contractions only; bitwise-neutral).
        self.pchunk = mode == "stacked" and op in _PROGRAM_CHUNK_OPS


def _make_gather(op: str, member_params, ctx):
    """Advanced-indexing kernel for an extraction op with per-member indices."""
    P = len(member_params)
    pidx = np.arange(P)
    if op == "get_scalar":
        rows = np.array([p["row"] % ctx.num_features for p in member_params])
        cols = np.array([p["col"] % ctx.window for p in member_params])
        kidx = np.arange(ctx.num_tasks)
        return lambda m: m[
            pidx[:, None], kidx[None, :], rows[:, None], cols[:, None]
        ]
    if op == "get_row":
        rows = np.array([p["row"] % ctx.num_features for p in member_params])
        return lambda m: m[pidx, :, rows, :]
    if op == "get_column":
        cols = np.array([p["col"] % ctx.window for p in member_params])
        return lambda m: m[pidx, :, :, cols]
    return None


class StackedAlpha(_TapeRunner):
    """One signature group of compiled alphas executed as a single tape.

    Satisfies the :class:`~repro.engine.backends.ExecutionEngine` per-day
    vocabulary with every array carrying a leading program axis:
    :attr:`prediction` is ``(P, K)``, :meth:`run_inference_batch` returns
    ``(D, P, K)``, and :meth:`set_input` / :meth:`set_label` broadcast one
    shared bar across the whole group — so the engine-layer protocol drives
    a group exactly as it drives one program.

    Parameters
    ----------
    compiled_group:
        The group's :class:`~repro.compile.compiler.CompiledProgram` members,
        all sharing one :func:`stack_signature` (validated here).
    ctx:
        The shared evaluation context every member binds to.
    program_chunk:
        Program-axis chunk size for the matrix-heavy stacked contractions
        (:data:`_PROGRAM_CHUNK_OPS`): ``None`` derives a cache-resident
        size from the context's per-lane working set, ``0`` disables
        chunking, a positive int forces that many lanes per kernel call.
        Contractions treat batch elements independently, so chunking never
        changes a bit of any result — only how many lanes each NumPy call
        touches at once.
    """

    def __init__(self, compiled_group, ctx,
                 program_chunk: int | None = None) -> None:
        compiled_group = list(compiled_group)
        if not compiled_group:
            raise ExecutionError("cannot stack an empty program group")
        template = compiled_group[0]
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
        #: Batched NumPy kernel calls issued so far (telemetry counter feed).
        self.kernel_calls = 0
        if program_chunk is None:
            # Auto: keep one chunk's matrix operands around the same
            # budget the fused path uses for its day chunks.
            per_lane = ctx.num_tasks * ctx.num_features * ctx.window
            program_chunk = max(1, _MAX_CHUNK_ELEMENTS // max(per_lane, 1))
        #: Lanes per kernel call for :data:`_PROGRAM_CHUNK_OPS` entries
        #: (``0`` = monolithic).
        self.program_chunk = int(program_chunk)

        shapes = {
            OperandType.SCALAR: (P, ctx.num_tasks),
            OperandType.VECTOR: (P, ctx.num_tasks, ctx.window),
            OperandType.MATRIX: (P, ctx.num_tasks, ctx.num_features,
                                 ctx.window),
        }
        ir = template.ir
        carried = template.dataflow.carried

        self._state: dict[Operand, np.ndarray] = {}

        def state_array(operand: Operand) -> np.ndarray:
            array = self._state.get(operand)
            if array is None:
                array = np.zeros(shapes[operand.type])
                self._state[operand] = array
            return array

        for operand in (INPUT_MATRIX, LABEL, PREDICTION):
            state_array(operand)

        self._buffers: dict[int, np.ndarray] = {}
        self._static_tape: list[_StackedEntry] = []
        self._tapes: dict[str, list[_StackedEntry]] = {}
        self._copies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

        for name, component in ir.components.items():
            static_ids: set[int] = set()
            tape: list[_StackedEntry] = []
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
                is_static = name != "setup" and all(
                    vid in static_ids for vid in instr.inputs
                )
                if is_static:
                    static_ids.add(instr.result)
                    self._static_tape.append(entry)
                else:
                    tape.append(entry)
            self._tapes[name] = tape
            self._copies[name] = [
                (state_array(operand), self._buffers[vid])
                for operand, vid in component.exports.items()
                if operand in carried
            ]

        predict = ir.components["predict"]
        prediction_value = predict.exports.get(PREDICTION)
        if prediction_value is not None:
            self._prediction = self._buffers[prediction_value]
        else:
            self._prediction = self._state[PREDICTION]
        self._prediction_id = prediction_value
        #: Per-member tape identity — the same key a solo CompiledAlpha of
        #: that member would carry, so suspended lanes resume anywhere.
        self.tape_keys = tuple(
            tape_key_for(member.ir) for member in compiled_group
        )
        self._bind_snapshots(lanes=1)

    # ------------------------------------------------------------------
    @classmethod
    def from_programs(cls, programs, ctx) -> "StackedAlpha":
        """Compile ``programs`` in-process and stack them onto ``ctx``.

        The pickle-free rebind used by the shared-memory pool workers:
        only the (tiny) :class:`~repro.core.program.AlphaProgram` payloads
        cross the IPC channel; compilation, the stacked ``(P, ...)`` state
        buffers and the binding to a context whose panels are shared-memory
        views all happen inside the worker.  Raises
        :class:`~repro.errors.ExecutionError` when the programs do not
        share one :func:`stack_signature`.
        """
        from .compiler import compile_program

        return cls([compile_program(program) for program in programs], ctx)

    # ------------------------------------------------------------------
    def _bind_entry(self, instr, inputs, output, member_params):
        params0 = member_params[0]
        same_params = all(p == params0 for p in member_params[1:])
        kernel = KERNELS.get(instr.op)
        steps = _sanitize_steps(
            instr.op, inputs,
            (self._state[INPUT_MATRIX], self._state[LABEL]),
        )
        if same_params and kernel is not None:
            return _StackedEntry(
                instr.op, "stacked", kernel.func, instr.spec.func, None,
                inputs, instr.inputs, output, instr.result, params0,
                member_params, calls=1, steps=steps,
            )
        gather = None if same_params else _make_gather(
            instr.op, member_params, self.ctx
        )
        if gather is not None:
            return _StackedEntry(
                instr.op, "gather", None, instr.spec.func, gather,
                inputs, instr.inputs, output, instr.result, params0,
                member_params, calls=1, steps=steps,
            )
        return _StackedEntry(
            instr.op, "loop", None, instr.spec.func, None,
            inputs, instr.inputs, output, instr.result, params0,
            member_params, calls=self.num_programs, steps=steps,
        )

    # ------------------------------------------------------------------
    @property
    def prediction(self) -> np.ndarray:
        """The ``(P, K)`` predictions left by the last ``run_predict``."""
        return self._prediction

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the group's inference runs as batched tape passes."""
        return self.group[0].fused_inference

    @property
    def supports_static_predict(self) -> bool:
        """Whether the group's whole ``Predict()`` tape is day-invariant."""
        return self.group[0].static_predict

    # ------------------------------------------------------------------
    def set_input(self, features: np.ndarray) -> None:
        """Broadcast one day's shared ``(K, f, w)`` bar into every lane."""
        self._state[INPUT_MATRIX][...] = features

    def set_label(self, labels: np.ndarray) -> None:
        """Broadcast one day's realised ``(K,)`` labels into every lane."""
        self._state[LABEL][...] = labels

    # ------------------------------------------------------------------
    def _run_stacked(self, entry, inputs, out) -> int:
        """Run a ``"stacked"``-mode entry into ``out``; returns its calls."""
        if entry.out_func is not None:
            entry.out_func(inputs, out)
            _sanitize_into(out, out, entry.clip, entry.scan)
            return 1
        P, chunk = self.num_programs, self.program_chunk
        if not (entry.pchunk and 0 < chunk < P):
            _sanitize_into(out, entry.func(self.ctx, inputs, entry.params0),
                           entry.clip, entry.scan)
            return 1
        for lane0 in range(0, P, chunk):
            lanes = slice(lane0, lane0 + chunk)
            _sanitize_into(
                out[lanes],
                entry.func(self.ctx, tuple(array[lanes] for array in inputs),
                           entry.params0),
                entry.clip, entry.scan,
            )
        return -(-P // chunk)

    def _run_tape(self, entries) -> None:
        ctx = self.ctx
        calls = 0
        for entry in entries:
            mode = entry.mode
            out = entry.output
            if mode == "stacked":
                calls += self._run_stacked(entry, entry.inputs, out)
                continue
            if mode == "gather":
                _sanitize_into(out, entry.gather(entry.inputs[0]),
                               entry.clip, entry.scan)
            else:
                func = entry.spec_func
                inputs = entry.inputs
                for lane, params in enumerate(entry.member_params):
                    out[lane] = func(
                        ctx, tuple(array[lane] for array in inputs), params
                    )
                # sanitize is elementwise, so one pass over the stacked
                # buffer equals P per-lane passes bit for bit — and costs
                # one dispatch instead of P.
                _sanitize_into(out, out, entry.clip, entry.scan)
            calls += entry.calls
        self.kernel_calls += calls

    # ------------------------------------------------------------------
    # Suspend / resume: lanes slice in and out of the stacked buffers
    # ------------------------------------------------------------------
    def suspend_member(self, lane: int) -> TapeState:
        """Snapshot one lane as a standard :class:`TapeState`.

        The snapshot carries the member's *own* tape key and the per-program
        operand shapes, so it is interchangeable with one produced by a solo
        :class:`~repro.compile.executor.CompiledAlpha` of the same program —
        stacked fleets checkpoint into per-program servers and back.
        """
        return self.tape_state(self.snapshot(), lane)

    def tape_state(self, snap: tuple, lane: int) -> TapeState:
        """Lane ``lane`` of a group :meth:`snapshot` as a :class:`TapeState`."""
        return self._tape_state(snap, self.tape_keys[lane], lane)

    def _check_states(self, states) -> list:
        states = list(states)
        if len(states) != self.num_programs:
            raise ExecutionError(
                f"expected {self.num_programs} tape states for this stacked "
                f"group, got {len(states)}"
            )
        for state, tape_key in zip(states, self.tape_keys):
            self._check_state(state, tape_key)
        return states

    def resume(self, states) -> None:
        """Restore one :class:`TapeState` per lane into this fresh group.

        Validates each snapshot against its lane (tape key, binding shape,
        seed, operand set) before any lane is touched, re-runs the static
        prologue, then writes every lane's operand state.
        """
        states = self._check_states(states)
        self._run_tape(self._static_tape)
        for array, name in zip(self._arrays, self._names):
            for lane, state in enumerate(states):
                array[lane] = state.operands[name]
        self._admit_outside_state()

    def adopt(self, states) -> tuple:
        """Validate persisted per-lane :class:`TapeState`\\ s (as
        :meth:`resume` does) and stack them into one group snapshot for
        :meth:`restore`."""
        states = self._check_states(states)
        self._admit_outside_state()
        return tuple(
            _read_only(np.stack(
                [state.operands[name] for state in states], dtype=np.float64
            ))
            for name in self._names
        )

    # ------------------------------------------------------------------
    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Run the whole group's inference stage in batched tape passes.

        ``features`` is the shared ``(D, K, f, w)`` split; the return value
        holds ``(D, P, K)`` predictions, bit-for-bit equal to running each
        member's own fused (or day-loop) inference.  The day axis is chunked
        so the largest ``(P, C, K, f, w)`` intermediate stays bounded
        (:data:`_MAX_CHUNK_ELEMENTS`) however big the fleet.
        """
        template = self.group[0]
        if not template.fused_inference:
            raise ValueError(
                "program group is not eligible for fused inference; "
                "run day by day"
            )
        ctx = self.ctx
        P = self.num_programs
        num_days = features.shape[0]
        predict = template.ir.components["predict"]
        input_matrix_value = predict.inputs.get(INPUT_MATRIX)

        # Which values depend on the day axis is structural, hence shared.
        batched_ids: set[int] = set()
        if input_matrix_value is not None:
            batched_ids.add(input_matrix_value)
        for entry in self._tapes["predict"]:
            if any(vid in batched_ids for vid in entry.input_ids):
                batched_ids.add(entry.output_id)

        # Entries off the day axis read only current stacked state: one
        # execution covers every day (same move as the solo fused path).
        static_entries = [
            entry for entry in self._tapes["predict"]
            if entry.output_id not in batched_ids
        ]
        self._run_tape(static_entries)

        pred_vid = self._prediction_id
        if pred_vid is None or pred_vid not in batched_ids:
            # Prediction independent of m0: every day sees the same value.
            return np.broadcast_to(
                self._prediction, (num_days,) + self._prediction.shape
            ).copy()

        out = np.empty((num_days, P, ctx.num_tasks))
        per_day = P * ctx.num_tasks * ctx.num_features * ctx.window
        chunk = max(1, _MAX_CHUNK_ELEMENTS // max(per_day, 1))
        calls = 0
        for day0 in range(0, num_days, chunk):
            days = features[day0:day0 + chunk]
            C = days.shape[0]
            batched: dict[int, np.ndarray] = {}
            if input_matrix_value is not None:
                # Stride-0 view: the shared bar chunk is never materialised
                # P times.
                batched[input_matrix_value] = np.broadcast_to(
                    days, (P,) + days.shape
                )
            for entry in self._tapes["predict"]:
                if entry.output_id not in batched_ids:
                    continue
                inputs = tuple(
                    batched[vid] if vid in batched else array[:, None]
                    for vid, array in zip(entry.input_ids, entry.inputs)
                )
                output = np.empty((P, C) + entry.output.shape[1:])
                kernel = KERNELS.get(entry.op)
                if entry.mode == "stacked":
                    calls += self._run_stacked(entry, inputs, output)
                elif kernel is not None:
                    # Per-member parameters, but the operator batches over
                    # the day axis: one day-batched call per lane (the
                    # elementwise sanitize hoists to one stacked pass).
                    for lane, params in enumerate(entry.member_params):
                        output[lane] = kernel.func(
                            ctx,
                            tuple(array[lane] for array in inputs),
                            params,
                        )
                    _sanitize_into(output, output, entry.clip, entry.scan)
                    calls += P
                else:
                    day_flags = tuple(
                        vid in batched for vid in entry.input_ids
                    )
                    for lane, params in enumerate(entry.member_params):
                        lane_inputs = tuple(array[lane] for array in inputs)
                        for day in range(C):
                            day_inputs = tuple(
                                array[day] if flag else array[0]
                                for array, flag in zip(lane_inputs, day_flags)
                            )
                            output[lane, day] = entry.spec_func(
                                ctx, day_inputs, params
                            )
                    _sanitize_into(output, output, entry.clip, entry.scan)
                    calls += P * C
                batched[entry.output_id] = output
            out[day0:day0 + C] = batched[pred_vid].transpose(1, 0, 2)
        self.kernel_calls += calls
        return out
