"""SSA-style intermediate representation of alpha programs.

An :class:`~repro.core.program.AlphaProgram` addresses a small register file
(``s0..``, ``v0..``, ``m0..``) and overwrites registers freely, which makes
operand-level optimisation awkward: the same address can hold many unrelated
values over the course of one component.  Lowering to SSA form gives every
computed value its own id, so the optimiser passes (:mod:`.passes`) and the
tape executor (:mod:`.executor`) can reason about dataflow directly:

* a **value** is either a *component input* — the content of an operand at
  component entry (carried state, ``m0``, ``s0``) — or the result of one
  instruction;
* an **instruction** mirrors one :class:`~repro.core.program.Operation` but
  references value ids instead of operand addresses (the operand the original
  operation wrote is retained for liveness/export analysis);
* each component records its **inputs** (operand → value id for every operand
  read before being written) and its **exports** (operand → final value id
  for every operand written), which is how cross-component and cross-day
  dataflow — the loop-carried state of the training protocol — stays
  explicit.

The IR is intentionally minimal: three straight-line components, no control
flow.  The cross-time-step loop of the evaluation protocol lives in the
component input/export maps, exactly as in the dataflow view of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.memory import Operand, OperandType
from ..core.ops import OpSpec, get_op
from ..core.program import AlphaProgram, COMPONENTS

__all__ = ["IRValue", "IRInstruction", "IRComponent", "IRProgram", "lower_program"]


@dataclass(frozen=True)
class IRValue:
    """One SSA value: a component input or the result of one instruction."""

    id: int
    type: OperandType
    #: For component inputs: the operand whose entry value this is.  ``None``
    #: for instruction results.
    operand: Operand | None = None


@dataclass(frozen=True)
class IRInstruction:
    """One operation over SSA values.

    ``output`` is the operand address the original operation wrote; it only
    matters for export/liveness analysis — readers reference ``result``.
    """

    op: str
    inputs: tuple[int, ...]
    params: tuple[tuple[str, object], ...]
    result: int
    output: Operand

    @property
    def spec(self) -> OpSpec:
        """The operator specification from the registry."""
        return get_op(self.op)

    @property
    def param_dict(self) -> dict:
        """Parameters as a plain dictionary."""
        return dict(self.params)


@dataclass
class IRComponent:
    """One straight-line component (Setup / Predict / Update) in SSA form."""

    name: str
    #: Operand → value id for every operand read before being written.
    inputs: dict[Operand, int] = field(default_factory=dict)
    instructions: list[IRInstruction] = field(default_factory=list)
    #: Operand → final value id for every operand written by the component.
    exports: dict[Operand, int] = field(default_factory=dict)


@dataclass
class IRProgram:
    """A full alpha program in SSA form."""

    name: str
    components: dict[str, IRComponent]
    values: dict[int, IRValue]

    @property
    def num_instructions(self) -> int:
        """Total instruction count across all components."""
        return sum(len(c.instructions) for c in self.components.values())

    def component(self, name: str) -> IRComponent:
        """The component named ``name`` (``setup``/``predict``/``update``)."""
        return self.components[name]

    # ------------------------------------------------------------------
    def render(self, mask_params: bool = False) -> str:
        """Human-readable SSA listing (also what the tape key hashes).

        Instruction results are numbered per component in listing order and
        component inputs are shown by operand name, so the rendering is
        independent of the intermediate operand addresses the original
        program happened to use.  ``mask_params`` prints every parameter
        value as ``*`` (the stack signature's view).
        """
        lines: list[str] = []
        for name in COMPONENTS:
            component = self.components[name]
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
                rendered_params = "; " + ", ".join(
                    f"{key}={'*' if mask_params else repr(value)}"
                    for key, value in sorted(instr.params)
                ) if instr.params else ""
                lines.append(f"  %{index} = {instr.op}({args}{rendered_params})")
            if component.exports:
                exported = ", ".join(
                    f"{operand.name}={names.get(vid, f'?{vid}')}"
                    for operand, vid in sorted(component.exports.items())
                )
                lines.append(f"  out {exported}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def copy(self) -> "IRProgram":
        """A structural copy (instructions are immutable, containers are not)."""
        return IRProgram(
            name=self.name,
            components={
                name: IRComponent(
                    name=component.name,
                    inputs=dict(component.inputs),
                    instructions=list(component.instructions),
                    exports=dict(component.exports),
                )
                for name, component in self.components.items()
            },
            values=dict(self.values),
        )


def lower_program(program: AlphaProgram) -> IRProgram:
    """Lower an :class:`AlphaProgram` into SSA form.

    Within a component, reads resolve to the most recent write; a read of an
    operand that has not been written yet creates a component-input value.
    Value ids are unique across the whole program.
    """
    values: dict[int, IRValue] = {}
    components: dict[str, IRComponent] = {}
    next_id = 0

    def new_value(type_: OperandType, operand: Operand | None = None) -> int:
        nonlocal next_id
        vid = next_id
        next_id += 1
        values[vid] = IRValue(id=vid, type=type_, operand=operand)
        return vid

    for name, operations in program.components().items():
        component = IRComponent(name=name)
        env: dict[Operand, int] = {}
        written: set[Operand] = set()
        for operation in operations:
            input_ids = []
            for operand in operation.inputs:
                if operand not in env:
                    vid = new_value(operand.type, operand=operand)
                    env[operand] = vid
                    component.inputs[operand] = vid
                input_ids.append(env[operand])
            result = new_value(operation.output.type)
            component.instructions.append(
                IRInstruction(
                    op=operation.op,
                    inputs=tuple(input_ids),
                    params=operation.params,
                    result=result,
                    output=operation.output,
                )
            )
            env[operation.output] = result
            written.add(operation.output)
        component.exports = {operand: env[operand] for operand in written}
        components[name] = component

    return IRProgram(name=program.name, components=components, values=values)


def substitute_inputs(instruction: IRInstruction,
                      mapping: dict[int, int]) -> IRInstruction:
    """Rewrite an instruction's input value ids through ``mapping``."""
    new_inputs = tuple(mapping.get(vid, vid) for vid in instruction.inputs)
    if new_inputs == instruction.inputs:
        return instruction
    return replace(instruction, inputs=new_inputs)
