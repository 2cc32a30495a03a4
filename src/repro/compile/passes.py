"""Optimiser passes over the alpha IR.

Four classic passes, specialised to the alpha language:

* **constant folding** — scalar operations whose inputs are all known
  constants are folded into ``s_const``.  Only operators whose registry
  entry declares it (:attr:`~repro.core.ops.OpSpec.fold`: IEEE basic
  arithmetic, min/max, abs/sign/heaviside and the protected divide) are
  folded, by calling the registry operator itself — sanitize included — on
  one-element arrays of the constants.  Their elementwise result does not
  depend on the array length, so a folded program is numerically
  indistinguishable from the original; transcendentals are deliberately
  excluded because their code paths are not guaranteed to round
  identically at every length.
* **commutative canonicalisation** — the operands of commutative operators
  are sorted by a structural value key, so ``add(s2, s3)`` and
  ``add(s3, s2)`` become the same instruction.  Execution never uses the
  canonicalised order (reordering ``min``/``max`` operands can flip the sign
  of a zero); it exists so that the *fingerprint* of mirror-image programs
  collides.
* **common-subexpression elimination** — within a component, an instruction
  that recomputes an already-available value is removed and its readers are
  rewired to the earlier value.  Every operator in the registry is a
  deterministic function of its inputs, parameters and the evaluation
  context (stochastic initialisers derive their RNG from their parameters),
  which is what makes this sound.
* **dead-code elimination** — the IR-level generalisation of the Section 4.2
  redundancy pruning: it drives the *same*
  :func:`~repro.core.pruning.liveness_fixpoint` as
  :func:`~repro.core.pruning.prune_program`, but over SSA instructions, and
  also reports the carried-operand set and per-component live-ins that the
  executor needs (export copies, fused-inference eligibility).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from ..core.memory import INPUT_MATRIX, Operand, PREDICTION
from ..core.ops import sanitize
from ..core.program import COMPONENTS
from ..core.pruning import liveness_fixpoint
from .ir import IRInstruction, IRProgram, substitute_inputs

__all__ = [
    "PassStats",
    "DataflowInfo",
    "fold_constants",
    "canonicalize_commutative",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "analyze_dataflow",
]


@dataclass(frozen=True)
class PassStats:
    """What one optimiser pass did to the IR."""

    name: str
    removed: int = 0
    rewritten: int = 0

    def describe(self) -> str:
        """One line for the ``repro inspect`` report."""
        return f"{self.name}: removed {self.removed}, rewrote {self.rewritten}"


@dataclass
class DataflowInfo:
    """Liveness results shared by dead-code elimination and the executor."""

    #: Component name → indices of instructions that contribute to the
    #: prediction (directly or through carried parameters).
    needed: dict[str, set[int]]
    #: Operands carried across time steps / components.
    carried: set[Operand]
    #: Component name → operands whose entry value the component reads.
    live_in: dict[str, set[Operand]]
    #: True when the prediction does not depend on the input matrix.
    is_redundant: bool


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_constants(ir: IRProgram) -> tuple[IRProgram, PassStats]:
    """Fold scalar-constant chains into ``s_const`` instructions."""
    ir = ir.copy()
    folded = 0
    #: SSA value → its sanitized constant, as a one-element array.
    constants: dict[int, np.ndarray] = {}
    for name in COMPONENTS:
        component = ir.components[name]
        for index, instr in enumerate(component.instructions):
            if instr.op == "s_const":
                constants[instr.result] = sanitize(
                    np.array([float(instr.param_dict["constant"])])
                )
                continue
            spec = instr.spec
            if not spec.fold or any(vid not in constants for vid in instr.inputs):
                continue
            with np.errstate(all="ignore"):
                constants[instr.result] = spec(
                    None, tuple(constants[vid] for vid in instr.inputs),
                    instr.param_dict,
                )
            component.instructions[index] = IRInstruction(
                op="s_const",
                inputs=(),
                params=(("constant", float(constants[instr.result][0])),),
                result=instr.result,
                output=instr.output,
            )
            folded += 1
    return ir, PassStats(name="fold", rewritten=folded)


# ---------------------------------------------------------------------------
# Structural value keys (canonicalisation + CSE)
# ---------------------------------------------------------------------------

def _hash_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _instruction_key(instr: IRInstruction, keys: dict[int, str],
                     sort_commutative: bool) -> str:
    input_keys = [keys[vid] for vid in instr.inputs]
    if sort_commutative and instr.spec.commutative:
        input_keys = sorted(input_keys)
    payload = f"{instr.op}|{sorted(instr.params)!r}|{'|'.join(input_keys)}"
    return _hash_key(payload)


def _value_keys(ir: IRProgram, sort_commutative: bool) -> dict[int, str]:
    """A structural key per SSA value (hashed, so keys stay bounded)."""
    keys: dict[int, str] = {}
    for name in COMPONENTS:
        component = ir.components[name]
        for operand, vid in component.inputs.items():
            keys[vid] = f"in:{operand.name}"
        for instr in component.instructions:
            keys[instr.result] = _instruction_key(instr, keys, sort_commutative)
    return keys


def canonicalize_commutative(ir: IRProgram) -> tuple[IRProgram, PassStats]:
    """Sort the operands of commutative instructions by structural key."""
    ir = ir.copy()
    keys = _value_keys(ir, sort_commutative=True)
    reordered = 0
    for name in COMPONENTS:
        component = ir.components[name]
        for index, instr in enumerate(component.instructions):
            if not instr.spec.commutative or len(instr.inputs) != 2:
                continue
            ordered = tuple(sorted(instr.inputs, key=lambda vid: (keys[vid], vid)))
            if ordered != instr.inputs:
                component.instructions[index] = replace(instr, inputs=ordered)
                reordered += 1
    return ir, PassStats(name="canonicalize", rewritten=reordered)


def eliminate_common_subexpressions(ir: IRProgram) -> tuple[IRProgram, PassStats]:
    """Remove instructions that recompute an already-available value.

    Matching is per component and respects the current operand order (run
    :func:`canonicalize_commutative` first to also merge mirrored operands —
    the execution pipeline deliberately does not, so that a reused value is
    always the result of a literally identical computation).
    """
    ir = ir.copy()
    removed = 0
    for name in COMPONENTS:
        component = ir.components[name]
        mapping: dict[int, int] = {}
        available: dict[str, int] = {}
        keys: dict[int, str] = {}
        for operand, vid in component.inputs.items():
            keys[vid] = f"in:{operand.name}"
        kept: list[IRInstruction] = []
        for instr in component.instructions:
            instr = substitute_inputs(instr, mapping)
            key = _instruction_key(instr, keys, sort_commutative=False)
            keys[instr.result] = key
            survivor = available.get(key)
            if survivor is not None:
                mapping[instr.result] = survivor
                removed += 1
                continue
            available[key] = instr.result
            kept.append(instr)
        component.instructions = kept
        component.exports = {
            operand: mapping.get(vid, vid)
            for operand, vid in component.exports.items()
        }
    return ir, PassStats(name="cse", removed=removed)


# ---------------------------------------------------------------------------
# Dead-code elimination (IR-level redundancy pruning)
# ---------------------------------------------------------------------------

def analyze_dataflow(ir: IRProgram) -> DataflowInfo:
    """Run the Section 4.2 liveness fixpoint over the IR.

    This reuses :func:`repro.core.pruning.liveness_fixpoint` — the same
    cross-time-step analysis that powers :func:`prune_program` — with an
    SSA-level backward pass per component.
    """
    live_in_map: dict[str, set[Operand]] = {}

    def run_component(name: str, targets: set[Operand]) -> tuple[set[int], set[Operand]]:
        component = ir.components[name]
        live: set[int] = {
            component.exports[operand]
            for operand in targets
            if operand in component.exports
        }
        needed: set[int] = set()
        for index in range(len(component.instructions) - 1, -1, -1):
            instr = component.instructions[index]
            if instr.result in live:
                needed.add(index)
                live.discard(instr.result)
                live.update(instr.inputs)
        live_in = {
            ir.values[vid].operand
            for vid in live
            if ir.values[vid].operand is not None
        }
        live_in |= {operand for operand in targets if operand not in component.exports}
        live_in_map[name] = set(live_in)
        return needed, live_in

    needed, carried = liveness_fixpoint(run_component)

    writes_prediction = PREDICTION in ir.components["predict"].exports
    uses_input_matrix = any(
        ir.values[vid].operand == INPUT_MATRIX
        for name in COMPONENTS
        for index in needed[name]
        for vid in ir.components[name].instructions[index].inputs
    )
    return DataflowInfo(
        needed=needed,
        carried=carried,
        live_in=live_in_map,
        is_redundant=not (writes_prediction and uses_input_matrix),
    )


def eliminate_dead_code(
    ir: IRProgram,
) -> tuple[IRProgram, PassStats, DataflowInfo]:
    """Drop instructions that cannot contribute to any prediction.

    Also restricts each component's exports to the operands something can
    still observe — the carried set, plus the prediction itself — which is
    what the executor turns into its per-component state write-backs.
    """
    info = analyze_dataflow(ir)
    ir = ir.copy()
    removed = 0
    for name in COMPONENTS:
        component = ir.components[name]
        removed += len(component.instructions) - len(info.needed[name])
        component.instructions = [
            component.instructions[index] for index in sorted(info.needed[name])
        ]
        used = {vid for instr in component.instructions for vid in instr.inputs}
        component.inputs = {
            operand: vid for operand, vid in component.inputs.items() if vid in used
        }
        observable = info.carried | ({PREDICTION} if name == "predict" else set())
        results = {instr.result for instr in component.instructions}
        component.exports = {
            operand: vid
            for operand, vid in component.exports.items()
            if operand in observable and vid in results
        }
    return ir, PassStats(name="dse", removed=removed), info
