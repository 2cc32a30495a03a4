"""Optimiser passes over the alpha IR.

Four passes, specialised to the alpha language, each exact: the tape
executes their result and the fingerprint hashes it, so none may change a
bit the interpreter computes.

* **zero constancy** — an optimistic fixpoint over ``Setup()`` /
  ``Predict()`` / ``Update()`` that proves values zero.
  Memory is +0.0 when ``Setup()`` starts (``m0`` and ``s0`` included); in
  ``Predict()`` / ``Update()`` the day loop's ``m0`` and ``s0`` are raw
  (NaN and ±inf included) and every other operand holds a sanitized result.
  Each instruction's fact comes from its operator's declared constant
  transfer (:attr:`~repro.core.ops.OpSpec.zeros`) over the lattice +0, -0,
  zero of unknown sign, unknown; an operand is always +0 while every write
  to it, in every component, is proven +0, and ``Predict()``'s entry facts
  join ``Setup()``'s exit with ``Predict()``'s and ``Update()``'s.  The
  rewrite then reads one canonical zero per type and sign in place of every
  proven +0 or -0 value (``s_const``, broadcast to a vector and a matrix),
  reads ``x`` in place of a declared pass-through such as ``x - (+0)``, and
  drops writes that cannot change an operand (a +0 written into an operand
  that holds +0 at every entry to the component: always-+0 operands, and
  any +0 written by ``Setup()``).  A zero of unknown sign is never
  replaced, and a zero written into an operand that can hold something
  else on entry stays a real instruction, so equal keys still mean
  bitwise-equal predictions;
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
* **common-subexpression elimination** — within a component, an instruction
  that recomputes an already-available value (same operator, parameters
  and inputs, in the same order) is removed and its readers are rewired to
  the earlier value.  Every operator in the registry is a
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

from dataclasses import dataclass

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.ops import MINUS_ZERO, PLUS_ZERO, sanitize
from ..core.program import COMPONENTS
from ..core.pruning import liveness_fixpoint
from .ir import IRInstruction, IRProgram, IRValue, substitute_inputs

__all__ = [
    "PassStats",
    "DataflowInfo",
    "ZeroFacts",
    "analyze_zeros",
    "propagate_zeros",
    "fold_constants",
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


# ---------------------------------------------------------------------------
# Zero constancy
# ---------------------------------------------------------------------------

#: The operands the day loop writes: raw in ``Predict()`` / ``Update()``.
_RAW_OPERANDS = (INPUT_MATRIX, LABEL)
#: Rendered zero facts, for the ``repro inspect`` report.
_FACT_NAMES = {PLUS_ZERO: "+0", MINUS_ZERO: "-0", PLUS_ZERO | MINUS_ZERO: "±0"}


@dataclass
class ZeroFacts:
    """What the zero-constancy fixpoint proved about one program."""

    #: SSA value id → zero fact (see :data:`~repro.core.ops.PLUS_ZERO`),
    #: ``None`` for an unknown value.
    values: dict[int, int | None]
    #: Component name → written operand → zero fact at every entry to the
    #: component, ``None`` when unknown.  ``Predict()``'s entry joins every
    #: state the day loop reaches.
    entries: dict[str, dict[Operand, int | None]]

    @property
    def operands(self) -> dict[Operand, int | None]:
        """Written operand → zero fact over every state of the day loop."""
        return self.entries["predict"]

    @property
    def always_plus_zero(self) -> set[Operand]:
        """Written operands whose every write is proven +0."""
        return {operand for operand, fact in self.operands.items()
                if fact == PLUS_ZERO}

    def describe(self) -> str:
        """The operands proven zero, for the ``repro inspect`` report."""
        proven = [f"{operand.name}={_FACT_NAMES[fact]}"
                  for operand, fact in sorted(self.operands.items())
                  if fact is not None]
        return ", ".join(proven) if proven else "none"


def _join(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a | b


def analyze_zeros(ir: IRProgram) -> ZeroFacts:
    """Prove values zero by an optimistic fixpoint over the day loop.

    ``Setup()`` runs once on all-+0 memory; ``Predict()`` then starts from
    the join of ``Setup()``'s exit and the exits of ``Predict()`` and
    ``Update()`` (training days alternate the two, inference days repeat
    ``Predict()``), and ``Update()`` from ``Predict()``'s exit.  Written
    operands start at their ``Setup()`` exit facts and only rise, so the
    loop ends after at most three rises per operand.
    """
    written = list(dict.fromkeys(
        operand for name in COMPONENTS for operand in ir.components[name].exports
    ))
    slots = {operand: slot for slot, operand in enumerate(written)}
    # Per component, once: (value, slot, fact when unwritten) per input,
    # (result, transfer, inputs, params) per instruction, (slot, value) per
    # export.  The fixpoint then runs on lists indexed by slot.
    plans = {}
    for name in COMPONENTS:
        component = ir.components[name]
        raw = name != "setup"
        plans[name] = (
            [(vid, slots.get(operand),
              None if raw and operand in _RAW_OPERANDS else PLUS_ZERO)
             for operand, vid in component.inputs.items()],
            [(instr.result, instr.spec.zeros, instr.inputs, dict(instr.params))
             for instr in component.instructions],
            [(slots[operand], vid) for operand, vid in component.exports.items()],
        )
    facts: dict[int, int | None] = {}

    def run(name: str, entry: list) -> list:
        inputs, steps, exports = plans[name]
        for vid, slot, unwritten in inputs:
            facts[vid] = unwritten if slot is None else entry[slot]
        for result, transfer, arguments, params in steps:
            facts[result] = None if transfer is None else transfer(
                tuple(facts[vid] for vid in arguments), params
            )
        exit_facts = list(entry)
        for slot, vid in exports:
            exit_facts[slot] = facts[vid]
        return exit_facts

    fresh = [PLUS_ZERO] * len(written)
    setup_exit = run("setup", fresh)
    entry = setup_exit
    while True:
        predict_exit = run("predict", entry)
        update_exit = run("update", predict_exit)
        joined = [_join(_join(a, b), c)
                  for a, b, c in zip(setup_exit, predict_exit, update_exit)]
        if joined == entry:
            entries = {"setup": fresh, "predict": entry, "update": predict_exit}
            return ZeroFacts(values=facts, entries={
                name: dict(zip(written, facts_at_entry))
                for name, facts_at_entry in entries.items()
            })
        entry = joined


def propagate_zeros(ir: IRProgram) -> tuple[IRProgram, PassStats]:
    """Rewrite the IR by the facts of :func:`analyze_zeros`.

    Readers of a value proven +0 or -0 read the component's canonical zero
    of that type and sign instead (``s_const(constant=±0.0)``, and its
    ``v_broadcast`` / ``m_broadcast(axis=0)``, prepended to the component;
    their ``output`` names the type's first address, which no pass reads).
    Readers of a declared pass-through (:attr:`~repro.core.ops.OpSpec.
    passthrough`) of a sanitized input read that input.  A component's write
    of a proven zero exports the canonical zero, unless the operand holds
    that same zero at every entry to the component: then the write cannot
    change the operand's state and is dropped (an operand that is always +0
    loses every write, and every read of it reads the canonical +0).  Each
    rewrite is exact, so the tape, which executes the rewritten IR,
    predicts bit for bit what the interpreter predicts.
    """
    zeros = analyze_zeros(ir)
    if all(fact is None for fact in zeros.values.values()):
        # Nothing proven zero: no canonical zero, pass-through or drop.
        return ir, PassStats(name="zeros")
    ir = ir.copy()
    next_id = max(ir.values, default=-1) + 1
    rewired = dropped = 0
    for name in COMPONENTS:
        component = ir.components[name]
        prologue: list[IRInstruction] = []
        canonical: dict[tuple[OperandType, int], int] = {}

        def zero_of(type_: OperandType, fact: int) -> int:
            nonlocal next_id
            vid = canonical.get((type_, fact))
            if vid is not None:
                return vid
            if type_ is OperandType.SCALAR:
                op, inputs = "s_const", ()
                params = (("constant", 0.0 if fact == PLUS_ZERO else -0.0),)
            elif type_ is OperandType.VECTOR:
                op, inputs, params = "v_broadcast", (zero_of(OperandType.SCALAR, fact),), ()
            else:
                op, inputs = "m_broadcast", (zero_of(OperandType.VECTOR, fact),)
                params = (("axis", 0),)
            vid = canonical[(type_, fact)] = next_id
            next_id += 1
            ir.values[vid] = IRValue(id=vid, type=type_)
            prologue.append(IRInstruction(op=op, inputs=inputs, params=params,
                                          result=vid, output=Operand(type_, 0)))
            return vid

        raw = set() if name == "setup" else {
            component.inputs[operand] for operand in _RAW_OPERANDS
            if operand in component.inputs
        }
        mapping: dict[int, int] = {}
        for operand, vid in component.inputs.items():
            fact = zeros.values[vid]
            if fact == PLUS_ZERO or fact == MINUS_ZERO:
                mapping[vid] = zero_of(operand.type, fact)
        body: list[IRInstruction] = []
        for instr in component.instructions:
            rewritten = substitute_inputs(instr, mapping)
            body.append(rewritten)
            fact = zeros.values[instr.result]
            if fact == PLUS_ZERO or fact == MINUS_ZERO:
                mapping[instr.result] = zero_of(ir.values[instr.result].type, fact)
                continue
            for kept, other_facts in instr.spec.passthrough:
                other = zeros.values[instr.inputs[1 - kept]]
                source = rewritten.inputs[kept]
                if other is not None and other | other_facts == other_facts \
                        and source not in raw:
                    mapping[instr.result] = source
                    break
        exports: dict[Operand, int] = {}
        for operand, vid in component.exports.items():
            fact = zeros.values[vid]
            if fact != PLUS_ZERO and fact != MINUS_ZERO:
                exports[operand] = vid
            elif zeros.entries[name][operand] == fact:
                dropped += 1
            else:
                exports[operand] = mapping[vid]
        component.instructions = prologue + body
        component.exports = exports
        rewired += len(mapping)
    return ir, PassStats(name="zeros", removed=dropped, rewritten=rewired)


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
# Common-subexpression elimination
# ---------------------------------------------------------------------------

def _params_key(instr: IRInstruction) -> str:
    # repr, not the values: 0.0 == -0.0 and 1 == 1.0 compare (and hash) equal.
    return repr(sorted(instr.params))


def eliminate_common_subexpressions(ir: IRProgram) -> tuple[IRProgram, PassStats]:
    """Remove instructions that recompute an already-available value.

    Matching is per component and respects operand order, so a reused
    value is always the result of a literally identical computation
    (swapping ``min``/``max`` operands can flip a zero's sign).
    """
    ir = ir.copy()
    removed = 0
    for name in COMPONENTS:
        component = ir.components[name]
        mapping: dict[int, int] = {}
        # Inputs are already rewired to the surviving values, so an
        # instruction's value ids identify its structure.
        available: dict[tuple, int] = {}
        kept: list[IRInstruction] = []
        for instr in component.instructions:
            instr = substitute_inputs(instr, mapping)
            key = (instr.op, _params_key(instr), instr.inputs)
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
    return DataflowInfo(needed=needed, carried=carried, live_in=live_in_map)


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
