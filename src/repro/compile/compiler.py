"""The alpha compilation pipeline: lower → optimise → (bind and) execute.

One pass sequence (:func:`tape_ir`) makes the one IR: lower, zero
constancy, constant folding, dead-code elimination (which also yields the
:class:`~repro.compile.passes.DataflowInfo`) and order-preserving CSE.
Every rewrite in it is exact: the zero constancy pass
(:func:`~repro.compile.passes.propagate_zeros`) reads the constant transfer
each operator declares on its :class:`~repro.core.ops.OpSpec` and proves a
zero only where the transfer does, folding calls the registry operator
itself, and CSE merges only instructions with equal inputs, never
reordering operands.  So every value the IR computes equals one the
interpreter computes, and the compiled tape
(:class:`~repro.compile.stacked.StackedAlpha`) is bitwise identical.

That IR has two readers:

* **the tape** (:func:`compile_program`) adds the analyses binding needs:
  fused inference, static-predict batching and the delta-replay lookback;
* **the fingerprint** (:func:`repro.core.cache.fingerprint`) hashes it with
  :func:`~repro.compile.executor.tape_key_for`, so a pruned program's
  fingerprint is its tape's key.  The rendering names values by position
  instead of by operand address, so programs that differ only in
  duplicated subexpressions, in folded constants, in intermediate register
  naming or in arithmetic on zero-initialised memory (``v4 = v11 + v8`` in
  ``Setup()``, a read of a never-written ``s7``, ``s_tan`` of a zero)
  share one key, and programs with equal keys run the same tape: they
  predict bit for bit alike, which is what lets the fingerprint cache
  reuse a key's fitness and :class:`~repro.engine.fleet.FleetEngine`
  serve a key from one backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cache import fingerprint
from ..core.memory import INPUT_MATRIX, LABEL
from ..core.program import AlphaProgram
from ..core.pruning import prune_program
from ..obs import TELEMETRY
from .ir import IRProgram, lower_program
from .lookback import LookbackInfo, analyze_lookback
from .passes import (
    DataflowInfo,
    PassStats,
    analyze_zeros,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    propagate_zeros,
)

__all__ = [
    "CompiledProgram",
    "compile_program",
    "describe_compilation",
    "tape_ir",
]


@dataclass
class CompiledProgram:
    """An optimised, shape-independent compilation artefact."""

    program: AlphaProgram
    ir: IRProgram
    pass_stats: list[PassStats] = field(default_factory=list)
    dataflow: DataflowInfo | None = None
    #: Whether the inference stage may run as one batched tape pass: true
    #: when ``Predict()`` neither reads the label nor reads an operand it
    #: also writes, i.e. the trained memory is static across inference days.
    fused_inference: bool = False
    #: Whether the *entire* ``Predict()`` tape is day-loop invariant:
    #: ``fused_inference`` plus no dependence on any ``Update()``-carried
    #: operand.  Then ``Predict()`` sees identical operand state on every
    #: day of the run — training days included — and the engine layer
    #: (:mod:`repro.engine.protocol`) may execute *all* days of a stage in
    #: one vectorised ``(T, K, ...)`` kernel call instead of a per-day
    #: Python loop.
    static_predict: bool = False
    #: Inference-day invalidation horizons (:mod:`.lookback`): how many
    #: clean days the delta-replay engine must spin up before a corrected
    #: bar's prediction is bit-exact from an arbitrary live state.
    lookback: LookbackInfo | None = None

    @property
    def num_instructions(self) -> int:
        """Instructions surviving optimisation."""
        return self.ir.num_instructions


def _fused_eligible(ir: IRProgram, dataflow: DataflowInfo) -> bool:
    predict = ir.components["predict"]
    live_in = dataflow.live_in["predict"]
    if LABEL in live_in:
        return False
    return not (live_in & set(predict.exports))


def _static_predict_eligible(ir: IRProgram, dataflow: DataflowInfo,
                             fused: bool) -> bool:
    """Whether ``Predict()`` is invariant across the whole day loop.

    On top of fused-inference eligibility, ``Predict()`` must read no
    operand that ``Update()`` writes: then its non-``m0`` inputs come from
    ``Setup()`` alone and are identical on every day of the run (training
    days included), which is what licenses the engine layer's
    static-predict time batching.
    """
    if not fused:
        return False
    live_in = dataflow.live_in["predict"]
    return not (live_in & set(ir.components["update"].exports))


def _optimise(
    ir: IRProgram,
) -> tuple[IRProgram, list[PassStats], DataflowInfo]:
    """The one pass sequence: zeros, fold, dead code (the rewired zeros and
    folded constants leave dead producers), then order-preserving CSE,
    which merges only instructions with equal inputs and so keeps the
    dataflow's carried set and live-ins."""
    stats = []
    for run_pass in (propagate_zeros, fold_constants):
        ir, pass_stats = run_pass(ir)
        stats.append(pass_stats)
    ir, dse_stats, dataflow = eliminate_dead_code(ir)
    ir, cse_stats = eliminate_common_subexpressions(ir)
    return ir, [*stats, dse_stats, cse_stats], dataflow


def tape_ir(program: AlphaProgram) -> IRProgram:
    """The IR the tape executes for ``program``, without the tape's
    analyses: what the fingerprint hashes."""
    return _optimise(lower_program(program))[0]


def compile_program(program: AlphaProgram) -> CompiledProgram:
    """Compile ``program`` for the tape."""
    ir, stats, dataflow = _optimise(lower_program(program))
    if TELEMETRY.enabled:
        TELEMETRY.counter("compile.programs").inc()
        for pass_stats in stats:
            TELEMETRY.counter(f"compile.pass.{pass_stats.name}.removed").inc(
                pass_stats.removed
            )
            TELEMETRY.counter(f"compile.pass.{pass_stats.name}.rewritten").inc(
                pass_stats.rewritten
            )
    fused = _fused_eligible(ir, dataflow)
    return CompiledProgram(
        program=program,
        ir=ir,
        pass_stats=stats,
        dataflow=dataflow,
        fused_inference=fused,
        static_predict=_static_predict_eligible(ir, dataflow, fused),
        lookback=analyze_lookback(ir, dataflow),
    )


def describe_compilation(program: AlphaProgram) -> str:
    """A human-readable report for the ``repro inspect`` CLI command.

    Shows the program next to its pruned form, the pruned program's
    fingerprint (the key the cache uses), the operands the zero-constancy
    pass proved zero, and the tape with the statistics (rewrites included)
    of every pass that made it.
    """
    prune_result = prune_program(program)
    lines = [
        f"# program: {program.name}", f"operations: {program.num_operations}",
        "", "## original", program.render(),
        "", "## pruned (Section 4.2 backward liveness)",
        f"removed {prune_result.removed_operations} of "
        f"{prune_result.total_operations} operations"
        + ("; REDUNDANT (prediction independent of m0)"
           if prune_result.is_redundant else ""),
        prune_result.program.render(),
    ]

    lowered = lower_program(program)
    zeros = analyze_zeros(lowered)
    never_written = sorted(
        {operand for component in lowered.components.values()
         for operand in component.inputs}
        - set(zeros.operands) - {INPUT_MATRIX, LABEL}
    )
    compiled = compile_program(program)
    lines += ["", "## compiled tape (zeros, fold, dse, cse)",
              "fingerprint (the pruned program's tape key): "
              + fingerprint(prune_result.program),
              "proven zero: " + zeros.describe()]
    if never_written:
        lines.append("never written (+0): "
                     + ", ".join(operand.name for operand in never_written))
    lines += [f"pass {pass_stats.describe()}"
              for pass_stats in compiled.pass_stats]
    lines.append(
        "fused batched inference: "
        + ("yes" if compiled.fused_inference else "no (predict reads its own "
           "writes or the label)")
    )
    lines.append(
        "static-predict time batching: "
        + ("yes" if compiled.static_predict else "no (predict depends on "
           "loop-carried state)")
    )
    lines.append("delta-replay lookback: " + compiled.lookback.describe())
    lines.append(compiled.ir.render())
    return "\n".join(lines)
