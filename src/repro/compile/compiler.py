"""The alpha compilation pipeline: lower → optimise → (bind and) execute.

Two pipelines share the IR and the passes:

* **execution** (:func:`compile_program`) — lower, exact-match CSE, dead-code
  elimination.  Operand order is never touched, so every value the tape
  computes is the result of a computation the interpreter would have
  performed literally, which is what makes the compiled tape
  (:class:`~repro.compile.stacked.StackedAlpha`) bitwise identical.
* **fingerprinting** (:func:`canonical_ir` / :func:`canonical_key`) — lower,
  constant folding, commutative canonicalisation, canonical CSE, dead-code
  elimination, then render.  The rendering names values by position instead
  of by operand address, so programs that differ only in operand order of
  commutative operations, in duplicated subexpressions, in folded constants
  or in intermediate register naming all share one key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.memory import LABEL
from ..core.program import AlphaProgram
from ..core.pruning import prune_program
from ..obs import TELEMETRY
from .ir import IRProgram, lower_program
from .lookback import LookbackInfo, analyze_lookback
from .passes import (
    DataflowInfo,
    PassStats,
    canonicalize_commutative,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
)

__all__ = [
    "CompiledProgram",
    "compile_program",
    "canonical_ir",
    "canonical_key",
    "describe_compilation",
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


def compile_program(program: AlphaProgram) -> CompiledProgram:
    """Compile ``program`` through the execution pipeline."""
    ir = lower_program(program)
    stats: list[PassStats] = []
    ir, cse_stats = eliminate_common_subexpressions(ir)
    stats.append(cse_stats)
    ir, dse_stats, dataflow = eliminate_dead_code(ir)
    stats.append(dse_stats)
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


def canonical_ir(program: AlphaProgram) -> tuple[IRProgram, list[PassStats]]:
    """Compile ``program`` through the fingerprint (canonicalisation) pipeline."""
    ir = lower_program(program)
    stats: list[PassStats] = []
    for run_pass in (fold_constants, canonicalize_commutative,
                     eliminate_common_subexpressions):
        ir, pass_stats = run_pass(ir)
        stats.append(pass_stats)
    ir, dse_stats, _ = eliminate_dead_code(ir)
    stats.append(dse_stats)
    return ir, stats


def canonical_key(program: AlphaProgram) -> str:
    """The canonical-IR string the fingerprint cache hashes."""
    return canonical_ir(program)[0].render()


def describe_compilation(program: AlphaProgram) -> str:
    """A human-readable report for the ``repro inspect`` CLI command.

    Shows the program next to its pruned form, the canonicalised IR and the
    per-pass statistics of both pipelines.
    """
    lines: list[str] = []
    lines.append(f"# program: {program.name}")
    lines.append(f"operations: {program.num_operations}")
    lines.append("")
    lines.append("## original")
    lines.append(program.render())

    prune_result = prune_program(program)
    lines.append("")
    lines.append("## pruned (Section 4.2 backward liveness)")
    lines.append(
        f"removed {prune_result.removed_operations} of "
        f"{prune_result.total_operations} operations"
        + ("; REDUNDANT (prediction independent of m0)"
           if prune_result.is_redundant else "")
    )
    lines.append(prune_result.program.render())

    compiled = compile_program(program)
    lines.append("")
    lines.append("## compiled (execution pipeline)")
    for stats in compiled.pass_stats:
        lines.append(f"pass {stats.describe()}")
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
    if compiled.lookback is not None:
        lines.append("delta-replay lookback: " + compiled.lookback.describe())
    lines.append(compiled.ir.render())

    ir, stats_list = canonical_ir(program)
    lines.append("")
    lines.append("## canonical IR (fingerprint pipeline)")
    for stats in stats_list:
        lines.append(f"pass {stats.describe()}")
    lines.append(ir.render())
    return "\n".join(lines)
