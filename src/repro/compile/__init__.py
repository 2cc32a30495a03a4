"""Alpha-program compilation: SSA IR, optimiser passes, fused executor.

The pipeline generalises the paper's Section 4.2 dataflow view of an alpha
into a small query-engine-style compiler: programs are lowered into an SSA
IR (:mod:`.ir`), optimised by one pass sequence (:mod:`.passes` — zero
constancy, constant folding and a dead-code elimination that reuses the
backward-liveness pruning), and executed by one flat tape (:mod:`.stacked`)
with pre-resolved dispatch, preallocated slots, a fused batched inference
stage and one lane per program, on the kernel registry of :mod:`.executor`.
The sequence ends in an order-preserving common-subexpression
elimination, and its IR is the only one: the tape executes it and the
fingerprint hashes it.

Entry points:

* :func:`compile_program` + :class:`StackedAlpha` — the tape (bitwise
  identical to the interpreter; a one-lane tape is what
  :class:`repro.core.interpreter.AlphaEvaluator` runs under the default
  ``"compiled"`` engine, a P-lane one a signature group of a fleet);
* :func:`tape_ir` + :func:`tape_key_for` — the IR the tape executes and
  its key, which :func:`repro.core.cache.fingerprint` is for a pruned
  program;
* :func:`describe_compilation` — the ``repro inspect`` report.
"""

from .compiler import (
    CompiledProgram,
    compile_program,
    describe_compilation,
    tape_ir,
)
from .executor import TAPE_STATE_VERSION, TapeState, tape_key_for
from .ir import IRComponent, IRInstruction, IRProgram, IRValue, lower_program
from .lookback import LookbackInfo, analyze_lookback
from .stacked import StackedAlpha, stack_signature
from .passes import (
    DataflowInfo,
    PassStats,
    ZeroFacts,
    analyze_dataflow,
    analyze_zeros,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    propagate_zeros,
)

__all__ = [
    "CompiledProgram",
    "DataflowInfo",
    "IRComponent",
    "IRInstruction",
    "IRProgram",
    "IRValue",
    "LookbackInfo",
    "PassStats",
    "StackedAlpha",
    "TAPE_STATE_VERSION",
    "TapeState",
    "ZeroFacts",
    "analyze_dataflow",
    "analyze_lookback",
    "analyze_zeros",
    "compile_program",
    "describe_compilation",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "fold_constants",
    "lower_program",
    "propagate_zeros",
    "stack_signature",
    "tape_ir",
    "tape_key_for",
]
