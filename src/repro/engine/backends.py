"""Execution backends: the engine-layer contract and its implementations.

Every way this repository executes alpha programs — the reference
interpreter, the compiled tape, the incremental streaming executor, whole
fleets — speaks one small per-day vocabulary, the :class:`ExecutionEngine`
protocol:

``run_setup`` · ``set_input`` · ``run_predict`` · ``prediction`` ·
``set_label`` · ``run_update``

plus two capability flags (``supports_fused_inference`` /
``supports_static_predict``) and the batched kernel entry point
``run_inference_batch`` that the time-vectorised fast paths of
:mod:`repro.engine.protocol` dispatch on.  A backend executes P ≥ 1
programs (*lanes*) over one shared bar: it reports ``(P, K)``
predictions, so every consumer scatters lanes the same way whatever the
engine.  The *protocol* (which day-loop runs, when labels are revealed)
lives entirely in :mod:`repro.engine.protocol`; backends only know how to
execute one component once.  That split is what keeps the
train/inference label-reveal protocol implemented exactly once, however
many backends exist.

Two engines ship:

* ``"interpreter"`` — :class:`InterpreterBackend`, the reference
  semantics: a vectorised :class:`~repro.core.memory.Memory` plus direct
  :class:`~repro.core.ops.OpSpec` dispatch, one operation at a time, one
  lane.
* ``"compiled"`` — :class:`~repro.compile.stacked.StackedAlpha`, the
  compilation pipeline (:mod:`repro.compile`): flat tape, pre-resolved
  dispatch, preallocated buffers, static hoisting, fused/batched kernels,
  copy-on-write snapshots and the suspend/resume tape protocol, one lane
  per program of a signature group.  Bitwise identical to the interpreter
  (a hard, tested contract).

:func:`make_backend` is the single per-program constructor; ``--engine`` on
the CLI, ``EvolutionConfig.engine`` and ``AlphaEvaluator(engine=...)`` all
resolve to one of :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE
from ..core.memory import INPUT_MATRIX, LABEL, Memory, PREDICTION
from ..core.ops import ExecutionContext
from ..core.program import AlphaProgram
from ..errors import EngineError
from ..compile import StackedAlpha, compile_program

__all__ = [
    "ENGINES",
    "ExecutionEngine",
    "InterpreterBackend",
    "make_backend",
    "resolve_engine",
]

#: The selectable execution engines, in reference-first order.
ENGINES = ("interpreter", "compiled")


def resolve_engine(engine: str | None = None) -> str:
    """The engine ``engine`` names (from :data:`ENGINES`); ``None`` is the
    default, ``"compiled"``.  Raises :class:`EngineError` on an unknown
    name."""
    if engine is None:
        return "compiled"
    if engine not in ENGINES:
        raise EngineError(
            f"unknown execution engine {engine!r}; choose from "
            + ", ".join(ENGINES)
        )
    return engine


@runtime_checkable
class ExecutionEngine(Protocol):
    """The per-day execution contract every backend implements.

    The protocol deliberately contains no loops: the day-loop (and the
    label-reveal ordering that defines the paper's training/inference
    protocol) is implemented once in :mod:`repro.engine.protocol` and
    drives any object that satisfies this interface.  A backend runs
    ``num_programs`` lanes (P ≥ 1) over one shared bar; ``programs`` and
    ``lookback`` name them and bound their delta-replay spin-up
    (:mod:`repro.engine.replay`).
    """

    #: The lane count P.
    num_programs: int
    #: The lanes' :class:`~repro.core.program.AlphaProgram`\ s, in order.
    programs: tuple
    #: The lanes' shared :class:`~repro.compile.lookback.LookbackInfo`.
    lookback: object

    def run_setup(self) -> None:
        """Run ``Setup()`` once (plus any backend-private prologue)."""

    def set_input(self, features: np.ndarray) -> None:
        """Load one day's ``(K, f, w)`` feature matrices into every lane's
        ``m0``."""

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""

    @property
    def prediction(self) -> np.ndarray:
        """The ``(P, K)`` predictions left by the last ``run_predict``."""

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's realised ``(K,)`` labels into every lane's
        ``s0``."""

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the inference stage may run as one batched tape pass."""

    @property
    def supports_static_predict(self) -> bool:
        """Whether the whole ``Predict()`` tape is day-loop invariant.

        True when ``Predict()`` depends on no ``Update()``-carried state
        (nor the label, nor its own writes), so *training-stage*
        predictions may also be computed in one ``(T, K, ...)`` kernel
        call — see :func:`repro.engine.protocol.training_pass`.
        """

    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Predict ``(D, K, f, w)`` days as ``(D, P, K)`` in vectorised
        kernel calls."""


class InterpreterBackend:
    """The reference backend: vectorised memory + per-operation dispatch.

    Executes exactly what the historical interpreter loop of
    :class:`~repro.core.interpreter.AlphaEvaluator` executed — every
    operation reads operand arrays from a :class:`~repro.core.memory.Memory`
    and writes its (sanitised) result back — and defines the semantics all
    other backends are asserted bitwise identical to.  It runs one lane.
    """

    #: The interpreter never batches: it is the reference day loop.
    supports_fused_inference = False
    supports_static_predict = False
    num_programs = 1

    def __init__(
        self,
        program: AlphaProgram,
        ctx: ExecutionContext,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
    ) -> None:
        program.validate(address_space)
        self.programs = (program,)
        self.ctx = ctx
        self._memory = Memory(
            num_tasks=ctx.num_tasks,
            num_features=ctx.num_features,
            window=ctx.window,
            address_space=address_space,
        )
        self._tapes = {
            name: [(op.spec, op.inputs, op.output, op.param_dict)
                   for op in operations]
            for name, operations in program.components().items()
        }
        #: The ``(1, K)`` prediction: ``s1`` with its lane axis.
        self.prediction = self._memory.read(PREDICTION)[None]
        self._lookback = None

    @property
    def lookback(self):
        """The program's :class:`~repro.compile.lookback.LookbackInfo`.

        The dataflow, hence the horizon structure, is engine-independent,
        so the program is compiled once for the analysis alone.
        """
        if self._lookback is None:
            self._lookback = compile_program(self.programs[0]).lookback
        return self._lookback

    # ------------------------------------------------------------------
    def _execute(self, tape) -> None:
        memory = self._memory
        ctx = self.ctx
        for spec, inputs, output, params in tape:
            arrays = tuple(memory.read(operand) for operand in inputs)
            memory.write(output, spec(ctx, arrays, params))

    def run_setup(self) -> None:
        """Run ``Setup()`` once."""
        self._execute(self._tapes["setup"])

    def run_predict(self) -> None:
        """Run ``Predict()`` for the current day."""
        self._execute(self._tapes["predict"])

    def run_update(self) -> None:
        """Run ``Update()`` for the current day."""
        self._execute(self._tapes["update"])

    def set_input(self, features: np.ndarray) -> None:
        """Load one day's feature matrices into ``m0``."""
        self._memory.write(INPUT_MATRIX, features)

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's labels into ``s0``."""
        self._memory.write(LABEL, labels)

    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """The interpreter has no batched kernels — always loop over days."""
        raise EngineError(
            "the interpreter backend does not batch over days; "
            "drive it through the day loop"
        )


def _one_lane_tape(
    program: AlphaProgram,
    ctx: ExecutionContext,
    address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
) -> StackedAlpha:
    """The compiled backend of one program: a one-lane tape."""
    program.validate(address_space)
    return StackedAlpha([compile_program(program)], ctx)


#: Engine name → one-lane backend constructor.
_BACKENDS = {
    "interpreter": InterpreterBackend,
    "compiled": _one_lane_tape,
}


def make_backend(
    program: AlphaProgram,
    ctx: ExecutionContext,
    engine: str = "compiled",
    address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
) -> ExecutionEngine:
    """Build the one-lane backend named ``engine`` for ``program`` bound to
    ``ctx``."""
    return _BACKENDS[resolve_engine(engine)](program, ctx, address_space)
