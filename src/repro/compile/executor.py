"""Flat-tape execution of compiled alpha programs, and the kernel registry
both tape runners share.

:class:`CompiledAlpha` binds an optimised IR (:mod:`.compiler`) to one
problem shape and executes it without any of the interpreter's per-operation
bookkeeping:

* **pre-resolved dispatch** — every instruction becomes one tape entry with
  its operator function, its input arrays, its preallocated output buffer
  and its sanitize steps resolved once at bind time;
* **allocation-free execution** — each SSA value owns one preallocated
  buffer and each live operand one state array.  A result lands in its
  buffer through the operator's ``out=`` ufunc form, or through the clip
  ufunc writing straight into the buffer: an entry allocates at most its
  kernel's own result and a NaN mask, never a sanitized copy, and the
  per-day loop builds no dicts;
* **static hoisting** — instructions whose transitive inputs are constants
  or parameter-free initialisers (they produce the same value on every
  execution) run once in a prologue instead of once per day;
* **fused batched inference** — when the trained memory is static across
  inference days (``Predict()`` neither reads the label nor reads an operand
  it also writes), the whole inference stage collapses into a single tape
  execution over a leading *day* axis instead of a Python loop over days;
* **copy-on-write snapshots** — ``snapshot()`` / ``restore(snap)`` save and
  rewind the operand state for delta-replay serving (:class:`_TapeRunner`,
  shared with the stacked runner).  While serving only ``m0``, ``s0`` and
  the carried operands ``Predict()`` writes back change, so a snapshot
  copies those and shares every frozen array with the previous snapshot.
  :class:`TapeState` stays the only external format, for checkpoints and
  persisted replay state.

The leading-axis kernel registry
--------------------------------

:data:`KERNELS` is the one table of how the tape runners execute an
operator.  :class:`CompiledAlpha` uses it for the day axis of its fused
path, :class:`~repro.compile.stacked.StackedAlpha` for the program axis of
every stacked tape (and the day axis of its fused path).  Each
:class:`Kernel` records:

* the **leading-axis kernel** — the operator over any number of leading
  axes in front of the per-program shapes.  It equals the registry call on
  every leading-axis slice bit for bit: elementwise IEEE arithmetic is
  shape-independent, and a reduction, contraction or rank accumulates each
  trailing-axis run in the same per-element order whatever axes lead it.
  Transcendental operators are admitted only after an import-time probe
  (:func:`_probe_transcendentals`) reproduces the per-slice bytes on the
  running platform;
* the **out= form** of single-ufunc operators (and of the einsum outer
  product), which writes the result into a preallocated buffer (a ufunc or
  einsum computes each element identically with or without ``out=``);
* the **sanitize contract**.  Every operator result is sanitized (clipped to
  ``±CLIP_VALUE``, NaN zeroed — :func:`repro.core.ops.sanitize`).  Given
  sanitized inputs, a :data:`FINITE_CLOSED` operator cannot produce NaN, so
  its NaN scan is a no-op; a :data:`RANGE_CLOSED` operator's result is
  already finite and within the bounds, so its clip is a no-op too.

Every input of a tape entry is either a sanitized SSA buffer, a state
array written back from one, or the raw ``m0`` feature / ``s0`` label
state, which holds whatever the data holds.  So at bind time
(:func:`_sanitize_steps`) an entry that reads no raw state drops the steps
its contract makes no-ops.  That holds only while every value in the
binding came from its own tape: restoring its own snapshot keeps the
skipped steps, but state taken in from outside — by ``resume()`` or an
adopted persisted snapshot — may hold raw captures, so from then on the
tape runs every step again.

Bitwise parity with the interpreter is a hard contract (the fingerprint
cache and the search both rely on it); the interpreter and
:func:`~repro.core.ops.sanitize` remain the oracle.  An operator without a
leading-axis kernel (the grouped relation means, the initialisers) runs a
per-day slice loop *inside* its fused tape entry, which reproduces the
interpreter's arithmetic exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.memory import INPUT_MATRIX, LABEL, Operand, OperandType, PREDICTION
from ..core.ops import _EPS, CLIP_VALUE, ExecutionContext, OpFunc, get_op
from ..errors import ExecutionError
from .compiler import CompiledProgram

try:  # the ufunc behind ``np.clip``, called without its dispatch layers
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

__all__ = [
    "CompiledAlpha", "TapeState", "TAPE_STATE_VERSION", "tape_key_for",
    "Kernel", "KERNELS", "FINITE_CLOSED", "RANGE_CLOSED",
]

#: Bumped whenever the suspended-state layout changes incompatibly.
TAPE_STATE_VERSION = 1


def tape_key_for(ir) -> str:
    """The tape identity key: a hash of the execution-pipeline IR.

    Shared by :class:`CompiledAlpha` and the stacked group executor
    (:class:`~repro.compile.stacked.StackedAlpha`), so a
    :class:`TapeState` suspended from either resumes into the other.
    """
    return hashlib.sha256(ir.render().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The leading-axis kernel registry
# ---------------------------------------------------------------------------

#: Sanitize contract: given sanitized inputs the result is finite, so the
#: NaN scan after the clip cannot fire.
FINITE_CLOSED = "finite-closed"
#: Sanitize contract: given sanitized inputs the result is finite and within
#: ``±CLIP_VALUE``, so neither the clip nor the NaN scan changes a bit.
RANGE_CLOSED = "range-closed"


@dataclass(frozen=True)
class Kernel:
    """How the tape runners execute one operator (see the module docs).

    ``func`` is the leading-axis kernel, called like the
    :class:`~repro.core.ops.OpSpec` function; ``out`` is the ``out(inputs,
    out)`` form writing into a buffer, or ``None``; ``contract`` is
    :data:`FINITE_CLOSED`, :data:`RANGE_CLOSED` or ``None``.
    """

    op: str
    func: OpFunc
    out: Callable[[tuple, np.ndarray], object] | None = None
    contract: str | None = None


def _binary_out(ufunc):
    return lambda inputs, out: ufunc(inputs[0], inputs[1], out=out)


def _unary_out(ufunc):
    return lambda inputs, out: ufunc(inputs[0], out=out)


def _divide_out(inputs, out):
    # Same guarded quotient as ops._protected_divide, written into ``out``.
    np.divide(
        inputs[0],
        np.where(np.abs(inputs[1]) < _EPS, 1.0, inputs[1]),
        out=out,
    )


def _heaviside_out(inputs, out):
    np.heaviside(inputs[0], 1.0, out=out)


def _leading_axis_rank(values: np.ndarray) -> np.ndarray:
    """Tie-averaged cross-sectional rank over the last axis, any leading axes.

    Vectorised form of :func:`repro.core.ops._cross_sectional_rank`: ranks
    are a permutation of ``arange(n)`` and tie runs average *consecutive*
    integers, so every intermediate is an exactly representable integer (or
    half-integer) and the result is bit-for-bit the 1-D implementation's.
    NaNs sort last and tie with each other, as ``np.unique`` collapses them.
    """
    n = values.shape[-1]
    if n == 1:
        return np.zeros_like(values)
    order = np.argsort(values, axis=-1, kind="stable")
    sorted_values = np.take_along_axis(values, order, -1)
    positions = np.arange(n, dtype=np.float64)
    is_run_start = np.ones(sorted_values.shape, dtype=bool)
    head, tail = sorted_values[..., 1:], sorted_values[..., :-1]
    is_run_start[..., 1:] = (head != tail) & ~(np.isnan(head) & np.isnan(tail))
    # Each sorted slot's rank is the average of its tie run's positions =
    # (run start + run end) / 2.  Run starts forward-fill; run ends are the
    # next run's start minus one (sentinel n past the last slot).
    starts = np.where(is_run_start, positions, 0.0)
    np.maximum.accumulate(starts, axis=-1, out=starts)
    next_start = np.where(is_run_start, positions, np.inf)
    next_start = np.minimum.accumulate(
        next_start[..., ::-1], axis=-1
    )[..., ::-1]
    ends = np.empty_like(sorted_values)
    ends[..., :-1] = np.minimum(next_start[..., 1:], float(n)) - 1.0
    ends[..., -1] = float(n - 1)
    ranks = np.empty_like(sorted_values)
    np.put_along_axis(ranks, order, (starts + ends) * 0.5, -1)
    return ranks / (n - 1)


def _leading_axis_grouped_rank(ctx, inputs, params):
    # ops._grouped_rank with each group's rank taken over the last axis.
    values = inputs[0]
    groups = ctx.group_index(params["level"])
    out = np.empty_like(values)
    for group in np.unique(groups):
        members = groups == group
        out[..., members] = _leading_axis_rank(values[..., members])
    return out


#: Transcendental elementwise operators.  Their SIMD kernels *could* take a
#: different code path for different array lengths, so each one joins the
#: registry only after :func:`_probe_transcendentals` verifies it here.
_TRANSCENDENTAL_CANDIDATES = (
    "s_sin", "s_cos", "s_tan", "s_arcsin", "s_arccos", "s_arctan",
    "s_exp", "s_log",
)

_PROBE_SPECIALS = np.array([
    0.0, -0.0, 1.0, -1.0, CLIP_VALUE, -CLIP_VALUE, _EPS, -_EPS,
    5e-324, -5e-324, np.pi, -np.pi, 50.0, -50.0, 1e-9, 123456.789,
])


def _probe_fixture(shape, rng) -> np.ndarray:
    """Sanitized values that stress a kernel, shaped ``shape``.

    Both clip boundaries, ±0, denormals, exact ±1 (the arcsin/arccos clip
    edge) and a spread of magnitudes from 1e-12 to the clip bound.
    """
    flat = rng.standard_normal(int(np.prod(shape)))
    flat *= 10.0 ** rng.integers(-12, 12, flat.shape)
    count = min(flat.size, _PROBE_SPECIALS.size)
    flat[:count] = _PROBE_SPECIALS[:count]
    return np.clip(flat, -CLIP_VALUE, CLIP_VALUE).reshape(shape)


def _probe_transcendentals(candidates=_TRANSCENDENTAL_CANDIDATES):
    """The subset of ``candidates`` whose leading-axis call is bit-exact here.

    For each candidate the registry function runs once over a fixture and
    once per leading-axis slice; the operator is admitted only when the
    bytes agree on both a 2-D ``(P, K)`` and a 3-D ``(P, C, K)`` fixture —
    the shapes the stacked day loop and the fused paths feed it.
    """
    rng = np.random.default_rng(0x5AFE)
    fixtures = (_probe_fixture((7, 13), rng), _probe_fixture((3, 5, 17), rng))
    admitted = []
    for name in candidates:
        func = get_op(name).func
        with np.errstate(all="ignore"):
            ok = all(
                func(None, (stacked,), {}).tobytes()
                == np.stack([
                    func(None, (lane,), {}) for lane in stacked
                ]).tobytes()
                for stacked in fixtures
            )
        if ok:
            admitted.append(name)
    return frozenset(admitted)


#: Operator name → :class:`Kernel`.  Operators absent here (the grouped
#: relation means, the initialisers, unverified transcendentals) run slice
#: by slice in the batched paths and sanitize fully everywhere.
KERNELS: dict[str, Kernel] = {}


def _register_kernel(name, func=None, out=None, contract=None) -> None:
    KERNELS[name] = Kernel(
        name, get_op(name).func if func is None else func, out, contract
    )


# Elementwise ufuncs: the registry function is already leading-axis exact.
# Sums, products and guarded quotients (|q| <= CLIP_VALUE / _EPS) of finite
# values stay finite; extrema, |x| and the 0/1 heaviside stay inside the
# input range.
_ELEMENTWISE = {
    "add": (_binary_out(np.add), FINITE_CLOSED),
    "sub": (_binary_out(np.subtract), FINITE_CLOSED),
    "mul": (_binary_out(np.multiply), FINITE_CLOSED),
    "div": (_divide_out, FINITE_CLOSED),
    "min": (_binary_out(np.minimum), RANGE_CLOSED),
    "max": (_binary_out(np.maximum), RANGE_CLOSED),
    "abs": (_unary_out(np.abs), RANGE_CLOSED),
    "heaviside": (_heaviside_out, RANGE_CLOSED),
}
for _shape in ("s", "v", "m"):
    for _suffix, (_out, _contract) in _ELEMENTWISE.items():
        _register_kernel(f"{_shape}_{_suffix}", out=_out, contract=_contract)
_register_kernel("s_sign", out=_unary_out(np.sign), contract=RANGE_CLOSED)
_register_kernel("transpose", contract=RANGE_CLOSED)

# Broadcasting products with leading-axis-aware indexing: one rounding per
# element, exactly as in the registry form.
_register_kernel(
    "v_scale",
    lambda ctx, inputs, params: inputs[0][..., None] * inputs[1],
    out=lambda inputs, out: np.multiply(inputs[0][..., None], inputs[1],
                                        out=out),
    contract=FINITE_CLOSED,
)
_register_kernel(
    "m_scale",
    lambda ctx, inputs, params: inputs[0][..., None, None] * inputs[1],
    out=lambda inputs, out: np.multiply(inputs[0][..., None, None],
                                        inputs[1], out=out),
    contract=FINITE_CLOSED,
)
_register_kernel(
    # einsum, like the registry form: it accumulates each product onto +0.0,
    # so a -0.0 product comes out +0.0 where a plain multiply keeps -0.0.
    "v_outer",
    lambda ctx, inputs, params: np.einsum("...f,...w->...fw", inputs[0], inputs[1]),
    out=lambda inputs, out: np.einsum("...f,...w->...fw", inputs[0], inputs[1],
                                      out=out),
    contract=FINITE_CLOSED,
)

# Negative-axis reductions and broadcasting matmul: NumPy reduces each
# trailing-axis run independently in a fixed per-element order, so leading
# axes leave every bit unchanged.  The einsum forms fix the subscripts of
# the contractions whose registry form names the task axis.
for _name in ("v_sum", "v_mean", "v_std", "v_norm", "m_norm", "m_norm_axis",
              "m_mean", "m_std", "m_mean_axis", "m_std_axis", "matmul"):
    _register_kernel(_name)
_register_kernel(
    "v_dot",
    lambda ctx, inputs, params: np.einsum("...w,...w->...", inputs[0], inputs[1]),
)
_register_kernel(
    "matvec",
    lambda ctx, inputs, params: np.einsum("...fw,...w->...f", inputs[0], inputs[1]),
)

# Selections, broadcasts and ranks: the result holds input values, 0/1
# counts or ranks in [0, 1].
_register_kernel(
    "get_scalar",
    lambda ctx, inputs, params: inputs[0][
        ..., params["row"] % ctx.num_features, params["col"] % ctx.window
    ],
    contract=RANGE_CLOSED,
)
_register_kernel(
    "get_row",
    lambda ctx, inputs, params: inputs[0][..., params["row"] % ctx.num_features, :],
    contract=RANGE_CLOSED,
)
_register_kernel(
    "get_column",
    lambda ctx, inputs, params: inputs[0][..., :, params["col"] % ctx.window],
    contract=RANGE_CLOSED,
)
_register_kernel(
    "v_broadcast",
    lambda ctx, inputs, params: np.repeat(inputs[0][..., None], ctx.window, axis=-1),
    contract=RANGE_CLOSED,
)
_register_kernel(
    "m_broadcast",
    lambda ctx, inputs, params: (
        np.repeat(inputs[0][..., None, :], ctx.num_features, axis=-2)
        if params["axis"] == 0
        else np.repeat(inputs[0][..., :, None], ctx.window, axis=-1)
    ),
    contract=RANGE_CLOSED,
)
_register_kernel(
    "ts_rank",
    lambda ctx, inputs, params: (
        (inputs[0] < inputs[0][..., -1:]).sum(axis=-1)
        / max(inputs[0].shape[-1] - 1, 1)
    ),
    contract=RANGE_CLOSED,
)
_register_kernel(
    "rank",
    lambda ctx, inputs, params: _leading_axis_rank(inputs[0]),
    contract=RANGE_CLOSED,
)
_register_kernel("relation_rank", _leading_axis_grouped_rank,
                 contract=RANGE_CLOSED)

for _name in sorted(_probe_transcendentals()):
    _register_kernel(_name)


def _sanitize_steps(op: str, inputs, raw) -> tuple[bool, bool]:
    """The ``(clip, scan)`` steps a tape entry still owes, resolved at bind.

    ``raw`` holds the state arrays that may carry unsanitized data (the
    ``m0`` features and ``s0`` labels).  An entry reading none of them
    skips what its operator's contract makes a no-op.
    """
    kernel = KERNELS.get(op)
    contract = kernel.contract if kernel is not None else None
    if contract is None or any(a is r for a in inputs for r in raw):
        return True, True
    return contract == FINITE_CLOSED, False


def _sanitize_into(out: np.ndarray, values: np.ndarray,
                   clip: bool = True, scan: bool = True) -> None:
    """Store ``values`` into ``out`` with the sanitize steps still owed.

    With both steps this is ``out[...] = sanitize(values)`` — the same
    elementwise clip and NaN zeroing — without the temporaries.
    """
    if clip:
        _clip(values, -CLIP_VALUE, CLIP_VALUE, out=out)
    elif values is not out:
        out[...] = values
    if scan:
        out[np.isnan(out)] = 0.0


@dataclass(frozen=True)
class TapeState:
    """Suspended loop-carried state of one :class:`CompiledAlpha` tape.

    The only state an alpha carries between days is the content of its
    operand arrays (the static prologue is a pure function of the bound
    context and is recomputed on resume), so a snapshot of those arrays plus
    the identity of the tape that produced them is a complete, serialisable
    suspension point.  ``tape_key`` hashes the execution-pipeline IR and
    ``base_seed``/``shape`` echo the bound context; :meth:`CompiledAlpha.resume`
    refuses a state taken from a different program or binding instead of
    silently diverging.

    ``TapeState`` is plain data (strings, ints and numpy arrays) and pickles
    cleanly, which is what the streaming checkpoint helpers in
    :mod:`repro.stream.state` rely on.  It is the external format — for
    checkpoints and persisted replay state; the runners' own per-day
    snapshots are the internal tuples of :class:`_TapeRunner`.
    """

    version: int
    tape_key: str
    base_seed: int
    #: ``(num_tasks, num_features, window)`` of the binding.
    shape: tuple[int, int, int]
    #: Operand name → array snapshot of the loop-carried state.
    operands: dict[str, np.ndarray] = field(default_factory=dict)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _TapeRunner:
    """What both tape runners share: the per-component runs and the
    copy-on-write snapshots of the operand state.

    A *snapshot* is a tuple of read-only arrays, one per operand state array
    in bind order (with the leading program axis on a stacked tape).  While
    serving, only the *per-day* arrays change — the ``m0`` features, the
    ``s0`` labels and the carried operands ``Predict()`` writes back; every
    other array is written only by ``Setup()``, ``Update()`` or an outside
    state, so it is frozen.  A snapshot therefore copies the per-day arrays
    and reuses the previous snapshot's array for every frozen one.
    ``run_setup``, ``run_update``, ``resume()`` and ``adopt()`` (taking in a
    persisted state) drop that reuse base, so the next snapshot copies
    everything; :meth:`restore` makes the restored snapshot the base.

    Sanitize rule: a binding keeps its bind-time sanitize elision only while
    every value in it came from its own tape.  A snapshot meets that rule,
    so :meth:`restore` leaves the sanitize steps alone; ``resume()`` and
    adopted persisted states bring in outside data and force full
    sanitizing for the rest of the binding.
    """

    def _bind_snapshots(self, lanes: int) -> None:
        """Fix the snapshot layout once the state arrays are bound.

        ``lanes`` is the number of leading program axes of the state arrays
        (0 solo, 1 stacked).
        """
        state = self._state
        per_day = {id(state[INPUT_MATRIX]), id(state[LABEL])}
        per_day.update(id(target) for target, _ in self._copies["predict"])
        self._arrays = tuple(state.values())
        #: Operand names in bind order, cached for the TapeState conversions.
        self._names = tuple(operand.name for operand in state)
        self._lane_shapes = tuple(array.shape[lanes:] for array in self._arrays)
        self._per_day = tuple(id(array) in per_day for array in self._arrays)
        #: The snapshot whose frozen arrays equal the live ones, or ``None``.
        self._cow_base: tuple | None = None

    @staticmethod
    def _write_back(copies: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for target, source in copies:
            target[...] = source

    def run_setup(self) -> None:
        """Run ``Setup()`` once (every lane's, on a stacked tape), plus the
        hoisted static prologue."""
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

    def snapshot(self) -> tuple:
        """A read-only copy-on-write snapshot of the operand state."""
        base = self._cow_base
        if base is None:
            snap = tuple(_read_only(array.copy()) for array in self._arrays)
        else:
            snap = tuple(
                _read_only(array.copy()) if per_day else kept
                for array, per_day, kept in zip(self._arrays, self._per_day,
                                                base)
            )
        self._cow_base = snap
        return snap

    def restore(self, snap: tuple) -> None:
        """Write a :meth:`snapshot` of this binding back into its state.

        Neither validates nor reruns the static prologue: the binding is
        live and its prologue buffers have not changed.
        """
        for array, saved in zip(self._arrays, snap):
            array[...] = saved
        self._cow_base = snap

    def _tape_state(self, snap: tuple, tape_key: str,
                    lane: int | None = None) -> TapeState:
        """``snap`` (one lane of it, on a stacked tape) as a :class:`TapeState`."""
        ctx = self.ctx
        return TapeState(
            version=TAPE_STATE_VERSION,
            tape_key=tape_key,
            base_seed=ctx.base_seed,
            shape=(ctx.num_tasks, ctx.num_features, ctx.window),
            operands={
                name: array if lane is None else array[lane]
                for name, array in zip(self._names, snap)
            },
        )

    def _check_state(self, state: TapeState, tape_key: str) -> None:
        """Raise :class:`ExecutionError` unless ``state`` fits this binding."""
        if state.version != TAPE_STATE_VERSION:
            raise ExecutionError(
                f"tape state has version {state.version}, this build reads "
                f"version {TAPE_STATE_VERSION}"
            )
        if state.tape_key != tape_key:
            raise ExecutionError(
                "tape state was suspended from a different compiled program"
            )
        ctx = self.ctx
        shape = (ctx.num_tasks, ctx.num_features, ctx.window)
        if state.shape != shape:
            raise ExecutionError(
                f"tape state was bound to shape {state.shape}, "
                f"this executor is bound to {shape}"
            )
        if state.base_seed != ctx.base_seed:
            raise ExecutionError(
                f"tape state was produced under base seed {state.base_seed}, "
                f"this executor runs under {ctx.base_seed}"
            )
        expected = set(self._names)
        snapshot = set(state.operands)
        if expected != snapshot:
            raise ExecutionError(
                "tape state operand set does not match this tape "
                f"(missing {sorted(expected - snapshot)}, "
                f"unexpected {sorted(snapshot - expected)})"
            )
        for name, lane_shape in zip(self._names, self._lane_shapes):
            if np.shape(state.operands[name]) != lane_shape:
                raise ExecutionError(
                    f"tape state operand {name} has shape "
                    f"{np.shape(state.operands[name])}, this tape holds "
                    f"{lane_shape}"
                )

    def _admit_outside_state(self) -> None:
        """Outside data may hold raw captures: sanitize every entry fully
        from now on, and copy everything at the next snapshot."""
        for tape in (self._static_tape, *self._tapes.values()):
            for entry in tape:
                entry.clip = entry.scan = True
        self._cow_base = None


class _TapeEntry:
    """One pre-resolved instruction of the flat execution tape.

    ``clip`` / ``scan`` are the sanitize steps the result still owes
    (:func:`_sanitize_steps`); :meth:`CompiledAlpha.resume` sets both.
    """

    __slots__ = ("func", "kernel", "out_func", "clip", "scan",
                 "inputs", "input_ids", "output", "output_id", "params")

    def __init__(self, instr, inputs, output, raw) -> None:
        #: The OpSpec function, for one program on one day.
        self.func = instr.spec.func
        #: The registry entry (leading-axis kernel), or ``None``.
        self.kernel = KERNELS.get(instr.op)
        self.out_func = self.kernel.out if self.kernel is not None else None
        self.clip, self.scan = _sanitize_steps(instr.op, inputs, raw)
        self.inputs = inputs
        self.input_ids = instr.inputs
        self.output = output
        self.output_id = instr.result
        self.params = instr.param_dict


class CompiledAlpha(_TapeRunner):
    """Executable form of one compiled alpha, bound to a problem shape.

    Parameters
    ----------
    compiled:
        The optimised program from :func:`repro.compile.compile_program`.
    ctx:
        The evaluation context (task count, dimensions, relation indices and
        base seed) the tape executes under — the same object the interpreter
        would hand to every operator.
    """

    def __init__(self, compiled: CompiledProgram, ctx: ExecutionContext) -> None:
        self.compiled = compiled
        self.ctx = ctx
        shapes = {
            OperandType.SCALAR: (ctx.num_tasks,),
            OperandType.VECTOR: (ctx.num_tasks, ctx.window),
            OperandType.MATRIX: (ctx.num_tasks, ctx.num_features, ctx.window),
        }
        ir = compiled.ir
        carried = compiled.dataflow.carried

        #: Operand state arrays: the loop-carried memory between components
        #: and days.  Allocated for every operand the program observes plus
        #: the three reserved addresses.
        self._state: dict[Operand, np.ndarray] = {}

        def state_array(operand: Operand) -> np.ndarray:
            array = self._state.get(operand)
            if array is None:
                array = np.zeros(shapes[operand.type])
                self._state[operand] = array
            return array

        for operand in (INPUT_MATRIX, LABEL, PREDICTION):
            state_array(operand)
        raw = (self._state[INPUT_MATRIX], self._state[LABEL])

        self._buffers: dict[int, np.ndarray] = {}
        self._static_tape: list[_TapeEntry] = []
        self._tapes: dict[str, list[_TapeEntry]] = {}
        self._copies: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

        for name, component in ir.components.items():
            static_ids: set[int] = set()
            tape: list[_TapeEntry] = []
            for instr in component.instructions:
                arrays = []
                for vid in instr.inputs:
                    value = ir.values[vid]
                    if value.operand is not None:
                        arrays.append(state_array(value.operand))
                    else:
                        arrays.append(self._buffers[vid])
                output = np.zeros(shapes[ir.values[instr.result].type])
                self._buffers[instr.result] = output
                entry = _TapeEntry(instr, tuple(arrays), output, raw)
                # Setup already runs exactly once; hoisting only pays off for
                # the components inside the per-day loops.
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
        self._tape_key = tape_key_for(ir)

        # Fused inference: which predict values carry the day axis is
        # structural, so the day-invariant entries and the day-axis entries
        # are split once here.
        self._input_matrix_id = predict.inputs.get(INPUT_MATRIX)
        day_ids = set() if self._input_matrix_id is None else {
            self._input_matrix_id
        }
        for entry in self._tapes["predict"]:
            if any(vid in day_ids for vid in entry.input_ids):
                day_ids.add(entry.output_id)
        self._day_entries = [
            entry for entry in self._tapes["predict"]
            if entry.output_id in day_ids
        ]
        self._invariant_entries = [
            entry for entry in self._tapes["predict"]
            if entry.output_id not in day_ids
        ]
        self._prediction_on_day_axis = prediction_value in day_ids
        self._bind_snapshots(lanes=0)

    # ------------------------------------------------------------------
    @property
    def prediction(self) -> np.ndarray:
        """The ``(K,)`` prediction left by the last ``run_predict`` call."""
        return self._prediction

    @property
    def supports_fused_inference(self) -> bool:
        """Whether the inference stage can run as one batched tape pass."""
        return self.compiled.fused_inference

    @property
    def supports_static_predict(self) -> bool:
        """Whether the whole ``Predict()`` tape is day-loop invariant.

        True when, beyond fused-inference eligibility, ``Predict()`` reads
        no ``Update()``-carried operand — so the engine layer may run even
        the *training-stage* predictions as one batched
        :meth:`run_inference_batch` call (see
        :func:`repro.engine.protocol.training_pass`).
        """
        return self.compiled.static_predict

    # ------------------------------------------------------------------
    def set_input(self, features: np.ndarray) -> None:
        """Load one day's feature matrices into ``m0``."""
        self._state[INPUT_MATRIX][...] = features

    def set_label(self, labels: np.ndarray) -> None:
        """Reveal one day's labels into ``s0``."""
        self._state[LABEL][...] = labels

    # ------------------------------------------------------------------
    def _run_tape(self, entries: list[_TapeEntry]) -> None:
        # The hot loop: _sanitize_into inlined, every step in place.
        ctx = self.ctx
        clip, isnan = _clip, np.isnan
        low, high = -CLIP_VALUE, CLIP_VALUE
        for entry in entries:
            out = entry.output
            if entry.out_func is not None:
                entry.out_func(entry.inputs, out)
                if entry.clip:
                    clip(out, low, high, out=out)
            elif entry.clip:
                clip(entry.func(ctx, entry.inputs, entry.params), low, high,
                     out=out)
            else:
                out[...] = entry.func(ctx, entry.inputs, entry.params)
            if entry.scan:
                out[isnan(out)] = 0.0

    # ------------------------------------------------------------------
    # Suspend / resume tape protocol
    # ------------------------------------------------------------------
    @property
    def tape_key(self) -> str:
        """Identity of the bound tape: a hash of the execution-pipeline IR."""
        return self._tape_key

    def suspend(self) -> TapeState:
        """Snapshot the loop-carried state so execution can resume later.

        The snapshot contains everything a later :meth:`resume` needs to
        continue day-by-day execution bitwise identically to an uninterrupted
        run: the operand state arrays (the cross-day memory) plus the tape
        and binding identity.  The hoisted static prologue is *not* captured
        — it is a deterministic function of the bound context and is
        recomputed on resume.
        """
        return self.tape_state(self.snapshot())

    def tape_state(self, snap: tuple) -> TapeState:
        """A :meth:`snapshot` of this binding as a :class:`TapeState`."""
        return self._tape_state(snap, self._tape_key)

    def resume(self, state: TapeState) -> None:
        """Restore a :meth:`suspend` snapshot into this (fresh) binding.

        Re-runs the static prologue (pure, so bit-for-bit reproducible) and
        overwrites the operand state arrays from the snapshot; the next
        ``run_predict`` / ``run_update`` continues exactly where the
        suspended executor stopped.  Raises :class:`ExecutionError` when the
        snapshot was taken from a different program, binding shape or seed.
        """
        self._check_state(state, self._tape_key)
        self._run_tape(self._static_tape)
        for array, name in zip(self._arrays, self._names):
            array[...] = state.operands[name]
        self._admit_outside_state()

    def adopt(self, state: TapeState) -> tuple:
        """Validate a persisted :class:`TapeState` (as :meth:`resume` does)
        and convert it to a snapshot for :meth:`restore`."""
        self._check_state(state, self._tape_key)
        self._admit_outside_state()
        return tuple(
            _read_only(np.array(state.operands[name], dtype=np.float64))
            for name in self._names
        )

    # ------------------------------------------------------------------
    def run_inference_batch(self, features: np.ndarray) -> np.ndarray:
        """Run the whole inference stage in one batched tape pass.

        ``features`` has shape ``(D, K, f, w)``; the return value holds the
        ``(D, K)`` predictions, bit-for-bit equal to looping ``set_input`` /
        ``run_predict`` over the days.  Only valid when
        :attr:`supports_fused_inference` is True.
        """
        if not self.compiled.fused_inference:
            raise ValueError(
                "program is not eligible for fused inference; run day by day"
            )
        # Entries off the day axis read only static memory: one execution
        # covers every day.
        self._run_tape(self._invariant_entries)
        num_days = features.shape[0]
        if not self._prediction_on_day_axis:
            # The prediction does not depend on the input matrix: every day
            # sees the same (static) value.
            return np.broadcast_to(
                self._prediction, (num_days,) + self._prediction.shape
            ).copy()

        ctx = self.ctx
        batched: dict[int, np.ndarray] = {self._input_matrix_id: features}
        for entry in self._day_entries:
            inputs = tuple(
                batched.get(vid, array)
                for vid, array in zip(entry.input_ids, entry.inputs)
            )
            out = np.empty((num_days,) + entry.output.shape)
            if entry.out_func is not None:
                entry.out_func(inputs, out)
                _sanitize_into(out, out, entry.clip, entry.scan)
            elif entry.kernel is not None:
                _sanitize_into(out, entry.kernel.func(ctx, inputs, entry.params),
                               entry.clip, entry.scan)
            else:
                day_flags = tuple(vid in batched for vid in entry.input_ids)
                for day in range(num_days):
                    day_inputs = tuple(
                        array[day] if is_batched else array
                        for array, is_batched in zip(inputs, day_flags)
                    )
                    out[day] = entry.func(ctx, day_inputs, entry.params)
                # sanitize is elementwise: one pass equals D per-day passes.
                _sanitize_into(out, out)
            batched[entry.output_id] = out
        return batched[self._prediction_id]
