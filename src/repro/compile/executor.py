"""The kernel registry the compiled tape runs on, and its state format.

The tape itself is :class:`~repro.compile.stacked.StackedAlpha` (one lane
per program, P ≥ 1).  This module holds what it executes and what it
persists:

* :data:`KERNELS`, the one table of how the tape executes an operator;
* :class:`TapeState`, the one external format of a suspended lane, for
  checkpoints and persisted replay state (:data:`TAPE_STATE_VERSION`);
* :func:`_sanitize_steps`, the bind-time sanitize elision its contracts
  allow.

The leading-axis kernel registry
--------------------------------

The tape uses a :class:`Kernel` for the program axis of every multi-lane
tape and the day axis of its fused inference path.  Each records:

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

Every input of a tape instruction is either a sanitized SSA buffer, a state
array written back from one, or the raw ``m0`` feature / ``s0`` label
state, which holds whatever the data holds.  So at bind time
(:func:`_sanitize_steps`) an instruction that reads no raw state drops the
steps its contract makes no-ops.  That holds only while every value in the
binding came from its own tape: restoring its own snapshot keeps the
skipped steps, but state taken in from outside — by ``resume()`` or an
adopted persisted snapshot — may hold raw captures, so from then on the
tape runs every step again.

Bitwise parity with the interpreter is a hard contract (the fingerprint
cache and the search both rely on it); the interpreter and
:func:`~repro.core.ops.sanitize` remain the oracle.  An operator without a
leading-axis kernel (the grouped relation means, the initialisers) runs
once per lane — and, on the fused path, once per day — which reproduces the
interpreter's arithmetic exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.ops import _EPS, CLIP_VALUE, OpFunc, get_op

try:  # the ufunc behind ``np.clip``, called without its dispatch layers
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

__all__ = [
    "TapeState", "TAPE_STATE_VERSION", "tape_key_for",
    "Kernel", "KERNELS", "FINITE_CLOSED", "RANGE_CLOSED",
]

#: Bumped whenever the suspended-state layout changes incompatibly.
TAPE_STATE_VERSION = 1


def tape_key_for(ir) -> str:
    """The tape identity key: a hash of the execution-pipeline IR.

    One program's key whatever group its lane sits in, so a
    :class:`TapeState` suspended from any lane resumes into any other lane
    holding the same program.
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
    """How the tape executes one operator (see the module docs).

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
    """The ``(clip, scan)`` steps a tape instruction still owes, resolved at
    bind.

    ``raw`` holds the state arrays that may carry unsanitized data (the
    ``m0`` features and ``s0`` labels).  An instruction reading none of
    them skips what its operator's contract makes a no-op.
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
    """Suspended loop-carried state of one lane of a compiled tape.

    The only state an alpha carries between days is the content of its
    operand arrays (the static prologue is a pure function of the bound
    context and is recomputed on resume), so a snapshot of those arrays plus
    the identity of the tape that produced them is a complete, serialisable
    suspension point.  ``tape_key`` hashes the execution-pipeline IR and
    ``base_seed``/``shape`` echo the bound context;
    :meth:`StackedAlpha.resume <repro.compile.stacked.StackedAlpha.resume>`
    refuses a state taken from a different program or binding instead of
    silently diverging.

    ``TapeState`` is plain data (strings, ints and numpy arrays) and pickles
    cleanly, which is what the streaming checkpoint helpers in
    :mod:`repro.stream.state` rely on.  It is the external format — for
    checkpoints and persisted replay state; the tape's own per-day
    snapshots are internal tuples of its state arrays.
    """

    version: int
    tape_key: str
    base_seed: int
    #: ``(num_tasks, num_features, window)`` of the binding.
    shape: tuple[int, int, int]
    #: Operand name → array snapshot of the loop-carried state.
    operands: dict[str, np.ndarray] = field(default_factory=dict)
