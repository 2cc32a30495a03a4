"""The kernels the compiled tape runs, and its state format.

The tape itself is :class:`~repro.compile.stacked.StackedAlpha` (one lane
per program, P ≥ 1).  This module holds what it executes and what it
persists:

* :data:`KERNELS`, the leading-axis kernels this platform admits — a view
  of the operator registry (:class:`~repro.core.ops.OpSpec`), which states
  each operator's kernel, ``out=`` form and sanitize contract;
* :class:`TapeState`, the one external format of a suspended lane, for
  checkpoints and persisted replay state (:data:`TAPE_STATE_VERSION`);
* :func:`_sanitize_steps`, the bind-time sanitize elision the contracts
  allow.

A transcendental operator's kernel joins :data:`KERNELS` only after an
import-time probe (:func:`_probe_transcendentals`) reproduces the
per-slice bytes on the running platform: its SIMD code *could* take a
different path for a different array length.

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
kernel here (the grouped relation means, the initialisers, ``s_const``, an
unverified transcendental) runs once per lane — and, on the fused path,
once per day — which reproduces the interpreter's arithmetic exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.ops import _EPS, CLIP_VALUE, FINITE_CLOSED, OP_REGISTRY, OpFunc, get_op

try:  # the ufunc behind ``np.clip``, called without its dispatch layers
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy 1.x
    from numpy.core.umath import clip as _clip

__all__ = ["TapeState", "TAPE_STATE_VERSION", "tape_key_for", "KERNELS"]

#: Bumped whenever the suspended-state layout changes incompatibly.
TAPE_STATE_VERSION = 1


def tape_key_for(ir) -> str:
    """The tape identity key: a hash of the IR the tape executes.

    One program's key whatever group its lane sits in, so a
    :class:`TapeState` suspended from any lane resumes into any other lane
    holding the same program.
    """
    return hashlib.sha256(ir.render().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The leading-axis kernels this platform admits
# ---------------------------------------------------------------------------

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


def _probe_transcendentals(names) -> frozenset:
    """The subset of ``names`` whose leading-axis kernel is bit-exact here.

    For each operator the kernel runs once over a fixture and the operator's
    function once per leading-axis slice; the operator is admitted only when
    the bytes agree on both a 2-D ``(P, K)`` and a 3-D ``(P, C, K)`` fixture
    — the shapes the stacked day loop and the fused paths feed it.
    """
    rng = np.random.default_rng(0x5AFE)
    fixtures = (_probe_fixture((7, 13), rng), _probe_fixture((3, 5, 17), rng))
    admitted = []
    for name in names:
        spec = get_op(name)
        with np.errstate(all="ignore"):
            ok = all(
                spec.kernel(None, (stacked,), {}).tobytes()
                == np.stack([
                    spec.func(None, (lane,), {}) for lane in stacked
                ]).tobytes()
                for stacked in fixtures
            )
        if ok:
            admitted.append(name)
    return frozenset(admitted)


_ADMITTED = _probe_transcendentals(
    name for name, spec in OP_REGISTRY.items() if spec.probe
)

#: Operator name → leading-axis kernel, for every operator that declares
#: one, a probed one only where the probe admitted it.  Operators absent
#: here run slice by slice in the batched paths.
KERNELS: dict[str, OpFunc] = {
    name: spec.kernel for name, spec in OP_REGISTRY.items()
    if spec.kernel is not None and (not spec.probe or name in _ADMITTED)
}


def _sanitize_steps(op: str, inputs, raw) -> tuple[bool, bool]:
    """The ``(clip, scan)`` steps a tape instruction still owes, resolved at
    bind.

    ``raw`` holds the state arrays that may carry unsanitized data (the
    ``m0`` features and ``s0`` labels).  An instruction reading none of
    them skips what its operator's contract makes a no-op.
    """
    contract = get_op(op).contract
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
    suspension point.  ``tape_key`` hashes the IR the tape executes and
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
