"""Operator registry for the alpha language.

The allowable OPs (Section 2) consist of:

* basic mathematical operators for scalars, vectors and matrices in the
  spirit of AutoML-Zero [21];
* **ExtractionOps** (Section 4.1): ``get_scalar`` / ``get_row`` /
  ``get_column`` pull a scalar, a row or a column out of the input feature
  matrix, which is what lets the search find the paper's "new class" of
  alphas rather than rediscovering machine-learning alphas from scratch;
* **RelationOps** (Section 4.1): ``rank``, ``relation_rank`` and
  ``relation_demean`` are cross-sectional operators over all tasks (stocks)
  or over the tasks in the same sector/industry, which is how relational
  domain knowledge is injected without structural assumptions.

Every operator is registered once, as an :class:`OpSpec`, and that entry is
the only place its facts are stated: its input and output operand types,
the components it may appear in, the constant parameters it carries (the
row/column index of an extraction, the axis of a reduction, the bounds of a
uniform initialiser), its function, and how the compiled tape and the
optimiser may run it.  The interpreter (the oracle), constant folding
(:mod:`repro.compile.passes`) and the compiled tape
(:mod:`repro.compile.stacked`) all read it from here.

The functions receive arrays with a leading task dimension ``K``: scalars
``(K,)``, vectors ``(K, w)``, matrices ``(K, f, w)``.  They index from the
trailing axes, so each also runs over any number of further leading axes —
the tape's program (lane) axis and its day axis.  An entry records:

* the **leading-axis kernel** (:attr:`OpSpec.kernel`): the operator over any
  leading axes in front of its per-program shapes, equal to the operator on
  every leading-axis slice bit for bit.  Elementwise IEEE arithmetic is
  shape-independent, and a reduction, contraction or rank accumulates each
  trailing-axis run in the same per-element order whatever axes lead it.
  It is the operator's own function, except for ``rank`` and
  ``relation_rank``, whose per-slice oracles sort one 1-D array at a time.
  ``s_const``, the two initialisers and the grouped relation means have
  none, and the tape runs them once per lane (and per day).  The
  transcendentals' kernels join the tape only after an import-time probe
  (:mod:`repro.compile.executor`) reproduces the per-slice bytes on the
  running platform;
* the **out= form** of single-ufunc operators and the einsum outer product,
  which writes the kernel's result into a preallocated buffer (a ufunc or
  einsum computes each element identically with or without ``out=``);
* the **sanitize contract**.  Every result is sanitized (:func:`sanitize`).
  Given sanitized inputs, a :data:`FINITE_CLOSED` operator cannot produce
  NaN, so its NaN scan is a no-op; a :data:`RANGE_CLOSED` operator's result
  is already finite and within the bounds, so its clip is a no-op too;
* whether it **constant-folds**: the scalar operators whose result the fold
  pass may compute once, by calling the operator on one-element arrays;
* the **gather** of the extraction operators: one advanced-indexing call
  that takes each lane's own ``row`` / ``col`` in a stacked group;
* the **constant transfer** (:attr:`OpSpec.zeros`): which zero the result
  is when some inputs are proven zeros (:data:`PLUS_ZERO`,
  :data:`MINUS_ZERO` or :data:`SIGNED_ZERO`), and the exact **pass-through**
  identities (:attr:`OpSpec.passthrough`), such as ``x - (+0) = x``.  The
  zero-constancy pass (:mod:`repro.compile.passes`), which the compiled
  tape and the fingerprint share, reads both; the registry contract test
  checks them bit for bit.  Only IEEE sign rules and C99 Annex F special
  values (``sin(±0) = ±0``) are declared, never a probed or rounded
  constant.

No entry declares a symmetry: the compile pipeline never reorders
operands (swapping ``min``/``max`` operands can flip a zero's sign), so
``s2 + s3`` and ``s3 + s2`` are two programs with two fingerprints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ..errors import OperatorError
from .memory import OperandType

__all__ = [
    "CLIP_VALUE",
    "FINITE_CLOSED",
    "MINUS_ZERO",
    "PLUS_ZERO",
    "RANGE_CLOSED",
    "SIGNED_ZERO",
    "OpKind",
    "Dimensions",
    "ExecutionContext",
    "OpSpec",
    "OP_REGISTRY",
    "check_params",
    "get_op",
    "list_ops",
    "sample_params",
    "sanitize",
]

#: Values are clipped to +/- this bound after every operation so that a badly
#: behaved candidate alpha cannot overflow and poison the whole evaluation.
CLIP_VALUE = 1e6

#: Sanitize contract: given sanitized inputs the result is finite, so the
#: NaN scan after the clip cannot fire.
FINITE_CLOSED = "finite-closed"
#: Sanitize contract: given sanitized inputs the result is finite and within
#: ``±CLIP_VALUE``, so neither the clip nor the NaN scan changes a bit.
RANGE_CLOSED = "range-closed"

#: Zero facts: bit masks of the signs a proven-zero array may hold.  Every
#: element is +0.0, every element is -0.0, or every element is one of the
#: two (a zero of unknown sign).  ``None`` is an unknown value.
PLUS_ZERO = 1
MINUS_ZERO = 2
SIGNED_ZERO = PLUS_ZERO | MINUS_ZERO


def sanitize(values: np.ndarray) -> np.ndarray:
    """Replace non-finite entries and clip to ``[-CLIP_VALUE, CLIP_VALUE]``.

    Bit-for-bit equal to ``clip(nan_to_num(values), ...)`` — ``clip`` already
    maps ``±inf`` to the bounds and propagates NaN, which the masked write
    then zeroes — but in one output allocation and three passes instead of
    ``nan_to_num``'s copy plus three finiteness scans.

    This is the oracle: the interpreter and constant folding (through
    :meth:`OpSpec.__call__`) call it after every operator.  The compiled
    tape applies the same elementwise steps in place, into each
    instruction's preallocated buffer, and skips a step only where the
    operator's sanitize contract proves it a no-op.
    """
    out = np.clip(np.asarray(values), -CLIP_VALUE, CLIP_VALUE)
    if not isinstance(out, np.ndarray):
        # ufuncs collapse 0-d inputs to scalars, which copyto rejects.
        return out if out == out else out.dtype.type(0.0)
    if out.dtype.kind == "f":
        np.copyto(out, 0.0, where=np.isnan(out))
    return out


class OpKind(str, Enum):
    """Coarse operator families used by mutation and the experiments."""

    ARITHMETIC = "arithmetic"
    EXTRACTION = "extraction"
    RELATION = "relation"
    INIT = "init"


@dataclass(frozen=True)
class Dimensions:
    """Problem dimensions needed to sample operator parameters."""

    num_features: int
    window: int


@dataclass
class ExecutionContext:
    """Per-evaluation context handed to operator implementations.

    Holds the task-relation structure required by the RelationOps and a base
    seed for the (rare) stochastic initialiser operators.  Initialiser draws
    are derived from ``base_seed`` *and* the operator's own parameters — not
    from a shared stream — so that the values an operation produces do not
    depend on how many other stochastic operations ran before it.  This keeps
    pruning semantics-preserving (a pruned program predicts exactly what the
    original predicted), which the fingerprint cache relies on.  The
    derivation is a SHA-256 digest, not the salted built-in ``hash()``, so
    every process — pool workers under any start method included — draws
    the same values.
    """

    num_tasks: int
    num_features: int
    window: int
    sector_index: np.ndarray
    industry_index: np.ndarray
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    base_seed: int = 0

    def init_rng(self, params: dict) -> np.random.Generator:
        """A deterministic RNG for an initialiser operator with ``params``."""
        key = (int(self.base_seed),) + tuple(sorted(
            (name, round(float(value), 9)) for name, value in params.items()
            if isinstance(value, (int, float))
        ))
        digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def group_index(self, level: str) -> np.ndarray:
        """Dense group index per task for ``level`` in {'sector', 'industry'}."""
        if level == "sector":
            return self.sector_index
        if level == "industry":
            return self.industry_index
        raise OperatorError(f"unknown relation level {level!r}")


OpFunc = Callable[[ExecutionContext, tuple[np.ndarray, ...], dict], np.ndarray]

#: :attr:`OpSpec.kernel`'s default: the operator's own function.
_OWN_FUNCTION = object()


@dataclass(frozen=True)
class OpSpec:
    """Everything known about one operator (see the module docs)."""

    name: str
    kind: OpKind
    input_types: tuple[OperandType, ...]
    output_type: OperandType
    func: OpFunc
    param_names: tuple[str, ...] = ()
    components: frozenset = frozenset({"setup", "predict", "update"})
    symbol: str | None = None
    #: The leading-axis kernel, called like ``func``: ``func`` itself unless
    #: given, ``None`` for an operator the tape runs slice by slice.
    kernel: OpFunc | None = _OWN_FUNCTION
    #: ``out(inputs, out)``: the kernel writing into a buffer, or ``None``.
    out: Callable[[tuple, np.ndarray], object] | None = None
    #: :data:`FINITE_CLOSED`, :data:`RANGE_CLOSED` or ``None``.
    contract: str | None = None
    #: Whether constant folding computes it once from constant inputs.
    fold: bool = False
    #: Whether the kernel waits for the import-time transcendental probe.
    probe: bool = False
    #: ``gather(ctx, member_params)``: the operator over a ``(P, …)`` lane
    #: axis with lane ``p`` taking ``member_params[p]``, or ``None``.
    gather: Callable[[ExecutionContext, tuple[dict, ...]], OpFunc] | None = None
    #: ``zeros(facts, params)``: the result's zero fact given each input's
    #: (``PLUS_ZERO`` / ``MINUS_ZERO`` / ``SIGNED_ZERO`` / ``None``), or
    #: ``None`` when no input fact makes the result a proven zero.  Unknown
    #: inputs may hold any value, raw NaN and ±inf included.
    zeros: Callable[[tuple, dict], int | None] | None = None
    #: ``(kept, fact)`` pairs: the result is input ``kept`` bit for bit when
    #: the other input's zero fact lies within ``fact`` and input ``kept``
    #: is sanitized.
    passthrough: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kernel is _OWN_FUNCTION:
            object.__setattr__(self, "kernel", self.func)

    @property
    def arity(self) -> int:
        """Number of input operands."""
        return len(self.input_types)

    def __call__(self, ctx: ExecutionContext, inputs: tuple[np.ndarray, ...],
                 params: dict) -> np.ndarray:
        if len(inputs) != self.arity:
            raise OperatorError(
                f"operator {self.name} expects {self.arity} inputs, got {len(inputs)}"
            )
        return sanitize(self.func(ctx, inputs, params))

    def __reduce__(self):
        # ``func`` is often a closure, which pickle cannot serialise; specs
        # are registry singletons, so (de)serialise them by name instead.
        # Search checkpoints and pool submissions rely on this.
        return (get_op, (self.name,))


OP_REGISTRY: dict[str, OpSpec] = {}


def _register(spec: OpSpec) -> OpSpec:
    if spec.name in OP_REGISTRY:
        raise OperatorError(f"operator {spec.name} registered twice")
    OP_REGISTRY[spec.name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    """Look up an operator by name."""
    try:
        return OP_REGISTRY[name]
    except KeyError as exc:
        raise OperatorError(f"unknown operator {name!r}") from exc


def list_ops(
    kind: OpKind | None = None,
    output_type: OperandType | None = None,
    component: str | None = None,
) -> list[OpSpec]:
    """List registered operators, optionally filtered."""
    specs = list(OP_REGISTRY.values())
    if kind is not None:
        specs = [s for s in specs if s.kind is kind]
    if output_type is not None:
        specs = [s for s in specs if s.output_type is output_type]
    if component is not None:
        specs = [s for s in specs if component in s.components]
    return specs


# ---------------------------------------------------------------------------
# Parameters: how mutation samples them and what a loaded program may hold
# ---------------------------------------------------------------------------

_LEVELS = ("sector", "industry")


def sample_params(spec: OpSpec, dims: Dimensions, rng: np.random.Generator) -> dict:
    """Sample a full parameter dictionary for ``spec``."""
    params: dict = {}
    for name in spec.param_names:
        params[name] = _sample_param(name, dims, rng)
    return params


def _sample_param(name: str, dims: Dimensions, rng: np.random.Generator):
    if name == "row":
        return int(rng.integers(0, dims.num_features))
    if name == "col":
        return int(rng.integers(0, dims.window))
    if name == "axis":
        return int(rng.integers(0, 2))
    if name == "constant":
        return float(np.round(rng.normal(0.0, 1.0), 6))
    if name in ("low", "high"):
        return float(np.round(rng.uniform(-1.0, 1.0), 6))
    if name == "level":
        return str(rng.choice(_LEVELS))
    raise OperatorError(f"no sampler for operator parameter {name!r}")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, float)


#: Each parameter's domain, which holds every value :func:`_sample_param`
#: draws.  An extraction index wraps around its axis, so any integer is one.
_PARAM_DOMAINS = {
    "row": _is_integer,
    "col": _is_integer,
    "axis": lambda value: _is_integer(value) and value in (0, 1),
    "constant": _is_number,
    "low": _is_number,
    "high": _is_number,
    "level": lambda value: value in _LEVELS,
}


def check_params(spec: OpSpec, params: dict) -> None:
    """Raise :class:`OperatorError` unless ``params`` are exactly ``spec``'s
    parameters, each inside its domain."""
    if set(params) != set(spec.param_names):
        raise OperatorError(
            f"operator {spec.name} takes parameters {sorted(spec.param_names)}, "
            f"got {sorted(params)}"
        )
    for name in spec.param_names:
        if not _PARAM_DOMAINS[name](params[name]):
            raise OperatorError(
                f"operator {spec.name}: {name}={params[name]!r} is outside "
                "the parameter's domain"
            )


# ---------------------------------------------------------------------------
# Shared numeric helpers
# ---------------------------------------------------------------------------

_EPS = 1e-9


def _protected_divide(numerator, denominator, out=None):
    safe = np.where(np.abs(denominator) < _EPS, 1.0, denominator)
    return np.divide(numerator, safe, out=out)


def _heaviside(values, out=None):
    return np.heaviside(values, 1.0, out=out)


def _cross_sectional_rank(values: np.ndarray) -> np.ndarray:
    """Normalised [0, 1] average ranks of a 1-D array."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty_like(values)
    ranks[order] = np.arange(values.size, dtype=np.float64)
    # average ties to keep the operator deterministic and smooth
    unique, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    if unique.size != values.size:
        sums = np.zeros(unique.size)
        np.add.at(sums, inverse, ranks)
        ranks = sums[inverse] / counts[inverse]
    if values.size == 1:
        return np.zeros_like(values)
    return ranks / (values.size - 1)


def _grouped_rank(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    for group in np.unique(groups):
        members = groups == group
        out[members] = _cross_sectional_rank(values[members])
    return out


def _leading_axis_rank(values: np.ndarray) -> np.ndarray:
    """Tie-averaged cross-sectional rank over the last axis, any leading axes.

    Vectorised form of :func:`_cross_sectional_rank`: ranks are a
    permutation of ``arange(n)`` and tie runs average *consecutive*
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
    # _grouped_rank with each group's rank taken over the last axis.
    values = inputs[0]
    groups = ctx.group_index(params["level"])
    out = np.empty_like(values)
    for group in np.unique(groups):
        members = groups == group
        out[..., members] = _leading_axis_rank(values[..., members])
    return out


def _grouped_mean(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    num_groups = int(groups.max()) + 1
    sums = np.bincount(groups, weights=values, minlength=num_groups)
    counts = np.bincount(groups, minlength=num_groups).astype(np.float64)
    means = sums / np.maximum(counts, 1.0)
    return means[groups]


def _grouped_demean(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    return values - _grouped_mean(values, groups)


def _extraction_gather(ctx, member_params):
    """An ExtractionOp over a ``(P, K, f, w)`` input in one advanced-indexing
    call, lane ``p`` taking ``member_params[p]``'s ``row`` / ``col``."""
    lanes = np.arange(len(member_params))
    rows, cols = (
        np.array([params[name] % size for params in member_params])
        if name in member_params[0] else slice(None)
        for name, size in (("row", ctx.num_features), ("col", ctx.window))
    )
    return lambda ctx, inputs, params: inputs[0][lanes, :, rows, cols]


# ---------------------------------------------------------------------------
# Constant transfers (OpSpec.zeros)
# ---------------------------------------------------------------------------

def _zeros_odd(facts, params):
    # f(±0) = ±0 with the sign kept: selections, copies, sin/tan/arcsin/arctan.
    return facts[0]


def _zeros_absorbing(facts, params):
    # Any zero input makes the result +0: |±0|, sums of squares, and the
    # einsum contractions, which accumulate every product onto +0.0 (a NaN
    # product sanitizes to +0.0 as well).
    return PLUS_ZERO if any(fact is not None for fact in facts) else None


def _zeros_product(facts, params):
    # ±0 times a finite value is a zero with the xor of the signs; times NaN
    # or ±inf it is NaN, which sanitizes to +0.
    if all(fact is None for fact in facts):
        return None
    if any(fact is None for fact in facts):
        return SIGNED_ZERO
    a, b = facts
    plus = (a & b & PLUS_ZERO) or (a & b & MINUS_ZERO)
    minus = (a & PLUS_ZERO and b & MINUS_ZERO) or (a & MINUS_ZERO and b & PLUS_ZERO)
    return (PLUS_ZERO if plus else 0) | (MINUS_ZERO if minus else 0)


def _zeros_sum(facts, params):
    # IEEE: -0 + -0 = -0, and every other sum of zeros is +0.
    a, b = facts
    if a is None or b is None:
        return None
    return ((a | b) & PLUS_ZERO) | (a & b & MINUS_ZERO)


def _negated(fact):
    return None if fact is None else ((fact & PLUS_ZERO) << 1) | ((fact & MINUS_ZERO) >> 1)


def _zeros_difference(facts, params):
    # a - b is a + (-b) bit for bit.
    return _zeros_sum((facts[0], _negated(facts[1])), params)


def _zeros_quotient(facts, params):
    # The protected divide maps a zero denominator to 1.0, so a / ±0 = a; a
    # zero over anything else is a signed zero (or NaN, sanitized to +0).
    numerator, denominator = facts
    if denominator is not None:
        return numerator
    return None if numerator is None else SIGNED_ZERO


def _zeros_extremum(facts, params):
    # min/max of two zeros returns one of them, which one depending on order.
    a, b = facts
    return None if a is None or b is None else a | b


def _zeros_reduction(facts, params):
    # Sums and means of +0 are +0; how a sum of -0 starts is NumPy's choice.
    fact = facts[0]
    return None if fact is None else (PLUS_ZERO if fact == PLUS_ZERO else SIGNED_ZERO)


def _zeros_matmul(facts, params):
    # A BLAS product sums ±0 terms in an order of its own.
    return SIGNED_ZERO if any(fact is not None for fact in facts) else None


def _zeros_constant(facts, params):
    constant = float(params["constant"])
    if constant != 0.0:
        return None
    return MINUS_ZERO if np.signbit(constant) else PLUS_ZERO


#: Pass-through identities of the two-input arithmetic families.
_ADD_PASSTHROUGH = ((0, MINUS_ZERO), (1, MINUS_ZERO))
_SUB_PASSTHROUGH = ((0, PLUS_ZERO),)
_DIV_PASSTHROUGH = ((0, SIGNED_ZERO),)


# ---------------------------------------------------------------------------
# Registration helpers
# ---------------------------------------------------------------------------

_S = OperandType.SCALAR
_V = OperandType.VECTOR
_M = OperandType.MATRIX


def _unary(fn):
    return lambda ctx, inputs, params: fn(inputs[0])


def _elementwise(name: str, input_types, ufunc, contract: str, **facts) -> None:
    """Register a one-ufunc arithmetic operator with its ``out=`` form."""
    _register(OpSpec(
        name, OpKind.ARITHMETIC, input_types, input_types[0],
        lambda ctx, inputs, params: ufunc(*inputs),
        out=lambda inputs, out: ufunc(*inputs, out=out),
        contract=contract, **facts,
    ))


def _transcendental(name: str, fn, **facts) -> None:
    _register(OpSpec(name, OpKind.ARITHMETIC, (_S,), _S, _unary(fn), probe=True,
                     **facts))


def _initialiser(name: str, output_type, shape) -> None:
    """Register a uniform initialiser filling ``shape(ctx)`` from its params."""
    _register(OpSpec(
        name, OpKind.INIT, (), output_type,
        lambda ctx, inputs, params: ctx.init_rng(params).uniform(
            min(params["low"], params["high"]),
            max(params["low"], params["high"]) + _EPS,
            size=shape(ctx),
        ),
        param_names=("low", "high"),
        kernel=None,
    ))


# ---------------------------------------------------------------------------
# Scalar operators
# ---------------------------------------------------------------------------

# Sums, products and guarded quotients (|q| <= CLIP_VALUE / _EPS) of finite
# values stay finite; extrema, |x|, signs and the 0/1 heaviside stay inside
# the input range.  Only the scalar forms fold: constants are scalars.
_elementwise("s_add", (_S, _S), np.add, FINITE_CLOSED, fold=True, symbol="+",
             zeros=_zeros_sum, passthrough=_ADD_PASSTHROUGH)
_elementwise("s_sub", (_S, _S), np.subtract, FINITE_CLOSED, fold=True, symbol="-",
             zeros=_zeros_difference, passthrough=_SUB_PASSTHROUGH)
_elementwise("s_mul", (_S, _S), np.multiply, FINITE_CLOSED, fold=True, symbol="*",
             zeros=_zeros_product)
_elementwise("s_div", (_S, _S), _protected_divide, FINITE_CLOSED, fold=True,
             symbol="/", zeros=_zeros_quotient, passthrough=_DIV_PASSTHROUGH)
_elementwise("s_min", (_S, _S), np.minimum, RANGE_CLOSED, fold=True,
             zeros=_zeros_extremum)
_elementwise("s_max", (_S, _S), np.maximum, RANGE_CLOSED, fold=True,
             zeros=_zeros_extremum)
_elementwise("s_abs", (_S,), np.abs, RANGE_CLOSED, fold=True, zeros=_zeros_absorbing)
_elementwise("s_sign", (_S,), np.sign, RANGE_CLOSED, fold=True, zeros=_zeros_absorbing)
# A transcendental's SIMD kernel *could* take a different code path for a
# different array length, so none folds and each kernel is probed.
# C99 Annex F: sin, tan, arcsin and arctan return a zero argument unchanged.
_transcendental("s_sin", np.sin, zeros=_zeros_odd)
_transcendental("s_cos", np.cos)
_transcendental("s_tan", np.tan, zeros=_zeros_odd)
_transcendental("s_arcsin", lambda x: np.arcsin(np.clip(x, -1.0, 1.0)),
                zeros=_zeros_odd)
_transcendental("s_arccos", lambda x: np.arccos(np.clip(x, -1.0, 1.0)))
_transcendental("s_arctan", np.arctan, zeros=_zeros_odd)
_transcendental("s_exp", lambda x: np.exp(np.clip(x, -50.0, 50.0)))
_transcendental("s_log", lambda x: np.log(np.maximum(np.abs(x), _EPS)))
_elementwise("s_heaviside", (_S,), _heaviside, RANGE_CLOSED, fold=True)
_register(OpSpec(
    "s_const", OpKind.INIT, (), _S,
    lambda ctx, inputs, params: np.full(ctx.num_tasks, params["constant"]),
    param_names=("constant",),
    kernel=None,
    zeros=_zeros_constant,
))

# ---------------------------------------------------------------------------
# Vector operators
# ---------------------------------------------------------------------------

_elementwise("v_add", (_V, _V), np.add, FINITE_CLOSED, symbol="+",
             zeros=_zeros_sum, passthrough=_ADD_PASSTHROUGH)
_elementwise("v_sub", (_V, _V), np.subtract, FINITE_CLOSED, symbol="-",
             zeros=_zeros_difference, passthrough=_SUB_PASSTHROUGH)
_elementwise("v_mul", (_V, _V), np.multiply, FINITE_CLOSED, symbol="*",
             zeros=_zeros_product)
_elementwise("v_div", (_V, _V), _protected_divide, FINITE_CLOSED, symbol="/",
             zeros=_zeros_quotient, passthrough=_DIV_PASSTHROUGH)
_elementwise("v_min", (_V, _V), np.minimum, RANGE_CLOSED, zeros=_zeros_extremum)
_elementwise("v_max", (_V, _V), np.maximum, RANGE_CLOSED, zeros=_zeros_extremum)
_elementwise("v_abs", (_V,), np.abs, RANGE_CLOSED, zeros=_zeros_absorbing)
_elementwise("v_heaviside", (_V,), _heaviside, RANGE_CLOSED)
_register(OpSpec(
    # One rounding per element, as a plain broadcast multiply.
    "v_scale", OpKind.ARITHMETIC, (_S, _V), _V,
    lambda ctx, inputs, params: inputs[0][..., None] * inputs[1],
    out=lambda inputs, out: np.multiply(inputs[0][..., None], inputs[1], out=out),
    contract=FINITE_CLOSED,
    zeros=_zeros_product,
))
_register(OpSpec(
    "v_dot", OpKind.ARITHMETIC, (_V, _V), _S,
    lambda ctx, inputs, params: np.einsum("...w,...w->...", inputs[0], inputs[1]),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    # einsum accumulates each product onto +0.0, so a -0.0 product comes out
    # +0.0 where a plain multiply keeps -0.0.
    "v_outer", OpKind.ARITHMETIC, (_V, _V), _M,
    lambda ctx, inputs, params: np.einsum("...f,...w->...fw", inputs[0], inputs[1]),
    out=lambda inputs, out: np.einsum("...f,...w->...fw", inputs[0], inputs[1],
                                      out=out),
    contract=FINITE_CLOSED,
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "v_norm", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=-1),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "v_mean", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].mean(axis=-1),
    zeros=_zeros_reduction,
))
_register(OpSpec(
    "v_std", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].std(axis=-1),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "v_sum", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].sum(axis=-1),
    zeros=_zeros_reduction,
))
_register(OpSpec(
    "ts_rank", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: (
        (inputs[0] < inputs[0][..., -1:]).sum(axis=-1)
        / max(inputs[0].shape[-1] - 1, 1)
    ),
    contract=RANGE_CLOSED,
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "v_broadcast", OpKind.ARITHMETIC, (_S,), _V,
    lambda ctx, inputs, params: np.repeat(inputs[0][..., None], ctx.window, axis=-1),
    contract=RANGE_CLOSED,
    zeros=_zeros_odd,
))
_initialiser("vector_uniform", _V, lambda ctx: (ctx.num_tasks, ctx.window))

# ---------------------------------------------------------------------------
# Matrix operators
# ---------------------------------------------------------------------------

_elementwise("m_add", (_M, _M), np.add, FINITE_CLOSED, symbol="+",
             zeros=_zeros_sum, passthrough=_ADD_PASSTHROUGH)
_elementwise("m_sub", (_M, _M), np.subtract, FINITE_CLOSED, symbol="-",
             zeros=_zeros_difference, passthrough=_SUB_PASSTHROUGH)
_elementwise("m_mul", (_M, _M), np.multiply, FINITE_CLOSED, symbol="*",
             zeros=_zeros_product)
_elementwise("m_div", (_M, _M), _protected_divide, FINITE_CLOSED, symbol="/",
             zeros=_zeros_quotient, passthrough=_DIV_PASSTHROUGH)
_elementwise("m_min", (_M, _M), np.minimum, RANGE_CLOSED, zeros=_zeros_extremum)
_elementwise("m_max", (_M, _M), np.maximum, RANGE_CLOSED, zeros=_zeros_extremum)
_elementwise("m_abs", (_M,), np.abs, RANGE_CLOSED, zeros=_zeros_absorbing)
_elementwise("m_heaviside", (_M,), _heaviside, RANGE_CLOSED)
_register(OpSpec(
    "m_scale", OpKind.ARITHMETIC, (_S, _M), _M,
    lambda ctx, inputs, params: inputs[0][..., None, None] * inputs[1],
    out=lambda inputs, out: np.multiply(inputs[0][..., None, None], inputs[1],
                                        out=out),
    contract=FINITE_CLOSED,
    zeros=_zeros_product,
))
_register(OpSpec(
    "matmul", OpKind.ARITHMETIC, (_M, _M), _M,
    lambda ctx, inputs, params: np.matmul(inputs[0], inputs[1]),
    zeros=_zeros_matmul,
))
_register(OpSpec(
    "matvec", OpKind.ARITHMETIC, (_M, _V), _V,
    lambda ctx, inputs, params: np.einsum("...fw,...w->...f", inputs[0], inputs[1]),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "transpose", OpKind.ARITHMETIC, (_M,), _M,
    lambda ctx, inputs, params: np.swapaxes(inputs[0], -1, -2),
    contract=RANGE_CLOSED,
    zeros=_zeros_odd,
))
_register(OpSpec(
    "m_norm", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=(-2, -1)),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "m_norm_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=params["axis"] - 2),
    param_names=("axis",),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "m_mean", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: inputs[0].mean(axis=(-2, -1)),
    zeros=_zeros_reduction,
))
_register(OpSpec(
    "m_std", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: inputs[0].std(axis=(-2, -1)),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "m_mean_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: inputs[0].mean(axis=params["axis"] - 2),
    param_names=("axis",),
    zeros=_zeros_reduction,
))
_register(OpSpec(
    "m_std_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: inputs[0].std(axis=params["axis"] - 2),
    param_names=("axis",),
    zeros=_zeros_absorbing,
))
_register(OpSpec(
    "m_broadcast", OpKind.ARITHMETIC, (_V,), _M,
    lambda ctx, inputs, params: (
        np.repeat(inputs[0][..., None, :], ctx.num_features, axis=-2)
        if params["axis"] == 0
        else np.repeat(inputs[0][..., :, None], ctx.window, axis=-1)
    ),
    param_names=("axis",),
    contract=RANGE_CLOSED,
    zeros=_zeros_odd,
))
_initialiser("matrix_uniform", _M,
             lambda ctx: (ctx.num_tasks, ctx.num_features, ctx.window))

# ---------------------------------------------------------------------------
# ExtractionOps (Section 4.1)
# ---------------------------------------------------------------------------

_register(OpSpec(
    "get_scalar", OpKind.EXTRACTION, (_M,), _S,
    lambda ctx, inputs, params: inputs[0][
        ..., params["row"] % ctx.num_features, params["col"] % ctx.window
    ],
    param_names=("row", "col"),
    contract=RANGE_CLOSED,
    gather=_extraction_gather,
    zeros=_zeros_odd,
))
_register(OpSpec(
    "get_row", OpKind.EXTRACTION, (_M,), _V,
    lambda ctx, inputs, params: inputs[0][..., params["row"] % ctx.num_features, :],
    param_names=("row",),
    contract=RANGE_CLOSED,
    gather=_extraction_gather,
    zeros=_zeros_odd,
))
_register(OpSpec(
    "get_column", OpKind.EXTRACTION, (_M,), _V,
    lambda ctx, inputs, params: inputs[0][..., params["col"] % ctx.window],
    param_names=("col",),
    contract=RANGE_CLOSED,
    gather=_extraction_gather,
    zeros=_zeros_odd,
))

# ---------------------------------------------------------------------------
# RelationOps (Section 4.1)
# ---------------------------------------------------------------------------

_RELATION_COMPONENTS = frozenset({"predict", "update"})

_register(OpSpec(
    "rank", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _cross_sectional_rank(inputs[0]),
    components=_RELATION_COMPONENTS,
    kernel=lambda ctx, inputs, params: _leading_axis_rank(inputs[0]),
    contract=RANGE_CLOSED,
))
_register(OpSpec(
    "relation_rank", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _grouped_rank(inputs[0], ctx.group_index(params["level"])),
    param_names=("level",),
    components=_RELATION_COMPONENTS,
    kernel=_leading_axis_grouped_rank,
    contract=RANGE_CLOSED,
))
_register(OpSpec(
    "relation_demean", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _grouped_demean(
        inputs[0], ctx.group_index(params["level"])
    ),
    param_names=("level",),
    components=_RELATION_COMPONENTS,
    kernel=None,
    # The group means of zeros are +0 (bincount sums onto +0), and x - (+0) = x.
    zeros=_zeros_odd,
))
_register(OpSpec(
    # The complement of RelationDemeanOp: the mean of the input operand over
    # the related tasks (same sector/industry).  RelationDemeanOp equals
    # "input - relation_mean(input)", so this operator adds no modelling power
    # beyond the paper's RelationOps, but it makes sector/industry-level
    # signals reachable in a single mutation.
    "relation_mean", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _grouped_mean(inputs[0], ctx.group_index(params["level"])),
    param_names=("level",),
    components=_RELATION_COMPONENTS,
    kernel=None,
    zeros=_zeros_absorbing,
))
