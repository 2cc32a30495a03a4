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

Every operator is registered as an :class:`OpSpec` describing its input and
output operand types, the components it may appear in, and the constant
parameters it carries (e.g. the row/column index of an extraction, the axis
of a reduction, the bounds of a uniform initialiser).  The vectorised
execution functions receive arrays with a leading task dimension ``K``:
scalars ``(K,)``, vectors ``(K, w)``, matrices ``(K, f, w)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from ..errors import OperatorError
from .memory import OperandType

__all__ = [
    "CLIP_VALUE",
    "OpKind",
    "Dimensions",
    "ExecutionContext",
    "OpSpec",
    "OP_REGISTRY",
    "get_op",
    "list_ops",
    "sample_params",
    "sanitize",
]

#: Values are clipped to +/- this bound after every operation so that a badly
#: behaved candidate alpha cannot overflow and poison the whole evaluation.
CLIP_VALUE = 1e6


def sanitize(values: np.ndarray) -> np.ndarray:
    """Replace non-finite entries and clip to ``[-CLIP_VALUE, CLIP_VALUE]``.

    Bit-for-bit equal to ``clip(nan_to_num(values), ...)`` — ``clip`` already
    maps ``±inf`` to the bounds and propagates NaN, which the masked write
    then zeroes — but in one output allocation and three passes instead of
    ``nan_to_num``'s copy plus three finiteness scans.

    This is the oracle: the interpreter (through :meth:`OpSpec.__call__`)
    and constant folding call it after every operator.  The compiled tapes
    apply the same elementwise steps in place, into each entry's
    preallocated buffer, and skip a step only where the operator's
    sanitize contract proves it a no-op (see
    :mod:`repro.compile.executor`).
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
    original predicted), which the fingerprint cache relies on.
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
        key = (self.base_seed,) + tuple(sorted(
            (name, round(float(value), 9)) for name, value in params.items()
            if isinstance(value, (int, float))
        ))
        return np.random.default_rng(abs(hash(key)) % (2**63))

    def group_index(self, level: str) -> np.ndarray:
        """Dense group index per task for ``level`` in {'sector', 'industry'}."""
        if level == "sector":
            return self.sector_index
        if level == "industry":
            return self.industry_index
        raise OperatorError(f"unknown relation level {level!r}")


OpFunc = Callable[[ExecutionContext, tuple[np.ndarray, ...], dict], np.ndarray]


@dataclass(frozen=True)
class OpSpec:
    """Description of a single operator."""

    name: str
    kind: OpKind
    input_types: tuple[OperandType, ...]
    output_type: OperandType
    func: OpFunc
    param_names: tuple[str, ...] = ()
    components: frozenset = frozenset({"setup", "predict", "update"})
    symbol: str | None = None
    #: Whether swapping the two inputs leaves the result unchanged (e.g.
    #: ``a + b == b + a``).  Canonicalisation — in
    #: :meth:`repro.core.program.AlphaProgram.structural_key` and in the
    #: compile pipeline (:mod:`repro.compile.passes`) — sorts the operands of
    #: commutative operators so mirror-image programs share one fingerprint.
    commutative: bool = False

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
# Parameter sampling (used by mutation and random-program generation)
# ---------------------------------------------------------------------------

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
        return str(rng.choice(["sector", "industry"]))
    raise OperatorError(f"no sampler for operator parameter {name!r}")


# ---------------------------------------------------------------------------
# Shared numeric helpers
# ---------------------------------------------------------------------------

_EPS = 1e-9


def _protected_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    safe = np.where(np.abs(denominator) < _EPS, 1.0, denominator)
    return numerator / safe


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


def _grouped_mean(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    num_groups = int(groups.max()) + 1
    sums = np.bincount(groups, weights=values, minlength=num_groups)
    counts = np.bincount(groups, minlength=num_groups).astype(np.float64)
    means = sums / np.maximum(counts, 1.0)
    return means[groups]


def _grouped_demean(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    return values - _grouped_mean(values, groups)


# ---------------------------------------------------------------------------
# Scalar operators
# ---------------------------------------------------------------------------

_S = OperandType.SCALAR
_V = OperandType.VECTOR
_M = OperandType.MATRIX


def _unary(fn):
    return lambda ctx, inputs, params: fn(inputs[0])


def _binary(fn):
    return lambda ctx, inputs, params: fn(inputs[0], inputs[1])


_register(OpSpec("s_add", OpKind.ARITHMETIC, (_S, _S), _S, _binary(np.add), symbol="+",
                  commutative=True))
_register(OpSpec("s_sub", OpKind.ARITHMETIC, (_S, _S), _S, _binary(np.subtract), symbol="-"))
_register(OpSpec("s_mul", OpKind.ARITHMETIC, (_S, _S), _S, _binary(np.multiply), symbol="*",
                  commutative=True))
_register(OpSpec("s_div", OpKind.ARITHMETIC, (_S, _S), _S, _binary(_protected_divide), symbol="/"))
_register(OpSpec("s_min", OpKind.ARITHMETIC, (_S, _S), _S, _binary(np.minimum),
                  commutative=True))
_register(OpSpec("s_max", OpKind.ARITHMETIC, (_S, _S), _S, _binary(np.maximum),
                  commutative=True))
_register(OpSpec("s_abs", OpKind.ARITHMETIC, (_S,), _S, _unary(np.abs)))
_register(OpSpec("s_sign", OpKind.ARITHMETIC, (_S,), _S, _unary(np.sign)))
_register(OpSpec("s_sin", OpKind.ARITHMETIC, (_S,), _S, _unary(np.sin)))
_register(OpSpec("s_cos", OpKind.ARITHMETIC, (_S,), _S, _unary(np.cos)))
_register(OpSpec("s_tan", OpKind.ARITHMETIC, (_S,), _S, _unary(np.tan)))
_register(OpSpec(
    "s_arcsin", OpKind.ARITHMETIC, (_S,), _S,
    _unary(lambda x: np.arcsin(np.clip(x, -1.0, 1.0))),
))
_register(OpSpec(
    "s_arccos", OpKind.ARITHMETIC, (_S,), _S,
    _unary(lambda x: np.arccos(np.clip(x, -1.0, 1.0))),
))
_register(OpSpec("s_arctan", OpKind.ARITHMETIC, (_S,), _S, _unary(np.arctan)))
_register(OpSpec(
    "s_exp", OpKind.ARITHMETIC, (_S,), _S, _unary(lambda x: np.exp(np.clip(x, -50.0, 50.0))),
))
_register(OpSpec(
    "s_log", OpKind.ARITHMETIC, (_S,), _S,
    _unary(lambda x: np.log(np.maximum(np.abs(x), _EPS))),
))
_register(OpSpec(
    "s_heaviside", OpKind.ARITHMETIC, (_S,), _S, _unary(lambda x: np.heaviside(x, 1.0)),
))
_register(OpSpec(
    "s_const", OpKind.INIT, (), _S,
    lambda ctx, inputs, params: np.full(ctx.num_tasks, params["constant"]),
    param_names=("constant",),
))

# ---------------------------------------------------------------------------
# Vector operators
# ---------------------------------------------------------------------------

_register(OpSpec("v_add", OpKind.ARITHMETIC, (_V, _V), _V, _binary(np.add), symbol="+",
                  commutative=True))
_register(OpSpec("v_sub", OpKind.ARITHMETIC, (_V, _V), _V, _binary(np.subtract), symbol="-"))
_register(OpSpec("v_mul", OpKind.ARITHMETIC, (_V, _V), _V, _binary(np.multiply), symbol="*",
                  commutative=True))
_register(OpSpec("v_div", OpKind.ARITHMETIC, (_V, _V), _V, _binary(_protected_divide), symbol="/"))
_register(OpSpec("v_min", OpKind.ARITHMETIC, (_V, _V), _V, _binary(np.minimum),
                  commutative=True))
_register(OpSpec("v_max", OpKind.ARITHMETIC, (_V, _V), _V, _binary(np.maximum),
                  commutative=True))
_register(OpSpec("v_abs", OpKind.ARITHMETIC, (_V,), _V, _unary(np.abs)))
_register(OpSpec(
    "v_heaviside", OpKind.ARITHMETIC, (_V,), _V, _unary(lambda x: np.heaviside(x, 1.0)),
))
_register(OpSpec(
    "v_scale", OpKind.ARITHMETIC, (_S, _V), _V,
    lambda ctx, inputs, params: inputs[0][:, None] * inputs[1],
))
_register(OpSpec(
    "v_dot", OpKind.ARITHMETIC, (_V, _V), _S,
    lambda ctx, inputs, params: np.einsum("kw,kw->k", inputs[0], inputs[1]),
    commutative=True,
))
_register(OpSpec(
    "v_outer", OpKind.ARITHMETIC, (_V, _V), _M,
    lambda ctx, inputs, params: np.einsum("kf,kw->kfw", inputs[0], inputs[1]),
))
_register(OpSpec(
    "v_norm", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=-1),
))
_register(OpSpec(
    "v_mean", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].mean(axis=-1),
))
_register(OpSpec(
    "v_std", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].std(axis=-1),
))
_register(OpSpec(
    "v_sum", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: inputs[0].sum(axis=-1),
))
_register(OpSpec(
    "ts_rank", OpKind.ARITHMETIC, (_V,), _S,
    lambda ctx, inputs, params: (
        (inputs[0] < inputs[0][:, -1:]).sum(axis=-1) / max(inputs[0].shape[-1] - 1, 1)
    ),
))
_register(OpSpec(
    "v_broadcast", OpKind.ARITHMETIC, (_S,), _V,
    lambda ctx, inputs, params: np.repeat(inputs[0][:, None], ctx.window, axis=1),
))
_register(OpSpec(
    "vector_uniform", OpKind.INIT, (), _V,
    lambda ctx, inputs, params: ctx.init_rng(params).uniform(
        min(params["low"], params["high"]),
        max(params["low"], params["high"]) + _EPS,
        size=(ctx.num_tasks, ctx.window),
    ),
    param_names=("low", "high"),
))

# ---------------------------------------------------------------------------
# Matrix operators
# ---------------------------------------------------------------------------

_register(OpSpec("m_add", OpKind.ARITHMETIC, (_M, _M), _M, _binary(np.add), symbol="+",
                  commutative=True))
_register(OpSpec("m_sub", OpKind.ARITHMETIC, (_M, _M), _M, _binary(np.subtract), symbol="-"))
_register(OpSpec("m_mul", OpKind.ARITHMETIC, (_M, _M), _M, _binary(np.multiply), symbol="*",
                  commutative=True))
_register(OpSpec("m_div", OpKind.ARITHMETIC, (_M, _M), _M, _binary(_protected_divide), symbol="/"))
_register(OpSpec("m_min", OpKind.ARITHMETIC, (_M, _M), _M, _binary(np.minimum),
                  commutative=True))
_register(OpSpec("m_max", OpKind.ARITHMETIC, (_M, _M), _M, _binary(np.maximum),
                  commutative=True))
_register(OpSpec("m_abs", OpKind.ARITHMETIC, (_M,), _M, _unary(np.abs)))
_register(OpSpec(
    "m_heaviside", OpKind.ARITHMETIC, (_M,), _M, _unary(lambda x: np.heaviside(x, 1.0)),
))
_register(OpSpec(
    "m_scale", OpKind.ARITHMETIC, (_S, _M), _M,
    lambda ctx, inputs, params: inputs[0][:, None, None] * inputs[1],
))
_register(OpSpec(
    "matmul", OpKind.ARITHMETIC, (_M, _M), _M,
    lambda ctx, inputs, params: np.matmul(inputs[0], inputs[1]),
))
_register(OpSpec(
    "matvec", OpKind.ARITHMETIC, (_M, _V), _V,
    lambda ctx, inputs, params: np.einsum("kfw,kw->kf", inputs[0], inputs[1]),
))
_register(OpSpec(
    "transpose", OpKind.ARITHMETIC, (_M,), _M,
    lambda ctx, inputs, params: np.swapaxes(inputs[0], -1, -2),
))
_register(OpSpec(
    "m_norm", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=(-2, -1)),
))
_register(OpSpec(
    "m_norm_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: np.linalg.norm(inputs[0], axis=-2 + params["axis"] * 1),
    param_names=("axis",),
))
_register(OpSpec(
    "m_mean", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: inputs[0].mean(axis=(-2, -1)),
))
_register(OpSpec(
    "m_std", OpKind.ARITHMETIC, (_M,), _S,
    lambda ctx, inputs, params: inputs[0].std(axis=(-2, -1)),
))
_register(OpSpec(
    "m_mean_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: inputs[0].mean(axis=-2 + params["axis"] * 1),
    param_names=("axis",),
))
_register(OpSpec(
    "m_std_axis", OpKind.ARITHMETIC, (_M,), _V,
    lambda ctx, inputs, params: inputs[0].std(axis=-2 + params["axis"] * 1),
    param_names=("axis",),
))
_register(OpSpec(
    "m_broadcast", OpKind.ARITHMETIC, (_V,), _M,
    lambda ctx, inputs, params: (
        np.repeat(inputs[0][:, None, :], ctx.num_features, axis=1)
        if params["axis"] == 0
        else np.repeat(inputs[0][:, :, None], ctx.window, axis=2)
    ),
    param_names=("axis",),
))
_register(OpSpec(
    "matrix_uniform", OpKind.INIT, (), _M,
    lambda ctx, inputs, params: ctx.init_rng(params).uniform(
        min(params["low"], params["high"]),
        max(params["low"], params["high"]) + _EPS,
        size=(ctx.num_tasks, ctx.num_features, ctx.window),
    ),
    param_names=("low", "high"),
))

# ---------------------------------------------------------------------------
# ExtractionOps (Section 4.1)
# ---------------------------------------------------------------------------

_register(OpSpec(
    "get_scalar", OpKind.EXTRACTION, (_M,), _S,
    lambda ctx, inputs, params: inputs[0][:, params["row"] % ctx.num_features,
                                          params["col"] % ctx.window],
    param_names=("row", "col"),
))
_register(OpSpec(
    "get_row", OpKind.EXTRACTION, (_M,), _V,
    lambda ctx, inputs, params: inputs[0][:, params["row"] % ctx.num_features, :],
    param_names=("row",),
))
_register(OpSpec(
    "get_column", OpKind.EXTRACTION, (_M,), _V,
    lambda ctx, inputs, params: inputs[0][:, :, params["col"] % ctx.window],
    param_names=("col",),
))

# ---------------------------------------------------------------------------
# RelationOps (Section 4.1)
# ---------------------------------------------------------------------------

_register(OpSpec(
    "rank", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _cross_sectional_rank(inputs[0]),
    components=frozenset({"predict", "update"}),
))
_register(OpSpec(
    "relation_rank", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _grouped_rank(inputs[0], ctx.group_index(params["level"])),
    param_names=("level",),
    components=frozenset({"predict", "update"}),
))
_register(OpSpec(
    "relation_demean", OpKind.RELATION, (_S,), _S,
    lambda ctx, inputs, params: _grouped_demean(
        inputs[0], ctx.group_index(params["level"])
    ),
    param_names=("level",),
    components=frozenset({"predict", "update"}),
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
    components=frozenset({"predict", "update"}),
))
