"""The constant transfers every operator declares, checked bit for bit.

Each :data:`~repro.core.ops.OP_REGISTRY` entry declares what its result is
when inputs are proven zeros (:attr:`~repro.core.ops.OpSpec.zeros`) and
which inputs it returns unchanged (:attr:`~repro.core.ops.OpSpec.
passthrough`).  The fingerprint's zero-constancy pass trusts both, so a
wrong declaration is a false cache hit and a wrongly shared serving backend.
In the operator-registry test style, this suite pins which entries declare a
transfer and calls every operator — the registry function and the
leading-axis kernel — on +0, -0 and mixed-sign zeros, beside finite, NaN,
±inf, denormal and clip-bound values in the other operands, at several
array lengths so that the SIMD paths are covered.
"""

import itertools

import numpy as np
import pytest

from repro.core.memory import OperandType
from repro.core.ops import (
    CLIP_VALUE,
    MINUS_ZERO,
    OP_REGISTRY,
    PLUS_ZERO,
    SIGNED_ZERO,
    Dimensions,
    ExecutionContext,
    sample_params,
    sanitize,
)

FACTS = (PLUS_ZERO, MINUS_ZERO, SIGNED_ZERO, None)

#: ``(K, w)``: task counts and windows (``f == w``), odd and SIMD-sized.
SHAPES = ((1, 1), (2, 3), (7, 4), (9, 8), (17, 13), (33, 2))

#: Entries that declare no transfer: no zero input proves their result zero
#: (``heaviside(±0) = 1``, ``cos(±0) = exp(±0) = 1``, ``rank`` of a uniform
#: input is 0.5, the initialisers draw their values).
NO_TRANSFER = {
    "s_heaviside", "v_heaviside", "m_heaviside", "s_cos", "s_arccos", "s_exp",
    "s_log", "vector_uniform", "matrix_uniform", "rank", "relation_rank",
}

#: The declared pass-through identities.
PASSTHROUGH = {
    "s_add": ((0, MINUS_ZERO), (1, MINUS_ZERO)),
    "v_add": ((0, MINUS_ZERO), (1, MINUS_ZERO)),
    "m_add": ((0, MINUS_ZERO), (1, MINUS_ZERO)),
    "s_sub": ((0, PLUS_ZERO),),
    "v_sub": ((0, PLUS_ZERO),),
    "m_sub": ((0, PLUS_ZERO),),
    "s_div": ((0, SIGNED_ZERO),),
    "v_div": ((0, SIGNED_ZERO),),
    "m_div": ((0, SIGNED_ZERO),),
}

HOSTILE = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0,
                    CLIP_VALUE, -CLIP_VALUE, 1e-12, -1e-12])

TRANSFER_OPS = sorted(name for name in OP_REGISTRY if name not in NO_TRANSFER)


def context(num_tasks: int, window: int) -> ExecutionContext:
    return ExecutionContext(
        num_tasks=num_tasks, num_features=window, window=window,
        sector_index=np.arange(num_tasks) % 3,
        industry_index=np.arange(num_tasks) % 5,
    )


def shape_of(type_: OperandType, num_tasks: int, window: int) -> tuple:
    return {
        OperandType.SCALAR: (num_tasks,),
        OperandType.VECTOR: (num_tasks, window),
        OperandType.MATRIX: (num_tasks, window, window),
    }[type_]


def realise(fact, shape, rng, variant: int) -> np.ndarray:
    """An array the zero fact ``fact`` describes (any values for ``None``)."""
    if fact == PLUS_ZERO:
        return np.zeros(shape)
    if fact == MINUS_ZERO:
        return np.full(shape, -0.0)
    if fact == SIGNED_ZERO:
        return np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    if variant == 0:
        return rng.normal(size=shape)
    return rng.choice(HOSTILE, size=shape)


def sanitized(shape, rng) -> np.ndarray:
    """A sanitized array: finite values, zeros of both signs, denormals and
    the clip bounds."""
    values = np.concatenate([rng.normal(size=8), HOSTILE[3:]])
    return sanitize(rng.choice(values, size=shape))


def holds(fact, result: np.ndarray) -> bool:
    zero = bool(np.all(result == 0.0))
    if fact == SIGNED_ZERO:
        return zero
    negative = np.signbit(result)
    if fact == PLUS_ZERO:
        return zero and not negative.any()
    return zero and bool(negative.all())


def params_for(spec, window: int, rng) -> list[dict]:
    if spec.name == "s_const":
        return [{"constant": c} for c in (0.0, -0.0, 1.5, -2.0)]
    dims = Dimensions(window, window)
    return [sample_params(spec, dims, rng) for _ in range(2)]


def results(spec, ctx, inputs, params):
    """The registry call, and the kernel over a two-lane leading axis."""
    yield spec(ctx, inputs, params)
    if spec.kernel is not None:
        lanes = tuple(np.stack([array, array]) for array in inputs)
        stacked = sanitize(spec.kernel(ctx, lanes, params))
        yield stacked[0]
        yield stacked[1]


class TestDeclarations:
    def test_no_transfer_set_pinned(self):
        assert {name for name, spec in OP_REGISTRY.items()
                if spec.zeros is None} == NO_TRANSFER
        assert len(TRANSFER_OPS) == len(OP_REGISTRY) - len(NO_TRANSFER) == 52

    def test_passthrough_set_pinned(self):
        assert {name: spec.passthrough for name, spec in OP_REGISTRY.items()
                if spec.passthrough} == PASSTHROUGH

    @pytest.mark.parametrize("name", TRANSFER_OPS)
    def test_transfer_is_monotone(self, name):
        """A coarser input fact never gives a finer result fact, which is
        what lets the fixpoint rise to a stable answer."""
        spec = OP_REGISTRY[name]
        if spec.name == "s_const":
            return

        def coarser(a, b):  # a is implied by b
            return a is None or (b is not None and a | b == a)

        for before in itertools.product(FACTS, repeat=spec.arity):
            for after in itertools.product(FACTS, repeat=spec.arity):
                if all(coarser(a, b) for a, b in zip(after, before)):
                    assert coarser(spec.zeros(after, {}),
                                   spec.zeros(before, {})), (before, after)


@pytest.mark.parametrize("name", TRANSFER_OPS)
def test_transfer_holds_bit_for_bit(name):
    spec = OP_REGISTRY[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for num_tasks, window in SHAPES:
        ctx = context(num_tasks, window)
        for params in params_for(spec, window, rng):
            for facts in itertools.product(FACTS, repeat=spec.arity):
                declared = spec.zeros(facts, params)
                if declared is None:
                    continue
                for variant in (0, 1):
                    inputs = tuple(
                        realise(fact, shape_of(type_, num_tasks, window), rng, variant)
                        for fact, type_ in zip(facts, spec.input_types)
                    )
                    with np.errstate(all="ignore"):
                        for result in results(spec, ctx, inputs, params):
                            assert holds(declared, result), (
                                name, (num_tasks, window), params, facts, variant)


@pytest.mark.parametrize("name", sorted(PASSTHROUGH))
def test_passthrough_returns_the_sanitized_input(name):
    spec = OP_REGISTRY[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for num_tasks, window in SHAPES:
        ctx = context(num_tasks, window)
        shape = shape_of(spec.input_types[0], num_tasks, window)
        for kept, other_facts in spec.passthrough:
            for fact in (PLUS_ZERO, MINUS_ZERO, SIGNED_ZERO):
                if fact | other_facts != other_facts:
                    continue
                kept_value = sanitized(shape, rng)
                inputs = [None, None]
                inputs[kept] = kept_value
                inputs[1 - kept] = realise(fact, shape, rng, 0)
                for result in results(spec, ctx, tuple(inputs), {}):
                    assert result.tobytes() == kept_value.tobytes(), (
                        name, (num_tasks, window), kept, fact)


@pytest.mark.parametrize("name", ["s_add", "v_add", "m_add"])
def test_plus_zero_is_not_an_additive_identity(name):
    """``-0 + (+0) = +0``: only ``x + (-0)`` passes ``x`` through."""
    spec = OP_REGISTRY[name]
    shape = shape_of(spec.input_types[0], 3, 2)
    result = spec(context(3, 2), (np.full(shape, -0.0), np.zeros(shape)), {})
    assert not np.signbit(result).any()


def test_min_max_are_not_bitwise_commutative():
    """``min``/``max`` return their second input when the two are equal, so
    mirrored operands can flip a zero's sign: the key must not sort them."""
    plus, minus = np.zeros(4), np.full(4, -0.0)
    for name in ("s_min", "s_max"):
        spec = OP_REGISTRY[name]
        assert not spec.commutative
        ctx = context(4, 1)
        assert spec(ctx, (plus, minus), {}).tobytes() != spec(
            ctx, (minus, plus), {}).tobytes()
    assert not any(OP_REGISTRY[name].commutative
                   for name in ("v_min", "v_max", "m_min", "m_max"))
