"""The fingerprint's zero-constancy pass: what it merges, what it must not.

The fingerprint is the pruned program's tape key, and a proof: the
fingerprint cache reuses a key's fitness and the serving fleet runs one
backend per key, so two programs with equal keys must predict bit for bit
alike on every path.  These tests pin

* the memory facts the pass assumes: every operand, ``m0`` and ``s0``
  included, is +0.0 when ``Setup()`` runs, on the interpreter, on the tape
  and in a serving executor's warm start;
* the duplicates it merges (zero-vector arithmetic in ``Setup()``, a read of
  a never-written scalar, an ``Update()`` write of +0 into an operand that
  already holds +0, a ``Setup()`` write of +0, ``tan`` of a zero, a signed
  zero absorbed by ``v_outer``)
  and the near-duplicates it must keep apart (a zero written into an operand
  that is not always zero, a zero of unknown sign, ``x + (+0)``);
* the equal-key property over mutation chains: equal keys predict bitwise
  equal on the interpreter oracle, on clean and on hostile panels.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compile import (
    analyze_zeros,
    lower_program,
    propagate_zeros,
)
from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    prune_program,
)
from repro.core.cache import fingerprint
from repro.core.ops import MINUS_ZERO, PLUS_ZERO, SIGNED_ZERO
from repro.engine import IncrementalExecutor

from strategies import mutation_chains

SPLITS = ("train", "valid", "test")
S2, S3, S4, S5, S6, S7, S9 = (Operand.scalar(i) for i in (2, 3, 4, 5, 6, 7, 9))
V0, V2, V4, V5, V6, V7, V8, V11, V15 = (
    Operand.vector(i) for i in (0, 2, 4, 5, 6, 7, 8, 11, 15))
M1, M2 = Operand.matrix(1), Operand.matrix(2)


def op(name, inputs, output, **params):
    return Operation.make(name, tuple(inputs), output, params)


def program(setup=(), predict=(), update=()):
    return AlphaProgram(setup=list(setup), predict=list(predict),
                        update=list(update))


def predictions(evaluator, alpha) -> bytes:
    out = evaluator.run(alpha, splits=SPLITS)
    return b"".join(out[split].tobytes() for split in SPLITS)


@pytest.fixture(scope="module")
def oracles(small_taskset, hostile_taskset):
    """The interpreter on a clean and on a hostile panel."""
    return [AlphaEvaluator(taskset, seed=0, max_train_steps=20,
                           engine="interpreter")
            for taskset in (small_taskset, hostile_taskset)]


def assert_same_key_and_bits(oracles, first, second):
    assert fingerprint(first) == fingerprint(second)
    for oracle in oracles:
        assert predictions(oracle, first) == predictions(oracle, second)


def assert_keys_differ(oracles, first, second):
    assert fingerprint(first) != fingerprint(second)
    assert any(predictions(oracle, first) != predictions(oracle, second)
               for oracle in oracles)


# ---------------------------------------------------------------------------
# The memory facts
# ---------------------------------------------------------------------------

#: Predicts ``s0 - (+0)`` plus ``m0[0, 0] - (+0)`` as ``Setup()`` saw them.
SETUP_READS_INPUTS = program(
    setup=[op("s_sub", (LABEL, S9), S2),
           op("get_scalar", (INPUT_MATRIX,), S3, row=0, col=0),
           op("s_sub", (S3, S9), S3)],
    predict=[op("s_add", (S2, S3), PREDICTION)],
    update=[op("s_abs", (S4,), S5)],
)


def is_plus_zero(array) -> bool:
    return bool(np.all(array == 0.0)) and not np.signbit(array).any()


@pytest.mark.parametrize("engine", ["interpreter", "compiled"])
def test_memory_is_plus_zero_when_setup_runs(small_taskset, engine):
    """``run_protocol`` runs ``Setup()`` on a fresh binding before the first
    ``set_input`` / ``set_label``: ``s0`` and ``m0`` read +0.0 there."""
    evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20,
                               engine=engine)
    out = evaluator.run(SETUP_READS_INPUTS, splits=SPLITS)
    assert all(is_plus_zero(out[split]) for split in SPLITS)


def test_warm_start_runs_setup_on_fresh_memory(small_taskset):
    evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=20)
    executor = IncrementalExecutor(evaluator.make_backend(SETUP_READS_INPUTS))
    features, labels = small_taskset.gather("train",
                                            evaluator.train_day_indices())
    executor.warm_start(features, labels)
    bar, _ = small_taskset.gather("valid")
    assert is_plus_zero(executor.step(bar[0]))


def test_setup_reads_are_proven_plus_zero():
    facts = analyze_zeros(lower_program(SETUP_READS_INPUTS))
    assert facts.operands[S2] == PLUS_ZERO and facts.operands[S3] == PLUS_ZERO
    assert fingerprint(SETUP_READS_INPUTS) == fingerprint(program(
        predict=[op("s_const", (), PREDICTION, constant=0.0)],
        update=[op("s_abs", (S4,), S5)],
    ))


def test_day_loop_inputs_are_raw_outside_setup():
    alpha = program(predict=[op("s_sub", (LABEL, S9), PREDICTION)],
                    update=[op("get_scalar", (INPUT_MATRIX,), S4, row=0, col=0)])
    ir = lower_program(alpha)
    facts = analyze_zeros(ir)
    for name in ("predict", "update"):
        component = ir.components[name]
        for operand in (LABEL, INPUT_MATRIX):
            if operand in component.inputs:
                assert facts.values[component.inputs[operand]] is None
    rewritten, _ = propagate_zeros(ir)
    predict = rewritten.components["predict"]
    assert predict.exports[PREDICTION] == predict.instructions[-1].result


def test_raw_input_never_passes_through(oracles):
    """``s0 - (+0)`` is ``sanitize(s0)``, not ``s0``: halving it gives 5e5
    for an infinite label where halving the raw label clips to 1e6."""
    def halves(*first, label=LABEL):
        return program(
            predict=[op("s_const", (), S4, constant=0.5), *first,
                     op("s_mul", (label, S4), PREDICTION)],
            update=[op("s_abs", (S4,), S5)],
        )

    assert_keys_differ(oracles, halves(op("s_sub", (LABEL, S9), S3), label=S3),
                       halves())


# ---------------------------------------------------------------------------
# Duplicates the key now merges
# ---------------------------------------------------------------------------

def _reads_v4(setup):
    return program(
        setup=setup,
        predict=[op("get_row", (INPUT_MATRIX,), V5, row=1),
                 op("v_add", (V5, V4), V6),
                 op("v_mean", (V6,), PREDICTION)],
        update=[op("s_abs", (S4,), S5)],
    )


def test_zero_vector_arithmetic_in_setup(oracles):
    added = _reads_v4([op("v_add", (V11, V8), V4)])
    subtracted = _reads_v4([op("v_sub", (V7, V2), V4)])
    unwritten = _reads_v4([op("s_abs", (S4,), S5)])
    assert_same_key_and_bits(oracles, added, subtracted)
    assert_same_key_and_bits(oracles, added, unwritten)


def _reads_difference(second):
    return program(
        setup=[op("s_abs", (S4,), S5)],
        predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=2, col=12),
                 op("s_sub", (S2, second), S4),
                 op("s_abs", (S4,), PREDICTION)],
        update=[op("s_abs", (S4,), S5)],
    )


def test_difference_with_a_never_written_scalar(oracles):
    assert_same_key_and_bits(oracles, _reads_difference(S7),
                             _reads_difference(S9))
    direct = program(
        setup=[op("s_abs", (S4,), S5)],
        predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=2, col=12),
                 op("s_abs", (S2,), PREDICTION)],
        update=[op("s_abs", (S4,), S5)],
    )
    # x - (+0) = x for a sanitized x: the subtraction passes s2 through.
    assert_same_key_and_bits(oracles, _reads_difference(S7), direct)


def _carries_s7(update):
    return program(
        setup=[op("s_abs", (S4,), S5)],
        predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=2, col=12),
                 op("s_add", (S2, S7), S3),
                 op("s_abs", (S3,), PREDICTION)],
        update=update,
    )


def test_update_writes_plus_zero_into_a_plus_zero_operand(oracles):
    rewrites = _carries_s7([op("s_const", (), S7, constant=0.0)])
    untouched = _carries_s7([op("s_abs", (S4,), S5)])
    assert_same_key_and_bits(oracles, rewrites, untouched)
    assert S7 in analyze_zeros(lower_program(rewrites)).always_plus_zero


def test_setup_write_of_plus_zero_is_a_no_op(oracles):
    """``Setup()`` runs on all-+0 memory, so writing +0 there changes
    nothing, even into an operand ``Update()`` later learns."""
    def learns_v4(*setup):
        return program(
            setup=[op("s_const", (), S4, constant=0.01), *setup],
            predict=[op("get_column", (INPUT_MATRIX,), V0, col=12),
                     op("v_dot", (V0, V4), PREDICTION)],
            update=[op("s_sub", (LABEL, PREDICTION), S2),
                    op("s_mul", (S2, S4), S3),
                    op("v_scale", (S3, V0), V5),
                    op("v_add", (V4, V5), V4)],
        )

    assert analyze_zeros(lower_program(learns_v4())).operands[V4] is None
    assert_same_key_and_bits(oracles, learns_v4(op("v_max", (V4, V15), V4)),
                             learns_v4())


def test_tan_of_a_zero(oracles):
    def reads_s3(setup):
        return program(
            setup=setup,
            predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=0, col=12),
                     op("s_add", (S2, S3), PREDICTION)],
            update=[op("s_abs", (S4,), S5)],
        )

    assert_same_key_and_bits(oracles, reads_s3([op("s_tan", (S3,), S3)]),
                             reads_s3([op("s_abs", (S4,), S5)]))


def test_signed_zero_absorbed_by_the_outer_product(oracles):
    """``v_mul(+0, x)`` is a zero of unknown sign; ``v_outer`` accumulates it
    onto +0.0, so ``m_add`` then reads the same +0 matrix as a program whose
    outer product reads a never-written ``v15``."""
    def predicts(setup):
        return program(
            setup=setup,
            predict=[op("get_column", (INPUT_MATRIX,), V0, col=12),
                     op("m_add", (M2, M1), M1),
                     op("matvec", (M1, V0), V2),
                     op("v_sum", (V2,), PREDICTION)],
            update=[op("s_abs", (S4,), S5)],
        )

    via_mul = predicts([op("get_column", (INPUT_MATRIX,), V0, col=3),
                        op("vector_uniform", (), V4, low=-0.5, high=0.5),
                        op("v_mul", (V7, V4), V5),
                        op("v_outer", (V5, V4), M2)])
    via_unwritten = predicts([op("vector_uniform", (), V4, low=-0.5, high=0.5),
                              op("v_outer", (V15, V4), M2)])
    facts = analyze_zeros(lower_program(via_mul))
    setup = lower_program(via_mul).components["setup"]
    assert facts.values[setup.instructions[2].result] == SIGNED_ZERO
    assert_same_key_and_bits(oracles, via_mul, via_unwritten)


# ---------------------------------------------------------------------------
# Near-duplicates the key must keep apart
# ---------------------------------------------------------------------------

def _carries_s6(setup, update):
    return program(
        setup=setup,
        predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=1, col=12),
                 op("s_add", (S2, S6), PREDICTION)],
        update=update,
    )


def test_zero_written_into_a_not_always_zero_operand_stays(oracles):
    """``s6`` holds -0.48 on day 0 and 0 after: the ``Update()`` write of
    zero is a real instruction, not a pass-through export."""
    resets = _carries_s6([op("s_const", (), S6, constant=-0.48)],
                         [op("s_const", (), S6, constant=0.0)])
    keeps = _carries_s6([op("s_const", (), S6, constant=-0.48)],
                        [op("s_abs", (S4,), S5)])
    never = _carries_s6([op("s_abs", (S4,), S5)],
                        [op("s_const", (), S6, constant=0.0)])
    assert analyze_zeros(lower_program(resets)).operands[S6] is None
    assert_keys_differ(oracles, resets, keeps)
    assert_keys_differ(oracles, resets, never)


def test_zero_of_unknown_sign_never_merges_with_plus_zero(oracles):
    """``tan(s2 * (+0))`` is -0 wherever ``s2`` is negative: a zero of
    unknown sign keeps its instructions, so it never shares a key with a
    +0 written into the same (not always zero) operand."""
    def predicts(*operations):
        return program(setup=[op("s_const", (), PREDICTION, constant=1.0)],
                       predict=list(operations),
                       update=[op("s_abs", (S4,), S5)])

    signed = predicts(op("get_scalar", (INPUT_MATRIX,), S2, row=1, col=12),
                      op("s_mul", (S2, S7), S3),
                      op("s_tan", (S3,), PREDICTION))
    plus = predicts(op("s_tan", (S7,), PREDICTION))
    minus = predicts(op("s_const", (), PREDICTION, constant=-0.0))
    ir = lower_program(signed)
    tangent = ir.components["predict"].instructions[2].result
    assert analyze_zeros(ir).values[tangent] == SIGNED_ZERO
    ir = lower_program(minus)
    constant = ir.components["predict"].instructions[0].result
    assert analyze_zeros(ir).values[constant] == MINUS_ZERO
    assert_keys_differ(oracles, signed, plus)
    assert_keys_differ(oracles, minus, plus)


def test_plus_zero_is_not_an_additive_identity():
    """``x + (+0)`` turns a -0 into +0, so it keeps its instruction (and
    merges only with another ``x + (+0)``), while ``x - (+0)`` is ``x``."""
    plus = _carries_s7([op("s_abs", (S4,), S5)])
    direct = program(
        setup=[op("s_abs", (S4,), S5)],
        predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=2, col=12),
                 op("s_abs", (S2,), PREDICTION)],
        update=[op("s_abs", (S4,), S5)],
    )
    assert fingerprint(plus) != fingerprint(direct)


def test_min_max_operand_order_is_kept():
    def mins(first, second):
        return program(
            setup=[op("s_abs", (S4,), S5)],
            predict=[op("get_scalar", (INPUT_MATRIX,), S2, row=2, col=12),
                     op("get_scalar", (INPUT_MATRIX,), S3, row=3, col=12),
                     op("s_min", (first, second), PREDICTION)],
            update=[op("s_abs", (S4,), S5)],
        )

    assert fingerprint(mins(S2, S3)) != fingerprint(mins(S3, S2))


# ---------------------------------------------------------------------------
# The equal-key property
# ---------------------------------------------------------------------------

@settings(max_examples=100)
@given(chain=mutation_chains(max_length=40))
def test_equal_keys_predict_bitwise_equal(oracles, chain):
    """Programs of one mutation chain whose fingerprints agree predict the
    same bits on the interpreter oracle, on a clean and a hostile panel."""
    by_key: dict[str, dict[str, AlphaProgram]] = {}
    for alpha in chain:
        pruned = prune_program(alpha)
        if pruned.is_redundant:
            continue
        members = by_key.setdefault(fingerprint(pruned.program), {})
        members.setdefault(pruned.program.render(), alpha)
    for members in by_key.values():
        if len(members) < 2:
            continue
        first, *rest = members.values()
        for oracle in oracles:
            expected = predictions(oracle, first)
            for other in rest:
                assert predictions(oracle, other) == expected, (
                    first.render(), other.render())
