"""Tests for the IR optimiser passes and the canonical fingerprint key."""

import numpy as np
from hypothesis import given, settings

from repro.compile import (
    analyze_dataflow,
    canonical_key,
    canonicalize_commutative,
    compile_program,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    lower_program,
)
from repro.core import (
    AlphaProgram,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    neural_network_alpha,
    prune_program,
)
from repro.core.ops import CLIP_VALUE

from strategies import programs

S2, S3, S4, S5 = (Operand.scalar(i) for i in (2, 3, 4, 5))


def predict_only(*operations):
    return AlphaProgram(setup=[], predict=list(operations), update=[])


class TestConstantFolding:
    def test_folds_scalar_chain(self):
        program = predict_only(
            Operation.make("s_const", (), S2, {"constant": 2.0}),
            Operation.make("s_const", (), S3, {"constant": 3.0}),
            Operation.make("s_add", (S2, S3), S4),
            Operation.make("get_scalar", (INPUT_MATRIX,), S5, {"row": 0, "col": 0}),
            Operation.make("s_mul", (S4, S5), PREDICTION),
        )
        ir, stats = fold_constants(lower_program(program))
        assert stats.rewritten == 1
        folded = ir.component("predict").instructions[2]
        assert folded.op == "s_const"
        assert folded.param_dict["constant"] == 5.0

    def test_folded_value_is_sanitized(self):
        program = predict_only(
            Operation.make("s_const", (), S2, {"constant": CLIP_VALUE}),
            Operation.make("s_const", (), S3, {"constant": CLIP_VALUE}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        )
        ir, _ = fold_constants(lower_program(program))
        folded = ir.component("predict").instructions[2]
        assert folded.param_dict["constant"] == CLIP_VALUE

    def test_protected_divide_semantics(self):
        program = predict_only(
            Operation.make("s_const", (), S2, {"constant": 4.0}),
            Operation.make("s_const", (), S3, {"constant": 0.0}),
            Operation.make("s_div", (S2, S3), PREDICTION),
        )
        ir, _ = fold_constants(lower_program(program))
        folded = ir.component("predict").instructions[2]
        # divide-by-(almost-)zero is protected: denominator becomes 1.0
        assert folded.param_dict["constant"] == 4.0

    def test_transcendentals_not_folded(self):
        program = predict_only(
            Operation.make("s_const", (), S2, {"constant": 0.5}),
            Operation.make("s_sin", (S2,), PREDICTION),
        )
        ir, stats = fold_constants(lower_program(program))
        assert stats.rewritten == 0
        assert ir.component("predict").instructions[1].op == "s_sin"

    def test_non_constant_inputs_not_folded(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("s_const", (), S3, {"constant": 1.0}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        )
        _, stats = fold_constants(lower_program(program))
        assert stats.rewritten == 0


class TestCanonicalization:
    def mirror(self, swapped):
        first, second = (S3, S2) if swapped else (S2, S3)
        return predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 1, "col": 1}),
            Operation.make("s_add", (first, second), PREDICTION),
        )

    def test_mirrored_commutative_operands_share_key(self):
        assert canonical_key(self.mirror(False)) == canonical_key(self.mirror(True))

    def test_non_commutative_operands_keep_order(self):
        def sub(swapped):
            first, second = (S3, S2) if swapped else (S2, S3)
            return predict_only(
                Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
                Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 1, "col": 1}),
                Operation.make("s_sub", (first, second), PREDICTION),
            )

        assert canonical_key(sub(False)) != canonical_key(sub(True))

    def test_reorder_counted(self):
        ir, stats = canonicalize_commutative(lower_program(self.mirror(True)))
        ir2, stats2 = canonicalize_commutative(lower_program(self.mirror(False)))
        # exactly one of the two written orders is already canonical
        assert sorted([stats.rewritten, stats2.rewritten]) == [0, 1]
        assert ir.render() == ir2.render()


class TestCSE:
    def test_duplicate_subexpression_merged(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 0, "col": 0}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        )
        ir, stats = eliminate_common_subexpressions(lower_program(program))
        assert stats.removed == 1
        instructions = ir.component("predict").instructions
        assert len(instructions) == 2
        # both inputs of the add now reference the surviving extraction
        add = instructions[1]
        assert add.inputs == (instructions[0].result, instructions[0].result)

    def test_different_params_not_merged(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("get_scalar", (INPUT_MATRIX,), S3, {"row": 1, "col": 0}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        )
        _, stats = eliminate_common_subexpressions(lower_program(program))
        assert stats.removed == 0

    def test_overwritten_register_not_falsely_merged(self):
        """A duplicate whose original was overwritten must still be available.

        In SSA the value survives register reuse, which is exactly why CSE
        runs on the IR and not on operand-addressed operations.
        """
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S4, {"row": 0, "col": 0}),
            Operation.make("s_abs", (S4,), S4),                     # overwrites s4
            Operation.make("get_scalar", (INPUT_MATRIX,), S5, {"row": 0, "col": 0}),
            Operation.make("s_sub", (S5, S4), PREDICTION),
        )
        ir, stats = eliminate_common_subexpressions(lower_program(program))
        assert stats.removed == 1
        instructions = ir.component("predict").instructions
        extract, absolute, sub = instructions
        # s5's extraction dedups onto the s4 extraction's *value*, while the
        # abs result stays distinct
        assert sub.inputs == (extract.result, absolute.result)

    def test_exports_follow_merged_values(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("get_scalar", (INPUT_MATRIX,), PREDICTION,
                           {"row": 0, "col": 0}),
        )
        ir, _ = eliminate_common_subexpressions(lower_program(program))
        predict = ir.component("predict")
        assert predict.exports[PREDICTION] == predict.instructions[0].result


class TestDeadCodeElimination:
    @settings(max_examples=40)
    @given(program=programs())
    def test_matches_program_pruning(self, program):
        """DSE keeps exactly the operations backward-liveness pruning keeps."""
        ir, stats, info = eliminate_dead_code(lower_program(program))
        pruned = prune_program(program)
        assert ir.num_instructions == pruned.kept_operations or pruned.is_redundant
        if not pruned.is_redundant:
            assert stats.removed == pruned.removed_operations
        assert info.is_redundant == pruned.is_redundant

    def test_redundant_program_flagged(self):
        program = predict_only(
            Operation.make("s_const", (), S2, {"constant": 1.0}),
            Operation.make("s_abs", (S2,), PREDICTION),
        )
        _, _, info = eliminate_dead_code(lower_program(program))
        assert info.is_redundant

    def test_carried_state_detected(self, dims):
        info = analyze_dataflow(lower_program(neural_network_alpha(dims)))
        # the NN's weights are carried parameters
        assert Operand.matrix(1) in info.carried
        assert Operand.vector(4) in info.carried
        assert LABEL not in info.carried

    def test_idempotent(self, dims):
        program = neural_network_alpha(dims)
        ir1, _, _ = eliminate_dead_code(lower_program(program))
        ir2, stats2, _ = eliminate_dead_code(ir1)
        assert stats2.removed == 0
        assert ir1.render() == ir2.render()


class TestCanonicalKey:
    def test_register_renaming_collides(self):
        def variant(temp):
            return predict_only(
                Operation.make("get_scalar", (INPUT_MATRIX,), temp,
                               {"row": 2, "col": 3}),
                Operation.make("s_abs", (temp,), PREDICTION),
            )

        assert canonical_key(variant(S2)) == canonical_key(variant(S5))

    def test_redundant_ops_do_not_change_key(self, dims):
        program = domain_expert_alpha(dims)
        noisy = program.copy()
        noisy.predict.insert(
            0, Operation.make("s_abs", (Operand.scalar(7),), Operand.scalar(8))
        )
        assert canonical_key(program) == canonical_key(noisy)

    def test_carried_register_renaming_is_conservative(self):
        """Cross-component register renaming is *not* canonicalised.

        Carried state is addressed by operand name across components, so the
        key keeps those names: the canonicalisation never merges programs
        whose cross-component bindings differ (conservative by design —
        false fingerprint collisions would corrupt cached fitness).
        """
        def carried(operand):
            return AlphaProgram(
                setup=[Operation.make("s_const", (), operand, {"constant": 2.0})],
                predict=[
                    Operation.make("get_scalar", (INPUT_MATRIX,), S5,
                                   {"row": 0, "col": 0}),
                    Operation.make("s_mul", (S5, operand), PREDICTION),
                ],
                update=[],
            )

        assert canonical_key(carried(S2)) != canonical_key(carried(S3))

    @settings(max_examples=40)
    @given(program=programs())
    def test_canonical_pipeline_idempotent_on_key(self, program):
        assert canonical_key(program) == canonical_key(program)


class TestCompiledProgram:
    def test_fused_eligibility_expert(self, dims):
        assert compile_program(domain_expert_alpha(dims)).fused_inference

    def test_fused_eligibility_nn(self, dims):
        # the NN predicts from static weights during inference (Update does
        # the writes, and Update does not run at inference time)
        assert compile_program(neural_network_alpha(dims)).fused_inference

    def test_label_reader_not_fused(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
            Operation.make("s_add", (S2, LABEL), PREDICTION),
        )
        assert not compile_program(program).fused_inference

    def test_self_feeding_predict_not_fused(self):
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S2, {"row": 0, "col": 0}),
                Operation.make("s_add", (S3, S2), S3),      # reads its own write
                Operation.make("s_abs", (S3,), PREDICTION),
            ],
            update=[],
        )
        assert not compile_program(program).fused_inference

    def test_pass_stats_recorded(self, dims):
        compiled = compile_program(domain_expert_alpha(dims))
        assert [stats.name for stats in compiled.pass_stats] == ["cse", "dse"]
        assert compiled.pass_stats[1].removed == 2  # the two placeholder consts


def test_numpy_commutativity_of_sorted_operands():
    """Sanity: reordering add/mul operands is bitwise safe (IEEE)."""
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=100), rng.normal(size=100)
    assert np.array_equal(a + b, b + a)
    assert np.array_equal(a * b, b * a)
