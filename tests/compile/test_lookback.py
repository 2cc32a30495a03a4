"""Tests for the static lookback analysis behind bounded delta-replay."""

from repro.compile import (
    analyze_dataflow,
    analyze_lookback,
    compile_program,
    describe_compilation,
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
    noop_alpha,
)

S2, S3, S4, S5 = (Operand.scalar(i) for i in (2, 3, 4, 5))


def lookback_of(program):
    ir = lower_program(program)
    return analyze_lookback(ir, analyze_dataflow(ir))


def predict_only(*operations):
    return AlphaProgram(setup=[], predict=list(operations), update=[])


class TestSeedAlphas:
    def test_noop_alpha_is_static(self, dims):
        info = lookback_of(noop_alpha(dims))
        assert info.max_lookback == 0
        assert info.bounded

    def test_domain_expert_alpha_is_static(self, dims):
        # D's Predict() exports nothing loop-carried: every day's prediction
        # is a pure function of that day's m0, so no spin-up is needed.
        info = lookback_of(domain_expert_alpha(dims))
        assert info.max_lookback == 0

    def test_neural_network_alpha_has_horizon_one(self, dims):
        # NN's Predict() rewrites its activations each day from frozen
        # weights and the fresh m0 — one clean day makes them exact.
        info = lookback_of(neural_network_alpha(dims))
        assert info.max_lookback == 1
        assert all(depth in (0, 1) for depth in info.horizons.values())
        assert any(depth == 1 for depth in info.horizons.values())


class TestHandBuiltHorizons:
    def test_carried_from_input_only_has_horizon_one(self):
        # s3 is read before Predict() overwrites it from m0 alone: carried
        # and mutable, but exact after a single clean replay day.
        program = predict_only(
            Operation.make("s_add", (S3, S3), S4),
            Operation.make("get_scalar", (INPUT_MATRIX,), S3,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S4, S3), PREDICTION),
        )
        info = lookback_of(program)
        assert info.horizons[S3] == 1
        assert info.max_lookback == 1

    def test_self_recurrence_is_unbounded(self):
        # s3 += f(m0): an EMA-style accumulator never forgets its seed.
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("s_add", (S3, S4), PREDICTION),
        )
        info = lookback_of(program)
        assert info.horizons[S3] is None
        assert info.max_lookback is None
        assert not info.bounded

    def test_update_only_state_is_frozen(self):
        # s3 is written only by Update(), which never runs during inference:
        # the carried value is frozen memory with horizon 0.
        label = Operand.scalar(0)
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                               {"row": 0, "col": 0}),
                Operation.make("s_add", (S4, S3), PREDICTION),
            ],
            update=[Operation.make("s_add", (label, label), S3)],
        )
        info = lookback_of(program)
        assert info.horizons[S3] == 0
        assert info.max_lookback == 0

    def test_horizons_exclude_inputs_and_labels(self, dims):
        info = lookback_of(neural_network_alpha(dims))
        assert INPUT_MATRIX not in info.horizons
        assert LABEL not in info.horizons
        assert Operand.scalar(0) not in info.horizons


class TestDescribe:
    def test_static_description(self, dims):
        info = lookback_of(domain_expert_alpha(dims))
        assert info.describe() == "0 days (inference state is static)"

    def test_bounded_description(self, dims):
        assert lookback_of(neural_network_alpha(dims)).describe() == "1 days"

    def test_unbounded_description_names_operands(self):
        program = predict_only(
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("s_add", (S3, S4), PREDICTION),
        )
        text = lookback_of(program).describe()
        assert "unbounded" in text
        assert S3.name in text


class TestCompilerIntegration:
    def test_compiled_program_carries_lookback(self, dims):
        compiled = compile_program(neural_network_alpha(dims))
        assert compiled.lookback is not None
        assert compiled.lookback.max_lookback == 1

    def test_tape_analyses_read_the_zero_propagated_ir(self):
        # s4 is never written, so s3 = s3 + s4 keeps s3 at +0 on every day:
        # the written program looks self-recurrent, but the tape drops the
        # write, and Predict() reads nothing it writes back.
        program = predict_only(
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        )
        assert lookback_of(program).max_lookback is None
        compiled = compile_program(program)
        assert compiled.lookback.max_lookback == 0
        assert compiled.fused_inference
        assert compiled.static_predict

    def test_describe_compilation_reports_lookback(self, dims):
        report = describe_compilation(domain_expert_alpha(dims))
        assert "delta-replay lookback:" in report
        assert "0 days (inference state is static)" in report
