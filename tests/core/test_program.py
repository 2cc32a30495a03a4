"""Tests for alpha-program representation, validation and serialisation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import AddressSpace
from repro.core import (
    OP_REGISTRY,
    AlphaProgram,
    ComponentLimits,
    Dimensions,
    INPUT_MATRIX,
    Mutator,
    Operand,
    Operation,
    PREDICTION,
    domain_expert_alpha,
    get_initialization,
    neural_network_alpha,
    sample_params,
)
from repro.errors import ProgramError

GOLDEN_PROGRAMS = (Path(__file__).resolve().parent.parent / "stream" / "golden"
                   / "tape_state_programs.json")


def simple_program():
    return AlphaProgram(
        setup=[Operation.make("s_const", (), Operand.scalar(2), {"constant": 1.0})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(3),
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (Operand.scalar(3), Operand.scalar(2)), PREDICTION),
        ],
        update=[Operation.make("s_abs", (Operand.scalar(3),), Operand.scalar(4))],
        name="simple",
    )


class TestOperation:
    def test_render_symbol(self):
        operation = Operation.make("s_add", (Operand.scalar(2), Operand.scalar(3)),
                                   Operand.scalar(4))
        assert operation.render() == "s4 = s2 + s3"

    def test_render_function_with_params(self):
        operation = Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2),
                                   {"row": 1, "col": 2})
        assert operation.render() == "s2 = get_scalar(m0, col=2, row=1)"

    def test_wrong_arity_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.scalar(2),), Operand.scalar(3))

    def test_wrong_input_type_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.vector(0), Operand.scalar(1)),
                           Operand.scalar(2))

    def test_wrong_output_type_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("s_add", (Operand.scalar(2), Operand.scalar(3)),
                           Operand.vector(0))

    def test_missing_params_rejected(self):
        with pytest.raises(ProgramError):
            Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2), {"row": 0})

    def test_dict_roundtrip(self):
        operation = Operation.make("get_scalar", (INPUT_MATRIX,), Operand.scalar(2),
                                   {"row": 1, "col": 2})
        assert Operation.from_dict(operation.to_dict()) == operation

    @pytest.mark.parametrize("op, params", [
        ("m_std_axis", {"axis": 3}),
        ("m_mean_axis", {"axis": 2}),
        ("m_norm_axis", {"axis": -1}),
        ("m_broadcast", {"axis": True}),
        ("m_std_axis", {"axis": 0.0}),
        ("relation_rank", {"level": "country"}),
        ("relation_mean", {"level": 1}),
        ("get_row", {"row": 1.5}),
        ("get_column", {"col": "2"}),
        ("get_scalar", {"row": 0, "col": None}),
        ("s_const", {"constant": "1.0"}),
        ("s_const", {"constant": True}),
        ("vector_uniform", {"low": -1.0, "high": [1.0]}),
        ("get_row", {"row": 0, "col": 0}),
        ("s_abs", {"axis": 0}),
    ])
    def test_loading_rejects_parameters_outside_their_domain(self, op, params):
        spec = OP_REGISTRY[op]
        payload = {
            "op": op,
            "inputs": [f"{t.prefix}{index + 1}"
                       for index, t in enumerate(spec.input_types)],
            "output": f"{spec.output_type.prefix}3",
            "params": params,
        }
        with pytest.raises(ProgramError, match=op):
            Operation.from_dict(payload)

    def test_loading_accepts_every_domain_value(self):
        for op, params in [("m_std_axis", {"axis": 0}), ("m_std_axis", {"axis": 1}),
                           ("relation_rank", {"level": "sector"}),
                           ("relation_rank", {"level": "industry"}),
                           ("get_scalar", {"row": -3, "col": 40}),
                           ("s_const", {"constant": 2}),
                           ("vector_uniform", {"low": 1, "high": -0.5})]:
            spec = OP_REGISTRY[op]
            operation = Operation.make(
                op, tuple(Operand(t, 1) for t in spec.input_types),
                Operand(spec.output_type, 3), params,
            )
            assert Operation.from_dict(operation.to_dict()) == operation

    def test_every_sampled_parameter_loads(self):
        rng = np.random.default_rng(7)
        for dims in (Dimensions(13, 13), Dimensions(5, 7), Dimensions(1, 1)):
            for spec in OP_REGISTRY.values():
                for _ in range(20):
                    operation = Operation.make(
                        spec.name, tuple(Operand(t, 1) for t in spec.input_types),
                        Operand(spec.output_type, 3),
                        sample_params(spec, dims, rng),
                    )
                    assert Operation.from_dict(operation.to_dict()) == operation

    def test_operations_hashable(self):
        a = Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(3))
        b = Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(3))
        assert a == b
        assert len({a, b}) == 1


class TestAlphaProgram:
    def test_component_access(self):
        program = simple_program()
        assert program.component("predict") is program.predict
        with pytest.raises(ProgramError):
            program.component("train")

    def test_num_operations(self):
        assert simple_program().num_operations == 4

    def test_copy_is_shallow_lists(self):
        program = simple_program()
        clone = program.copy()
        clone.predict.append(
            Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(5))
        )
        assert program.num_operations == 4
        assert clone.num_operations == 5

    def test_render_contains_components(self):
        text = simple_program().render()
        assert "def Setup():" in text
        assert "def Predict():" in text
        assert "def Update():" in text
        assert "s1 = s3 + s2" in text

    def test_json_roundtrip(self):
        program = simple_program()
        restored = AlphaProgram.from_json(program.to_json())
        assert restored == program
        assert restored.name == "simple"

    def test_equality_and_hash_by_structure(self):
        assert simple_program() == simple_program()
        assert hash(simple_program()) == hash(simple_program())
        other = simple_program()
        other.predict.pop()
        assert other != simple_program()

    def test_validation_passes_for_well_formed(self):
        simple_program().validate()

    def test_validation_rejects_out_of_space_operand(self):
        program = simple_program()
        program.predict.append(
            Operation.make("s_abs", (Operand.scalar(2),), Operand.scalar(9))
        )
        tight = AddressSpace(num_scalars=5, num_vectors=2, num_matrices=1)
        with pytest.raises(ProgramError):
            program.validate(tight)

    def test_validation_rejects_too_many_operations(self):
        program = simple_program()
        limits = ComponentLimits(max_predict_ops=1)
        with pytest.raises(ProgramError):
            program.validate(limits=limits)

    def test_validation_rejects_relation_op_in_setup(self):
        program = simple_program()
        program.setup.append(
            Operation.make("rank", (Operand.scalar(2),), Operand.scalar(3))
        )
        with pytest.raises(ProgramError):
            program.validate()

    @pytest.mark.parametrize("component", ["setup", "predict", "update"])
    @pytest.mark.parametrize("operation", [
        Operation.make("m_scale", (Operand.scalar(2), INPUT_MATRIX),
                       INPUT_MATRIX),
        Operation.make("s_const", (), Operand.scalar(0), {"constant": 7.0}),
    ], ids=["m0", "s0"])
    def test_validation_rejects_writes_to_protocol_inputs(
        self, component, operation
    ):
        program = simple_program()
        program.component(component).insert(0, operation)
        name = operation.output.name
        with pytest.raises(ProgramError, match=rf"{component}\(\) writes {name}"):
            program.validate()

    def test_component_limits_max_for(self):
        limits = ComponentLimits()
        assert limits.max_for("setup") == 21
        assert limits.max_for("update") == 45
        with pytest.raises(ProgramError):
            limits.max_for("other")


class TestBuiltinAlphas:
    def test_domain_expert_alpha_valid(self):
        program = domain_expert_alpha(Dimensions(13, 13))
        program.validate()
        assert any(op.output == PREDICTION for op in program.predict)

    def test_neural_network_alpha_valid(self):
        program = neural_network_alpha(Dimensions(13, 13))
        program.validate()
        assert len(program.update) >= 5

    def test_serialisation_of_builtin_alphas(self):
        for program in (domain_expert_alpha(Dimensions(13, 13)),
                        neural_network_alpha(Dimensions(13, 13))):
            assert AlphaProgram.from_json(program.to_json()) == program

    def test_mutated_programs_and_committed_programs_load(self):
        dims = Dimensions(13, 13)
        mutator = Mutator(dims, seed=3)
        for code in ("D", "NN", "NOOP", "R"):
            program = get_initialization(code, dims, seed=5)
            for _ in range(40):
                program = mutator.mutate(program)
                assert AlphaProgram.from_json(program.to_json()) == program
        for payload in json.loads(GOLDEN_PROGRAMS.read_text()):
            AlphaProgram.from_dict(payload).validate()
