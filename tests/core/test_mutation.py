"""Tests for mutation and random-program generation."""

import pytest

from repro.config import AddressSpace
from repro.core import (
    ComponentLimits,
    INPUT_MATRIX,
    LABEL,
    MutationConfig,
    Mutator,
    OperandType,
    domain_expert_alpha,
)
from repro.core.ops import OpKind, list_ops
from repro.errors import EvolutionError


class TestMutationConfig:
    def test_invalid_probability(self):
        with pytest.raises(EvolutionError):
            MutationConfig(mutation_probability=1.5)

    def test_invalid_weights(self):
        with pytest.raises(EvolutionError):
            MutationConfig(randomize_weight=0, insert_weight=0, remove_weight=0)
        with pytest.raises(EvolutionError):
            MutationConfig(randomize_weight=-1)


class TestRandomGeneration:
    def test_random_operand_types(self, mutator):
        for operand_type in OperandType:
            operand = mutator.random_operand(operand_type)
            assert operand.type is operand_type

    def test_random_output_never_label_or_input_matrix(self, mutator):
        for _ in range(200):
            scalar = mutator.random_operand(OperandType.SCALAR, as_output=True)
            matrix = mutator.random_operand(OperandType.MATRIX, as_output=True)
            assert scalar != LABEL
            assert matrix != INPUT_MATRIX

    def test_random_operation_valid_per_component(self, mutator):
        for component in ("setup", "predict", "update"):
            for _ in range(30):
                operation = mutator.random_operation(component)
                assert component in operation.spec.components

    def test_random_program_respects_limits(self, dims):
        limits = ComponentLimits(max_setup_ops=3, max_predict_ops=4, max_update_ops=5)
        mutator = Mutator(dims, limits=limits, seed=1)
        program = mutator.random_program(num_setup=10, num_predict=10, num_update=10)
        assert len(program.setup) <= 3
        assert len(program.predict) <= 4
        assert len(program.update) <= 5

    def test_random_program_is_valid(self, mutator):
        for _ in range(10):
            mutator.random_program().validate()

    def test_empty_program_writes_prediction(self, mutator):
        program = mutator.empty_program()
        assert any(op.output.name == "s1" for op in program.predict)

    def test_relation_ops_can_be_disabled(self, dims):
        config = MutationConfig(allow_relation_ops=False)
        mutator = Mutator(dims, config=config, seed=3)
        ops = mutator._ops_by_component["predict"]
        assert all(spec.kind is not OpKind.RELATION for spec in ops)

    def test_determinism_given_seed(self, dims):
        a = Mutator(dims, seed=11).random_program()
        b = Mutator(dims, seed=11).random_program()
        assert a == b

    def test_one_matrix_space_draws_and_mutates_valid_programs(self, dims):
        """With ``m0`` the only matrix, no operator may write a matrix: every
        draw and every mutation validates."""
        space = AddressSpace(num_matrices=1)
        mutator = Mutator(dims, address_space=space, seed=3)
        for component in ("setup", "predict", "update"):
            assert all(spec.output_type is not OperandType.MATRIX
                       for spec in mutator._ops_by_component[component])
        for _ in range(200):
            program = mutator.random_program()
            program.validate(space)
            mutator.mutate(program).validate(space)

    def test_default_space_keeps_every_operator(self, dims):
        """The filter drops nothing from the default address space, so its
        draws (and every mined digest) stay as they were."""
        mutator = Mutator(dims, seed=3)
        for component in ("setup", "predict", "update"):
            assert mutator._ops_by_component[component] == \
                list_ops(component=component)


class TestMutate:
    def test_parent_never_modified(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        rendering = parent.render()
        for _ in range(50):
            mutator.mutate(parent)
        assert parent.render() == rendering

    def test_zero_probability_returns_copy(self, dims):
        mutator = Mutator(dims, config=MutationConfig(mutation_probability=0.0), seed=0)
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent)
        assert child == parent
        assert child is not parent

    def test_children_eventually_differ(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        assert any(mutator.mutate(parent) != parent for _ in range(20))

    def test_children_are_always_valid(self, mutator, dims):
        program = domain_expert_alpha(dims)
        for _ in range(200):
            program = mutator.mutate(program)
            program.validate(mutator.address_space, mutator.limits)

    def test_component_sizes_stay_within_limits(self, dims):
        limits = ComponentLimits(max_setup_ops=4, max_predict_ops=6, max_update_ops=6)
        mutator = Mutator(dims, limits=limits, seed=5)
        program = domain_expert_alpha(dims)
        for _ in range(300):
            program = mutator.mutate(program)
        assert len(program.setup) <= 4
        assert len(program.predict) <= 6
        assert len(program.update) <= 6
        for component in ("setup", "predict", "update"):
            assert len(program.component(component)) >= limits.min_ops

    def test_insert_and_remove_change_length(self, dims):
        mutator = Mutator(
            dims,
            config=MutationConfig(randomize_weight=0.0, insert_weight=1.0,
                                  remove_weight=0.0),
            seed=2,
        )
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent)
        assert child.num_operations == parent.num_operations + 1

        remover = Mutator(
            dims,
            config=MutationConfig(randomize_weight=0.0, insert_weight=0.0,
                                  remove_weight=1.0),
            seed=2,
        )
        shrunk = remover.mutate(parent)
        assert shrunk.num_operations == parent.num_operations - 1

    def test_mutate_keeps_name_or_renames(self, mutator, dims):
        parent = domain_expert_alpha(dims)
        child = mutator.mutate(parent, name="alpha_child")
        assert child.name == "alpha_child"
        child_default = mutator.mutate(parent)
        assert child_default.name == parent.name
