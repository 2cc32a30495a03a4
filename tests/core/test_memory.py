"""Tests for operand addressing and the vectorised memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AddressSpace
from repro.core import INPUT_MATRIX, LABEL, Memory, Operand, OperandType, PREDICTION
from repro.errors import OperandError


class TestOperand:
    def test_names(self):
        assert Operand.scalar(3).name == "s3"
        assert Operand.vector(7).name == "v7"
        assert Operand.matrix(0).name == "m0"

    def test_parse_roundtrip(self):
        for name in ("s0", "s9", "v15", "m3"):
            assert Operand.parse(name).name == name

    def test_parse_case_insensitive(self):
        assert Operand.parse("S2") == Operand.scalar(2)

    def test_parse_invalid(self):
        for bad in ("x3", "s", "3s", "", "sx"):
            with pytest.raises(OperandError):
                Operand.parse(bad)

    def test_negative_index_rejected(self):
        with pytest.raises(OperandError):
            Operand.scalar(-1)

    def test_reserved_operands(self):
        assert LABEL == Operand.scalar(0)
        assert PREDICTION == Operand.scalar(1)
        assert INPUT_MATRIX == Operand.matrix(0)

    def test_ordering_and_hash(self):
        assert Operand.scalar(1) < Operand.scalar(2)
        assert len({Operand.scalar(1), Operand.scalar(1)}) == 1

    def test_hash_is_unsalted_and_distinct(self):
        """Every operand of a 3 x 40 address space hashes to its own
        small int, the same in every process (no ``PYTHONHASHSEED``)."""
        operands = [Operand(kind, index) for kind in OperandType
                    for index in range(40)]
        assert sorted(hash(operand) for operand in operands) == list(range(120))
        assert hash(Operand.vector(7)) == hash(Operand.parse("v7"))

    def test_pickles_hold_only_type_and_index(self, monkeypatch):
        """Pickles keep the fields-only layout of a plain frozen
        dataclass, so states written before the hash was cached load, and
        a loaded or copied operand hashes alike."""
        import copy
        import pickle

        operand = Operand.matrix(3)
        written = pickle.dumps(operand)
        with monkeypatch.context() as patch:
            # The layout before: the default pickling of the fields' dict.
            patch.delattr(Operand, "__getstate__")
            patch.delattr(Operand, "__setstate__")
            before = object.__new__(Operand)
            vars(before).update(type=OperandType.MATRIX, index=3)
            written_before = pickle.dumps(before)
        assert written == written_before
        for twin in (pickle.loads(written_before), copy.deepcopy(operand)):
            assert twin == operand
            assert hash(twin) == hash(operand)
            assert twin in {operand}

    @given(st.sampled_from(list(OperandType)), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_parse_name_roundtrip_property(self, operand_type, index):
        operand = Operand(operand_type, index)
        assert Operand.parse(operand.name) == operand


class TestMemory:
    def make(self, num_tasks=5, num_features=4, window=4):
        return Memory(num_tasks, num_features, window)

    def test_shapes(self):
        memory = self.make()
        assert memory.read(Operand.scalar(0)).shape == (5,)
        assert memory.read(Operand.vector(0)).shape == (5, 4)
        assert memory.read(Operand.matrix(0)).shape == (5, 4, 4)

    def test_write_and_read(self):
        memory = self.make()
        memory.write(Operand.scalar(2), np.arange(5))
        np.testing.assert_allclose(memory.read(Operand.scalar(2)), np.arange(5))

    def test_write_broadcast_scalar(self):
        memory = self.make()
        memory.write(Operand.vector(1), 3.0)
        np.testing.assert_allclose(memory.read(Operand.vector(1)), 3.0)

    def test_write_wrong_shape_rejected(self):
        memory = self.make()
        with pytest.raises(OperandError):
            memory.write(Operand.vector(0), np.zeros((5, 9)))

    def test_out_of_range_operand_rejected(self):
        memory = self.make()
        with pytest.raises(OperandError):
            memory.read(Operand.scalar(99))
        with pytest.raises(OperandError):
            memory.write(Operand.matrix(50), 0.0)

    def test_reset(self):
        memory = self.make()
        memory.write(Operand.scalar(3), 5.0)
        memory.reset()
        np.testing.assert_allclose(memory.read(Operand.scalar(3)), 0.0)

    def test_copy_is_independent(self):
        memory = self.make()
        memory.write(Operand.scalar(2), 1.0)
        clone = memory.copy()
        memory.write(Operand.scalar(2), 9.0)
        np.testing.assert_allclose(clone.read(Operand.scalar(2)), 1.0)

    def test_all_operands_count(self):
        memory = self.make()
        space = memory.address_space
        expected = space.num_scalars + space.num_vectors + space.num_matrices
        assert len(memory.all_operands()) == expected

    def test_invalid_dimensions(self):
        with pytest.raises(OperandError):
            Memory(0, 4, 4)
        with pytest.raises(OperandError):
            Memory(5, 0, 4)

    def test_custom_address_space(self):
        memory = Memory(3, 4, 4, AddressSpace(num_scalars=2, num_vectors=1, num_matrices=1))
        assert memory.scalars.shape == (2, 3)
        with pytest.raises(OperandError):
            memory.read(Operand.scalar(2))


class TestAddressSpace:
    def test_defaults_match_paper(self):
        space = AddressSpace()
        assert (space.num_scalars, space.num_vectors, space.num_matrices) == (10, 16, 4)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            AddressSpace(num_scalars=1)
        with pytest.raises(ValueError):
            AddressSpace(num_matrices=0)
