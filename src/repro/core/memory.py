"""Operand address spaces and the vectorised operand memory.

An alpha program (Section 2 of the paper) operates on three operand spaces:

* scalars ``s0 .. s{S-1}``  — ``s0`` is the label, ``s1`` the prediction;
* vectors ``v0 .. v{V-1}``  — length ``w`` (the input window);
* matrices ``m0 .. m{M-1}`` — shape ``(f, w)``; ``m0`` is the input feature
  matrix.

The paper evaluates an alpha over ``K`` tasks (stocks).  Instead of looping
over tasks in Python, :class:`Memory` stores every operand with a leading
task dimension (scalars ``(K,)``, vectors ``(K, w)``, matrices ``(K, f, w)``)
so one numpy call executes an operation for all stocks at a time step.  This
is also what makes the cross-sectional RelationOps natural to implement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..config import AddressSpace, DEFAULT_ADDRESS_SPACE
from ..errors import OperandError

__all__ = [
    "OperandType",
    "Operand",
    "LABEL",
    "PREDICTION",
    "INPUT_MATRIX",
    "Memory",
]


class OperandType(str, Enum):
    """The three operand kinds of the alpha language."""

    SCALAR = "scalar"
    VECTOR = "vector"
    MATRIX = "matrix"

    @property
    def prefix(self) -> str:
        """Single-letter prefix used in rendered programs (``s``/``v``/``m``)."""
        return {"scalar": "s", "vector": "v", "matrix": "m"}[self.value]


#: Each operand type's position in :class:`OperandType`, for hashing.
_TYPE_ORDINAL = {kind: ordinal for ordinal, kind in enumerate(OperandType)}


@dataclass(frozen=True, order=True)
class Operand:
    """An operand address such as ``s3``, ``v7`` or ``m0``.

    The compile passes hash operands in sets and dicts about a million
    times per mining study, so the hash is an int from the type's position
    and the index, computed once per operand (and not salted by
    ``PYTHONHASHSEED``).  It stays out of pickles, which hold ``type`` and
    ``index`` only, as they always have.
    """

    type: OperandType
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise OperandError(f"operand index must be non-negative, got {self.index}")
        object.__setattr__(self, "_hash",
                           self.index * len(_TYPE_ORDINAL) + _TYPE_ORDINAL[self.type])

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"type": self.type, "index": self.index}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "type", state["type"])
        object.__setattr__(self, "index", state["index"])
        self.__post_init__()

    @property
    def name(self) -> str:
        """Canonical name, e.g. ``"s3"``."""
        return f"{self.type.prefix}{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @classmethod
    def parse(cls, name: str) -> "Operand":
        """Parse an operand from its canonical name (``"s3"``, ``"m0"`` ...)."""
        name = name.strip().lower()
        if len(name) < 2:
            raise OperandError(f"cannot parse operand name {name!r}")
        prefix, digits = name[0], name[1:]
        types = {"s": OperandType.SCALAR, "v": OperandType.VECTOR, "m": OperandType.MATRIX}
        if prefix not in types or not digits.isdigit():
            raise OperandError(f"cannot parse operand name {name!r}")
        return cls(types[prefix], int(digits))

    @classmethod
    def scalar(cls, index: int) -> "Operand":
        """Shorthand for a scalar operand."""
        return cls(OperandType.SCALAR, index)

    @classmethod
    def vector(cls, index: int) -> "Operand":
        """Shorthand for a vector operand."""
        return cls(OperandType.VECTOR, index)

    @classmethod
    def matrix(cls, index: int) -> "Operand":
        """Shorthand for a matrix operand."""
        return cls(OperandType.MATRIX, index)


#: Reserved operand holding the regression label ``y`` during training.
LABEL = Operand.scalar(0)
#: Reserved operand holding the alpha's prediction.
PREDICTION = Operand.scalar(1)
#: Reserved operand holding the input feature matrix ``X``.
INPUT_MATRIX = Operand.matrix(0)


class Memory:
    """Vectorised operand storage for ``K`` tasks.

    Parameters
    ----------
    num_tasks:
        Number of tasks (stocks) ``K``.
    num_features:
        Number of feature types ``f`` (rows of a matrix operand).
    window:
        Input window ``w`` (vector length and matrix columns).
    address_space:
        Sizes of the scalar/vector/matrix spaces.
    """

    def __init__(
        self,
        num_tasks: int,
        num_features: int,
        window: int,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
    ) -> None:
        if num_tasks <= 0:
            raise OperandError("num_tasks must be positive")
        if num_features <= 0 or window <= 0:
            raise OperandError("num_features and window must be positive")
        self.num_tasks = num_tasks
        self.num_features = num_features
        self.window = window
        self.address_space = address_space
        self.scalars = np.zeros((address_space.num_scalars, num_tasks))
        self.vectors = np.zeros((address_space.num_vectors, num_tasks, window))
        self.matrices = np.zeros(
            (address_space.num_matrices, num_tasks, num_features, window)
        )

    # ------------------------------------------------------------------
    def _check(self, operand: Operand) -> None:
        limits = {
            OperandType.SCALAR: self.address_space.num_scalars,
            OperandType.VECTOR: self.address_space.num_vectors,
            OperandType.MATRIX: self.address_space.num_matrices,
        }
        if operand.index >= limits[operand.type]:
            raise OperandError(
                f"operand {operand.name} outside address space "
                f"({limits[operand.type]} {operand.type.value}s)"
            )

    def read(self, operand: Operand) -> np.ndarray:
        """Return the stored value of ``operand`` (a view, do not mutate)."""
        self._check(operand)
        if operand.type is OperandType.SCALAR:
            return self.scalars[operand.index]
        if operand.type is OperandType.VECTOR:
            return self.vectors[operand.index]
        return self.matrices[operand.index]

    def write(self, operand: Operand, value: np.ndarray) -> None:
        """Store ``value`` into ``operand``, broadcasting over the task axis."""
        self._check(operand)
        value = np.asarray(value, dtype=np.float64)
        if operand.type is OperandType.SCALAR:
            target = self.scalars[operand.index]
        elif operand.type is OperandType.VECTOR:
            target = self.vectors[operand.index]
        else:
            target = self.matrices[operand.index]
        try:
            target[...] = value
        except ValueError as exc:
            raise OperandError(
                f"cannot write value of shape {value.shape} into operand "
                f"{operand.name} of shape {target.shape}"
            ) from exc

    def reset(self) -> None:
        """Zero every operand (used between evaluation stages if requested)."""
        self.scalars.fill(0.0)
        self.vectors.fill(0.0)
        self.matrices.fill(0.0)

    def copy(self) -> "Memory":
        """Deep-copy the memory (used to snapshot trained parameters)."""
        clone = Memory(
            self.num_tasks, self.num_features, self.window, self.address_space
        )
        clone.scalars[...] = self.scalars
        clone.vectors[...] = self.vectors
        clone.matrices[...] = self.matrices
        return clone

    # ------------------------------------------------------------------
    def all_operands(self) -> list[Operand]:
        """Enumerate every addressable operand in the memory."""
        operands = [Operand.scalar(i) for i in range(self.address_space.num_scalars)]
        operands += [Operand.vector(i) for i in range(self.address_space.num_vectors)]
        operands += [Operand.matrix(i) for i in range(self.address_space.num_matrices)]
        return operands
