"""Alpha program representation: operations and the three-component program.

An alpha (Section 2) is a sequence of operations, each with an operator, input
operand(s) and an output operand, organised in three components:

* ``Setup()``   — initialises operands once per stage;
* ``Predict()`` — produces the prediction ``s1`` from the input matrix ``m0``;
* ``Update()``  — updates operands after seeing the label ``s0`` during
  training; operands it writes and ``Predict()`` later reads are the alpha's
  *parameters*.

:class:`AlphaProgram` stores the three operation lists, validates them
against the address space and the operator registry, and supports
(de)serialisation, pretty-printing and exact-identity equality and hashing
(:meth:`AlphaProgram.exact_key`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from ..config import (
    AddressSpace,
    DEFAULT_ADDRESS_SPACE,
    MAX_PREDICT_OPS,
    MAX_SETUP_OPS,
    MAX_UPDATE_OPS,
    MIN_OPS_PER_COMPONENT,
)
from ..errors import ProgramError
from .memory import INPUT_MATRIX, LABEL, Operand, OperandType
from .ops import OpSpec, check_params, get_op

__all__ = ["COMPONENTS", "ComponentLimits", "Operation", "AlphaProgram"]

#: The three components of an alpha, in canonical order.
COMPONENTS = ("setup", "predict", "update")


@dataclass(frozen=True)
class ComponentLimits:
    """Minimum / maximum number of operations per component (Section 5.2)."""

    min_ops: int = MIN_OPS_PER_COMPONENT
    max_setup_ops: int = MAX_SETUP_OPS
    max_predict_ops: int = MAX_PREDICT_OPS
    max_update_ops: int = MAX_UPDATE_OPS

    def max_for(self, component: str) -> int:
        """Maximum allowed operations for ``component``."""
        limits = {
            "setup": self.max_setup_ops,
            "predict": self.max_predict_ops,
            "update": self.max_update_ops,
        }
        try:
            return limits[component]
        except KeyError as exc:
            raise ProgramError(f"unknown component {component!r}") from exc


@dataclass(frozen=True)
class Operation:
    """A single operation ``output = op(inputs, params)``."""

    op: str
    inputs: tuple[Operand, ...]
    output: Operand
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        spec = self.spec  # raises OperatorError for unknown op names
        if len(self.inputs) != spec.arity:
            raise ProgramError(
                f"operator {self.op} expects {spec.arity} inputs, got {len(self.inputs)}"
            )
        for operand, expected in zip(self.inputs, spec.input_types):
            if operand.type is not expected:
                raise ProgramError(
                    f"operator {self.op} expects a {expected.value} input, got "
                    f"{operand.name}"
                )
        if self.output.type is not spec.output_type:
            raise ProgramError(
                f"operator {self.op} outputs a {spec.output_type.value}, cannot "
                f"write to {self.output.name}"
            )
        missing = set(spec.param_names) - {k for k, _ in self.params}
        if missing:
            raise ProgramError(f"operator {self.op} missing parameters {sorted(missing)}")

    # ------------------------------------------------------------------
    @property
    def spec(self) -> OpSpec:
        """The operator specification from the registry."""
        return get_op(self.op)

    @property
    def param_dict(self) -> dict:
        """Parameters as a plain dictionary."""
        return dict(self.params)

    @classmethod
    def make(cls, op: str, inputs: tuple[Operand, ...], output: Operand,
             params: dict | None = None) -> "Operation":
        """Convenience constructor taking a parameter dictionary."""
        items = tuple(sorted((params or {}).items()))
        return cls(op=op, inputs=inputs, output=output, params=items)

    def render(self) -> str:
        """Human-readable form, e.g. ``"s3 = s1 + s2"`` or ``"s2 = rank(s3)"``."""
        spec = self.spec
        params = self.param_dict
        if spec.symbol and spec.arity == 2:
            expr = f"{self.inputs[0].name} {spec.symbol} {self.inputs[1].name}"
        else:
            args = [operand.name for operand in self.inputs]
            args += [f"{key}={value}" for key, value in sorted(params.items())]
            expr = f"{self.op}({', '.join(args)})"
        return f"{self.output.name} = {expr}"

    @cached_property
    def exact_key(self) -> str:
        """Exact identity: operands in written order, parameters by ``repr``.

        Unlike equality, it tells ``-0.0`` from ``0.0``, ``1`` from ``1.0``
        and ``np.float64(0.5)`` from ``0.5`` (initialisers seed by signed
        values, and the fingerprint renders parameters by ``repr``).
        Computed once per instance; it takes no part in the operation's
        ``==`` or ``hash`` and is never pickled (see :meth:`__getstate__`).
        """
        inputs = ",".join(operand.name for operand in self.inputs)
        return f"{self.output.name}={self.op}({inputs}){self.params!r}"

    def __getstate__(self) -> dict:
        # Pickles (pool dispatches, checkpoints) carry the fields only.
        state = self.__dict__
        if "exact_key" in state:
            state = {name: value for name, value in state.items()
                     if name != "exact_key"}
        return state

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "op": self.op,
            "inputs": [operand.name for operand in self.inputs],
            "output": self.output.name,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Operation":
        """Inverse of :meth:`to_dict`.

        Checks each parameter against its domain
        (:func:`~repro.core.ops.check_params`): a loaded value the mutator
        could never have drawn, such as a reduction ``axis`` of 3, raises
        :class:`ProgramError` here instead of executing differently on
        different paths.
        """
        operation = cls.make(
            op=payload["op"],
            inputs=tuple(Operand.parse(name) for name in payload["inputs"]),
            output=Operand.parse(payload["output"]),
            params=payload.get("params") or {},
        )
        check_params(operation.spec, operation.param_dict)
        return operation


@dataclass
class AlphaProgram:
    """A full alpha: Setup / Predict / Update operation lists."""

    setup: list[Operation] = field(default_factory=list)
    predict: list[Operation] = field(default_factory=list)
    update: list[Operation] = field(default_factory=list)
    name: str = "alpha"

    # ------------------------------------------------------------------
    def component(self, name: str) -> list[Operation]:
        """Return the operation list of a component by name."""
        if name not in COMPONENTS:
            raise ProgramError(f"unknown component {name!r}")
        return getattr(self, name)

    def components(self) -> dict[str, list[Operation]]:
        """All components as an ordered mapping."""
        return {name: self.component(name) for name in COMPONENTS}

    @property
    def num_operations(self) -> int:
        """Total number of operations across all components."""
        return len(self.setup) + len(self.predict) + len(self.update)

    def copy(self, name: str | None = None) -> "AlphaProgram":
        """Return a deep(ish) copy; operations are immutable so lists suffice."""
        return AlphaProgram(
            setup=list(self.setup),
            predict=list(self.predict),
            update=list(self.update),
            name=name if name is not None else self.name,
        )

    # ------------------------------------------------------------------
    def validate(
        self,
        address_space: AddressSpace = DEFAULT_ADDRESS_SPACE,
        limits: ComponentLimits | None = None,
    ) -> None:
        """Raise :class:`ProgramError` if the program violates the constraints.

        Checks operand addresses against the address space, component
        operation-count limits, that operators are allowed in the
        component they appear in, and that no operation writes the protocol
        inputs ``m0`` (the day's features) or ``s0`` (its label): only the
        day loop writes those.
        """
        limits = limits or ComponentLimits()
        bounds = {
            OperandType.SCALAR: address_space.num_scalars,
            OperandType.VECTOR: address_space.num_vectors,
            OperandType.MATRIX: address_space.num_matrices,
        }
        for component, operations in self.components().items():
            if len(operations) > limits.max_for(component):
                raise ProgramError(
                    f"component {component} has {len(operations)} operations, "
                    f"maximum is {limits.max_for(component)}"
                )
            for operation in operations:
                if component not in operation.spec.components:
                    raise ProgramError(
                        f"operator {operation.op} is not allowed in {component}()"
                    )
                for operand in (*operation.inputs, operation.output):
                    if operand.index >= bounds[operand.type]:
                        raise ProgramError(
                            f"operand {operand.name} exceeds the address space "
                            f"({bounds[operand.type]} {operand.type.value}s)"
                        )
                if operation.output in (INPUT_MATRIX, LABEL):
                    raise ProgramError(
                        f"{component}() writes {operation.output.name}, a "
                        f"protocol input only the day loop may write"
                    )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Pretty-print the alpha in the paper's ``def Setup(): ...`` style."""
        lines: list[str] = []
        titles = {"setup": "Setup", "predict": "Predict", "update": "Update"}
        for component, operations in self.components().items():
            lines.append(f"def {titles[component]}():")
            if not operations:
                lines.append("    pass")
            for operation in operations:
                lines.append(f"    {operation.render()}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole program."""
        return {
            "name": self.name,
            "setup": [op.to_dict() for op in self.setup],
            "predict": [op.to_dict() for op in self.predict],
            "update": [op.to_dict() for op in self.update],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AlphaProgram":
        """Inverse of :meth:`to_dict`."""
        return cls(
            setup=[Operation.from_dict(op) for op in payload.get("setup", [])],
            predict=[Operation.from_dict(op) for op in payload.get("predict", [])],
            update=[Operation.from_dict(op) for op in payload.get("update", [])],
            name=payload.get("name", "alpha"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AlphaProgram":
        """Deserialise from a JSON string."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def exact_key(self) -> tuple[tuple[str, ...], ...]:
        """Each component's :attr:`Operation.exact_key` tuple, in order.

        Two programs share it only if they are written identically, so
        anything computed from the operations alone — the fingerprint
        cache memoises its keys on it — can be looked up instead of
        recomputed.  Program equality and hashing read it too; the name
        takes no part.
        """
        return (tuple([operation.exact_key for operation in self.setup]),
                tuple([operation.exact_key for operation in self.predict]),
                tuple([operation.exact_key for operation in self.update]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlphaProgram):
            return NotImplemented
        return self.exact_key() == other.exact_key()

    def __hash__(self) -> int:
        return hash(self.exact_key())
