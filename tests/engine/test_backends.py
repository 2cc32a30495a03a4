"""Backend contract tests: both engines speak the protocol identically."""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program
from repro.core import (
    INPUT_MATRIX,
    LABEL,
    PREDICTION,
    AlphaEvaluator,
    AlphaProgram,
    Operand,
    Operation,
    get_initialization,
)
from repro.engine import (
    ENGINES,
    ExecutionEngine,
    FleetEngine,
    InterpreterBackend,
    make_backend,
    resolve_engine,
)
from repro.errors import EngineError, ProgramError

S2, S3, S4 = (Operand.scalar(index) for index in (2, 3, 4))


def writes_input_matrix():
    """``Predict()`` rescales ``m0`` in place and ``Update()`` reads it back
    into a parameter ``Predict()`` uses: the interpreter carries the write,
    a tape whose ``m0`` is only the day's bar cannot."""
    return AlphaProgram(
        setup=[Operation.make("s_const", (), S4, {"constant": 0.5})],
        predict=[
            Operation.make("m_scale", (S4, INPUT_MATRIX), INPUT_MATRIX),
            Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S2, S3), PREDICTION),
        ],
        update=[Operation.make("m_mean", (INPUT_MATRIX,), S3)],
        name="writes_m0",
    )


def writes_label():
    """``Setup()`` writes ``s0`` and ``Predict()`` reads it before any
    label is revealed."""
    return AlphaProgram(
        setup=[Operation.make("s_const", (), LABEL, {"constant": 7.0})],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), S2,
                           {"row": 0, "col": 0}),
            Operation.make("s_add", (S2, LABEL), PREDICTION),
        ],
        update=[Operation.make("s_abs", (S2,), S3)],
        name="writes_s0",
    )


@pytest.fixture()
def program(dims):
    return get_initialization("NN", dims, seed=3)


class TestResolveEngine:
    def test_default_is_compiled(self):
        assert resolve_engine() == "compiled"
        assert resolve_engine(None) == "compiled"

    def test_names_resolve_to_themselves(self):
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError, match="unknown execution engine"):
            resolve_engine("gpu")


class TestMakeBackend:
    def test_every_engine_constructs(self, evaluator, program):
        for engine in ENGINES:
            backend = make_backend(program, evaluator.make_context(), engine)
            assert isinstance(backend, ExecutionEngine)

    def test_classes_match_names(self, evaluator, program):
        ctx = evaluator.make_context()
        assert isinstance(
            make_backend(program, ctx, "interpreter"), InterpreterBackend
        )
        compiled = make_backend(program, ctx, "compiled")
        assert isinstance(compiled, StackedAlpha)
        assert compiled.num_programs == 1

    def test_every_engine_defaults_to_one_lane(self, evaluator, program):
        for engine in ENGINES:
            backend = make_backend(program, evaluator.make_context(), engine)
            assert backend.num_programs == 1
            assert backend.programs == (program,)
            assert backend.lookback == \
                make_backend(program, evaluator.make_context()).lookback


class TestStepEquivalence:
    """Stepping the backends by hand produces bitwise-equal predictions, on
    every lane of a tape of any lane count."""

    def test_day_by_day_predictions_match(self, small_taskset, evaluator, program):
        features = small_taskset.split_features("train")
        labels = small_taskset.split_labels("train")
        backends = [
            make_backend(program, evaluator.make_context(), engine)
            for engine in ENGINES
        ]
        backends.append(StackedAlpha([compile_program(program)] * 3,
                                     evaluator.make_context()))
        for backend in backends:
            backend.run_setup()
        for day in range(5):
            predictions = []
            for backend in backends:
                backend.set_input(features[day])
                backend.run_predict()
                predictions.append(backend.prediction.copy())
                backend.set_label(labels[day])
                backend.run_update()
            reference = predictions[0]
            assert reference.shape == (1, small_taskset.num_tasks)
            for other in predictions[1:]:
                for lane in other:
                    assert lane.tobytes() == reference[0].tobytes()

    def test_evaluator_defaults_to_the_compiled_engine(self, small_taskset,
                                                      program):
        default = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        interpreter = AlphaEvaluator(
            small_taskset, seed=0, max_train_steps=40, engine="interpreter"
        )
        assert default.engine == "compiled"
        left = default.run(program, splits=("valid",))["valid"]
        right = interpreter.run(program, splits=("valid",))["valid"]
        assert left.shape == (small_taskset.split.valid,
                              small_taskset.num_tasks)
        assert left.tobytes() == right.tobytes()


@pytest.mark.parametrize("build,where", [
    (writes_input_matrix, r"predict\(\) writes m0"),
    (writes_label, r"setup\(\) writes s0"),
], ids=["m0", "s0"])
class TestProtocolInputs:
    """Only the day loop writes ``m0`` and ``s0``: a program that writes
    either is refused before it reaches any engine."""

    def test_every_engine_refuses(self, evaluator, build, where):
        for engine in ENGINES:
            with pytest.raises(ProgramError, match=where):
                make_backend(build(), evaluator.make_context(), engine)

    def test_fleet_refuses_at_registration(self, evaluator, build, where):
        fleet = FleetEngine(evaluator)
        with pytest.raises(ProgramError, match=where):
            fleet.add(build())
        assert fleet.num_members == 0


class TestCapabilities:
    def test_interpreter_never_batches(self, evaluator, program):
        backend = make_backend(program, evaluator.make_context(), "interpreter")
        assert not backend.supports_fused_inference
        assert not backend.supports_static_predict
        with pytest.raises(EngineError, match="does not batch"):
            backend.run_inference_batch(np.zeros((1, 1, 1, 1)))

    def test_static_predict_implies_fused(self, evaluator, dims):
        for code in ("D", "NN", "R"):
            backend = make_backend(
                get_initialization(code, dims, seed=3),
                evaluator.make_context(),
                "compiled",
            )
            if backend.supports_static_predict:
                assert backend.supports_fused_inference

    def test_domain_expert_predict_is_static(self, evaluator, dims):
        """The formulaic alpha reads no Update()-carried state."""
        backend = make_backend(
            get_initialization("D", dims, seed=3),
            evaluator.make_context(),
            "compiled",
        )
        assert backend.supports_static_predict

    def test_nn_alpha_predict_is_not_static(self, evaluator, dims):
        """The NN alpha's Predict() reads weights Update() trains."""
        backend = make_backend(
            get_initialization("NN", dims, seed=3),
            evaluator.make_context(),
            "compiled",
        )
        assert not backend.supports_static_predict
