"""The layout contract: predictions do not depend on how ``features`` is laid
out in memory.

A task set's ``features`` is a window view of its panel rows, and a caller
may hand any ``(N, K, f, w)`` array to :class:`~repro.data.TaskSet`.  NumPy
reductions sum in memory order, so a kernel that reduced a non-C-ordered
array could differ in its last bits.  The protocol therefore reads the
C-ordered bars :meth:`~repro.data.TaskSet.gather` copies, and the batched
kernels of :class:`~repro.compile.StackedAlpha` copy a non-C-ordered chunk
before reducing it.  These tests pin that: the view, a C-ordered copy, a
Fortran-ordered copy and a copy in the view's own stride order predict
bit for bit alike, on clean and hostile panels, on both engines.
"""

import dataclasses

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
from repro.engine import evaluate_program_batch

SPLITS = ("train", "valid", "test")


def reducing_programs(dims):
    """Programs whose ``Predict()`` reduces ``m0`` itself, plus the
    static-predict, fused and day-loop shapes of the initialisations."""
    v1, s2 = Operand.vector(1), Operand.scalar(2)
    direct = [
        AlphaProgram(setup=[], update=[], name=op, predict=[
            Operation.make(op, (INPUT_MATRIX,), PREDICTION),
        ])
        for op in ("m_mean", "m_norm", "m_std")
    ]
    return direct + [
        AlphaProgram(setup=[], update=[], name="m_mean_axis", predict=[
            Operation.make("m_mean_axis", (INPUT_MATRIX,), v1, {"axis": 1}),
            Operation.make("v_mean", (v1,), PREDICTION),
        ]),
        # Reads the label, so inference runs the day loop.
        AlphaProgram(setup=[], update=[], name="reads_label", predict=[
            Operation.make("m_std", (INPUT_MATRIX,), s2),
            Operation.make("s_add", (s2, LABEL), PREDICTION),
        ]),
    ] + [get_initialization(code, dims, seed=3) for code in ("D", "NN")]


def window_rows(features):
    """The ``(N + w - 1, K, f)`` rows any window array reads."""
    return np.concatenate([features[0].transpose(2, 0, 1),
                           features[1:, :, :, -1]])


def layouts(features):
    """The same windows in four memory layouts, the view first."""
    view = sliding_window_view(window_rows(features), features.shape[-1],
                               axis=0)
    return {
        "view": view,
        "c": np.ascontiguousarray(view),
        "fortran": np.asfortranarray(view),
        "view_order_copy": np.array(view, copy=True),
    }


@pytest.fixture(scope="module", params=["clean", "hostile"])
def panel(request, small_taskset, salt):
    """``small_taskset`` with clean or hostile window rows (as a view)."""
    if request.param == "clean":
        return small_taskset
    rng = np.random.default_rng(23)
    rows = salt(window_rows(small_taskset.features), 150, rng)
    return dataclasses.replace(
        small_taskset,
        features=sliding_window_view(rows, small_taskset.window, axis=0),
        labels=salt(small_taskset.labels, 40, rng),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLayoutIndependence:
    def test_every_layout_predicts_alike_on_both_engines(self, panel, dims):
        programs = reducing_programs(dims)
        reference = AlphaEvaluator(
            dataclasses.replace(panel, features=np.ascontiguousarray(panel.features)),
            seed=0, max_train_steps=20, engine="interpreter",
        )
        expected = [reference.run(program, splits=SPLITS) for program in programs]
        kinds = {(backend.supports_fused_inference,
                  backend.supports_static_predict)
                 for backend in map(reference.make_backend, programs)}
        for name, features in layouts(panel.features).items():
            taskset = dataclasses.replace(panel, features=features)
            for engine in ("interpreter", "compiled"):
                evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20,
                                           engine=engine)
                if engine == "compiled":
                    kinds |= {(backend.supports_fused_inference,
                               backend.supports_static_predict)
                              for backend in map(evaluator.make_backend, programs)}
                for program, want in zip(programs, expected):
                    got = evaluator.run(program, splits=SPLITS)
                    for split in SPLITS:
                        assert got[split].tobytes() == want[split].tobytes(), (
                            f"{program.name} on {engine}, {name} layout: "
                            f"{split} differs"
                        )
        # Static-predict, fused-only and day-loop programs all took part.
        assert {(True, True), (True, False), (False, False)} <= kinds

    def test_batched_kernels_read_any_layout(self, panel, dims):
        """``run_inference_batch`` handed an array in any layout (not the
        gathered bars) still equals its C-ordered run."""
        evaluator = AlphaEvaluator(panel, seed=0)
        valid = panel.split_features("valid")
        for program in reducing_programs(dims)[:4]:
            def batch(features):
                tape = StackedAlpha([compile_program(program)],
                                    evaluator.make_context())
                tape.run_setup()
                return tape.run_inference_batch(features).tobytes()

            want = batch(np.ascontiguousarray(valid))
            for features in layouts(panel.features).values():
                split = features[panel.split.train:][:panel.split.valid]
                assert batch(split) == want, program.name


class TestGatheredOnce:
    def test_evaluations_reuse_the_gathered_bars(self, small_taskset, dims):
        """Evaluations gather the visited training days and the validation
        split once per task set; later evaluations, fresh evaluators and
        fleets read the same arrays."""
        taskset = dataclasses.replace(small_taskset)
        programs = reducing_programs(dims)
        evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=20)
        evaluator.evaluate(programs[0])
        gathered = dict(taskset._gathered)
        assert [split for split, _ in gathered] == ["train", "valid"]
        train = gathered[("train", evaluator.train_day_indices().tobytes())][0]
        assert train.shape[0] == 20
        for program in programs:
            evaluator.evaluate(program)
        evaluate_program_batch(AlphaEvaluator(taskset, seed=1,
                                              max_train_steps=20), programs)
        assert taskset._gathered.keys() == gathered.keys()
        for key, (bars, labels) in gathered.items():
            assert taskset._gathered[key][0] is bars
            assert taskset._gathered[key][1] is labels
