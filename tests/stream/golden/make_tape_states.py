"""Write the golden ``TapeState`` pickles that ``test_golden_state.py`` resumes.

The pickles pin the ``TAPE_STATE_VERSION`` promise across the retirement of
the solo tape class: they were written by commit 7c17408, the last one whose
solo tape was ``CompiledAlpha``, in the two forms a persisted
``ServerState`` held then:

* ``solo_tape_state.pkl`` — program 0 suspended from a solo
  ``CompiledAlpha``;
* ``lane_tape_state.pkl`` — lane 1 (program 1) of a 2-lane
  ``StackedAlpha`` holding both programs, cut by ``suspend_member``.

Both are warmed on the ``small_taskset`` market of ``tests/conftest.py``
(evaluator seed 0, 40 training steps) and suspended after ``SERVED``
validation days.  ``tape_state_programs.json`` holds the two programs.
To regenerate, run from a checkout of that commit::

    PYTHONPATH=src python tests/stream/golden/make_tape_states.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.compile import CompiledAlpha, StackedAlpha, compile_program
from repro.core import (
    INPUT_MATRIX, LABEL, PREDICTION, AlphaEvaluator, AlphaProgram, Operand,
    Operation,
)
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.engine import training_pass
from repro.stream import save_state

GOLDEN = Path(__file__).resolve().parent
#: Validation days served before the states were suspended.
SERVED = 7

S2, S3, S4, S5, S6 = (Operand.scalar(index) for index in range(2, 7))
V1 = Operand.vector(1)


def golden_program(constant: float, row: int, name: str) -> AlphaProgram:
    """A decaying recurrent accumulator of one feature, a label-scaled
    window mean and a trained label sum: ``Predict()`` carries ``s3``
    across days and reads ``s0`` and ``Update()``'s ``s5``."""
    return AlphaProgram(
        setup=[Operation.make("s_const", (), S2, {"constant": constant})],
        predict=[
            Operation.make("get_column", (INPUT_MATRIX,), V1, {"col": 12}),
            Operation.make("get_scalar", (INPUT_MATRIX,), S4,
                           {"row": row, "col": 12}),
            Operation.make("s_mul", (S3, S2), S3),
            Operation.make("s_add", (S3, S4), S3),
            Operation.make("v_mean", (V1,), S6),
            Operation.make("s_mul", (S6, LABEL), S6),
            Operation.make("s_add", (S3, S6), S6),
            Operation.make("s_add", (S6, S5), PREDICTION),
        ],
        update=[Operation.make("s_add", (S5, LABEL), S5)],
        name=name,
    )


def small_taskset():
    """``tests/conftest.py``'s ``small_taskset``."""
    market = SyntheticMarket(MarketConfig(num_stocks=30, num_days=220), seed=123)
    return build_taskset(market.generate(), split=Split(train=110, valid=30, test=30))


def warm_and_serve(backend, taskset, evaluator) -> None:
    backend.run_setup()
    training_pass(backend, taskset.split_features("train"),
                  taskset.split_labels("train"),
                  day_indices=evaluator.train_day_indices())
    features = taskset.split_features("valid")
    labels = taskset.split_labels("valid")
    for day in range(SERVED):
        backend.set_input(features[day])
        backend.run_predict()
        backend.set_label(labels[day])


def main() -> None:
    programs = [golden_program(0.5, 0, "golden_0"),
                golden_program(0.25, 3, "golden_1")]
    taskset = small_taskset()
    evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=40)

    solo = CompiledAlpha(compile_program(programs[0]), evaluator.make_context())
    warm_and_serve(solo, taskset, evaluator)
    save_state(str(GOLDEN / "solo_tape_state.pkl"), solo.suspend())

    group = StackedAlpha([compile_program(program) for program in programs],
                         evaluator.make_context())
    warm_and_serve(group, taskset, evaluator)
    save_state(str(GOLDEN / "lane_tape_state.pkl"), group.suspend_member(1))

    (GOLDEN / "tape_state_programs.json").write_text(json.dumps(
        [program.to_dict() for program in programs], indent=1) + "\n")


if __name__ == "__main__":
    main()
