"""Persisted tape states from before the one-lane tape still resume.

``golden/`` holds two :class:`~repro.compile.executor.TapeState` pickles
written by the code this tape replaced (``golden/make_tape_states.py``):
one from a solo tape, one from a lane of a 2-lane group — the two forms a
persisted ``ServerState`` held.  Each must load, resume into a one-lane
tape and into its lane of a 2-lane group with exactly the operands of an
uninterrupted run, and then serve the next days bitwise like that run.
This pins the ``TAPE_STATE_VERSION`` promise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compile import (
    TAPE_STATE_VERSION, StackedAlpha, TapeState, compile_program,
)
from repro.core import AlphaEvaluator, AlphaProgram
from repro.engine import IncrementalExecutor
from repro.stream import load_state

GOLDEN = Path(__file__).resolve().parent / "golden"
#: Validation days served before the golden states were suspended.
SERVED = 7
#: Days served after the resume.
MORE = 5


@pytest.fixture(scope="module")
def programs():
    payload = json.loads((GOLDEN / "tape_state_programs.json").read_text())
    return [AlphaProgram.from_dict(item) for item in payload]


def executor_for(evaluator, programs) -> IncrementalExecutor:
    backend = StackedAlpha([compile_program(program) for program in programs],
                           evaluator.make_context())
    return IncrementalExecutor(backend)


def serve(executor, taskset, start, stop) -> np.ndarray:
    features = taskset.split_features("valid")
    labels = taskset.split_labels("valid")
    rows = []
    for day in range(start, stop):
        rows.append(executor.step(features[day]))
        executor.reveal(labels[day])
    return np.array(rows)


def operand_bytes(state):
    return {name: np.asarray(array, dtype=np.float64).tobytes()
            for name, array in state.operands.items()}


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("golden,index", [("solo_tape_state.pkl", 0),
                                          ("lane_tape_state.pkl", 1)])
def test_golden_state_resumes_bitwise(small_taskset, programs, golden, index,
                                      lanes):
    state = load_state(str(GOLDEN / golden))
    assert type(state) is TapeState
    assert TapeState.__module__ == "repro.compile.executor"
    assert state.version == TAPE_STATE_VERSION

    evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
    group = [programs[index]] if lanes == 1 else programs
    lane = index if lanes == 2 else 0
    # The uninterrupted run: warm, serve SERVED days, keep going.
    live = executor_for(evaluator, group)
    live.warm_start(small_taskset.split_features("train"),
                    small_taskset.split_labels("train"),
                    day_indices=evaluator.train_day_indices())
    serve(live, small_taskset, 0, SERVED)
    states = list(live.suspend())
    assert operand_bytes(state) == operand_bytes(states[lane])

    # The golden state takes its lane; any other lane resumes live state.
    states[lane] = state
    resumed = executor_for(evaluator, group)
    resumed.resume(states, days_served=SERVED)
    for got, want in zip(resumed.suspend(), live.suspend()):
        assert operand_bytes(got) == operand_bytes(want)
    assert (serve(resumed, small_taskset, SERVED, SERVED + MORE).tobytes()
            == serve(live, small_taskset, SERVED, SERVED + MORE).tobytes())
