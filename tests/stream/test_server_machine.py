"""A Hypothesis state machine over :class:`~repro.stream.AlphaServer`.

It interleaves the serving operations a live process performs — a bar and
its label, a late correction to the features, the labels or both (inside
the golden group's 8-day snapshot ring and beyond it), and a suspend to
disk followed by a resume into a fresh server whose programs were
registered in another order, so the lanes regroup — and holds one
invariant after every step:
each served day's latest prediction (the bar's own, or the suffix of the
newest correction that covered it) equals
:meth:`~repro.core.interpreter.AlphaEvaluator.run` over the fully
corrected history, bit for bit.

The fleet holds the two golden programs of ``golden/`` (one 2-lane group
whose ``Predict()`` carries an accumulator: unbounded lookback), the
domain-expert alpha (a singleton of finite lookback) and an exact copy of
the first golden program, which the server deduplicates onto its lane.
The run is derandomised and bounded, so tier-1 sees the same cases every
time.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import AlphaEvaluator, AlphaProgram, get_initialization
from repro.engine import DEFAULT_UNBOUNDED_DEPTH as RING
from repro.stream import AlphaServer, load_state, save_state

GOLDEN = Path(__file__).resolve().parent / "golden"
#: Validation days the machine may serve.
MAX_DAYS = 14
SETTINGS = settings(
    max_examples=10,
    stateful_step_count=16,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def fleet(dims):
    """``(name, program)`` in registration order."""
    payload = json.loads((GOLDEN / "tape_state_programs.json").read_text())
    golden = [AlphaProgram.from_dict(item) for item in payload]
    return [
        ("golden_0", golden[0]),
        ("golden_1", golden[1]),
        ("expert", get_initialization("D", dims, seed=3)),
        ("golden_0_copy", golden[0].copy(name="golden_0_copy")),
    ]


class ServerMachine(RuleBasedStateMachine):
    def __init__(self, taskset, fleet):
        super().__init__()
        self.taskset = taskset
        self.fleet = fleet
        self.start = taskset.split.train
        self.features = np.array(taskset.features, copy=True)
        self.labels = np.array(taskset.labels, copy=True)
        #: name → the latest prediction of every served day.
        self.latest = {name: [] for name, _ in fleet}
        #: name → offline valid-split predictions over the corrected
        #: history; dropped whenever a correction changes that history.
        self.reference = None
        self.scratch = tempfile.TemporaryDirectory()

    def teardown(self):
        self.scratch.cleanup()

    def make_server(self, order):
        server = AlphaServer(self.taskset, seed=0, max_train_steps=40)
        for index in order:
            name, program = self.fleet[index]
            server.register(program, name=name)
        return server

    @initialize()
    def warm(self):
        self.server = self.make_server(range(len(self.fleet)))
        self.server.warm_start()
        assert self.server.num_unique == 3
        assert self.server.fleet.stack_groups == 1

    @property
    def days(self):
        return self.server.days_served

    @precondition(lambda self: self.days < MAX_DAYS)
    @rule(bars=st.integers(1, 4))
    def serve_bars(self, bars):
        for _ in range(min(bars, MAX_DAYS - self.days)):
            day = self.start + self.days
            served = self.server.on_bar(self.features[day])
            self.server.reveal(self.labels[day])
            for name, prediction in served.items():
                self.latest[name].append(prediction.copy())

    @precondition(lambda self: self.days > 0)
    @rule(data=st.data(),
          what=st.sampled_from(["features", "labels", "both"]),
          scale=st.sampled_from([1.01, 0.5, -2.0]))
    def correct_bar(self, data, what, scale):
        beyond_ring = self.days > RING and data.draw(st.booleans(),
                                                     label="beyond ring")
        if beyond_ring:
            day = data.draw(st.integers(0, self.days - RING - 1), label="day")
        else:
            day = data.draw(st.integers(max(0, self.days - RING),
                                        self.days - 1), label="day")
        row = self.start + day
        patch = {}
        if what in ("features", "both"):
            self.features[row] = self.features[row] * scale
            patch["features"] = self.features[row]
        if what in ("labels", "both"):
            self.labels[row] = self.labels[row] * scale
            patch["labels"] = self.labels[row]
        self.reference = None
        suffixes = self.server.correct_bar(day, **patch)
        for name, suffix in suffixes.items():
            assert suffix.shape[0] == self.days - day
            self.latest[name][day:] = list(suffix)

    @precondition(lambda self: self.days > 0)
    @rule(order=st.permutations(range(4)))
    def suspend_and_resume(self, order):
        path = str(Path(self.scratch.name) / "server.pkl")
        save_state(path, self.server.suspend())
        resumed = self.make_server(order)
        resumed.resume(load_state(path))
        assert resumed.days_served == self.days
        self.server = resumed

    @invariant()
    def served_days_match_the_offline_recompute(self):
        if not self.days:
            return
        if self.reference is None:
            patched = dataclasses.replace(
                self.taskset, features=self.features, labels=self.labels
            )
            evaluator = AlphaEvaluator(patched, seed=0, max_train_steps=40)
            self.reference = {
                name: evaluator.run(program, splits=("valid",))["valid"]
                for name, program in self.fleet
            }
        for name, _ in self.fleet:
            served = np.array(self.latest[name])
            expected = self.reference[name][:self.days]
            assert served.tobytes() == expected.tobytes(), name


def test_server_matches_the_offline_recompute(small_taskset, fleet):
    run_state_machine_as_test(
        lambda: ServerMachine(small_taskset, fleet), settings=SETTINGS
    )
