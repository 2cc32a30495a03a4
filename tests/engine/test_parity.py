"""Fuzzed four-way parity: interpreter / compiled / fleet / time-batched.

The engine layer's hard contract: random programs produce bitwise-identical
prediction panels on every execution path — the reference interpreter, the
compiled tape with the fast paths disabled, the compiled tape with fused
inference and static-predict time batching enabled, and a FleetEngine batch
— including across suspend/resume round-trips through the engine layer.

Each contract also runs on a *hostile* panel: features and labels salted
with NaN, ±inf, denormals, -0.0 and the clip bounds.  The tapes skip
sanitize steps that a registry contract proves are no-ops on clean inputs
(:mod:`repro.compile.executor`); these panels cover every place that skip
must not fire — entries reading the raw ``m0``/``s0`` state, and state
restored by ``resume()``.
"""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program
from repro.core import (
    INPUT_MATRIX,
    PREDICTION,
    AlphaEvaluator,
    AlphaProgram,
    Operand,
    Operation,
    get_initialization,
)
from repro.engine import FleetEngine, IncrementalExecutor, make_backend, run_protocol

SPLITS = ("valid", "test")


def fuzz_programs(dims, mutator, count=12):
    """A deterministic mixed bag of initialisation alphas and mutants."""
    bases = [get_initialization(code, dims, seed=3) for code in ("D", "NN", "R")]
    programs = []
    while len(programs) < count:
        program = bases[len(programs) % len(bases)]
        for _ in range(len(programs) % 4):
            program = mutator.mutate(program)
        programs.append(program.copy(name=f"fuzz_{len(programs)}"))
    return programs


@pytest.fixture()
def fuzzed(dims, mutator):
    return fuzz_programs(dims, mutator)


def make_evaluator(taskset, **kwargs):
    return AlphaEvaluator(taskset, seed=0, max_train_steps=40, **kwargs)


def assert_all_paths_agree(taskset, programs):
    """Every execution path equals the interpreter on ``programs``.

    Returns how many programs took the static-predict fast path and how
    many stack groups the fleet formed.
    """
    interpreter = make_evaluator(taskset, engine="interpreter")
    compiled_loop = make_evaluator(
        taskset, engine="compiled", time_batched=False
    )
    compiled_batched = make_evaluator(
        taskset, engine="compiled", time_batched=True
    )
    fleet = FleetEngine(make_evaluator(taskset))
    for program in programs:
        fleet.add(program)
    fleet_runs = fleet.run(splits=SPLITS)

    batched_static = 0
    for program in programs:
        reference = interpreter.run(program, splits=SPLITS)
        loop = compiled_loop.run(program, splits=SPLITS)
        batched = compiled_batched.run(program, splits=SPLITS)
        backend = compiled_batched.make_backend(program)
        if backend.supports_static_predict:
            batched_static += 1
        for split in SPLITS:
            expected = reference[split].tobytes()
            assert loop[split].tobytes() == expected, (
                f"{program.name}: compiled day-loop diverged on {split}"
            )
            assert batched[split].tobytes() == expected, (
                f"{program.name}: time-batched path diverged on {split}"
            )
            assert fleet_runs[program.name][split].tobytes() == expected, (
                f"{program.name}: fleet evaluation diverged on {split}"
            )
    return batched_static, fleet.stack_groups


def raw_input_family(rows=(0, 0, 3)):
    """Programs whose range-closed ``get_row`` and ``out=`` kernel
    ``m_add`` read the raw feature matrix ``m0`` directly.

    Stacked, the group runs ``get_row`` as one gather (its rows differ)
    and ``m_add`` as one ``out=`` call; ``Update()`` accumulates the sum
    into carried state, so the day loop reads raw bars too, not just the
    fused path.
    """
    v1, m1, m2 = Operand.vector(1), Operand.matrix(1), Operand.matrix(2)
    s2, s3, s4 = Operand.scalar(2), Operand.scalar(3), Operand.scalar(4)
    return [
        AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_row", (INPUT_MATRIX,), v1, {"row": row}),
                Operation.make("m_add", (INPUT_MATRIX, m2), m1),
                Operation.make("v_mean", (v1,), s2),
                Operation.make("m_mean", (m1,), s3),
                Operation.make("s_max", (s2, s3), s4),
                Operation.make("s_add", (s4, s2), PREDICTION),
            ],
            update=[
                Operation.make("m_add", (INPUT_MATRIX, m2), m2),
            ],
            name=f"raw_m0_{index}",
        )
        for index, row in enumerate(rows)
    ]


class TestFourWayParity:
    def test_all_paths_agree_bitwise(self, small_taskset, fuzzed):
        batched_static, _ = assert_all_paths_agree(small_taskset, fuzzed)
        # the fuzz bag must actually exercise the static-predict fast path
        assert batched_static > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_paths_agree_bitwise_on_hostile_panel(
        self, hostile_taskset, fuzzed
    ):
        batched_static, _ = assert_all_paths_agree(hostile_taskset, fuzzed)
        assert batched_static > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raw_m0_reads_sanitize_on_hostile_panel(self, hostile_taskset):
        programs = raw_input_family()
        # the rows read hold the values a skipped sanitize would leak
        for row in (0, 3):
            read = hostile_taskset.features[:, :, row, :]
            assert np.isnan(read).any() and np.isinf(read).any()
        _, stack_groups = assert_all_paths_agree(hostile_taskset, programs)
        assert stack_groups == 1

    def test_use_update_ablation_agrees(self, small_taskset, fuzzed):
        """With Update() disabled every fused program batches its training."""
        interpreter = make_evaluator(
            small_taskset, engine="interpreter", use_update=False
        )
        batched = make_evaluator(small_taskset, use_update=False)
        for program in fuzzed[:6]:
            reference = interpreter.run(program, splits=SPLITS, use_update=False)
            fast = batched.run(program, splits=SPLITS, use_update=False)
            for split in SPLITS:
                assert fast[split].tobytes() == reference[split].tobytes()


class TestSuspendResumeThroughEngine:
    def stream(self, executor, features, labels, start, stop):
        rows = []
        for day in range(start, stop):
            rows.append(executor.step(features[day])[0])
            executor.reveal(labels[day])
        return rows

    def assert_roundtrips(self, taskset, programs):
        evaluator = make_evaluator(taskset)
        features = taskset.split_features("valid")
        labels = taskset.split_labels("valid")
        train_features = taskset.split_features("train")
        train_labels = taskset.split_labels("train")
        day_indices = evaluator.train_day_indices()
        cut = 7
        for program in programs:
            batch = evaluator.run(program, splits=("valid",))["valid"]

            first = IncrementalExecutor(program, evaluator.make_context())
            first.warm_start(train_features, train_labels,
                             day_indices=day_indices)
            before = self.stream(first, features, labels, 0, cut)
            state = first.suspend()

            resumed = IncrementalExecutor(program, evaluator.make_context())
            resumed.resume(state, days_served=first.days_served)
            assert resumed.days_served == cut
            after = self.stream(resumed, features, labels, cut,
                                features.shape[0])

            streamed = np.asarray(before + after)
            assert streamed.tobytes() == batch.tobytes(), (
                f"{program.name}: suspend/resume round-trip diverged"
            )

    def test_roundtrip_matches_uninterrupted_run(self, small_taskset, fuzzed):
        self.assert_roundtrips(small_taskset, fuzzed[:6])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_roundtrip_matches_uninterrupted_run_on_hostile_panel(
        self, hostile_taskset, fuzzed
    ):
        self.assert_roundtrips(
            hostile_taskset, fuzzed[:6] + raw_input_family()[:1]
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lanes", [None, 2])
    def test_resumed_tape_sanitizes_restored_state(
        self, small_taskset, lanes, salt, hostile_values
    ):
        """A tape fed outside state reads it as if it were raw.

        The state is doctored with hostile values, which no clean run
        stores; a tape that took it in through ``resume()`` or through an
        adopted persisted snapshot must still sanitize every read of it, as
        the interpreter does, although ``get_row`` / ``s_max`` / ``s_add``
        could skip steps on clean inputs.  Restoring the tape's own snapshot
        keeps those bind-time skips.
        """
        v1, m2 = Operand.vector(1), Operand.matrix(2)
        s3, s5 = Operand.scalar(3), Operand.scalar(5)
        program = AlphaProgram(
            setup=[],
            predict=[
                Operation.make("get_row", (m2,), v1, {"row": 1}),
                Operation.make("v_mean", (v1,), s3),
                Operation.make("s_max", (s3, s5), s3),
                Operation.make("s_add", (s3, s5), PREDICTION),
            ],
            update=[
                Operation.make("m_add", (INPUT_MATRIX, m2), m2),
                Operation.make("s_mul", (s3, s5), s5),
            ],
            name="doctored",
        )
        evaluator = make_evaluator(small_taskset)
        features = small_taskset.split_features("valid")[:5]
        labels = small_taskset.split_labels("valid")[:5]
        rng = np.random.default_rng(5)
        doctored = {
            "m2": salt(np.ones(features.shape[1:]), 3, rng),
            "s5": hostile_values[np.arange(features.shape[1])
                                 % hostile_values.size],
        }

        reference = make_backend(program, evaluator.make_context(),
                                 "interpreter")
        reference.run_setup()
        for name, value in doctored.items():
            reference._memory.write(Operand.parse(name), value)

        backend = make_backend(program, evaluator.make_context())
        backend.run_setup()
        (state,) = backend.suspend()
        state.operands.update(doctored)

        def sanitize_steps(tape):
            return [(entry.clip, entry.scan) for entry in tape._entries]

        def fed(how):
            if lanes is None:
                tape = make_backend(program, evaluator.make_context())
                states = [state]
            else:
                tape = StackedAlpha(
                    [compile_program(program)] * lanes,
                    evaluator.make_context(),
                )
                states = [state] * lanes
            if how == "resume":
                tape.resume(states)
            else:
                tape.run_setup()
                bound = sanitize_steps(tape)
                assert not all(clip and scan for clip, scan in bound)
                tape.restore(tape.snapshot())
                assert sanitize_steps(tape) == bound
                tape.restore(tape.adopt(states))
            assert all(clip and scan for clip, scan in sanitize_steps(tape))
            return tape

        tapes = [fed("resume"), fed("adopt")]
        for day in range(features.shape[0]):
            for executor in (reference, *tapes):
                executor.set_input(features[day])
                executor.run_predict()
            expected = reference.prediction.tobytes()
            for tape in tapes:
                for lane in tape.prediction:
                    assert lane.tobytes() == expected, f"diverged on day {day}"
            for executor in (reference, *tapes):
                executor.set_label(labels[day])
                executor.run_update()


class TestProtocolDirectParity:
    def test_run_protocol_equals_evaluator_run(self, small_taskset, fuzzed):
        """Driving the protocol by hand equals the facade, bit for bit."""
        evaluator = make_evaluator(small_taskset)
        for program in fuzzed[:4]:
            backend = make_backend(
                program, evaluator.make_context(), evaluator.engine
            )
            manual = run_protocol(
                backend,
                small_taskset,
                splits=SPLITS,
                day_indices=evaluator.train_day_indices(),
            )
            facade = evaluator.run(program, splits=SPLITS)
            for split in SPLITS:
                assert manual[split].shape[1] == 1  # one lane
                assert manual[split].tobytes() == facade[split].tobytes()
