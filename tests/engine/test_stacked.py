"""Stacked fleet kernels: signature grouping, bitwise parity, tape interop.

The stacked tape's contract is the repo-wide one — bitwise parity with
per-program execution and with the interpreter — plus two
subsystem-specific guarantees: programs group strictly by
:func:`~repro.compile.stacked.stack_signature` (structure shared, parameter
values free), and a lane suspended from a group of n resumes into a
one-lane tape, and back.
"""

import numpy as np
import pytest

from repro.compile import StackedAlpha, compile_program, stack_signature
from repro.core.ops import _leading_axis_rank
from repro.config import make_rng
from repro.core import AlphaEvaluator, get_initialization
from repro.core.evolution import CandidateScorer
from repro.core.ops import get_op, sample_params
from repro.core.program import COMPONENTS, Operation
from repro.engine import FleetEngine
from repro.errors import ExecutionError
from repro.obs import TELEMETRY, telemetry_session


def jitter_params(program, dims, rng, name):
    """A params-only child: the parent's tape with resampled parameters.

    The mutator's params-only move produces exactly this shape of candidate,
    so a generation is dominated by members sharing their parent's stack
    signature.
    """
    child = program.copy(name=name)
    for component in COMPONENTS:
        operations = child.component(component)
        for index, operation in enumerate(operations):
            if operation.spec.param_names:
                operations[index] = Operation.make(
                    operation.spec.name, operation.inputs, operation.output,
                    sample_params(operation.spec, dims, rng),
                )
    return child


def make_generation(dims, mutator, jitter_seed=5):
    """A mixed-signature fleet: two param-jittered families plus singletons."""
    rng = make_rng(jitter_seed)
    d_base = get_initialization("D", dims, seed=3)
    nn_base = get_initialization("NN", dims, seed=3)
    r_base = get_initialization("R", dims, seed=3)
    mutant = mutator.mutate(d_base)
    return [
        d_base.copy(name="alpha_0"),
        jitter_params(d_base, dims, rng, "alpha_1"),
        jitter_params(d_base, dims, rng, "alpha_2"),
        nn_base.copy(name="alpha_3"),
        jitter_params(nn_base, dims, rng, "alpha_4"),
        r_base.copy(name="alpha_5"),
        mutant.copy(name="alpha_6"),
    ]


@pytest.fixture()
def generation(dims, mutator):
    return make_generation(dims, mutator)


def build_fleet(evaluator, programs):
    fleet = FleetEngine(evaluator)
    for program in programs:
        fleet.add(program)
    return fleet


def on_engine(evaluator, engine):
    """``evaluator``'s settings on execution engine ``engine``."""
    return AlphaEvaluator(evaluator.taskset,
                          **{**evaluator.settings, "engine": engine})


class TestStackSignature:
    def test_param_jitter_shares_signature(self, dims):
        base = get_initialization("NN", dims, seed=3)
        child = jitter_params(base, dims, make_rng(9), "child")
        assert child.render() != base.render()  # params really resampled
        assert stack_signature(compile_program(child)) == \
            stack_signature(compile_program(base))

    def test_structural_mismatch_differs(self, dims):
        left = compile_program(get_initialization("D", dims, seed=3))
        right = compile_program(get_initialization("NN", dims, seed=3))
        assert stack_signature(left) != stack_signature(right)

    def test_parameter_values_are_masked(self, dims):
        compiled = compile_program(get_initialization("NN", dims, seed=3))
        signature = stack_signature(compiled)
        assert "=*" in signature  # parameters present, values lifted out
        assert "seed=" not in signature.replace("seed=*", "")


class TestStackedAlphaValidation:
    def test_empty_group_rejected(self, evaluator):
        with pytest.raises(ExecutionError, match="empty"):
            StackedAlpha([], evaluator.make_context())

    def test_signature_mismatch_rejected(self, dims, evaluator):
        group = [
            compile_program(get_initialization(code, dims, seed=3))
            for code in ("D", "NN")
        ]
        with pytest.raises(ExecutionError, match="signatures differ"):
            StackedAlpha(group, evaluator.make_context())

    def test_resume_length_mismatch_rejected(self, dims, mutator, evaluator):
        base = get_initialization("D", dims, seed=3)
        group = [compile_program(base),
                 compile_program(jitter_params(base, dims, make_rng(9), "j"))]
        stacked = StackedAlpha(group, evaluator.make_context())
        stacked.run_setup()
        with pytest.raises(ExecutionError, match="expected 2 tape states"):
            stacked.resume(stacked.suspend()[:1])

    def test_resume_foreign_tape_rejected(self, dims, evaluator):
        ctx = evaluator.make_context()
        d_solo = StackedAlpha(
            [compile_program(get_initialization("D", dims, seed=3))], ctx
        )
        nn_solo = StackedAlpha(
            [compile_program(get_initialization("NN", dims, seed=3))], ctx
        )
        d_solo.run_setup()
        with pytest.raises(ExecutionError, match="different compiled"):
            nn_solo.resume(d_solo.suspend())


class TestStackedParity:
    def test_groups_form_and_run_matches_evaluator_bitwise(
        self, evaluator, generation
    ):
        fleet = build_fleet(evaluator, generation)
        assert fleet.stack_groups >= 2  # the D and NN jitter families
        runs = fleet.run(splits=("valid", "test"))
        for program in generation:
            expected = evaluator.run(program, splits=("valid", "test"))
            for split in ("valid", "test"):
                assert runs[program.name][split].tobytes() == \
                    expected[split].tobytes()

    @pytest.mark.parametrize("jitter_seed", [5, 17, 29])
    def test_fuzzed_generations_match_evaluator_and_interpreter(
        self, evaluator, dims, mutator, jitter_seed
    ):
        programs = make_generation(dims, mutator, jitter_seed=jitter_seed)
        stacked = build_fleet(evaluator, programs)
        interpreted = build_fleet(on_engine(evaluator, "interpreter"),
                                  programs)
        assert stacked.stack_groups >= 1 and interpreted.stack_groups == 0
        left = stacked.run(splits=("valid",))
        right = interpreted.run(splits=("valid",))
        for program in programs:
            solo = evaluator.run(program, splits=("valid",))["valid"]
            assert left[program.name]["valid"].tobytes() == solo.tobytes()
            assert right[program.name]["valid"].tobytes() == solo.tobytes()

    def test_evaluate_matches_evaluator_evaluate(self, evaluator, generation):
        fleet = build_fleet(evaluator, generation)
        results = fleet.evaluate()
        for program in generation:
            expected = evaluator.evaluate(program)
            result = results[program.name]
            assert result.fitness == expected.fitness
            assert result.is_valid == expected.is_valid
            assert np.array_equal(
                result.daily_ic_valid, expected.daily_ic_valid
            )

    def test_stacked_serving_matches_offline_inference(
        self, small_taskset, evaluator, generation
    ):
        fleet = build_fleet(evaluator, generation)
        fleet.warm_start()
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        streamed = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                streamed[key].append(prediction)
            fleet.reveal(labels[day])
        for program in generation:
            batch = evaluator.run(program, splits=("valid",))["valid"]
            key = fleet.key_of(program.name)
            assert np.asarray(streamed[key]).tobytes() == batch.tobytes()

    def test_nan_features_served_identically(
        self, small_taskset, evaluator, generation
    ):
        """NaN-bearing bars exercise the raw-input sanitise guard: entries
        reading the feature matrix must keep their NaN scan even where the
        finite-closure skip applies elsewhere.  The interpreter serves the
        reference."""
        features = small_taskset.split_features("valid")[:4].copy()
        features[:, 0, 0, 0] = np.nan
        features[:, -1, :, -1] = np.nan
        labels = small_taskset.split_labels("valid")[:4]
        outputs = []
        for engine in ("compiled", "interpreter"):
            fleet = build_fleet(on_engine(evaluator, engine), generation)
            fleet.warm_start()
            days = []
            for day in range(features.shape[0]):
                days.append(fleet.step_bar(features[day]))
                fleet.reveal(labels[day])
            outputs.append(days)
        for left, right in zip(*outputs):
            assert left.keys() == right.keys()
            for key in left:
                assert left[key].tobytes() == right[key].tobytes()


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hostile_bars_match_one_lane_tapes_and_interpreter(
        self, hostile_taskset, dims, mutator, salt
    ):
        """Bars a third hostile (NaN, ±inf, denormals, -0.0, ±CLIP_VALUE)
        reach every lane through the one shared bar: each lane serves what
        its one-lane tape and the interpreter serve."""
        programs = make_generation(dims, mutator)
        evaluator = AlphaEvaluator(hostile_taskset, seed=0, max_train_steps=40)
        features = salt(hostile_taskset.split_features("valid")[:6], 3,
                        np.random.default_rng(7))
        labels = hostile_taskset.split_labels("valid")[:6]

        def served(fleet):
            fleet.warm_start()
            days = []
            for day in range(features.shape[0]):
                days.append(fleet.step_bar(features[day]))
                fleet.reveal(labels[day])
            return {key: np.array([day[key] for day in days])
                    for key in days[0]}

        stacked = build_fleet(evaluator, programs)
        assert stacked.stack_groups >= 2
        grouped = served(stacked)
        for program in programs:
            key = stacked.key_of(program.name)
            for engine in ("compiled", "interpreter"):
                alone = served(build_fleet(on_engine(evaluator, engine),
                                           [program]))
                assert grouped[key].tobytes() == alone[key].tobytes(), (
                    program.name, engine)


class TestStackedKernels:
    def test_stacked_rank_matches_registry_on_ties(self):
        rank = get_op("rank").func
        values = make_rng(3).integers(-2, 3, size=(4, 9)).astype(float)
        expected = np.stack([rank(None, (lane,), {}) for lane in values])
        assert _leading_axis_rank(values).tobytes() == expected.tobytes()

    def test_stacked_rank_single_column(self):
        assert _leading_axis_rank(np.ones((3, 1))).tobytes() == \
            np.zeros((3, 1)).tobytes()


class TestSuspendResume:
    def serve(self, fleet, features, labels, start, stop):
        days = []
        for day in range(start, stop):
            days.append(fleet.step_bar(features[day]))
            fleet.reveal(labels[day])
        return days

    def test_group_checkpoint_resumes_into_a_fresh_fleet(
        self, small_taskset, evaluator, generation
    ):
        """A checkpoint cut from group tapes resumes bitwise into a fresh
        fleet (and the reference never pauses)."""
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")

        reference = build_fleet(evaluator, generation)
        reference.warm_start()
        expected = self.serve(reference, features, labels, 0, 8)

        first = build_fleet(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40),
            generation,
        )
        assert first.stack_groups >= 1
        first.warm_start()
        for day, stepped in enumerate(self.serve(first, features, labels, 0, 3)):
            for key, prediction in stepped.items():
                assert prediction.tobytes() == expected[day][key].tobytes()
        tapes = first.suspend_tapes()

        resumed = build_fleet(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40),
            generation,
        )
        resumed.resume_tapes(tapes, days_served=3)
        assert all(ex.days_served == 3 for ex in resumed.executors.values())
        for day, stepped in zip(
            range(3, 8), self.serve(resumed, features, labels, 3, 8)
        ):
            for key, prediction in stepped.items():
                assert prediction.tobytes() == expected[day][key].tobytes()

    @pytest.mark.parametrize("direction", ["group-to-lane", "lane-to-group"])
    def test_state_moves_between_a_group_and_a_one_lane_fleet(
        self, small_taskset, evaluator, generation, direction
    ):
        """One key's suspended state resumes bitwise between the key's
        n-lane group and a one-lane fleet that holds only that key."""
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")

        def fresh(programs):
            return build_fleet(
                AlphaEvaluator(small_taskset, seed=0, max_train_steps=40),
                programs,
            )

        program = generation[1]  # a member of the D jitter family
        group, lane = fresh(generation), fresh([program])
        key = group.key_of(program.name)
        assert lane.key_of(program.name) == key
        for fleet in (group, lane):
            fleet.warm_start()
            self.serve(fleet, features, labels, 0, 3)
        assert group.executors[key].executor.num_programs >= 2
        assert lane.executors[key].executor.num_programs == 1

        reference = build_fleet(evaluator, generation)
        reference.warm_start()
        expected = self.serve(reference, features, labels, 0, 7)
        if direction == "group-to-lane":
            resumed = fresh([program])
            resumed.resume_tapes({key: group.suspend_tapes()[key]},
                                 days_served=3)
        else:
            # The key's state comes from the one-lane fleet; the group's
            # other lanes from the group itself.
            tapes = group.suspend_tapes()
            tapes[key] = lane.suspend_tapes()[key]
            resumed = fresh(generation)
            resumed.resume_tapes(tapes, days_served=3)
        for day, stepped in zip(
            range(3, 7), self.serve(resumed, features, labels, 3, 7)
        ):
            for served_key, prediction in stepped.items():
                assert prediction.tobytes() == \
                    expected[day][served_key].tobytes()


class TestMiningPath:
    def test_score_batch_matches_per_program_evaluator(
        self, evaluator, generation
    ):
        """The scorer's internal fleet stacks transparently; its reports
        must stay bitwise-equal to solo evaluation (the mining-path parity
        the dedup/pruning cache already guarantees per program)."""
        scorer = CandidateScorer(evaluator)
        reports = scorer.score_batch(list(generation))
        for program, report in zip(generation, reports):
            expected = evaluator.evaluate(program).report
            assert report.fitness == expected.fitness
            assert report.is_valid == expected.is_valid
            same_ic = report.ic_valid == expected.ic_valid or (
                np.isnan(report.ic_valid) and np.isnan(expected.ic_valid)
            )
            assert same_ic
            assert np.asarray(report.daily_ic_valid).tobytes() == \
                np.asarray(expected.daily_ic_valid).tobytes()


class TestTelemetry:
    def test_counters_record_stacked_execution(self, evaluator, generation):
        with telemetry_session():
            fleet = build_fleet(evaluator, generation)
            fleet.run(splits=("valid",))
            snapshot = TELEMETRY.snapshot()
        groups = snapshot["engine.fleet.stack_groups"]["value"]
        members = snapshot["engine.fleet.stacked_programs"]["value"]
        assert groups >= 1
        assert members >= 2 * groups
        assert snapshot["engine.fleet.stacked_kernel_calls"]["value"] > 0
        assert not TELEMETRY.enabled

    def test_counters_silent_when_disabled(self, evaluator, generation):
        def stacked_counts():
            snapshot = TELEMETRY.snapshot()
            return tuple(
                snapshot.get(f"engine.fleet.{name}", {}).get("value", 0)
                for name in ("stack_groups", "stacked_programs",
                             "stacked_kernel_calls")
            )

        before = stacked_counts()
        fleet = build_fleet(evaluator, generation)
        fleet.run(splits=("valid",))
        assert not TELEMETRY.enabled
        assert stacked_counts() == before

    def test_server_stats_expose_stack_groups(self, small_taskset, generation):
        from repro.stream import AlphaServer

        server = AlphaServer(small_taskset, seed=0, max_train_steps=40)
        for program in generation:
            server.register(program)
        stats = server.stats()
        assert stats["stack_groups"] == server.fleet.stack_groups
        assert stats["stack_groups"] >= 1
