"""FleetEngine tests: dedup, shared-pass evaluation, day-major serving."""

import numpy as np
import pytest

from repro.core import AlphaEvaluator, get_initialization
from repro.engine import FleetEngine
from repro.errors import StreamError


@pytest.fixture()
def programs(dims, mutator):
    bases = [get_initialization(code, dims, seed=3) for code in ("D", "NN", "R")]
    extra = mutator.mutate(bases[0])
    return [program.copy(name=f"alpha_{i}")
            for i, program in enumerate(bases + [extra])]


class TestMembership:
    def test_duplicate_program_shares_backend(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        first = fleet.add(programs[0], name="a")
        twin = fleet.add(programs[0], name="b")
        assert not first.deduplicated and twin.deduplicated
        assert twin.key == first.key
        assert fleet.num_members == 2 and fleet.num_unique == 1

    def test_dedup_off_keeps_every_member_distinct(self, evaluator, programs):
        fleet = FleetEngine(evaluator, dedup=False)
        fleet.add(programs[0], name="a")
        twin = fleet.add(programs[0], name="b")
        assert not twin.deduplicated
        assert fleet.num_unique == 2

    def test_duplicate_name_rejected(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        fleet.add(programs[0], name="a")
        with pytest.raises(StreamError, match="already registered"):
            fleet.add(programs[1], name="a")

    def test_invalid_program_rejected_at_registration(self, evaluator):
        """Structural errors surface at add(), not later mid-warm-start."""
        from repro.core import AlphaProgram, Operand, Operation
        from repro.errors import ProgramError

        bad = AlphaProgram(predict=[
            Operation("s_add", (Operand.scalar(99), Operand.scalar(0)),
                      Operand.scalar(1)),
        ], name="bad")
        fleet = FleetEngine(evaluator)
        with pytest.raises(ProgramError):
            fleet.add(bad)
        assert fleet.num_members == 0


class TestOfflineEvaluation:
    def test_run_matches_per_program_evaluator_bitwise(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        for program in programs:
            fleet.add(program)
        runs = fleet.run(splits=("valid", "test"))
        for program in programs:
            expected = evaluator.run(program, splits=("valid", "test"))
            for split in ("valid", "test"):
                assert runs[program.name][split].tobytes() == \
                    expected[split].tobytes()

    def test_deduplicated_names_share_panels(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        fleet.add(programs[0], name="a")
        fleet.add(programs[0], name="b")
        runs = fleet.run(splits=("valid",))
        assert runs["a"]["valid"] is runs["b"]["valid"]

    def test_evaluate_attributes_each_members_own_program(self, evaluator, dims):
        """A deduplicated member's result carries *its* program, not the
        representative's (they execute through one backend but remain
        distinct objects with distinct names)."""
        base = get_initialization("D", dims, seed=3)
        twin = base.copy(name="twin_program")
        fleet = FleetEngine(evaluator)
        fleet.add(base, name="a")
        member = fleet.add(twin, name="b")
        assert member.deduplicated
        results = fleet.evaluate()
        assert results["a"].program is base
        assert results["b"].program is twin

    def test_interpreter_fleet_suspend_raises_typed_error(
        self, evaluator, programs
    ):
        from repro.core import AlphaEvaluator

        interpreter = AlphaEvaluator(
            evaluator.taskset, seed=0, max_train_steps=40, engine="interpreter"
        )
        fleet = FleetEngine(interpreter)
        fleet.add(programs[0])
        fleet.warm_start()
        with pytest.raises(StreamError, match="no.*tape protocol"):
            fleet.suspend_tapes()

    def test_evaluate_matches_evaluator_evaluate(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        for program in programs:
            fleet.add(program)
        results = fleet.evaluate()
        for program in programs:
            expected = evaluator.evaluate(program)
            result = results[program.name]
            assert result.fitness == expected.fitness
            assert result.is_valid == expected.is_valid
            assert np.array_equal(result.daily_ic_valid, expected.daily_ic_valid)

    def test_interpreter_fleet_agrees_with_compiled_fleet(
        self, small_taskset, programs
    ):
        panels = []
        for engine in ("interpreter", "compiled"):
            evaluator = AlphaEvaluator(
                small_taskset, seed=0, max_train_steps=40, engine=engine
            )
            fleet = FleetEngine(evaluator)
            for program in programs:
                fleet.add(program)
            panels.append(fleet.run(splits=("valid",)))
        for name in panels[0]:
            assert panels[0][name]["valid"].tobytes() == \
                panels[1][name]["valid"].tobytes()

    def test_run_is_repeatable(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        fleet.add(programs[0])
        first = fleet.run(splits=("valid",))
        second = fleet.run(splits=("valid",))
        name = programs[0].name
        assert first[name]["valid"].tobytes() == second[name]["valid"].tobytes()

    @pytest.mark.parametrize("engine", ["compiled", "interpreter"])
    def test_empty_fleet_runs_nothing(self, evaluator, engine):
        fleet = FleetEngine(evaluator, engine=engine)
        assert fleet.run() == {}
        assert fleet.stack_groups == 0


class TestServing:
    def warm_fleet(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        for program in programs:
            fleet.add(program)
        fleet.warm_start()
        return fleet

    def test_step_bar_matches_offline_inference(
        self, small_taskset, evaluator, programs
    ):
        fleet = self.warm_fleet(evaluator, programs)
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        streamed = {key: [] for key in fleet.executors}
        for day in range(features.shape[0]):
            for key, prediction in fleet.step_bar(features[day]).items():
                streamed[key].append(prediction)
            fleet.reveal(labels[day])
        for program in programs:
            batch = evaluator.run(program, splits=("valid",))["valid"]
            key = fleet.key_of(program.name)
            assert np.asarray(streamed[key]).tobytes() == batch.tobytes()

    def test_warm_start_guards(self, evaluator, programs):
        fleet = FleetEngine(evaluator)
        with pytest.raises(StreamError, match="nothing to warm-start"):
            fleet.warm_start()
        fleet.add(programs[0])
        fleet.warm_start()
        with pytest.raises(StreamError, match="already warm"):
            fleet.warm_start()
        with pytest.raises(StreamError, match="warm fleet"):
            fleet.add(programs[1])

    def test_step_requires_warmth(self, small_taskset, evaluator, programs):
        fleet = FleetEngine(evaluator)
        fleet.add(programs[0])
        with pytest.raises(StreamError, match="warm-started"):
            fleet.step_bar(small_taskset.split_features("valid")[0])

    def test_suspend_resume_roundtrip(self, small_taskset, evaluator, programs):
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")

        reference = self.warm_fleet(evaluator, programs)
        expected = []
        for day in range(10):
            expected.append(reference.step_bar(features[day]))
            reference.reveal(labels[day])

        first = self.warm_fleet(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40), programs
        )
        for day in range(4):
            first.step_bar(features[day])
            first.reveal(labels[day])
        tapes = first.suspend_tapes()

        resumed = FleetEngine(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        )
        for program in programs:
            resumed.add(program)
        resumed.resume_tapes(tapes, days_served=4)
        assert all(ex.days_served == 4 for ex in resumed.executors.values())
        for day in range(4, 10):
            stepped = resumed.step_bar(features[day])
            for key, prediction in stepped.items():
                assert prediction.tobytes() == expected[day][key].tobytes()
            resumed.reveal(labels[day])


class TestFromBackend:
    """Fleets built straight from a data backend (contexts from backends)."""

    def test_from_backend_matches_hand_built_fleet(self, programs):
        from repro.data import MarketConfig, Split, SyntheticBackend

        backend = SyntheticBackend(
            MarketConfig(num_stocks=30, num_days=220), seed=123
        )
        split = Split(train=110, valid=30, test=30)
        fleet = FleetEngine.from_backend(
            backend, programs=programs, split=split, seed=0, max_train_steps=40
        )
        assert fleet.num_members == len(programs)

        hand_built = FleetEngine(
            AlphaEvaluator(backend.build_taskset(split=split), seed=0,
                           max_train_steps=40)
        )
        for program in programs:
            hand_built.add(program)
        left = fleet.run(splits=("valid",))
        right = hand_built.run(splits=("valid",))
        for program in programs:
            assert left[program.name]["valid"].tobytes() == \
                right[program.name]["valid"].tobytes()

    def test_from_backend_accepts_resampled_source(self, programs):
        from repro.data import MarketConfig, ResampledBackend, SyntheticBackend

        weekly = ResampledBackend(
            SyntheticBackend(MarketConfig(num_stocks=20, num_days=420), seed=7),
            "weekly",
        )
        fleet = FleetEngine.from_backend(weekly, programs=programs[:1], seed=0)
        runs = fleet.run(splits=("valid",))
        assert runs[programs[0].name]["valid"].shape[1] == fleet.taskset.num_tasks
