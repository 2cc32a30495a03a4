"""Tests for the multi-alpha batch server (:class:`AlphaServer`)."""

import numpy as np
import pytest

from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    INPUT_MATRIX,
    Operand,
    Operation,
    PREDICTION,
    get_initialization,
)
from repro.errors import StreamError
from repro.stream import AlphaServer, load_state, save_state


def op(name, inputs, output, params=None):
    return Operation.make(name, inputs, output, params)


def mirror_pair():
    """Two programs that differ only in commutative operand order."""
    s3, s4 = Operand.scalar(3), Operand.scalar(4)
    base = [
        op("get_scalar", (INPUT_MATRIX,), s3, {"row": 0, "col": 0}),
        op("get_scalar", (INPUT_MATRIX,), s4, {"row": 1, "col": 1}),
    ]
    left = AlphaProgram(
        predict=base + [op("s_add", (s3, s4), PREDICTION)], name="left"
    )
    right = AlphaProgram(
        predict=[base[0], base[1], op("s_add", (s4, s3), PREDICTION)],
        name="right",
    )
    return left, right


@pytest.fixture()
def fleet(dims):
    return [
        get_initialization("D", dims, seed=3),
        get_initialization("NN", dims, seed=3),
    ]


def make_server(taskset, programs, warm=True, seed=0, names=None):
    server = AlphaServer(taskset, seed=seed, max_train_steps=40)
    for index, program in enumerate(programs):
        server.register(
            program, name=names[index] if names else f"alpha_{index}"
        )
    if warm:
        server.warm_start()
    return server


class TestRegistration:
    def test_identical_program_shares_executor(self, small_taskset, dims):
        program = get_initialization("D", dims, seed=3)
        server = make_server(
            small_taskset, [program, program], warm=False,
            names=["first", "second"],
        )
        assert server.num_registered == 2
        assert server.num_unique == 1
        assert [r.deduplicated for r in server.registrations] == [False, True]

    def test_commutative_mirror_shares_executor(self, small_taskset):
        left, right = mirror_pair()
        server = make_server(small_taskset, [left, right], warm=False)
        assert server.num_unique == 1
        assert server.registrations[1].deduplicated

    def test_distinct_programs_get_distinct_executors(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet, warm=False)
        assert server.num_unique == 2

    def test_duplicate_name_rejected(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet[:1], warm=False, names=["a"])
        with pytest.raises(StreamError, match="already registered"):
            server.register(fleet[1], name="a")

    def test_register_after_warm_start_rejected(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet[:1])
        with pytest.raises(StreamError, match="warm server"):
            server.register(fleet[1], name="late")

    def test_redundant_program_is_flagged(self, small_taskset):
        constant = AlphaProgram(
            predict=[op("s_const", (), PREDICTION, {"constant": 1.5})],
            name="constant",
        )
        registration = make_server(
            small_taskset, [constant], warm=False
        ).registrations[0]
        assert registration.redundant

    def test_warm_start_requires_registrations(self, small_taskset):
        with pytest.raises(StreamError, match="no alphas registered"):
            AlphaServer(small_taskset).warm_start()


class TestServing:
    def test_on_bar_requires_warm_start(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet, warm=False)
        with pytest.raises(StreamError, match="warm-started"):
            server.on_bar(small_taskset.split_features("valid")[0])

    def test_fan_out_covers_every_name(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet + [fleet[0]])
        predictions = server.on_bar(small_taskset.split_features("valid")[0])
        assert set(predictions) == {"alpha_0", "alpha_1", "alpha_2"}
        # the deduplicated name references the representative's array
        assert predictions["alpha_2"] is predictions["alpha_0"]
        assert predictions["alpha_1"] is not predictions["alpha_0"]

    def test_matches_offline_evaluator_bitwise(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        offline = AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)
        num_tasks = small_taskset.num_tasks
        served = {name: [] for name in server.names}
        for split in ("valid", "test"):
            features = small_taskset.split_features(split)
            labels = small_taskset.split_labels(split)
            for day in range(features.shape[0]):
                predictions = server.on_bar(features[day])
                for name in server.names:
                    served[name].append(predictions[name])
                server.reveal(labels[day])
        for index, program in enumerate(fleet):
            batch = offline.run(program, splits=("valid", "test"))
            stacked = np.asarray(served[f"alpha_{index}"])
            expected = np.concatenate([batch["valid"], batch["test"]])
            assert stacked.shape == (expected.shape[0], num_tasks)
            assert stacked.tobytes() == expected.tobytes()

    def test_stats_track_fleet_and_latency(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet + [fleet[1]])
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        for day in range(3):
            server.on_bar(features[day])
            server.reveal(labels[day])
        stats = server.stats()
        assert stats["registered_alphas"] == 3
        assert stats["unique_executors"] == 2
        assert stats["deduplicated_alphas"] == 1
        assert stats["days_served"] == 3
        assert stats["mean_bar_latency_ms"] > 0
        assert stats["alpha_days_per_second"] > 0


class TestClientBarLayout:
    def test_strided_bars_serve_and_correct_like_contiguous_ones(
        self, small_taskset, fleet
    ):
        """A row of the task set's window view is a strided bar: the server
        stores it once and serves it, and a strided correction, bit for
        bit like their C-ordered copies."""
        features = small_taskset.split_features("valid")
        labels = small_taskset.split_labels("valid")
        assert not features[0].flags.c_contiguous
        strided = make_server(small_taskset, fleet)
        contiguous = make_server(small_taskset, fleet)
        for day in range(12):
            got = strided.on_bar(features[day])
            want = contiguous.on_bar(np.ascontiguousarray(features[day]))
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()
            strided.reveal(labels[day])
            contiguous.reveal(labels[day])
        patch = np.asfortranarray(features[3] * 1.01)
        got = strided.correct_bar(3, features=patch)
        want = contiguous.correct_bar(3, features=np.ascontiguousarray(patch))
        for name in want:
            assert got[name].tobytes() == want[name].tobytes()
        state = strided.suspend()
        assert state.history[0].tobytes() == contiguous.suspend().history[0].tobytes()

    def test_a_rejected_bar_leaves_no_history(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        with pytest.raises(ValueError):
            server.on_bar(np.zeros((2, 2)))
        bar = small_taskset.split_features("valid")[0]
        server.on_bar(bar)
        server.reveal(small_taskset.split_labels("valid")[0])
        assert server.suspend().history[0].shape == (1,) + bar.shape


class TestSuspendResume:
    def stream_days(self, server, taskset, start, stop, sink=None):
        features = taskset.split_features("valid")
        labels = taskset.split_labels("valid")
        for day in range(start, stop):
            predictions = server.on_bar(features[day])
            if sink is not None:
                sink.append(predictions)
            server.reveal(labels[day])

    def test_roundtrip_through_state_file(self, small_taskset, fleet, tmp_path):
        reference = make_server(small_taskset, fleet)
        expected = []
        self.stream_days(reference, small_taskset, 0, 20, expected)

        first = make_server(small_taskset, fleet)
        self.stream_days(first, small_taskset, 0, 8)
        path = tmp_path / "fleet.state"
        save_state(str(path), first.suspend())

        resumed = make_server(small_taskset, fleet, warm=False)
        resumed.resume(load_state(str(path)))
        assert resumed.days_served == 8
        # the per-executor day counters follow the fleet counter
        assert all(
            executor.days_served == 8
            for executor in resumed.fleet.executors.values()
        )
        continued = []
        self.stream_days(resumed, small_taskset, 8, 20, continued)
        for offset, predictions in enumerate(continued):
            for name, values in predictions.items():
                assert values.tobytes() == expected[8 + offset][name].tobytes()

    def test_resume_rejects_other_fleet(self, small_taskset, fleet, tmp_path):
        server = make_server(small_taskset, fleet)
        state = server.suspend()
        other = make_server(small_taskset, fleet[:1], warm=False)
        with pytest.raises(StreamError, match="registration table"):
            other.resume(state)

    def test_resume_rejects_other_data(self, small_taskset, fleet):
        """Same shapes, same seed, different market data -> loud failure."""
        from repro.data import TaskSet

        state = make_server(small_taskset, fleet).suspend()
        perturbed = TaskSet(
            features=small_taskset.features,
            labels=small_taskset.labels + 1e-9,
            dates=small_taskset.dates,
            taxonomy=small_taskset.taxonomy,
            split=small_taskset.split,
            tickers=small_taskset.tickers,
        )
        other = make_server(perturbed, fleet, warm=False)
        with pytest.raises(StreamError, match="different task set"):
            other.resume(state)

    def test_resume_rejects_other_seed(self, small_taskset, fleet):
        state = make_server(small_taskset, fleet).suspend()
        other = make_server(small_taskset, fleet, warm=False, seed=1)
        with pytest.raises(StreamError, match="base seed"):
            other.resume(state)

    def test_resume_into_warm_server_rejected(self, small_taskset, fleet):
        state = make_server(small_taskset, fleet).suspend()
        warm = make_server(small_taskset, fleet)
        with pytest.raises(StreamError, match="already ran"):
            warm.resume(state)

    def test_suspend_requires_warm_server(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet, warm=False)
        with pytest.raises(StreamError, match="never warmed"):
            server.suspend()


class TestFromBackend:
    """Servers warm-started straight from a data backend."""

    def test_from_backend_parity_with_taskset_server(self, fleet):
        from repro.data import MarketConfig, Split, SyntheticBackend

        backend = SyntheticBackend(
            MarketConfig(num_stocks=30, num_days=220), seed=123
        )
        split = Split(train=110, valid=30, test=30)
        server = AlphaServer.from_backend(
            backend, split=split, seed=0, max_train_steps=40
        )
        for index, program in enumerate(fleet):
            server.register(program, name=f"alpha_{index}")
        server.warm_start()

        reference = make_server(backend.build_taskset(split=split), fleet)
        features = server.taskset.split_features("valid")
        labels = server.taskset.split_labels("valid")
        for day in range(3):
            served = server.on_bar(features[day])
            expected = reference.on_bar(features[day])
            for name in served:
                assert served[name].tobytes() == expected[name].tobytes()
            server.reveal(labels[day])
            reference.reveal(labels[day])

    def test_from_backend_file_source(self, small_panel, tmp_path, fleet):
        from repro.data import FileBackend, Split, export_panel_csv

        export_panel_csv(small_panel, tmp_path)
        backend = FileBackend(tmp_path, sector_map=tmp_path / "sectors.txt")
        server = AlphaServer.from_backend(
            backend, split=Split(train=110, valid=30, test=30), seed=0,
            max_train_steps=40,
        )
        server.register(fleet[0], name="alpha_file")
        server.warm_start()
        prediction = server.on_bar(server.taskset.split_features("valid")[0])
        assert prediction["alpha_file"].shape == (server.taskset.num_tasks,)
