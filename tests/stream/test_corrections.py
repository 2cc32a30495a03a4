"""Late point corrections through the serving stack: ``correct_bar`` et al.

The serving-layer face of bounded delta-replay: a correction to an
already-served bar replays only the invalidated suffix, bitwise-identical
to a full offline recompute over the corrected history — across fleets,
stacked groups, suspend/resume round trips through serialized state, and
the driver/CLI/scenario surfaces that inject corrections.  The mixed-fleet
cases also run on the hostile panel (NaN, ±inf, denormals, -0.0 and the
clip bounds): a replay restores the tape's own snapshots and keeps its
bind-time sanitize skips, so these cases guard that rule.
"""

import argparse
import json

import numpy as np
import pytest

from repro.cli import parse_corrections
from repro.config import make_rng
from repro.core import (
    INPUT_MATRIX,
    PREDICTION,
    AlphaEvaluator,
    AlphaProgram,
    Dimensions,
    Operand,
    Operation,
    get_initialization,
)
from repro.core.ops import sample_params
from repro.core.program import COMPONENTS
from repro.data import (
    CorruptionSpec,
    FileBackend,
    MarketConfig,
    Split,
    SyntheticMarket,
    build_taskset,
    export_panel_csv,
    inject_corruption,
)
from repro.errors import ExecutionError, StreamError
from repro.obs import TELEMETRY, telemetry_session
from repro.scenarios import get_scenario, scenario_names
from repro.stream import (
    AlphaServer,
    BarCorrection,
    CorrectionRecord,
    OnlineBacktestDriver,
    load_state,
    save_state,
)
from repro.stream.server import SERVER_STATE_VERSION

SERVE_DAYS = 14

#: ``(day, feature scale, label scale)``: a shallow correction, one reaching
#: beyond the 8-day snapshot ring, then two out of order.
CORRECTIONS = ((12, 1.01, None), (2, 0.99, 1.02), (9, None, 0.98),
               (4, 1.02, None))


@pytest.fixture()
def fleet(dims):
    return [
        get_initialization("D", dims, seed=3),
        get_initialization("NN", dims, seed=3),
    ]


def param_twin(program, dims, rng, name):
    """``program`` with every parameter resampled: same stack signature."""
    twin = program.copy(name=name)
    for component in COMPONENTS:
        operations = twin.component(component)
        for index, operation in enumerate(operations):
            if operation.spec.param_names:
                operations[index] = Operation.make(
                    operation.spec.name, operation.inputs, operation.output,
                    sample_params(operation.spec, dims, rng),
                )
    return twin


def recurrent_alpha(row=0, combine="s_add", name="recurrent"):
    """An accumulator ``Predict()`` carries across days: unbounded lookback."""
    s3, s4 = Operand.scalar(3), Operand.scalar(4)
    return AlphaProgram(
        setup=[],
        predict=[
            Operation.make("get_scalar", (INPUT_MATRIX,), s4,
                           {"row": row, "col": 0}),
            Operation.make(combine, (s3, s4), s3),
            Operation.make("s_add", (s3, s4), PREDICTION),
        ],
        update=[],
        name=name,
    )


@pytest.fixture()
def mixed_fleet(dims):
    """Three stack groups (one of unbounded lookback) plus two singletons."""
    rng = make_rng(5)
    d = get_initialization("D", dims, seed=3)
    nn = get_initialization("NN", dims, seed=3)
    return [
        d, param_twin(d, dims, rng, "d_twin"),
        param_twin(d, dims, rng, "d_twin_2"),
        nn, param_twin(nn, dims, rng, "nn_twin"),
        recurrent_alpha(row=0), recurrent_alpha(row=2, name="recurrent_2"),
        recurrent_alpha(combine="s_sub", name="recurrent_sub"),
        get_initialization("R", dims, seed=3),
    ]


def offline_reference(taskset, server, features, labels):
    """Offline evaluator over the served (already-corrected) history."""
    import dataclasses

    full_features = np.array(taskset.features, copy=True)
    full_labels = np.array(taskset.labels, copy=True)
    start = taskset.split.train
    full_features[start:start + SERVE_DAYS] = features[:SERVE_DAYS]
    full_labels[start:start + SERVE_DAYS] = labels[:SERVE_DAYS]
    patched = dataclasses.replace(
        taskset, features=full_features, labels=full_labels
    )
    reference = AlphaEvaluator(patched, seed=0, max_train_steps=40)
    reference._base_seed = server.base_seed
    return reference


def apply_correction(servers, features, labels, day, feature_scale,
                     label_scale):
    """Patch ``features``/``labels`` in place and send the correction to
    every server; returns each server's corrected suffix."""
    corrected = {}
    if feature_scale is not None:
        features[day] = features[day] * feature_scale
        corrected["features"] = features[day]
    if label_scale is not None:
        labels[day] = labels[day] * label_scale
        corrected["labels"] = labels[day]
    return [server.correct_bar(day, **corrected) for server in servers]


def assert_matches_offline(reference, programs, served, start, stop, what):
    """Every name's ``served`` rows equal offline days ``start .. stop``."""
    for index, program in enumerate(programs):
        batch = reference.run(program, splits=("valid",))["valid"]
        assert (served[f"alpha_{index}"].tobytes()
                == batch[start:stop].tobytes()), (
            f"alpha_{index} ({program.name}) diverged {what}"
        )


def make_server(taskset, programs, warm=True, seed=0):
    server = AlphaServer(taskset, seed=seed, max_train_steps=40)
    for index, program in enumerate(programs):
        server.register(program, name=f"alpha_{index}")
    if warm:
        server.warm_start()
    return server


def serve_days(server, features, labels, start, stop):
    served = []
    for day in range(start, stop):
        served.append(server.on_bar(features[day]))
        server.reveal(labels[day])
    return served


def valid_history(taskset):
    return (taskset.split_features("valid"), taskset.split_labels("valid"))


class TestCorrectBarGuards:
    def test_cold_server_raises(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet, warm=False)
        with pytest.raises(StreamError, match="warm"):
            server.correct_bar(0, labels=np.zeros(small_taskset.num_tasks))

    def test_empty_correction_raises(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        features, labels = valid_history(small_taskset)
        serve_days(server, features, labels, 0, 2)
        with pytest.raises(StreamError, match="features or labels"):
            server.correct_bar(0)

    def test_unserved_day_raises(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        features, labels = valid_history(small_taskset)
        serve_days(server, features, labels, 0, 2)
        with pytest.raises(StreamError, match="2 days served"):
            server.correct_bar(2, labels=labels[0])

    def test_pending_label_raises(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        features, labels = valid_history(small_taskset)
        serve_days(server, features, labels, 0, 2)
        server.on_bar(features[2])
        with pytest.raises(StreamError, match="incomplete"):
            server.correct_bar(0, labels=labels[0])

    def test_bad_shapes_raise(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        features, labels = valid_history(small_taskset)
        serve_days(server, features, labels, 0, 2)
        with pytest.raises(StreamError, match="corrected features"):
            server.correct_bar(0, features=features[0][:, :, :-1])
        with pytest.raises(StreamError, match="corrected labels"):
            server.correct_bar(0, labels=labels[0][:-1])


class TestCorrectBarParity:
    def corrected_reference(self, small_taskset, server, features, labels):
        """Offline evaluator over the served (already-corrected) history."""
        return offline_reference(small_taskset, server, features, labels)

    def assert_corrections_match_offline(self, taskset, programs):
        server = make_server(taskset, programs)
        assert server.fleet.stack_groups == 3
        assert server.num_unique == len(programs)
        features = np.array(valid_history(taskset)[0], copy=True)
        labels = np.array(valid_history(taskset)[1], copy=True)
        serve_days(server, features, labels, 0, SERVE_DAYS)
        for day, feature_scale, label_scale in CORRECTIONS:
            suffix, = apply_correction([server], features, labels, day,
                                       feature_scale, label_scale)
            reference = offline_reference(taskset, server, features, labels)
            assert_matches_offline(reference, programs, suffix, day,
                                   SERVE_DAYS, f"correcting day {day}")
        tail = serve_days(server, features, labels, SERVE_DAYS,
                          SERVE_DAYS + 3)
        streamed = {
            name: np.array([bar[name] for bar in tail]) for name in tail[0]
        }
        assert_matches_offline(reference, programs, streamed, SERVE_DAYS,
                               SERVE_DAYS + 3, "serving after corrections")

    def test_stacked_and_solo_corrections_match_offline_recompute(
        self, small_taskset, mixed_fleet
    ):
        self.assert_corrections_match_offline(small_taskset, mixed_fleet)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrections_match_offline_recompute_on_hostile_panel(
        self, hostile_taskset, mixed_fleet
    ):
        served = hostile_taskset.split_features("valid")[:SERVE_DAYS]
        assert not np.isfinite(served).all()
        self.assert_corrections_match_offline(hostile_taskset, mixed_fleet)

    def test_correct_bar_matches_offline_recompute(
        self, small_taskset, fleet
    ):
        server = make_server(small_taskset, fleet)
        features = np.array(valid_history(small_taskset)[0], copy=True)
        labels = np.array(valid_history(small_taskset)[1], copy=True)
        serve_days(server, features, labels, 0, SERVE_DAYS)

        day = SERVE_DAYS - 5
        features[day] = features[day] * 1.01
        labels[day] = labels[day] * 0.99
        suffix = server.correct_bar(
            day, features=features[day], labels=labels[day]
        )

        reference = self.corrected_reference(
            small_taskset, server, features, labels
        )
        for index, program in enumerate(fleet):
            batch = reference.run(program, splits=("valid",))["valid"]
            assert (suffix[f"alpha_{index}"].tobytes()
                    == batch[day:SERVE_DAYS].tobytes())
        # The corrected rolling state serves the future like the batch path.
        tail = serve_days(server, features, labels, SERVE_DAYS,
                          SERVE_DAYS + 3)
        for index, program in enumerate(fleet):
            batch = reference.run(program, splits=("valid",))["valid"]
            streamed = np.array(
                [bar[f"alpha_{index}"] for bar in tail]
            )
            assert streamed.tobytes() == \
                batch[SERVE_DAYS:SERVE_DAYS + 3].tobytes()

    def test_correction_records_and_day_count(self, small_taskset, fleet):
        server = make_server(small_taskset, fleet)
        features, labels = valid_history(small_taskset)
        serve_days(server, features, labels, 0, SERVE_DAYS)
        server.correct_bar(4, labels=labels[4] * 2.0)
        assert server.days_served == SERVE_DAYS  # corrections do not re-serve
        record = server.corrections[-1]
        assert isinstance(record, CorrectionRecord)
        assert record.day == 4
        assert record.days_served == SERVE_DAYS
        assert not record.features_corrected
        assert record.labels_corrected
        assert 0 < record.replayed_days <= SERVE_DAYS

    def test_telemetry_counters(self, small_taskset, fleet):
        with telemetry_session():
            server = make_server(small_taskset, fleet)
            features, labels = valid_history(small_taskset)
            serve_days(server, features, labels, 0, SERVE_DAYS)
            server.correct_bar(SERVE_DAYS - 2, labels=labels[2])
            snapshot = TELEMETRY.snapshot()
        assert snapshot["stream.corrections"]["value"] == 1
        replayed = snapshot["stream.replay_days"]["value"]
        assert replayed == server.corrections[-1].replayed_days
        warm_days = len(server.evaluator.train_day_indices())
        assert snapshot["stream.replay_days_saved"]["value"] == (
            warm_days + SERVE_DAYS - replayed
        )


class TestDriverCorrections:
    def test_apply_corrections_verifies_bitwise(self, small_taskset, fleet):
        driver = OnlineBacktestDriver(
            small_taskset, fleet, seed=0, max_train_steps=40
        )
        server = driver.build_server()
        served = driver.stream(server)
        metadata = driver.apply_corrections(server, served, [
            BarCorrection(day=3, feature_scale=1.01),
            BarCorrection(day=40, label_scale=0.98),
            BarCorrection(day=10, feature_scale=0.99, label_scale=1.02),
        ])
        assert metadata["count"] == 3
        assert metadata["parity"] is True
        assert metadata["violations"] == []
        assert [record["day"] for record in metadata["records"]] == [3, 40, 10]
        assert all(record["replayed_days"] > 0
                   for record in metadata["records"])

    def test_out_of_range_correction_raises(self, small_taskset, fleet):
        driver = OnlineBacktestDriver(
            small_taskset, fleet, seed=0, max_train_steps=40
        )
        server = driver.build_server()
        served = driver.stream(server)
        with pytest.raises(StreamError, match="outside"):
            driver.apply_corrections(server, served, [
                BarCorrection(day=999, feature_scale=1.01),
            ])

    def test_bar_correction_must_change_something(self):
        with pytest.raises(StreamError, match="neither"):
            BarCorrection(day=3)


class TestRepairedPanelCorrections:
    """Repairs composed with delta-replay: a dirty directory loaded under
    the ``robust`` policy, then corrected mid-serve, must stay bitwise
    identical to a fresh offline evaluator over the repaired-then-patched
    history — the repair layer cannot perturb the correction contract."""

    @pytest.fixture(scope="class")
    def repaired_taskset(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("dirty-serve") / "panel"
        panel = SyntheticMarket(
            MarketConfig(num_stocks=16, num_days=220), seed=31
        ).generate()
        export_panel_csv(panel, directory)
        inject_corruption(
            directory, CorruptionSpec(events=1, seed=17),
            exclude=("sectors.txt",),
        )
        repaired = FileBackend(
            directory, sector_map=directory / "sectors.txt", repair="robust"
        ).load_panel()
        return build_taskset(
            repaired, split=Split(train=110, valid=30, test=30)
        )

    @pytest.fixture(scope="class")
    def repaired_fleet(self, repaired_taskset):
        dims = Dimensions(
            repaired_taskset.num_features, repaired_taskset.window
        )
        return [
            get_initialization("D", dims, seed=3),
            get_initialization("NN", dims, seed=3),
        ]

    def test_apply_corrections_stays_bitwise(
        self, repaired_taskset, repaired_fleet
    ):
        driver = OnlineBacktestDriver(
            repaired_taskset, repaired_fleet, seed=0, max_train_steps=40
        )
        server = driver.build_server()
        served = driver.stream(server)
        metadata = driver.apply_corrections(server, served, [
            BarCorrection(day=3, feature_scale=1.01),
            BarCorrection(day=10, feature_scale=0.99, label_scale=1.02),
        ])
        assert metadata["count"] == 2
        assert metadata["parity"] is True
        assert metadata["violations"] == []

    def test_correct_bar_matches_offline_recompute(
        self, repaired_taskset, repaired_fleet
    ):
        import dataclasses

        server = make_server(repaired_taskset, repaired_fleet)
        features = np.array(
            repaired_taskset.split_features("valid"), copy=True
        )
        labels = np.array(repaired_taskset.split_labels("valid"), copy=True)
        serve_days(server, features, labels, 0, SERVE_DAYS)

        day = SERVE_DAYS - 5
        features[day] = features[day] * 1.01
        labels[day] = labels[day] * 0.99
        suffix = server.correct_bar(
            day, features=features[day], labels=labels[day]
        )

        full_features = np.array(repaired_taskset.features, copy=True)
        full_labels = np.array(repaired_taskset.labels, copy=True)
        start = repaired_taskset.split.train
        full_features[start:start + SERVE_DAYS] = features[:SERVE_DAYS]
        full_labels[start:start + SERVE_DAYS] = labels[:SERVE_DAYS]
        patched = dataclasses.replace(
            repaired_taskset, features=full_features, labels=full_labels
        )
        reference = AlphaEvaluator(patched, seed=0, max_train_steps=40)
        reference._base_seed = server.base_seed
        for index, program in enumerate(repaired_fleet):
            batch = reference.run(program, splits=("valid",))["valid"]
            assert (suffix[f"alpha_{index}"].tobytes()
                    == batch[day:SERVE_DAYS].tobytes())


class TestSuspendResumeCorrections:
    def assert_resumed_corrections_match(self, taskset, programs, tmp_path,
                                         corrections):
        """Corrections after a suspend → disk → resume round trip equal the
        never-suspended server's and the offline recompute, bit for bit."""
        features = np.array(valid_history(taskset)[0], copy=True)
        labels = np.array(valid_history(taskset)[1], copy=True)
        live = make_server(taskset, programs)
        serve_days(live, features, labels, 0, SERVE_DAYS)
        apply_correction([live], features, labels, 6, None, 1.05)

        state = live.suspend()
        assert state.version == SERVER_STATE_VERSION
        assert len(state.corrections) == 1
        assert state.history is not None
        assert state.history[0].shape[0] == SERVE_DAYS
        assert state.replay is not None

        path = tmp_path / "server.state"
        save_state(path, state)
        resumed = make_server(taskset, programs, warm=False)
        resumed.resume(load_state(path))
        assert [record.day for record in resumed.corrections] == [6]

        # Corrections reaching *before* the suspend point must behave
        # identically on the resumed and the never-suspended server.
        for day, feature_scale, label_scale in corrections:
            from_live, from_resumed = apply_correction(
                [live, resumed], features, labels, day, feature_scale,
                label_scale,
            )
            assert from_live.keys() == from_resumed.keys()
            for name in from_live:
                assert from_live[name].tobytes() == \
                    from_resumed[name].tobytes()
            reference = offline_reference(taskset, live, features, labels)
            assert_matches_offline(reference, programs, from_resumed, day,
                                   SERVE_DAYS, f"correcting day {day}")
        tail_live = serve_days(live, features, labels,
                               SERVE_DAYS, SERVE_DAYS + 3)
        tail_resumed = serve_days(resumed, features, labels,
                                  SERVE_DAYS, SERVE_DAYS + 3)
        for bar_live, bar_resumed in zip(tail_live, tail_resumed):
            for name in bar_live:
                assert bar_live[name].tobytes() == bar_resumed[name].tobytes()

    def test_correct_after_resume_matches_live_server(
        self, small_taskset, fleet, tmp_path
    ):
        self.assert_resumed_corrections_match(
            small_taskset, fleet, tmp_path, [(SERVE_DAYS - 4, 1.01, None)]
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_correct_after_resume_on_hostile_panel(
        self, hostile_taskset, mixed_fleet, tmp_path
    ):
        self.assert_resumed_corrections_match(
            hostile_taskset, mixed_fleet, tmp_path, CORRECTIONS
        )

    @pytest.mark.parametrize("unit", ["stacked", "solo"])
    @pytest.mark.parametrize("flaw",
                             ["tape_key", "operand_set", "operand_shape"])
    def test_resume_rejects_bad_persisted_ring_entry(
        self, small_taskset, mixed_fleet, unit, flaw
    ):
        import dataclasses

        features, labels = valid_history(small_taskset)
        live = make_server(small_taskset, mixed_fleet)
        serve_days(live, features, labels, 0, 4)
        state = live.suspend()
        key = next(
            key for key, executor in live.fleet.executors.items()
            if (executor.executor.num_programs == 1) == (unit == "solo")
        )
        day, entry = state.replay[key]["entries"][-1]
        if flaw == "tape_key":
            entry = dataclasses.replace(entry, tape_key="0" * 64)
            match = "different compiled program"
        else:
            operands = dict(entry.operands)
            if flaw == "operand_set":
                operands.pop("m0")
                match = "operand set"
            else:
                operands["s0"] = operands["s0"][:-1]
                match = "operand s0 has shape"
            entry = dataclasses.replace(entry, operands=operands)
        payload = dict(state.replay[key])
        payload["entries"] = payload["entries"][:-1] + ((day, entry),)
        state = dataclasses.replace(
            state, replay={**state.replay, key: payload}
        )
        with pytest.raises(ExecutionError, match=match):
            make_server(small_taskset, mixed_fleet, warm=False).resume(state)

    def test_resume_refuses_a_v2_state_by_version(self, small_taskset, fleet):
        # A v2 state keys its registrations by fingerprints that were blind
        # to arithmetic on zero-initialised memory: refused by its version,
        # not by a misleading registration-table mismatch.
        import dataclasses

        features, labels = valid_history(small_taskset)
        live = make_server(small_taskset, fleet)
        serve_days(live, features, labels, 0, 2)
        state = dataclasses.replace(live.suspend(), version=2)
        with pytest.raises(StreamError, match="server state has version 2, "
                           f"this build reads version {SERVER_STATE_VERSION}"):
            make_server(small_taskset, fleet, warm=False).resume(state)

    def test_resume_refuses_a_v3_state_by_version(self, small_taskset, fleet):
        # A v3 state keys its registrations by fingerprints that sorted
        # commutative operands, not by tape keys: refused by its version,
        # not by a misleading registration-table mismatch.
        import dataclasses

        features, labels = valid_history(small_taskset)
        live = make_server(small_taskset, fleet)
        serve_days(live, features, labels, 0, 2)
        state = dataclasses.replace(live.suspend(), version=3)
        with pytest.raises(StreamError, match="server state has version 3, "
                           f"this build reads version {SERVER_STATE_VERSION}"):
            make_server(small_taskset, fleet, warm=False).resume(state)

    def test_resume_of_pre_history_state_rejects_corrections(
        self, small_taskset, fleet
    ):
        # A state can legitimately carry no history (nothing served yet);
        # a server resumed from it must refuse corrections, not serve junk.
        import dataclasses

        features, labels = valid_history(small_taskset)
        live = make_server(small_taskset, fleet)
        serve_days(live, features, labels, 0, 4)
        state = dataclasses.replace(
            live.suspend(), history=None, replay=None
        )
        resumed = make_server(small_taskset, fleet, warm=False)
        resumed.resume(state)
        with pytest.raises(StreamError, match="incomplete"):
            resumed.correct_bar(1, labels=labels[1])


class TestCliCorrections:
    def namespace(self, correct=None, corrections=None):
        return argparse.Namespace(correct=correct, corrections=corrections)

    def test_absent_flags_mean_none(self):
        assert parse_corrections(self.namespace()) is None

    def test_correct_flags_become_feature_restatements(self):
        parsed = parse_corrections(self.namespace(correct=[3, 7]))
        assert [c.day for c in parsed] == [3, 7]
        assert all(c.feature_scale == 1.01 and c.label_scale is None
                   for c in parsed)

    def test_corrections_file_round_trip(self, tmp_path):
        path = tmp_path / "corrections.json"
        path.write_text(json.dumps([
            {"day": 2, "label_scale": 0.9},
            {"day": 5, "feature_scale": 1.02, "label_scale": 1.01},
        ]))
        parsed = parse_corrections(self.namespace(corrections=str(path)))
        assert [(c.day, c.feature_scale, c.label_scale) for c in parsed] == [
            (2, None, 0.9), (5, 1.02, 1.01),
        ]

    def test_corrections_file_validation(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(StreamError, match="no such corrections file"):
            parse_corrections(self.namespace(corrections=str(missing)))

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(StreamError, match="not valid JSON"):
            parse_corrections(self.namespace(corrections=str(bad)))

        bad.write_text(json.dumps({"day": 1}))
        with pytest.raises(StreamError, match="JSON\\s+list"):
            parse_corrections(self.namespace(corrections=str(bad)))

        bad.write_text(json.dumps([{"feature_scale": 1.0}]))
        with pytest.raises(StreamError, match='"day" key'):
            parse_corrections(self.namespace(corrections=str(bad)))

        bad.write_text(json.dumps([{"day": 1, "scale": 2.0}]))
        with pytest.raises(StreamError, match="unknown keys"):
            parse_corrections(self.namespace(corrections=str(bad)))


class TestCorrectedTickScenario:
    def test_scenario_is_registered_with_corrections(self):
        assert "corrected-tick" in scenario_names()
        spec = get_scenario("corrected-tick")
        assert len(spec.corrections) == 3
        assert all(isinstance(c, BarCorrection) for c in spec.corrections)
        days = [c.day for c in spec.corrections]
        assert days != sorted(days)  # exercises out-of-order replay

    def test_other_scenarios_carry_no_corrections(self):
        assert get_scenario("baseline").corrections == ()
