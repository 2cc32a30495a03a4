"""Tests for the shared-memory panel store and pool/serial bitwise parity.

Covers the zero-copy :class:`~repro.parallel.shm.SharedPanelStore` contract
(publish → attach → identical read-only views), the content-signature attach
guard, cleanup on every exit path, and a seeded fuzz suite asserting that
pooled evaluation is bitwise identical to the serial fleet batch — across
engines (the pool's stacked dispatch against the serial interpreter too),
over NaN-bearing panels, and with duplicate-heavy batches — and that a
pooled search over a NaN-bearing panel mines the serial search's bits.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from repro.core import AlphaEvaluator, Mutator, get_initialization
from repro.data import TaskSet
from repro.engine import evaluate_program_batch
from repro.errors import SharedPanelMismatchError
from repro.parallel import (
    EvaluationPool,
    SharedPanelStore,
    panel_signature,
    shared_segment_names,
)
from repro.parallel.pool import _WorkerState


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = shared_segment_names()
    yield
    assert shared_segment_names() == before


def assert_reports_equal(got, want):
    """Bitwise report equality that treats NaN as equal to NaN."""
    assert (got.fitness == want.fitness) or (
        np.isnan(got.fitness) and np.isnan(want.fitness)
    )
    assert got.is_valid == want.is_valid
    assert got.reason == want.reason
    assert (got.ic_valid == want.ic_valid) or (
        np.isnan(got.ic_valid) and np.isnan(want.ic_valid)
    )
    assert np.array_equal(
        np.asarray(got.daily_ic_valid), np.asarray(want.daily_ic_valid),
        equal_nan=True,
    )


class TestSharedPanelStore:
    def test_publish_attach_roundtrip_is_bitwise_identical(self, small_taskset):
        with SharedPanelStore.publish(
            small_taskset.features, small_taskset.labels
        ) as store:
            attached = SharedPanelStore.attach(store.handle)
            try:
                assert np.array_equal(attached.features, small_taskset.features,
                                      equal_nan=True)
                assert np.array_equal(attached.labels, small_taskset.labels,
                                      equal_nan=True)
                assert attached.features.dtype == small_taskset.features.dtype
            finally:
                attached.close()

    def test_views_are_read_only(self, small_taskset):
        with SharedPanelStore.publish(
            small_taskset.features, small_taskset.labels
        ) as store:
            with pytest.raises(ValueError):
                store.features[0, 0, 0, 0] = 1.0
            attached = SharedPanelStore.attach(store.handle)
            try:
                with pytest.raises(ValueError):
                    attached.labels[0, 0] = 1.0
            finally:
                attached.close()

    def test_close_is_idempotent_and_unlinks(self, small_taskset):
        store = SharedPanelStore.publish(
            small_taskset.features, small_taskset.labels
        )
        assert store.handle.name in shared_segment_names()
        store.close()
        store.close()
        assert store.closed
        assert store.handle.name not in shared_segment_names()

    def test_signature_covers_content(self, small_taskset):
        features = np.array(small_taskset.features)
        labels = np.array(small_taskset.labels)
        base = panel_signature(features, labels)
        assert base == panel_signature(features, labels)
        tweaked = features.copy()
        tweaked[0, 0, 0, 0] += 1e-12
        assert panel_signature(tweaked, labels) != base

    def test_attach_rejects_wrong_signature(self, small_taskset):
        with SharedPanelStore.publish(
            small_taskset.features, small_taskset.labels
        ) as store:
            stale = dataclasses.replace(store.handle, signature="0" * 64)
            with pytest.raises(SharedPanelMismatchError, match="stale"):
                SharedPanelStore.attach(stale)

    def test_attach_rejects_unlinked_store(self, small_taskset):
        store = SharedPanelStore.publish(
            small_taskset.features, small_taskset.labels
        )
        handle = store.handle
        store.close()
        with pytest.raises(SharedPanelMismatchError, match="does not exist"):
            SharedPanelStore.attach(handle)

    def test_worker_state_rejects_mismatched_spec(self, small_taskset):
        """A doctored PoolSpec must fail loudly with the named error, not
        compute on wrong data."""
        with EvaluationPool(small_taskset, num_workers=1) as pool:
            bad_panel = dataclasses.replace(pool.spec.panel, signature="f" * 64)
            bad_spec = dataclasses.replace(pool.spec, panel=bad_panel)
            with pytest.raises(SharedPanelMismatchError):
                _WorkerState.from_spec(bad_spec)

    def test_sigterm_unlinks_published_store(self, tmp_path):
        """A SIGTERMed owner process leaves no segment behind."""
        script = textwrap.dedent("""
            import numpy as np, os, sys, time
            from repro.parallel import SharedPanelStore
            store = SharedPanelStore.publish(
                np.zeros((3, 2, 2, 2)), np.zeros((3, 2))
            )
            print(store.handle.name, flush=True)
            time.sleep(60)
        """)
        env = dict(os.environ, PYTHONPATH="src")
        child = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env=env, text=True, cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
        )
        try:
            name = child.stdout.readline().strip()
            assert name in shared_segment_names()
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
        finally:
            child.kill()
            child.wait()
        deadline = time.monotonic() + 10
        while name in shared_segment_names() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert name not in shared_segment_names()


def _nan_taskset(taskset: TaskSet) -> TaskSet:
    """A copy of ``taskset`` with NaNs salted through features and labels.

    The copies are C-ordered, so ``reshape(-1)`` writes through to them (a
    copy of a window view in its own stride order would drop the NaNs).
    """
    features = np.array(taskset.features, order="C")
    labels = np.array(taskset.labels, order="C")
    rng = np.random.default_rng(99)
    flat = features.reshape(-1)
    flat[rng.choice(flat.size, size=max(1, flat.size // 200), replace=False)] = np.nan
    lab = labels.reshape(-1)
    lab[rng.choice(lab.size, size=max(1, lab.size // 100), replace=False)] = np.nan
    assert np.isnan(features).sum() >= max(1, flat.size // 200)
    assert np.isnan(labels).sum() >= max(1, lab.size // 100)
    return TaskSet(
        features=features, labels=labels, dates=taskset.dates,
        taxonomy=taskset.taxonomy, split=taskset.split, tickers=taskset.tickers,
    )


def _fuzz_batch(dims, seed: int, count: int = 8) -> list:
    """A seeded mixed batch: inits, mutants, and in-batch duplicates."""
    rng = np.random.default_rng(seed)
    mutator = Mutator(dims, seed=seed)
    bag = [get_initialization(code, dims, seed=seed)
           for code in ("D", "NOOP", "R", "NN")]
    program = bag[0]
    while len(bag) < count:
        program = mutator.mutate(program)
        bag.append(program)
    # Append duplicates of random earlier members so the fingerprint cache,
    # in-batch aliasing and duplicate-program pool batches are all exercised.
    for index in rng.integers(0, len(bag), size=3):
        bag.append(bag[int(index)])
    return bag


def _span_bytes(array) -> int:
    low, high = byte_bounds(array)
    return high - low


class TestPublishedSpan:
    """The store publishes the bytes the features span, not the windows."""

    def test_attach_rebuilds_the_view_over_its_panel_rows(self, small_taskset):
        features = small_taskset.features
        with SharedPanelStore.publish(features, small_taskset.labels) as store:
            attached = SharedPanelStore.attach(store.handle)
            try:
                assert attached.features.strides == features.strides
                assert attached.features.tobytes() == features.tobytes()
                assert attached.labels.tobytes() == small_taskset.labels.tobytes()
            finally:
                attached.close()
            assert store.nbytes <= (_span_bytes(features)
                                    + small_taskset.labels.nbytes
                                    + store.handle.features_offset + 64)
            assert store.nbytes < features.size * features.itemsize / 10

    def test_signature_covers_the_geometry(self, small_taskset):
        features, labels = small_taskset.features, small_taskset.labels
        plain = np.ascontiguousarray(features)
        assert panel_signature(features, labels) != panel_signature(plain, labels)
        assert panel_signature(plain, labels) == \
            panel_signature(plain.copy(), labels)

    @pytest.mark.parametrize("layout", ["view", "plain"])
    def test_pool_publishes_the_span_and_matches_serial(self, small_taskset,
                                                         dims, layout):
        taskset = small_taskset if layout == "view" else dataclasses.replace(
            small_taskset, features=np.ascontiguousarray(small_taskset.features)
        )
        batch = _fuzz_batch(dims, seed=5)
        evaluator = AlphaEvaluator(taskset, seed=0, max_train_steps=15)
        expected = evaluate_program_batch(evaluator, batch)
        with EvaluationPool(taskset, num_workers=1) as pool:
            budget = (_span_bytes(taskset.features) + taskset.labels.nbytes
                      + pool.spec.panel.features_offset + 64)
            assert pool.shm_bytes <= budget
            got = pool.evaluate(batch, evaluator=evaluator)
        for left, right in zip(got, expected):
            assert_reports_equal(left, right.report)


class TestFuzzedPoolParity:
    @pytest.mark.parametrize("engine,serial_engine", [
        ("compiled", "compiled"),
        ("compiled", "interpreter"),
        ("interpreter", "interpreter"),
    ])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_pool_matches_serial_evaluation(self, small_taskset, dims,
                                            engine, serial_engine, seed):
        batch = _fuzz_batch(dims, seed)
        expected = evaluate_program_batch(
            AlphaEvaluator(small_taskset, seed=0, max_train_steps=15,
                           engine=serial_engine), batch)
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            got = pool.evaluate(batch, evaluator=AlphaEvaluator(
                small_taskset, seed=0, max_train_steps=15, engine=engine))
        for left, right in zip(got, expected):
            assert_reports_equal(left, right.report)

    def test_parity_holds_on_nan_panels(self, small_taskset, dims):
        nan_taskset = _nan_taskset(small_taskset)
        batch = _fuzz_batch(dims, seed=31)
        evaluator = AlphaEvaluator(nan_taskset, seed=0, max_train_steps=15)
        expected = evaluate_program_batch(evaluator, batch)
        with EvaluationPool(nan_taskset, num_workers=2) as pool:
            got = pool.evaluate(batch, evaluator=evaluator)
        for left, right in zip(got, expected):
            assert_reports_equal(left, right.report)

    def test_duplicate_only_batch(self, small_taskset, dims):
        program = get_initialization("D", dims, seed=3)
        evaluator = AlphaEvaluator(small_taskset, seed=0, max_train_steps=15)
        with EvaluationPool(small_taskset, num_workers=2) as pool:
            evaluations = pool.evaluate_detailed([program] * 5,
                                                 evaluator=evaluator)
        first = evaluations[0].report
        for evaluation in evaluations[1:]:
            assert_reports_equal(evaluation.report, first)

    def test_pooled_search_matches_serial_on_nan_panels(self, small_taskset,
                                                         dims):
        """A migrating 3-island search over a NaN-bearing panel: two
        workers mine the in-process search's program, report bits and
        cache counts."""
        from repro.core import EvolutionConfig, domain_expert_alpha
        from repro.parallel import IslandEvolutionController

        nan_taskset = _nan_taskset(small_taskset)

        def search(pool):
            return IslandEvolutionController(
                evaluator=AlphaEvaluator(nan_taskset, seed=0, max_train_steps=15),
                dims=dims,
                config=EvolutionConfig(population_size=5, tournament_size=2,
                                       max_candidates=40, num_islands=3),
                seed=4, mutation_seed=5, pool=pool,
            ).run(domain_expert_alpha(dims))

        serial = search(None)
        with EvaluationPool(nan_taskset, num_workers=2) as pool:
            pooled = search(pool)
        assert pooled.best_program == serial.best_program
        assert_reports_equal(pooled.best_report, serial.best_report)
        assert pooled.cache_stats == serial.cache_stats
