"""Tests for task-set construction and splitting."""

import dataclasses

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from repro.data import Split, TaskSet, build_taskset, compute_feature_panel
from repro.data.features import WARMUP_DAYS
from repro.errors import DataError


class TestSplit:
    def test_total(self):
        split = Split(train=10, valid=5, test=5)
        assert split.total == 20

    def test_positive_required(self):
        with pytest.raises(DataError):
            Split(train=0, valid=1, test=1)

    def test_fractional_mirrors_paper_proportions(self):
        split = Split.fractional(1220)
        assert split.total == 1220
        assert split.train > split.valid
        assert abs(split.train - 988) <= 2
        assert abs(split.valid - 116) <= 2

    def test_fractional_small_total(self):
        split = Split.fractional(10)
        assert split.total == 10
        assert min(split.train, split.valid, split.test) >= 1

    def test_fractional_too_small(self):
        with pytest.raises(DataError):
            Split.fractional(2)


class TestBuildTaskset:
    def test_shapes(self, small_taskset):
        assert small_taskset.features.shape == (
            small_taskset.num_samples,
            small_taskset.num_tasks,
            small_taskset.num_features,
            small_taskset.window,
        )
        assert small_taskset.labels.shape == (
            small_taskset.num_samples, small_taskset.num_tasks
        )
        assert small_taskset.num_features == 13
        assert small_taskset.window == 13

    def test_split_views_partition_samples(self, small_taskset):
        total = sum(
            small_taskset.split_features(split).shape[0]
            for split in ("train", "valid", "test")
        )
        assert total == small_taskset.num_samples

    def test_splits_are_chronological(self, small_taskset):
        train_dates = small_taskset.split_dates("train")
        valid_dates = small_taskset.split_dates("valid")
        test_dates = small_taskset.split_dates("test")
        assert train_dates[-1] < valid_dates[0]
        assert valid_dates[-1] < test_dates[0]

    def test_labels_are_next_day_returns(self, small_panel):
        taskset = build_taskset(small_panel, universe_filter=None,
                                split=Split(train=110, valid=30, test=30))
        returns = small_panel.returns()
        # The label of the last test sample must equal the return of the
        # day following the sample's date.
        last_date = int(taskset.dates[-1])
        date_index = int(np.where(small_panel.dates == last_date)[0][0])
        np.testing.assert_allclose(taskset.labels[-1], returns[date_index + 1])

    def test_features_respect_window_alignment(self, small_panel):
        taskset = build_taskset(small_panel, universe_filter=None,
                                split=Split(train=110, valid=30, test=30))
        close_row = 11  # index of the close feature
        # The latest column of the close-price row must be the (normalised)
        # close of the sample date, so consecutive samples shift by one day.
        first = taskset.features[0, 0, close_row, -1]
        second = taskset.features[1, 0, close_row, -2]
        np.testing.assert_allclose(first, second)

    def test_unknown_split_rejected(self, small_taskset):
        with pytest.raises(DataError):
            small_taskset.split_features("holdout")

    def test_too_short_panel_rejected(self, small_panel):
        short = small_panel.select_days(0, 44)
        with pytest.raises(DataError):
            build_taskset(short)

    def test_oversized_split_rejected(self, small_panel):
        with pytest.raises(DataError):
            build_taskset(small_panel, split=Split(train=1000, valid=10, test=10))

    def test_window_must_be_positive(self, small_panel):
        with pytest.raises(DataError):
            build_taskset(small_panel, window=0)

    def test_warmup_excludes_early_days(self, small_taskset, small_panel):
        assert int(small_taskset.dates[0]) >= WARMUP_DAYS

    def test_subset_tasks(self, small_taskset):
        subset = small_taskset.subset_tasks(np.array([0, 2, 4]))
        assert subset.num_tasks == 3
        np.testing.assert_allclose(subset.labels[:, 1], small_taskset.labels[:, 2])
        assert subset.taxonomy.num_stocks == 3

    def test_subset_tasks_empty_rejected(self, small_taskset):
        with pytest.raises(DataError):
            small_taskset.subset_tasks(np.array([], dtype=int))

    def test_describe_contents(self, small_taskset):
        info = small_taskset.describe()
        assert info["num_tasks"] == small_taskset.num_tasks
        assert info["train_days"] == small_taskset.split.train


class TestWindowView:
    """``build_taskset`` stores each normalised panel value once: its
    ``features`` is a read-only window view of the panel rows."""

    SPLIT = Split(train=110, valid=30, test=30)

    def test_view_equals_the_per_day_windows(self, small_panel):
        taskset = build_taskset(small_panel, universe_filter=None,
                                split=self.SPLIT)
        window = taskset.window
        last_day = small_panel.num_days - 2
        first_used = last_day - self.SPLIT.total + 1
        normalized = compute_feature_panel(small_panel).normalized(
            fit_days=first_used - window + 1 + self.SPLIT.train
        )
        expected = np.stack([
            np.transpose(normalized.values[day - window + 1: day + 1], (1, 2, 0))
            for day in range(first_used, last_day + 1)
        ])
        assert taskset.features.shape == expected.shape
        assert taskset.features.tobytes() == expected.tobytes()

    def test_view_owns_nothing_and_spans_the_panel_rows(self, small_taskset):
        features = small_taskset.features
        assert not features.flags.owndata
        assert not features.flags.writeable
        low, high = byte_bounds(features)
        N, K, F, w = features.shape
        assert high - low == (N + w - 1) * K * F * features.itemsize
        assert high - low < features.size * features.itemsize / 10

    def test_labels_are_c_ordered(self, small_panel):
        """The scorer reduces over the labels, so a task set holds them
        C-ordered whatever the caller passed."""
        taskset = build_taskset(small_panel, split=self.SPLIT)
        assert taskset.labels.flags.c_contiguous
        fortran = dataclasses.replace(
            taskset, labels=np.asfortranarray(taskset.labels)
        )
        assert fortran.labels.flags.c_contiguous
        assert fortran.labels.tobytes() == taskset.labels.tobytes()


class TestGather:
    def test_bars_are_c_ordered_read_only_copies(self, small_taskset):
        for split in ("train", "valid", "test"):
            bars, labels = small_taskset.gather(split)
            assert bars.flags.c_contiguous and not bars.flags.writeable
            assert not labels.flags.writeable
            assert bars.tobytes() == np.ascontiguousarray(
                small_taskset.split_features(split)
            ).tobytes()
            assert labels.tobytes() == small_taskset.split_labels(split).tobytes()

    def test_day_subsample_is_gathered_in_order(self, small_taskset):
        days = np.array([3, 0, 7, 50])
        bars, labels = small_taskset.gather("train", days)
        assert bars.flags.c_contiguous
        assert bars.tobytes() == np.ascontiguousarray(
            small_taskset.split_features("train")[days]
        ).tobytes()
        assert labels.tobytes() == \
            small_taskset.split_labels("train")[days].tobytes()

    def test_bars_are_copied_once_and_reused(self, small_taskset):
        taskset = dataclasses.replace(small_taskset)
        first = taskset.gather("valid")
        assert taskset.gather("valid")[0] is first[0]
        # Every day in order is the whole split: one copy serves both.
        every_day = np.arange(taskset.split.train)
        assert taskset.gather("train", every_day)[0] is \
            taskset.gather("train")[0]

    def test_replace_starts_without_gathered_bars(self, small_taskset):
        """A corrected task set never reads its parent's bars."""
        small_taskset.gather("valid")
        features = np.array(small_taskset.features, copy=True)
        features[small_taskset.split.train] *= 2.0
        corrected = dataclasses.replace(small_taskset, features=features)
        assert corrected.gather("valid")[0][0].tobytes() == \
            np.ascontiguousarray(features[small_taskset.split.train]).tobytes()
        assert corrected.gather("valid")[0][0].tobytes() != \
            small_taskset.gather("valid")[0][0].tobytes()

    def test_task_sets_are_immutable(self, small_taskset):
        with pytest.raises(dataclasses.FrozenInstanceError):
            small_taskset.features = np.zeros(1)


class TestTaskSetValidation:
    def test_label_shape_mismatch_rejected(self, small_taskset):
        with pytest.raises(DataError):
            TaskSet(
                features=small_taskset.features,
                labels=small_taskset.labels[:, :-1],
                dates=small_taskset.dates,
                taxonomy=small_taskset.taxonomy,
                split=small_taskset.split,
            )

    def test_split_total_mismatch_rejected(self, small_taskset):
        with pytest.raises(DataError):
            TaskSet(
                features=small_taskset.features,
                labels=small_taskset.labels,
                dates=small_taskset.dates,
                taxonomy=small_taskset.taxonomy,
                split=Split(train=5, valid=5, test=5),
            )
