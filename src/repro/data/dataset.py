"""Task-set construction: samples, splits, and the container the alpha
interpreter and all baselines consume.

The paper formulates alpha evaluation over a set of tasks ``F_K`` — one
regression task per stock — where each sample pairs an input feature matrix
``X ∈ R^{f×w}`` with a scalar label ``y`` (the next-day return).  All samples
are split chronologically into training, validation and test sets
(Section 2, Section 5.1).

:class:`TaskSet` exposes the samples of all tasks as arrays indexed by day
and stock, so that the vectorised interpreter can evaluate an alpha for
every stock at a time step in a single numpy call:

* ``features``: shape ``(N, K, f, w)`` — feature matrix per day and stock
* ``labels``:   shape ``(N, K)``       — next-day returns

Consecutive days share ``w - 1`` of their ``w`` window columns, so
:func:`build_taskset` stores each normalised panel value once: its
``features`` is a read-only window view of the ``(N + w - 1, K, f)`` panel
rows, not an ``(N, K, f, w)`` copy.  NumPy reductions sum in memory order,
so the protocol never hands that view to a kernel.  It reads C-contiguous
bars that :meth:`TaskSet.gather` copies once per task set and reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..config import WINDOW
from ..errors import DataError
from .features import WARMUP_DAYS, FeaturePanel, compute_feature_panel
from .market_sim import StockPanel
from .relations import SectorTaxonomy
from .universe import UniverseFilter

__all__ = ["Split", "TaskSet", "build_taskset"]


@dataclass(frozen=True)
class Split:
    """Chronological train/validation/test day counts."""

    train: int
    valid: int
    test: int

    def __post_init__(self) -> None:
        if min(self.train, self.valid, self.test) <= 0:
            raise DataError("all splits must contain at least one day")

    @property
    def total(self) -> int:
        """Total number of sample days covered by the split."""
        return self.train + self.valid + self.test

    @classmethod
    def fractional(cls, total: int, train_frac: float = 0.81,
                   valid_frac: float = 0.095) -> "Split":
        """Build a split from fractions of ``total`` days.

        The default fractions mirror the paper's 988/116/116 split of 1220
        days.
        """
        if total < 3:
            raise DataError("need at least 3 sample days to split")
        train = max(1, int(round(total * train_frac)))
        valid = max(1, int(round(total * valid_frac)))
        test = total - train - valid
        if test <= 0:
            train = total - valid - 1
            test = 1
        if train <= 0:
            raise DataError(f"cannot split {total} days into train/valid/test")
        return cls(train=train, valid=valid, test=test)


@dataclass(frozen=True)
class TaskSet:
    """Sample arrays for all stock-prediction tasks plus metadata.

    ``features`` may be any ``(N, K, f, w)`` array, a window view included.
    A task set is immutable: build a changed one with
    :func:`dataclasses.replace`, which starts with no gathered bars.
    """

    features: np.ndarray
    labels: np.ndarray
    dates: np.ndarray
    taxonomy: SectorTaxonomy
    split: Split
    tickers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "features",
                           np.asarray(self.features, dtype=np.float64))
        # Scoring reduces over the labels, so they are held C-ordered.
        object.__setattr__(self, "labels",
                           np.ascontiguousarray(self.labels, dtype=np.float64))
        #: (split, day subsample) → the bars :meth:`gather` copied.
        object.__setattr__(self, "_gathered", {})
        if self.features.ndim != 4:
            raise DataError(
                f"features must be (N, K, f, w), got shape {self.features.shape}"
            )
        if self.labels.shape != self.features.shape[:2]:
            raise DataError(
                f"labels shape {self.labels.shape} does not match features "
                f"{self.features.shape[:2]}"
            )
        if self.split.total != self.num_samples:
            raise DataError(
                f"split covers {self.split.total} days but task set has "
                f"{self.num_samples} sample days"
            )
        if self.taxonomy.num_stocks != self.num_tasks:
            raise DataError(
                f"taxonomy covers {self.taxonomy.num_stocks} stocks, task set "
                f"has {self.num_tasks}"
            )

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Number of sample days ``N`` (across all splits)."""
        return int(self.features.shape[0])

    @property
    def num_tasks(self) -> int:
        """Number of tasks (stocks) ``K``."""
        return int(self.features.shape[1])

    @property
    def num_features(self) -> int:
        """Number of feature types ``f``."""
        return int(self.features.shape[2])

    @property
    def window(self) -> int:
        """Input time window ``w`` in days."""
        return int(self.features.shape[3])

    # ------------------------------------------------------------------
    def _split_slice(self, name: str) -> slice:
        starts = {
            "train": 0,
            "valid": self.split.train,
            "test": self.split.train + self.split.valid,
        }
        lengths = {
            "train": self.split.train,
            "valid": self.split.valid,
            "test": self.split.test,
        }
        if name not in starts:
            raise DataError(f"unknown split {name!r}; use 'train', 'valid' or 'test'")
        start = starts[name]
        return slice(start, start + lengths[name])

    def split_features(self, name: str) -> np.ndarray:
        """Feature array of the given split, shape ``(n, K, f, w)``."""
        return self.features[self._split_slice(name)]

    def split_labels(self, name: str) -> np.ndarray:
        """Label array of the given split, shape ``(n, K)``."""
        return self.labels[self._split_slice(name)]

    def split_dates(self, name: str) -> np.ndarray:
        """Dates of the given split."""
        return self.dates[self._split_slice(name)]

    def gather(self, name: str, day_indices: np.ndarray | None = None,
               ) -> tuple[np.ndarray, np.ndarray]:
        """Read-only C-contiguous ``(n, K, f, w)`` bars and ``(n, K)`` labels
        of a split, or of its days at ``day_indices`` in that order.

        The copy is made on the first call and every later call with the
        same days returns it, so evaluations reuse their bars instead of
        copying them.  The protocol's kernels read these bars, never
        ``features`` itself: a reduction over a non-C-ordered array can
        differ in its last bits.
        """
        rows = self.split_features(name)
        if day_indices is not None:
            day_indices = np.asarray(day_indices, dtype=np.int64)
            if np.array_equal(day_indices, np.arange(rows.shape[0])):
                day_indices = None
        key = (name, None if day_indices is None else day_indices.tobytes())
        if key not in self._gathered:
            labels = self.split_labels(name)
            if day_indices is None:
                bars = np.ascontiguousarray(rows)
            else:
                # Day by day: np.take would first copy every window of the
                # split into one C-ordered temporary.
                bars = np.empty((day_indices.size,) + rows.shape[1:])
                for row, day in enumerate(day_indices):
                    bars[row] = rows[day]
                labels = labels[day_indices]
            bars.flags.writeable = labels.flags.writeable = False
            self._gathered[key] = (bars, labels)
        return self._gathered[key]

    def subset_tasks(self, indices: np.ndarray) -> "TaskSet":
        """Return a TaskSet restricted to the tasks in ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise DataError("cannot subset to an empty task set")
        return TaskSet(
            features=self.features[:, indices],
            labels=self.labels[:, indices],
            dates=self.dates,
            taxonomy=self.taxonomy.subset(indices),
            split=self.split,
            tickers=tuple(self.tickers[i] for i in indices) if self.tickers else (),
        )

    def describe(self) -> dict[str, int]:
        """Summary dictionary used by logs and examples."""
        return {
            "num_tasks": self.num_tasks,
            "num_samples": self.num_samples,
            "num_features": self.num_features,
            "window": self.window,
            "train_days": self.split.train,
            "valid_days": self.split.valid,
            "test_days": self.split.test,
        }


def build_taskset(
    panel: StockPanel,
    window: int = WINDOW,
    split: Split | None = None,
    universe_filter: UniverseFilter | None = UniverseFilter(),
    normalize_on_train_only: bool = True,
    feature_panel: FeaturePanel | None = None,
) -> TaskSet:
    """Build a :class:`TaskSet` from an OHLCV panel.

    The pipeline follows Section 5.1/5.2 of the paper:

    1. filter the universe (insufficient samples / too-low prices);
    2. compute the 13 feature types per day;
    3. normalise each feature type by its per-stock maximum;
    4. view the normalised rows as ``window``-day feature matrices (a
       read-only window view, so each value is stored once, not
       ``window`` times) and pair them with next-day returns as labels;
    5. split chronologically into train/validation/test.

    Parameters
    ----------
    panel:
        Raw OHLCV panel (synthetic or loaded from CSV).
    window:
        Input time window ``w`` (13 in the paper).
    split:
        Explicit split; if ``None`` a fractional split mirroring the paper's
        988/116/116 proportions is derived from the number of usable days.
    universe_filter:
        Universe filter to apply first; pass ``None`` to skip filtering.
    normalize_on_train_only:
        If True (default) the per-stock normaliser uses only training days.
    feature_panel:
        Pre-computed feature panel (skips step 2), mainly for tests.
    """
    if window < 1:
        raise DataError("window must be at least one day")

    if universe_filter is not None:
        panel, _ = universe_filter.apply(panel)

    if feature_panel is None:
        feature_panel = compute_feature_panel(panel)
    raw_returns = panel.returns()

    # Sample days: a sample at day t uses features of days [t-window+1, t]
    # and predicts the return of day t+1.  The first usable day must leave a
    # full warm-up for the 30-day moving average plus the window.
    first_day = WARMUP_DAYS + window - 1
    last_day = panel.num_days - 2  # needs a next-day return
    num_sample_days = last_day - first_day + 1
    if num_sample_days < 3:
        raise DataError(
            f"panel too short: only {num_sample_days} usable sample days; "
            f"need at least 3 (panel has {panel.num_days} days, warm-up "
            f"{WARMUP_DAYS}, window {window})"
        )

    if split is None:
        split = Split.fractional(num_sample_days)
    if split.total > num_sample_days:
        raise DataError(
            f"split needs {split.total} sample days but only {num_sample_days} "
            "are available"
        )
    # Trim to exactly the split length, keeping the most recent days.
    num_used = split.total
    first_used = last_day - num_used + 1

    if normalize_on_train_only:
        fit_days = first_used - window + 1 + split.train
    else:
        fit_days = None
    normalized = feature_panel.normalized(fit_days=fit_days)

    # features[i, k, f, j] = rows[i + j, k, f]: the sample of day
    # first_used + i reads the window of days [day - window + 1, day].
    rows = np.ascontiguousarray(
        normalized.values[first_used - window + 1: last_day + 1]
    )
    features = sliding_window_view(rows, window, axis=0)
    return TaskSet(
        features=features,
        labels=raw_returns[first_used + 1: last_day + 2],
        dates=panel.dates[first_used: last_day + 1].copy(),
        taxonomy=panel.taxonomy,
        split=split,
        tickers=panel.tickers,
    )
