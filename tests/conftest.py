"""Shared pytest fixtures: small, fast, deterministic data objects."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import AlphaEvaluator, Dimensions, Mutator
from repro.core.ops import CLIP_VALUE
from repro.data import (
    MarketConfig,
    Split,
    SyntheticMarket,
    TaskSet,
    build_taskset,
)

#: Every Hypothesis test draws the same examples on every run: a property
#: test is a deterministic gate, and a shrunk counterexample becomes a
#: regression test instead of a flaky failure.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_panel():
    """A small synthetic OHLCV panel shared by the data tests."""
    market = SyntheticMarket(MarketConfig(num_stocks=30, num_days=220), seed=123)
    return market.generate()


@pytest.fixture(scope="session")
def small_taskset(small_panel) -> TaskSet:
    """A small task set (30 stocks, ~170 sample days) shared across tests."""
    return build_taskset(small_panel, split=Split(train=110, valid=30, test=30))


#: What a dirty panel may hold: every value the sanitize steps act on.
HOSTILE_VALUES = np.array([
    np.nan, np.inf, -np.inf, 5e-324, -5e-324, -0.0, CLIP_VALUE, -CLIP_VALUE,
])


def salt(array: np.ndarray, share: int, rng) -> np.ndarray:
    """A C-ordered copy of ``array`` with one entry in ``share`` hostile.

    The copy must be C-ordered: ``np.array`` keeps a window view's stride
    order, and ``reshape(-1)`` of such a copy is another copy, so the salt
    would never reach the returned array.
    """
    salted = np.array(array, order="C")
    flat = salted.reshape(-1)
    picks = rng.choice(flat.size, size=flat.size // share, replace=False)
    values = HOSTILE_VALUES[np.arange(picks.size) % HOSTILE_VALUES.size]
    flat[picks] = values
    assert np.array_equal(salted.reshape(-1)[picks], values, equal_nan=True)
    return salted


@pytest.fixture(scope="session")
def hostile_values() -> np.ndarray:
    """:data:`HOSTILE_VALUES`, for tests that doctor state by hand."""
    return HOSTILE_VALUES


@pytest.fixture(scope="session", name="salt")
def salt_fixture():
    """The :func:`salt` helper, for tests that doctor state by hand."""
    return salt


@pytest.fixture(scope="session")
def hostile_taskset(small_taskset) -> TaskSet:
    """``small_taskset`` with NaN, ±inf, denormals, -0.0 and the clip bounds
    salted into its features and labels."""
    rng = np.random.default_rng(2021)
    return TaskSet(
        features=salt(small_taskset.features, 150, rng),
        labels=salt(small_taskset.labels, 40, rng),
        dates=small_taskset.dates, taxonomy=small_taskset.taxonomy,
        split=small_taskset.split, tickers=small_taskset.tickers,
    )


@pytest.fixture(scope="session")
def dims(small_taskset) -> Dimensions:
    """Problem dimensions matching the small task set."""
    return Dimensions(small_taskset.num_features, small_taskset.window)


@pytest.fixture()
def evaluator(small_taskset) -> AlphaEvaluator:
    """A fresh evaluator over the small task set."""
    return AlphaEvaluator(small_taskset, seed=0, max_train_steps=40)


@pytest.fixture()
def mutator(dims) -> Mutator:
    """A seeded mutator over the small dimensions."""
    return Mutator(dims, seed=42)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic RNG for test-local sampling."""
    return np.random.default_rng(7)
