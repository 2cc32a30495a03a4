"""Global configuration defaults and random-number-generator helpers.

The paper's experiment settings (Section 5.2) are collected here as module
level constants so that every component agrees on the same defaults and the
experiment configurations in :mod:`repro.experiments.configs` can reference
them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Paper constants (Section 5)
# ---------------------------------------------------------------------------

#: Number of feature types in the input feature matrix X (Section 5.2).
NUM_FEATURES = 13

#: Input time window in days (Section 5.2): X has shape (13, 13).
WINDOW = 13

#: Moving-average horizons used for the first four features.
MA_HORIZONS = (5, 10, 20, 30)

#: Volatility horizons used for the next four features.
VOL_HORIZONS = (5, 10, 20, 30)

#: Paper's maximum number of operations per component (Setup, Predict, Update).
MAX_SETUP_OPS = 21
MAX_PREDICT_OPS = 21
MAX_UPDATE_OPS = 45

#: Minimum number of operations per component.
MIN_OPS_PER_COMPONENT = 1

#: Paper's operand-address-space sizes.
NUM_SCALARS = 10
NUM_VECTORS = 16
NUM_MATRICES = 4

#: Evolution hyper-parameters (Section 5.2).
POPULATION_SIZE = 100
TOURNAMENT_SIZE = 10
MUTATION_PROBABILITY = 0.9

#: Hedge-fund weak-correlation standard (Section 1 / 5.4.1).
CORRELATION_CUTOFF = 0.15

#: Long-short portfolio sizes (Section 5.3).
LONG_POSITIONS = 50
SHORT_POSITIONS = 50

#: Annualisation factor for the Sharpe ratio (Section 5.3).
TRADING_DAYS_PER_YEAR = 252

#: Risk-free rate used in the Sharpe ratio (footnote 4: set to 0).
RISK_FREE_RATE = 0.0

#: Dataset split used in the paper (Section 5.1): 988 / 116 / 116 days.
PAPER_TRAIN_DAYS = 988
PAPER_VALID_DAYS = 116
PAPER_TEST_DAYS = 116

#: Number of stocks after filtering in the paper.
PAPER_NUM_STOCKS = 1026

#: Genetic-algorithm baseline probabilities (Section 5.2, following [15]).
GP_CROSSOVER_PROB = 0.4
GP_SUBTREE_MUTATION_PROB = 0.01
GP_HOIST_MUTATION_PROB = 0.0
GP_POINT_MUTATION_PROB = 0.01
GP_POINT_REPLACE_PROB = 0.4


# ---------------------------------------------------------------------------
# RNG helpers
# ---------------------------------------------------------------------------

def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged).  Every stochastic component in the
    package funnels its randomness through this helper so that experiments
    are reproducible when a seed is supplied.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class AddressSpace:
    """Sizes of the scalar / vector / matrix operand address spaces.

    The paper chooses 10 scalars, 16 vectors and 4 matrices (Section 5.2).
    ``s0`` is the label, ``s1`` the prediction and ``m0`` the input feature
    matrix; these reserved addresses are part of the scalar/matrix spaces.
    """

    num_scalars: int = NUM_SCALARS
    num_vectors: int = NUM_VECTORS
    num_matrices: int = NUM_MATRICES

    def __post_init__(self) -> None:
        if self.num_scalars < 2:
            raise ValueError("need at least s0 (label) and s1 (prediction)")
        if self.num_vectors < 1:
            raise ValueError("need at least one vector operand")
        if self.num_matrices < 1:
            raise ValueError("need at least m0 (input feature matrix)")


DEFAULT_ADDRESS_SPACE = AddressSpace()
