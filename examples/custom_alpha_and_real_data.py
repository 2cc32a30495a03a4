#!/usr/bin/env python3
"""Write an alpha by hand, evaluate it, and (optionally) use your own data.

This example shows the lower-level API:

* build an :class:`~repro.core.AlphaProgram` operation by operation — here a
  "new class" alpha with a genuine parameter: it accumulates an exponential
  moving average of realised returns per stock in ``Update()`` and combines
  it with an extracted momentum feature in ``Predict()``;
* evaluate it with and without the parameter-updating function (the Table 4
  ablation);
* inspect the pruned version and the dependency structure;
* optionally load real OHLCV CSVs instead of the simulator by passing a
  directory as the first command-line argument (one CSV per stock with
  ``date,open,high,low,close,volume`` columns).

Run with::

    python examples/custom_alpha_and_real_data.py [path/to/csv/directory]
"""

from __future__ import annotations

import sys

from repro.core import (
    AlphaEvaluator,
    AlphaProgram,
    INPUT_MATRIX,
    LABEL,
    Operand,
    Operation,
    PREDICTION,
    mean_ic,
    prune_program,
)
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset, load_csv_directory


def build_custom_alpha() -> AlphaProgram:
    """A hand-written 'new class' alpha: momentum plus a learned return EMA."""
    momentum = Operand.scalar(2)      # extracted momentum feature
    ema = Operand.scalar(3)           # parameter: EMA of realised returns
    decay = Operand.scalar(4)         # constant 0.97
    one_minus = Operand.scalar(5)     # constant 0.03
    scaled_ema = Operand.scalar(6)
    scaled_label = Operand.scalar(7)
    ma5 = Operand.scalar(8)
    close = Operand.scalar(9)

    setup = [
        Operation.make("s_const", (), decay, {"constant": 0.97}),
        Operation.make("s_const", (), one_minus, {"constant": 0.03}),
    ]
    predict = [
        # momentum = close / ma5 extracted from the input matrix's latest day
        Operation.make("get_scalar", (INPUT_MATRIX,), close, {"row": 11, "col": 12}),
        Operation.make("get_scalar", (INPUT_MATRIX,), ma5, {"row": 0, "col": 12}),
        Operation.make("s_div", (close, ma5), momentum),
        # prediction = momentum + learned per-stock return EMA
        Operation.make("s_add", (momentum, ema), PREDICTION),
    ]
    update = [
        # ema <- 0.97 * ema + 0.03 * realised_return
        Operation.make("s_mul", (ema, decay), scaled_ema),
        Operation.make("s_mul", (LABEL, one_minus), scaled_label),
        Operation.make("s_add", (scaled_ema, scaled_label), ema),
    ]
    return AlphaProgram(setup=setup, predict=predict, update=update, name="alpha_custom")


def load_data(argv: list[str]):
    if len(argv) > 1:
        print(f"Loading OHLCV CSVs from {argv[1]} ...")
        panel = load_csv_directory(argv[1])
        return build_taskset(panel)
    print("No data directory given - using the synthetic NASDAQ-like simulator.")
    panel = SyntheticMarket(MarketConfig(num_stocks=80, num_days=420), seed=42).generate()
    return build_taskset(panel, split=Split(train=255, valid=60, test=60))


def main() -> None:
    taskset = load_data(sys.argv)
    print("Task set:", taskset.describe())

    alpha = build_custom_alpha()
    print("\nCustom alpha:\n")
    print(alpha.render())

    pruned = prune_program(alpha)
    print(f"\nPruning: kept {pruned.kept_operations} operations, "
          f"removed {pruned.removed_operations}, redundant={pruned.is_redundant}")

    evaluator = AlphaEvaluator(taskset, seed=0)
    with_update = evaluator.evaluate(alpha)
    # The *_P ablation of Table 4 is its own evaluator setting.
    without_update = AlphaEvaluator(taskset, seed=0, use_update=False).evaluate(alpha)
    print("\nParameter-updating ablation (validation IC):")
    print(f"  with Update():    {with_update.ic_valid:8.4f}")
    print(f"  without Update(): {without_update.ic_valid:8.4f}")
    # Fitness reads only the validation split; run() also infers the test days.
    test_ic = mean_ic(evaluator.run(alpha)["test"], taskset.split_labels("test"))
    print("\nTest IC with Update():", f"{test_ic:8.4f}")


if __name__ == "__main__":
    main()
