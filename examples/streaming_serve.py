#!/usr/bin/env python3
"""Streaming serving: mine a small alpha fleet, then serve it day by day.

This drives the full online pipeline end-to-end on a synthetic market:

1. simulate a market and build the per-stock prediction tasks;
2. evolve two alphas from different initialisations (a tiny budget);
3. register them — plus a duplicate, to show fingerprint deduplication —
   on an :class:`repro.stream.server.AlphaServer` and warm-start it over
   the training history;
4. stream the validation days through the server one bar at a time,
   suspending to disk and resuming halfway to show that a serving process
   can restart without replaying history;
5. run the online backtest driver, which asserts bitwise parity between
   the streamed predictions and the offline batch path, and print the
   backtest metrics with the serving latency statistics.

Run with::

    python examples/streaming_serve.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core import Dimensions, EvolutionConfig, MiningSession, get_initialization
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset
from repro.stream import AlphaServer, OnlineBacktestDriver, load_state, save_state


def main() -> None:
    # ------------------------------------------------------------------ data
    market = SyntheticMarket(MarketConfig(num_stocks=60, num_days=360), seed=2021)
    taskset = build_taskset(market.generate(), split=Split(train=200, valid=55, test=55))
    print("Task set:", taskset.describe())

    # ------------------------------------------------------------ mine a fleet
    session = MiningSession(
        taskset,
        evolution_config=EvolutionConfig(max_candidates=150),
        max_train_steps=50,
        seed=7,
    )
    dims = Dimensions(taskset.num_features, taskset.window)
    fleet = []
    for i, code in enumerate(("D", "NN")):
        mined = session.search(
            get_initialization(code, dims, seed=7 + i),
            name=f"alpha_AE_{code}_{i}",
            enforce_cutoff=True,
        )
        session.accept(mined)
        fleet.append((mined.name, mined.program))
        print(f"mined {mined.name}: sharpe={mined.sharpe:.3f} ic={mined.ic:.4f}")

    # ------------------------------------------------- serve bars by hand
    def build_server(warm: bool = True) -> AlphaServer:
        server = AlphaServer(taskset, seed=0, max_train_steps=50)
        for name, program in fleet:
            server.register(program, name=name)
        # A duplicate registration: same program, new name.  Its fingerprint
        # (the tape key) routes it to the existing executor, so it costs
        # nothing per bar.
        server.register(fleet[0][1], name="alpha_mirror")
        if warm:
            server.warm_start()
        return server

    server = build_server()
    features = taskset.split_features("valid")
    labels = taskset.split_labels("valid")
    half = features.shape[0] // 2
    for day in range(half):
        predictions = server.on_bar(features[day])
        server.reveal(labels[day])
    print(f"\nserved {server.days_served} bars; "
          f"{server.num_registered} alphas on {server.num_unique} executors")

    # Suspend mid-stream, resume in a fresh server, continue where we left off.
    state_path = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"), "fleet.state")
    save_state(state_path, server.suspend())
    resumed = build_server(warm=False)
    resumed.resume(load_state(state_path))
    for day in range(half, features.shape[0]):
        predictions = resumed.on_bar(features[day])
        resumed.reveal(labels[day])
    print(f"resumed from {state_path} and served through day "
          f"{resumed.days_served} (last bar: "
          f"{ {name: round(float(pred[0]), 6) for name, pred in predictions.items()} })")

    # --------------------------------------- the full driver, with parity
    driver = OnlineBacktestDriver(
        taskset,
        [program for _, program in fleet],
        names=[name for name, _ in fleet],
        seed=0,
        max_train_steps=50,
    )
    report = driver.run()
    print("\n" + report.render())


if __name__ == "__main__":
    main()
