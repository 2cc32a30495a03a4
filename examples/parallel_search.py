#!/usr/bin/env python3
"""Parallel alpha search: worker pool, evolution islands and checkpointing.

This walks through the parallel search subsystem (:mod:`repro.parallel`):

1. simulate a market and build the per-stock prediction tasks;
2. mine an alpha with an **island-model** search — several independent
   regularised-evolution populations exchanging their best candidates —
   with the islands advanced by a pool of worker processes;
3. checkpoint the search state so a killed run resumes where it stopped;
4. compare against a single-island search (plain regularised evolution)
   on the same budget: both explore the same number of candidates and
   report their results in the identical format.

Run with::

    python examples/parallel_search.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core import Dimensions, EvolutionConfig, MiningSession, domain_expert_alpha
from repro.data import MarketConfig, Split, SyntheticMarket, build_taskset


def main() -> None:
    # ------------------------------------------------------------------ data
    market = SyntheticMarket(MarketConfig(num_stocks=80, num_days=420), seed=2021)
    panel = market.generate()
    taskset = build_taskset(panel, split=Split(train=255, valid=60, test=60))
    print("Task set:", taskset.describe())

    dims = Dimensions(taskset.num_features, taskset.window)
    seed_alpha = domain_expert_alpha(dims)
    workers = min(4, os.cpu_count() or 1)

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # -------------------------------------------------- parallel session
        # num_islands > 1 evolves several populations with ring migration;
        # num_workers > 1 has worker processes advance the islands between
        # barriers without changing any result.  Checkpoints land in
        # checkpoint_dir/<search name>.ckpt, and a rerun of the same search
        # name resumes from them automatically.  The session owns its worker
        # pool: every search reuses it, and leaving the with block shuts it
        # down.
        with MiningSession(
            taskset,
            evolution_config=EvolutionConfig(
                population_size=20,
                tournament_size=5,
                max_candidates=400,
                num_islands=4,
                num_workers=workers,
            ),
            long_k=10,
            short_k=10,
            max_train_steps=60,
            seed=7,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=100,
        ) as session:
            print(f"\nIsland search: 4 islands, {workers} worker(s)")
            mined = session.search(seed_alpha, name="alpha_AE_P_0",
                                   enforce_cutoff=False)
        evolution = mined.evolution
        print(f"  searched alphas:    {int(mined.extras['searched_alphas'])}")
        print(f"  actually evaluated: {int(mined.extras['evaluated_alphas'])}")
        print(f"  migrations:         {evolution.migrations}")
        print(f"  island best IC:     "
              + ", ".join(f"{fitness:.4f}" for fitness in evolution.island_best_fitness))
        print(f"  wall clock:         {mined.extras['elapsed_seconds']:.2f}s")

        checkpoint = os.path.join(checkpoint_dir, "alpha_AE_P_0.ckpt")
        print(f"  checkpoint on disk: {os.path.exists(checkpoint)}")

        # ------------------------------------------------------ resume demo
        # Simulate a process restart after a crash: a fresh session with the
        # same configuration replays the same seeds, finds the checkpoint
        # under the same search name and resumes it.  Here the budget is
        # already exhausted, so it returns the same best program without
        # re-evaluating anything; after a mid-run kill it would continue
        # searching from the last checkpoint instead.
        with MiningSession(
            taskset,
            evolution_config=session.evolution_config,
            long_k=10,
            short_k=10,
            max_train_steps=60,
            seed=7,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=100,
        ) as restarted:
            resumed = restarted.search(seed_alpha, name="alpha_AE_P_0",
                                       enforce_cutoff=False)
        print("\nRestarted process resumes to the identical alpha:",
              resumed.program == mined.program)

    # ---------------------------------------------------- one-island pendant
    serial_session = MiningSession(
        taskset,
        evolution_config=EvolutionConfig(
            population_size=20, tournament_size=5, max_candidates=400
        ),
        long_k=10,
        short_k=10,
        max_train_steps=60,
        seed=7,
    )
    serial = serial_session.search(seed_alpha, name="alpha_AE_S_0", enforce_cutoff=False)

    print("\n{:<14} {:>12} {:>10} {:>10}".format("alpha", "Sharpe", "IC", "islands"))
    for alpha in (mined, serial):
        print(f"{alpha.name:<14} {alpha.sharpe:>12.4f} {alpha.ic:>10.4f} "
              f"{int(alpha.extras['num_islands']):>10}")
    print("\nEvolved alpha (pruned for readability):\n")
    print(MiningSession.simplify(mined.program).render())


if __name__ == "__main__":
    main()
