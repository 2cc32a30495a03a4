#!/usr/bin/env python3
"""Benchmark: the pluggable data-backend layer (repro.data.backends).

Measures what each stage of the data path costs and what the
:class:`~repro.data.FileBackend` panel cache buys, and gates the layer's
two bitwise contracts:

* **synthetic parity** — :class:`~repro.data.SyntheticBackend` produces the
  pre-backend-layer panel bit for bit (the default scenario's guarantee);
* **round-trip parity** — a synthetic panel exported to per-stock CSVs and
  loaded back through the validating :class:`~repro.data.FileBackend` is
  bitwise identical (full-precision export), so file-backed scenarios
  reproduce synthetic results exactly;
* **clean-panel identity** — loading clean data under every registered
  repair policy produces the bitwise-identical panel (repair is a no-op on
  clean inputs);
* **repair determinism** — loading a corrupted directory twice under the
  ``robust`` policy produces bitwise-identical repaired panels;
* **shared windows** — a built task set's ``(N, K, f, w)`` features own no
  buffer and span only their ``(N + w - 1, K, f)`` panel rows, so each
  panel value is stored once, not ``w`` times.

Recorded: synthetic generation and task-set build time, CSV export and
cold/warm file-load time (the warm path hits the content-signature cache),
the repaired (dirty → ``robust``) load time, weekly resample time, the task
set's feature bytes (owned, spanned, and the size the windows would take
materialised), and the cache speedup as the headline number.  Results land in
``benchmarks/results/BENCH_data.json`` (source of truth, with a root-level
copy — see ``benchmarks/README.md``).

Run with::

    python benchmarks/bench_data.py [--stocks K] [--days T] [--smoke]

``--smoke`` shrinks the panel but keeps every gate — CI uses it as the
data-layer parity and byte check (non-zero exit on any violation).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from numpy.lib.array_utils import byte_bounds

from common import write_bench_json
from repro.data import (
    CorruptionSpec,
    FileBackend,
    MarketConfig,
    SyntheticBackend,
    SyntheticMarket,
    export_panel_csv,
    inject_corruption,
    load_csv_directory,
    panels_bitwise_equal,
    repair_policy_names,
    resample_panel,
)

SEED = 2021


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def feature_bytes(features) -> dict:
    """Bytes a task set's feature tensor owns, spans, and would take as a
    materialised ``(N, K, f, w)`` copy."""
    low, high = byte_bounds(features)
    return {
        "owned": features.nbytes if features.flags.owndata else 0,
        "spanned": high - low,
        "materialised": features.size * features.itemsize,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stocks", type=int, default=80)
    parser.add_argument("--days", type=int, default=420)
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizing; parity gates only")
    args = parser.parse_args(argv)
    if args.smoke:
        args.stocks, args.days = 30, 200

    config = MarketConfig(num_stocks=args.stocks, num_days=args.days)
    backend = SyntheticBackend(config, seed=SEED)

    panel, generate_seconds = timed(backend.load_panel)
    taskset, taskset_seconds = timed(lambda: backend.build_taskset())
    taskset_bytes = feature_bytes(taskset.features)
    windows_shared = (taskset_bytes["owned"] == 0 and taskset_bytes["spanned"]
                      < taskset_bytes["materialised"])
    direct = SyntheticMarket(config, seed=SEED).generate()
    synthetic_parity = panels_bitwise_equal(panel, direct)

    weekly, weekly_seconds = timed(lambda: resample_panel(panel, "weekly"))

    with tempfile.TemporaryDirectory() as directory:
        _, export_seconds = timed(lambda: export_panel_csv(panel, directory))
        file_backend = FileBackend(
            directory, sector_map=Path(directory) / "sectors.txt"
        )
        FileBackend._CACHE.clear()
        loaded, cold_seconds = timed(file_backend.load_panel)
        _, warm_seconds = timed(file_backend.load_panel)
        roundtrip_parity = panels_bitwise_equal(loaded, panel)

        # Clean-panel identity: every registered repair policy is a no-op
        # on clean data.
        clean_identity = all(
            panels_bitwise_equal(
                load_csv_directory(directory, exclude=("sectors.txt",),
                                   repair=policy),
                loaded,
            )
            for policy in repair_policy_names()
        )

    # Repair determinism: a corrupted directory loads bitwise-identically
    # across repeated loads under the robust policy.
    with tempfile.TemporaryDirectory() as directory:
        export_panel_csv(panel, directory)
        inject_corruption(Path(directory), CorruptionSpec(events=2, seed=7),
                          exclude=("sectors.txt",))
        repaired, repaired_seconds = timed(
            lambda: load_csv_directory(directory, exclude=("sectors.txt",),
                                       repair="robust"))
        repair_determinism = panels_bitwise_equal(
            repaired,
            load_csv_directory(directory, exclude=("sectors.txt",),
                               repair="robust"),
        )

    cache_speedup = cold_seconds / max(warm_seconds, 1e-9)
    payload = {
        "benchmark": "data-backend layer: file-panel cache (warm vs cold load)",
        "num_stocks": args.stocks,
        "num_days": args.days,
        "synthetic": {
            "generate_seconds": round(generate_seconds, 4),
            "taskset_seconds": round(taskset_seconds, 4),
            "taskset_feature_bytes": taskset_bytes,
        },
        "file": {
            "export_seconds": round(export_seconds, 4),
            "cold_load_seconds": round(cold_seconds, 4),
            "warm_load_seconds": round(warm_seconds, 6),
            "repaired_load_seconds": round(repaired_seconds, 4),
        },
        "resample": {
            "weekly_seconds": round(weekly_seconds, 4),
            "weekly_bars": weekly.num_days,
        },
        "parity": {
            "synthetic_bitwise": synthetic_parity,
            "roundtrip_bitwise": roundtrip_parity,
            "clean_repair_identity": clean_identity,
            "repair_determinism": repair_determinism,
            "windows_shared": windows_shared,
        },
        "speedup": round(cache_speedup, 1),
    }

    ok = (synthetic_parity and roundtrip_parity and clean_identity
          and repair_determinism and windows_shared)
    if args.smoke:
        print("data-parity smoke check "
              f"{'passed' if ok else 'FAILED'}: synthetic={synthetic_parity}, "
              f"roundtrip={roundtrip_parity}, "
              f"clean_repair_identity={clean_identity}, "
              f"repair_determinism={repair_determinism}, "
              f"windows_shared={windows_shared} ({taskset_bytes})")
    else:
        path = write_bench_json("data", payload)
        print(f"synthetic generate {generate_seconds:.3f}s, "
              f"taskset build {taskset_seconds:.3f}s "
              f"({args.stocks} stocks x {args.days} days)")
        print(f"CSV export {export_seconds:.3f}s, cold load {cold_seconds:.3f}s, "
              f"warm load {warm_seconds * 1e3:.2f}ms "
              f"(cache speedup {cache_speedup:.0f}x)")
        print(f"repaired load (dirty -> robust) {repaired_seconds:.3f}s")
        print(f"weekly resample {weekly_seconds:.3f}s -> {weekly.num_days} bars")
        print(f"task set features: owned {taskset_bytes['owned']} B, spanned "
              f"{taskset_bytes['spanned']} B, materialised "
              f"{taskset_bytes['materialised']} B")
        print(f"parity: synthetic={synthetic_parity}, "
              f"roundtrip={roundtrip_parity}, "
              f"clean_repair_identity={clean_identity}, "
              f"repair_determinism={repair_determinism}, "
              f"windows_shared={windows_shared}")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
