"""Harness self-check at tiny size (a few seconds per workload).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs the benchmark twice
untraced and once traced at ``--size tiny`` and checks that

* every end-to-end metric (untraced) and every per-layer metric (traced)
  is emitted with the unit ``BENCHMARK.json`` declares;
* both untraced passes report identical work counts and output digests —
  a reintroduced nondeterminism shows here before it turns into noise;
* each run passed its own correctness checks (the traced run also checks
  that layer self times plus ``other`` sum to the traced total).

Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from prove import run_once

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selfcheck FAILED: " + message)


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    emitted = result["metrics"]
    for metric in declared:
        name = metric["name"]
        expect(name in emitted, f"{workload}: metric {name} missing")
        expect(emitted[name]["unit"] == metric["unit"],
               f"{workload}: {name} has unit {emitted[name]['unit']}, "
               f"declared {metric['unit']}")
    extra = set(emitted) - {metric["name"] for metric in declared}
    expect(not extra, f"{workload}: undeclared metrics {sorted(extra)}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in bench["workloads"]):
        first, second, traced = (run_once(workload, SEED, 1.0, trace=trace, size="tiny")
                                 for trace in (0, 0, 1))
        for run in (first, second, traced):
            expect(run["result"]["correct"] and run["result"]["failed"] == 0,
                   f"{workload}: correctness checks failed: {run['result']}")
        check_metrics(workload, first["result"], bench["end_to_end"])
        check_metrics(workload, traced["result"], bench["per_layer"])
        expect(bool(first["identity"]), f"{workload}: no counts or digests printed")
        expect(first["identity"] == second["identity"] == traced["identity"],
               f"{workload}: counts or digests differ between passes:\n"
               f"{first['identity']}\n{second['identity']}\n{traced['identity']}")
        print(f"selfcheck {workload}: ok ({len(first['identity'])} counts and digests "
              "identical in three passes)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
