"""Steadiness proof: run the benchmark over several seeds and report spreads.

Usage (from the repository root)::

    python3 perfbench/prove.py [--workloads mine serve] [--seeds 1 2 ...]
        [--passes 2] [--seconds N]

For every workload and end-to-end metric it prints the median and the
spread: the distance between the first and third quartile of the per-seed
values (``statistics.quantiles(values, n=4)``) as a share of their median,
next to the metric's bound from ``BENCHMARK.json``.  With ``--passes 2``
every seed runs twice (pass by pass) and the script also checks that each
seed's work counts and output digests are identical in both passes, and
compares the two passes' medians.  Exits 1 when a spread exceeds its bound,
a run fails, or a count or digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int = 0,
             size: str = "full") -> dict:
    """One benchmark run: its final JSON and its count and digest lines."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
         "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    identity = sorted(line for line in lines
                      if line.startswith(("count ", "digest ")))
    return {"result": json.loads(lines[-1]), "identity": identity}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    runs = {}  # (workload, pass, seed) -> run
    # Workloads interleave seed by seed, so a stretch of host contention
    # lands on every workload instead of wiping out one.
    for number in range(args.passes):
        for seed in args.seeds:
            for workload in args.workloads:
                run = run_once(workload, seed, args.seconds)
                runs[workload, number, seed] = run
                result = run["result"]
                values = " ".join(f"{name}={item['value']:.6g}"
                                  for name, item in result["metrics"].items())
                print(f"{workload} pass {number} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}",
                      flush=True)
                ok &= result["correct"]
    for workload in args.workloads:
        for seed in args.seeds:
            identities = {tuple(runs[workload, number, seed]["identity"])
                          for number in range(args.passes)}
            if len(identities) > 1:
                ok = False
                print(f"{workload} seed {seed}: counts or digests differ between passes")
        medians = {}
        for number in range(args.passes):
            for name, bound in bounds.items():
                values = [runs[workload, number, seed]["result"]["metrics"][name]["value"]
                          for seed in args.seeds]
                median, share = spread(values)
                medians.setdefault(name, []).append(median)
                verdict = "ok" if share <= bound or name == "setup_s" else "TOO WIDE"
                ok &= verdict == "ok"
                print(f"{workload} pass {number} {name}: median {median:.6g} "
                      f"spread {share:.4f} (bound {bound}, third {bound / 3:.4f}) {verdict}")
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for name, values in medians.items():
            if len(values) < 2:
                continue
            first, second = values[0], values[1]
            worse = (second - first) / first if better[name] == "lower" \
                else (first - second) / first
            verdict = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
            ok &= verdict == "ok"
            print(f"{workload} {name}: second median worse by {worse:+.4f} "
                  f"(bound {bounds[name]}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
