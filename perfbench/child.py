"""Child-process side of the benchmark: ``prepare``, ``probe`` or ``measure``.

``run.py`` starts this script with ``PYTHONHASHSEED`` pinned from the
workload seed and BLAS limited to one thread.  ``--t0`` is the launcher's
wall clock just before the spawn, so set-up time runs from process start.

* ``prepare`` writes the generated inputs (not timed);
* ``probe`` performs the set-up only and prints its time as JSON;
* ``measure`` sets up, runs the timed work (a second, traced pass when
  ``trace`` is on), checks the outputs and writes the raw result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _setup(spec: dict, work_dir: Path):
    import workloads

    if spec["workload"] == "serve":
        return workloads.setup_serve(spec, work_dir)
    return workloads.setup_mining(spec)


def _work(spec: dict, setup, region) -> dict:
    import workloads

    if spec["workload"] == "serve":
        return workloads.run_serve(spec, setup, region=region)
    return workloads.run_mining(spec, setup, region=region)


def measure(spec: dict, work_dir: Path, t0: float) -> dict:
    import workloads

    setup = _setup(spec, work_dir)
    setup_s = time.time() - t0
    result = _work(spec, setup, contextlib.nullcontext)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = result.pop("peak_rss_at_work_end_mb")
    del setup
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root("setup"):
                traced_setup = _setup(spec, work_dir)
            traced = _work(spec, traced_setup,
                           lambda: tracer.root("work"))
        finally:
            tracer.uninstall()
        traced["worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        checks = result["checks"]
        checks["attempted"] += traced["checks"]["attempted"]
        checks["failed"] += traced["checks"]["failed"]
        checks["failures"] += ["traced pass: " + failure
                               for failure in traced["checks"]["failures"]]
        # Both passes do the same work: any difference in a work count or
        # an output digest is nondeterminism and fails the run.
        for key in ("counts", "digests"):
            checks["attempted"] += 1
            if traced[key] != result[key]:
                checks["failed"] += 1
                checks["failures"].append(
                    f"traced pass {key} differ from the untraced pass: "
                    f"{traced[key]} vs {result[key]}")
        per_layer, balance = tracing.layer_metrics(
            tracer, traced, result["wall_s"], traced["wall_s"])
        checks["attempted"] += 1
        if abs(balance["accounted_s"] - balance["total_s"]) > 1e-6 * max(1.0, balance["total_s"]):
            checks["failed"] += 1
            checks["failures"].append(
                f"layer self times plus other sum to {balance['accounted_s']} s, "
                f"traced total is {balance['total_s']} s")
        result["per_layer"] = per_layer
        result["trace_balance"] = balance
        tracer.write(work_dir / "spans.jsonl")
    result["host_threads"] = workloads.thread_settings()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("prepare", "probe", "measure"))
    parser.add_argument("--spec", required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    args = parser.parse_args()
    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    work_dir = spec_path.parent
    if args.phase == "prepare":
        import workloads

        # Importing every layer here leaves warm bytecode caches for the
        # set-up probes and the measured run.
        workloads.import_program()
        if spec["workload"] == "serve":
            workloads.prepare_serve(spec, work_dir)
        return 0
    if args.phase == "probe":
        _setup(spec, work_dir)
        print(json.dumps({"setup_s": time.time() - args.t0}))
        return 0
    result = measure(spec, work_dir, args.t0)
    (work_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
