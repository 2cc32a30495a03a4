"""End-to-end benchmark of the AlphaEvolve reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {mine,mine-pool,serve} --seed N \\
        --seconds S --trace {0,1}

One run prepares the workload's inputs from ``--seed``, measures the
set-up several times in fresh processes, performs the timed work once in a
measuring process, checks its outputs, and prints every metric by name and
unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Raw samples
go to ``.perfbench/results/``, keyed by code version, host and seed.

Every random choice comes from ``--seed``: ``PYTHONHASHSEED`` and every
RNG seed are derived from it and printed.  ``--seconds`` sizes the work
(number of mining studies / serving episodes) by a fixed rule, never by a
clock, so a seed and a length always do the same work.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark-local module)

WORKLOADS = ("mine", "mine-pool", "serve")
#: Fresh-process set-up probes per run; with the measuring process's own
#: set-up they give the median ``setup_s``.
SETUP_PROBES = 2
#: Threads every child runs with: one BLAS thread, so runnable threads never
#: exceed ``nproc`` (the 2-worker pool leaves its parent blocked).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def derive(seed: int, purpose: str, index: int = 0, modulus: int = 2**31 - 1) -> int:
    """A process-independent seed for ``purpose`` derived from ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % modulus


def make_spec(workload: str, seed: int, seconds: float, trace: bool,
              size_name: str) -> dict:
    """Work sizes and every seed of one run (mine and mine-pool share seeds)."""
    size = workloads.SIZES[size_name]
    layer = "serve" if workload == "serve" else "mining"
    units = workloads.repeats(seconds, size[layer]["unit_seconds"])
    seeds = {
        "python_hash": derive(seed, "python-hash", modulus=2**32),
        "data": [derive(seed, "data", i) for i in range(units)],
        "search": [derive(seed, "search", i) for i in range(units)],
        "check": derive(seed, "check"),
        "evaluator": derive(seed, "evaluator"),
        "fleet": derive(seed, "fleet"),
        "corruption": derive(seed, "corruption"),
        "corrections": [derive(seed, "corrections", i) for i in range(units)],
    }
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size_name": size_name, "size": size,
            "units": units, "seeds": seeds}


# ----------------------------------------------------------------------
# Host and code identity (the results-record key)
# ----------------------------------------------------------------------
def code_version() -> str:
    """``git describe`` of the checkout, or a hash of ``src/`` without git."""
    if not (ROOT / ".git").exists():
        return _source_hash()
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if described.returncode == 0 and described.stdout.strip():
            return described.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return _source_hash()


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def host_fingerprint() -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds differ in what they report
        pass
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }
    facts["id"] = hashlib.sha256(
        json.dumps(facts, sort_keys=True).encode()).hexdigest()[:12]
    return facts


# ----------------------------------------------------------------------
# Metrics from raw samples
# ----------------------------------------------------------------------
def percentile(values, level: float) -> float:
    import numpy

    return float(numpy.percentile(values, level))


def end_to_end(spec: dict, result: dict, setup_samples: list[float]) -> tuple[dict, list]:
    """The JSON metrics plus human-readable lines under each workload's own names.

    ``throughput_per_s`` is the workload's primary operations per second
    spent on them: searched candidates per wall second of the studies
    (mining), bars per second of bar service time, ``on_bar`` + ``reveal``
    (serve; corrections cost CPU but not bar time).
    """
    checks = result["checks"]
    lines = [
        f"setup_s = {statistics.median(setup_samples):.4f} s "
        f"(median of {len(setup_samples)} set-ups)",
        f"peak_rss_mb = {result['peak_rss_mb']:.1f} MB",
        f"cpu_s = {result['cpu_s']:.3f} s",
        f"fail_ratio = {checks['failed'] / max(1, checks['attempted']):.4f} 1 "
        f"({checks['failed']} of {checks['attempted']} operations)",
    ]
    if spec["workload"] == "serve":
        bars = result["bars_ms"]
        corrections = [c["ms"] for c in result["corrections"]]
        throughput = len(bars) / (sum(bars) / 1e3)
        lines += [
            f"bars_per_s = {throughput:.3f} 1/s ({len(bars)} bars in "
            f"{sum(bars) / 1e3:.3f} s of bar time; stream wall {result['wall_s']:.3f} s)",
            f"bar_p50_ms = {percentile(bars, 50):.4f} ms (n={len(bars)})",
            _tail_line("bar", bars, 99.0, 1000),
            f"correct_p50_ms = {percentile(corrections, 50):.4f} ms (n={len(corrections)})",
            _tail_line("correct", corrections, 90.0, 100),
        ]
    else:
        searched = result["counts"]["core.evolution.candidates"]
        throughput = searched / result["wall_s"]
        lines.append(f"candidates_per_s = {throughput:.3f} 1/s "
                     f"({searched} searched in {result['wall_s']:.3f} s)")
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_per_s": throughput,
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, lines


def _tail_line(name: str, values: list, level: float, needed: int) -> str:
    if len(values) >= needed:
        return f"{name}_p{level:g}_ms = {percentile(values, level):.4f} ms (n={len(values)})"
    return f"{name}_p{level:g}_ms not reported: {len(values)} samples, needs {needed}"


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(spec: dict) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = str(spec["seeds"]["python_hash"])
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(phase: str, spec_path: Path, env: dict) -> str:
    """Run one child phase in its own process group; return its stdout.

    On a timeout the whole group is killed, pool workers included, and
    reaped before the error propagates.
    """
    started = time.time()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), phase, "--spec", str(spec_path),
         "--t0", repr(started)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{phase} process exited with {child.returncode}")
    return stdout


def write_record(spec: dict, record: dict) -> Path:
    """Raw samples plus derived metrics, keyed by code, host and seed."""
    key = record["key"]
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in key["code"])
    path = results / (f"{spec['workload']}-seed{spec['seed']}-trace{int(spec['trace'])}"
                      f"-{key['host']['id']}-{safe}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    with (results / "history.jsonl").open("a") as history:
        history.write(json.dumps({"key": key, "metrics": record["metrics"],
                                  "correct": record["correct"]}, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="work size; 'tiny' is for the harness self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    spec = make_spec(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size)
    work_dir = ROOT / ".perfbench" / "work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = child_env(spec)
    seeds = spec["seeds"]
    pool_workers = workloads.MINING_WORKERS.get(args.workload, 1)
    pool_workers = pool_workers if pool_workers > 1 else 0
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} units={spec['units']}")
    print("seeds: " + json.dumps(seeds, sort_keys=True))
    print(f"threads: {json.dumps(THREAD_ENV, sort_keys=True)} pool_workers={pool_workers} "
          f"nproc={len(os.sched_getaffinity(0))}")
    phases = {}
    try:
        started = time.perf_counter()
        run_child("prepare", spec_path, env)
        phases["prepare"] = time.perf_counter() - started
        setup_samples = [json.loads(run_child("probe", spec_path, env))["setup_s"]
                         for _ in range(SETUP_PROBES)]
        phases["probes"] = time.perf_counter() - started - phases["prepare"]
        run_child("measure", spec_path, env)
        phases["measure"] = time.perf_counter() - started - phases["prepare"] - phases["probes"]
        result = json.loads((work_dir / "result.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # The spans file is the one artefact kept beside the record.
        spans = work_dir / "spans.jsonl"
        if spans.exists():
            keep = ROOT / ".perfbench" / "results" / (
                f"{args.workload}-seed{args.seed}-spans.jsonl")
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), keep)
        shutil.rmtree(work_dir, ignore_errors=True)

    setup_samples.append(result["setup_s"])
    metrics, lines = end_to_end(spec, result, setup_samples)
    checks = result["checks"]
    for line in lines:
        print("metric " + line)
    for name, value in sorted(result["counts"].items()):
        print(f"count {name} = {value}")
    for name, value in sorted(result["digests"].items()):
        if isinstance(value, str):
            print(f"digest {name} = {value}")
    for failure in checks["failures"]:
        print("FAILED " + failure)
    print("phases: " + ", ".join(f"{name} {seconds:.1f} s" for name, seconds in phases.items())
          + f" (timed work {result['wall_s']:.1f} s, checks {checks['seconds']:.1f} s)")
    if args.trace:
        output = result["per_layer"]
        balance = result["trace_balance"]
        for name, (value, unit) in sorted(output.items()):
            print(f"layer {name} = {value:.6g} {unit}")
        print(f"trace balance: layer self times plus other sum to "
              f"{balance['accounted_s']:.6f} s; traced total {balance['total_s']:.6f} s "
              f"(other {balance['other_s']:.6f} s)")
        json_metrics = {name: {"value": value, "unit": unit}
                        for name, (value, unit) in output.items()}
    else:
        json_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                        for name, value in metrics.items()}
    key = {"code": code_version(), "host": host_fingerprint(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "size": args.size}
    record = {
        "key": key, "spec": spec, "setup_samples_s": setup_samples,
        "raw": {name: value for name, value in result.items()
                if name not in ("per_layer", "trace_balance")},
        "metrics": json_metrics, "correct": checks["failed"] == 0,
    }
    path = write_record(spec, record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": max(1, checks["attempted"]),
        "failed": checks["failed"],
        "metrics": json_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
