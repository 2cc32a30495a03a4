#!/usr/bin/env python3
"""Render the README's benchmark table from the ``BENCH_*.json`` artifacts.

Auto-discovers every ``benchmarks/results/BENCH_*.json`` (the single source
of truth — see ``benchmarks/README.md``) and prints the markdown table
embedded in ``README.md`` under "Measured performance", so the published
numbers are always regenerable from the artifacts that back them.  Known
benchmarks render their headline rows through the registry below; an
artifact without a registered renderer still appears as a generic row, so a
new ``bench_*.py`` shows up in the table the moment its JSON lands.
Missing artifacts simply do not contribute rows, so the table can be
rendered from a partial benchmark run.

Run with::

    python benchmarks/render_bench_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

Row = tuple[str, str, str]


def discover() -> dict[str, dict]:
    """name → payload for every ``BENCH_<name>.json`` in the results dir."""
    artifacts: dict[str, dict] = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            artifacts[name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:  # pragma: no cover - corrupt file
            print(f"note: skipping unreadable {path}: {exc}", file=sys.stderr)
    return artifacts


# ---------------------------------------------------------------------------
# Per-benchmark headline renderers (name -> payload -> rows)
# ---------------------------------------------------------------------------

def _render_compile(payload: dict) -> list[Row]:
    return [
        (
            "compiled tape vs interpreter (inference stage)",
            f"{payload['inference_speedup']}x",
            f"`bench_compile.py`, {payload['num_programs']} programs, "
            "bitwise parity",
        ),
        (
            "compiled tape vs interpreter (full evaluation)",
            f"{payload['full_speedup']}x",
            f"`bench_compile.py`, "
            f"{payload['compiled']['full_candidates_per_second']} "
            "candidates/s compiled",
        ),
    ] + _render_key_gate(payload.get("key_gate"))


def _render_key_gate(gate: dict | None) -> list[Row]:
    if gate is None:
        return []
    return [(
        "fingerprint keys vs validation-prediction classes (mutation-tree "
        "corpus)",
        f"{gate['keys']} / {gate['prediction_classes']}",
        f"`bench_compile.py`, {gate['programs']} programs, "
        f"{gate['false_merges']} keys with two prediction classes (gated), "
        f"{gate['unmerged_duplicates']} duplicates left unmerged",
    )]


def _megabytes(count: int) -> str:
    return f"{count / 1e6:.1f} MB"


def _render_parallel(payload: dict) -> list[Row]:
    shared = ""
    if "materialised_feature_bytes" in payload:
        shared = (f", {_megabytes(payload['shared_panel_bytes'])} shared "
                  f"segment for {_megabytes(payload['materialised_feature_bytes'])}"
                  " of windows")
    return [(
        f"evaluation pool, {payload['speedup_workers']} workers vs serial "
        "stacked batch",
        f"{payload['speedup_vs_serial']}x",
        f"`bench_parallel.py` on {payload['cpu_count']} CPU(s), "
        f"{payload['num_programs']} programs, bitwise parity{shared}",
    )]


def _render_stream(payload: dict) -> list[Row]:
    return [(
        "incremental serving vs full recompute (per arriving day)",
        f"{payload['speedup_vs_full_recompute']}x",
        f"`bench_stream.py`, {payload['warm_history_days']}-day warm "
        f"history, {payload['incremental']['mean_bar_latency_ms']} ms "
        "mean bar latency, bitwise parity",
    )]


def _render_update(payload: dict) -> list[Row]:
    return [(
        "delta-replay of a late correction vs full warm-start replay",
        f"{payload['speedup_vs_full_replay']}x",
        f"`bench_update.py`, {payload['history_days']}-day served history, "
        f"{payload['speedup_curve'][-1]['replayed_days']} days replayed, "
        "bitwise parity with the full replay",
    )]


def _render_engine(payload: dict) -> list[Row]:
    rows: list[Row] = []
    static = payload.get("static_predict_time_batching", {})
    if static.get("num_programs"):
        rows.append((
            "static-predict time batching vs per-day loop (full evaluation)",
            f"{static['speedup']}x",
            f"`bench_engine.py`, {static['num_programs']} static-predict "
            "programs, 4-way bitwise parity",
        ))
    fleet = payload.get("fleet_evaluation", {})
    if fleet.get("num_programs"):
        rows.append((
            "fleet evaluation through one engine vs per-program loop",
            f"{fleet['speedup']}x",
            f"`bench_engine.py`, {fleet['num_programs']} programs "
            f"({fleet['unique_programs']} unique after canonical dedup), "
            f"{fleet['programs_per_second_fleet']} programs/s",
        ))
    stacked = payload.get("stacked_fleet", {})
    if stacked.get("num_programs"):
        rows.append((
            "stacked fleet kernels vs per-program loop (mining generation)",
            f"{stacked['stacked_speedup_vs_loop']}x",
            f"`bench_engine.py`, {stacked['num_programs']} programs "
            f"({stacked['unique_programs']} unique, "
            f"{stacked['stack_groups']} stack groups), "
            f"{stacked['programs_per_second_stacked']} programs/s",
        ))
    return rows


def _render_data(payload: dict) -> list[Row]:
    spanned = ""
    feature_bytes = payload["synthetic"].get("taskset_feature_bytes")
    if feature_bytes:
        spanned = (f"; task-set features span "
                   f"{_megabytes(feature_bytes['spanned'])} of "
                   f"{_megabytes(feature_bytes['materialised'])} of windows")
    return [(
        "file-backend panel cache (warm vs cold CSV load)",
        f"{payload['speedup']}x",
        f"`bench_data.py`, {payload['num_stocks']} stocks x "
        f"{payload['num_days']} days, synthetic + CSV round-trip "
        f"bitwise parity{spanned}",
    )]


def _render_obs(payload: dict) -> list[Row]:
    overhead = payload.get("overhead", {})
    if "enabled_over_disabled_quartiles" not in overhead:
        return []
    ratios = overhead["enabled_over_disabled_quartiles"]
    return [(
        "telemetry overhead (enabled / disabled, median of paired rounds, "
        "reported, not gated) on compiled full evaluation",
        f"{overhead['enabled_overhead_pct']}%",
        f"`bench_obs.py`, {payload['num_programs']} programs, "
        f"{overhead['repeats']} rounds, ratio q1-q3 "
        f"{ratios['q1']}-{ratios['q3']}, "
        "on/off bitwise parity across 4 execution paths, "
        f"{sum(payload['instrument_calls']['disabled'].values())} "
        "instrument calls with telemetry off",
    )]


def _render_generic(name: str, payload: dict) -> list[Row]:
    """Fallback row for an artifact without a registered renderer."""
    speedup = payload.get("speedup") or payload.get("headline_speedup")
    if speedup is None:
        print(f"note: BENCH_{name}.json has no registered renderer and no "
              "top-level 'speedup' key; add one to RENDERERS in "
              "render_bench_table.py", file=sys.stderr)
        return []
    return [(
        payload.get("benchmark", name),
        f"{speedup}x",
        f"`bench_{name}.py`",
    )]


#: Known headline renderers, in the order their rows appear in the table.
RENDERERS = {
    "compile": _render_compile,
    "parallel": _render_parallel,
    "stream": _render_stream,
    "update": _render_update,
    "engine": _render_engine,
    "data": _render_data,
    "obs": _render_obs,
}


def render() -> str:
    """The markdown benchmark table (one row per recorded headline number)."""
    artifacts = discover()
    rows: list[Row] = []
    for name, renderer in RENDERERS.items():
        payload = artifacts.pop(name, None)
        if payload is None:
            print(f"note: benchmarks/results/BENCH_{name}.json missing; "
                  f"run benchmarks/bench_{name}.py", file=sys.stderr)
            continue
        rows.extend(renderer(payload))
    for name, payload in artifacts.items():  # discovered but unregistered
        rows.extend(_render_generic(name, payload))

    lines = [
        "| workload | speedup | details |",
        "| --- | --- | --- |",
    ]
    for workload, speedup, details in rows:
        lines.append(f"| {workload} | **{speedup}** | {details} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
