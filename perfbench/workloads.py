"""Workload bodies of the end-to-end benchmark.

Everything here runs inside a child process that ``run.py`` starts with a
pinned ``PYTHONHASHSEED`` and single-threaded BLAS, so a workload seed
fixes every random choice the program makes.  Each workload has three
parts:

* ``prepare_*`` writes the generated inputs (CSV market, program files)
  into a work directory.  It is not timed.
* ``setup_*`` is what a user waits for before the first operation: imports,
  data load and repair, task set, fleet registration and warm-start.
* ``run_*`` performs the timed work, then checks its outputs against an
  oracle outside the timed region and returns raw samples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import time
from pathlib import Path

import numpy as np

#: Work sizes.  ``full`` is what the benchmark measures; ``tiny`` feeds the
#: harness self-check.  ``--seconds`` buys one work unit (a mining study or
#: a serving episode) per ``unit_seconds``.  A mining run is several
#: independent Table-3 studies, one market each, because the number of
#: cache misses, and with it the cost of a study, depends strongly on the
#: market: averaging several markets keeps a run's figures steady across
#: workload seeds.
SIZES = {
    "full": {
        "mining": {"num_stocks": 80, "num_days": 420, "split": (255, 60, 60),
                   "rounds": 3, "candidates": 150, "unit_seconds": 2.2},
        "serve": {"num_stocks": 80, "num_days": 1300, "train": 257,
                  "served": 1000, "correct_every": 10, "unit_seconds": 20.0},
    },
    "tiny": {
        "mining": {"num_stocks": 40, "num_days": 260, "split": (136, 40, 40),
                   "rounds": 3, "candidates": 24, "unit_seconds": 1.0e9},
        "serve": {"num_stocks": 40, "num_days": 300, "train": 57,
                  "served": 200, "correct_every": 10, "unit_seconds": 1.0e9},
    },
}

MINING_INITIALIZATIONS = ("D", "NOOP", "R", "NN")
MINING_WORKERS = {"mine": 1, "mine-pool": 2}
MINING_ISLANDS = {"mine": 1, "mine-pool": 4}
#: Every fifth correction reaches beyond the 8-day snapshot ring (the
#: unbounded-lookback family then replays from the warm anchor); the rest
#: restart from a ring snapshot or a bounded spin-up.
DEEP_EVERY = 5
RING_DAYS = 8
#: Seed of the serving fleet's mutation chains (see ``generate_fleet``).
FLEET_STRUCTURE_SEED = 20210620


def repeats(seconds: float, unit_seconds: float) -> int:
    """How many fixed work units a run of ``seconds`` performs.

    Derived from the requested length only, never from a clock, so the same
    ``--seconds`` always does the same work.
    """
    return max(1, int(round(seconds / unit_seconds)))


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> None:
    """Import every layer the timed work reaches, as part of set-up.

    Several layers are imported lazily on first use; importing them here
    keeps one-off import cost out of the first timed operation.
    """
    import repro.compile  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.parallel.islands  # noqa: F401
    import repro.parallel.pool  # noqa: F401
    import repro.stream.server  # noqa: F401


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Mining: the serial and the pooled Table-3 protocol
# ----------------------------------------------------------------------
def mining_config(workload: str, size: dict, data_seed: int, search_seed: int):
    from repro.data import Split
    from repro.experiments.configs import LAPTOP

    return LAPTOP.scaled(
        name=f"perfbench-{workload}",
        num_stocks=size["num_stocks"],
        num_days=size["num_days"],
        split=Split(*size["split"]),
        num_rounds=size["rounds"],
        max_candidates=size["candidates"],
        data_seed=data_seed,
        search_seed=search_seed,
        num_workers=MINING_WORKERS[workload],
        num_islands=MINING_ISLANDS[workload],
        scheduler="barrier",
    )


def setup_mining(spec: dict, study: int = 0):
    """Imports plus the synthetic task set of one study."""
    from repro.experiments.configs import make_taskset

    import_program()
    config = mining_config(spec["workload"], spec["size"]["mining"],
                           spec["seeds"]["data"][study],
                           spec["seeds"]["search"][study])
    return config, make_taskset(config, use_cache=False)


def run_mining(spec: dict, first, region=contextlib.nullcontext) -> dict:
    """Run the studies; return raw per-search samples, counts and checks.

    ``first`` is the ``(config, taskset)`` pair ``setup_mining`` built for
    study 0; later studies build their own market before their timed
    region.  ``region`` wraps each timed study (the tracer's root span).
    """
    from repro.core.interpreter import AlphaEvaluator
    from repro.experiments.runner import MiningStudy

    size = spec["size"]["mining"]
    searches: list[dict] = []
    accepted: list[list] = []
    digests: list[str] = []
    wall_total = cpu_total = 0.0
    for study_index in range(len(spec["seeds"]["data"])):
        config, taskset = first if study_index == 0 else setup_mining(spec, study_index)
        study = MiningStudy(config, taskset=taskset,
                            initializations=MINING_INITIALIZATIONS)
        session_search = study.session.search

        def timed_search(program, name, **kwargs):
            wall, cpu = time.perf_counter(), cpu_now()
            mined = session_search(program, name, **kwargs)
            stats = mined.evolution.cache_stats
            searches.append({
                "study": study_index, "name": name,
                "wall_s": time.perf_counter() - wall,
                "cpu_s": cpu_now() - cpu,
                "searched": stats.searched, "evaluated": stats.evaluated,
                "fingerprint_hits": stats.fingerprint_hits,
                "redundant": stats.redundant_alphas,
            })
            return mined

        study.session.search = timed_search
        with region():
            wall, cpu = time.perf_counter(), cpu_now()
            study.run()
            wall_total += time.perf_counter() - wall
            cpu_total += cpu_now() - cpu
        accepted.append([alpha.program for alpha in study.session.accepted])
        digests.append(_digest([
            [record.round_index, record.best_code,
             {code: json.loads(mined.program.to_json(indent=None))
              for code, mined in record.results.items()}]
            for record in study.rounds
        ]))
        del study, taskset
    peak_rss = peak_rss_mb()

    # ---- checks, outside the timed regions -----------------------------
    check_started = time.perf_counter()
    checks = {"attempted": 0, "failed": 0, "failures": []}
    for row in searches:
        checks["attempted"] += 1
        if row["searched"] != size["candidates"]:
            checks["failed"] += 1
            checks["failures"].append(
                f"{row['name']}: searched {row['searched']} of "
                f"{size['candidates']} candidates")
    for study_index, programs in enumerate(accepted):
        config, taskset = first if study_index == 0 else setup_mining(spec, study_index)
        for program in programs:
            checks["attempted"] += 1
            panels = [
                AlphaEvaluator(taskset, seed=spec["seeds"]["check"],
                               max_train_steps=config.max_train_steps,
                               engine=engine).run(program)
                for engine in ("compiled", "interpreter")
            ]
            if any(panels[0][split].tobytes() != panels[1][split].tobytes()
                   for split in panels[0]):
                checks["failed"] += 1
                checks["failures"].append(
                    f"study {study_index} {program.name}: compiled "
                    "predictions differ from the interpreter's")
    checks["seconds"] = time.perf_counter() - check_started
    counts = {
        "core.evolution.candidates": sum(r["searched"] for r in searches),
        "engine.protocol.evaluations": sum(r["evaluated"] for r in searches),
        "core.cache.hits": sum(r["fingerprint_hits"] for r in searches),
        "core.pruning.redundant": sum(r["redundant"] for r in searches),
    }
    return {
        "wall_s": wall_total,
        "cpu_s": cpu_total,
        "peak_rss_at_work_end_mb": peak_rss,
        "searches": searches,
        "counts": counts,
        "digests": {"mined": _digest(digests), "per_study": digests},
        "checks": checks,
    }


# ----------------------------------------------------------------------
# Serve: dirty CSV market, ~100-alpha fleet, bars plus late corrections
# ----------------------------------------------------------------------
def _market_config(size: dict):
    from repro.data import MarketConfig

    return MarketConfig(num_stocks=size["num_stocks"], num_days=size["num_days"],
                        num_sectors=8, industries_per_sector=3)


def generate_fleet(dims, seed: int) -> list:
    """A fleet of 96 alphas with a fixed composition and seeded parameters.

    * 8 families of 9 members: a parent, 6 parameter-resampled children
      (same stack signature, so one stacked tape serves them) and 2 exact
      copies (folded onto one executor by canonical fingerprint).  The
      parents are the D and NN initialisations, one mutant whose state
      recurs without bound (a correction older than the snapshot ring
      replays it from the warm anchor) and 5 mutants with a finite
      lookback.
    * 12 singleton mutants, each served twice (original and exact copy).

    Mutants come from mutation chains of D and NN under the fixed
    :data:`FLEET_STRUCTURE_SEED`; redundant programs are skipped, since
    nobody serves an alpha that prunes away.  ``seed`` draws the children's
    parameters.  The structures stay fixed like the mining workloads'
    initialisations: drawn per seed, a handful of structures decides most
    of a bar's and a replay's cost, and the run-to-run spread of the
    serving metrics was 0.17-0.38 of their median over five seeds.
    """
    from repro.compile import compile_program
    from repro.core.cache import fingerprint
    from repro.core.initializations import get_initialization
    from repro.core.mutation import Mutator
    from repro.core.ops import sample_params
    from repro.core.program import COMPONENTS, Operation
    from repro.core.pruning import prune_program

    rng = np.random.default_rng(FLEET_STRUCTURE_SEED)
    mutator = Mutator(dims, seed=int(rng.integers(2**31 - 1)))
    bases = [get_initialization(code, dims) for code in ("D", "NN")]
    seen = {fingerprint(prune_program(base).program) for base in bases}
    wanted = {"unbounded": 1, "finite": 5 + 12}
    found: dict[str, list] = {"unbounded": [], "finite": []}
    program = bases[0]
    while any(len(found[kind]) < wanted[kind] for kind in wanted):
        if rng.random() < 0.3:
            program = bases[int(rng.integers(len(bases)))]
        program = mutator.mutate(program)
        pruned = prune_program(program)
        if pruned.is_redundant:
            continue
        key = fingerprint(pruned.program)
        if key in seen:
            continue
        lookback = compile_program(pruned.program).lookback.max_lookback
        kind = "unbounded" if lookback is None else "finite"
        if len(found[kind]) < wanted[kind]:
            seen.add(key)
            found[kind].append(program)

    rng = np.random.default_rng(seed)

    def resample(parent, name):
        child = parent.copy(name=name)
        for component in COMPONENTS:
            operations = child.component(component)
            for index, operation in enumerate(operations):
                if operation.spec.param_names:
                    operations[index] = Operation.make(
                        operation.spec.name, operation.inputs, operation.output,
                        sample_params(operation.spec, dims, rng))
        return child

    families = bases + found["unbounded"] + found["finite"][:5]
    fleet = []
    for family, parent in enumerate(families):
        fleet.append(parent.copy(name=f"family{family}_parent"))
        fleet += [resample(parent, f"family{family}_child{i}") for i in range(6)]
        fleet += [parent.copy(name=f"family{family}_copy{i}") for i in range(2)]
    for single, parent in enumerate(found["finite"][5:]):
        fleet.append(parent.copy(name=f"single{single}"))
        fleet.append(parent.copy(name=f"single{single}_copy"))
    return fleet


def prepare_serve(spec: dict, work_dir: Path) -> None:
    """Write the corrupted CSV market and the fleet's program files."""
    from repro.core.ops import Dimensions
    from repro.data import (CorruptionSpec, SyntheticBackend, export_panel_csv,
                            inject_corruption)
    from repro.config import NUM_FEATURES, WINDOW

    size = spec["size"]["serve"]
    seeds = spec["seeds"]
    market_dir = work_dir / "market"
    panel = SyntheticBackend(_market_config(size), seed=seeds["data"][0]).load_panel()
    export_panel_csv(panel, market_dir)
    inject_corruption(market_dir, CorruptionSpec(events=2, seed=seeds["corruption"]),
                      exclude=("sectors.txt",))
    fleet = generate_fleet(Dimensions(NUM_FEATURES, WINDOW), seeds["fleet"])
    (work_dir / "fleet.json").write_text(json.dumps(
        [json.loads(program.to_json(indent=None)) for program in fleet]))


def setup_serve(spec: dict, work_dir: Path):
    """Load and repair the CSVs, build the task set, register, warm-start.

    Returns a dict; ``run_serve`` takes the server out of it, so the warm
    server is freed when its episode ends.
    """
    from repro.core.program import AlphaProgram
    from repro.data import Split, build_taskset, load_csv_directory, load_sector_map
    from repro.stream.server import AlphaServer

    import_program()
    size = spec["size"]["serve"]
    market_dir = work_dir / "market"
    panel = load_csv_directory(
        market_dir, sector_map=load_sector_map(market_dir / "sectors.txt"),
        exclude=("sectors.txt",), repair="robust")
    half = size["served"] // 2
    # No universe filter: over 1,300 days it drops the 8-18 stocks (of 80)
    # that dip below $1, which moved bar cost and memory by up to 8% from
    # seed to seed.  Serving all 80 keeps the input size fixed.
    taskset = build_taskset(panel, split=Split(train=size["train"], valid=half,
                                               test=size["served"] - half),
                            universe_filter=None)
    programs = [AlphaProgram.from_json(json.dumps(payload))
                for payload in json.loads((work_dir / "fleet.json").read_text())]
    server = AlphaServer(taskset, seed=spec["seeds"]["evaluator"],
                         max_train_steps=60)
    for program in programs:
        server.register(program, name=program.name)
    server.warm_start()
    return {"taskset": taskset, "programs": programs, "server": server}


def correction_schedule(spec: dict, episode: int) -> list[dict]:
    """Seeded late corrections: one every ``correct_every`` bars."""
    size = spec["size"]["serve"]
    rng = np.random.default_rng(spec["seeds"]["corrections"][episode])
    schedule = []
    for index, bar in enumerate(range(size["correct_every"] - 1, size["served"],
                                      size["correct_every"])):
        served = bar + 1
        if index % DEEP_EVERY == DEEP_EVERY - 1:
            lag = int(rng.integers(RING_DAYS + 1, 4 * RING_DAYS + 1))
        else:
            lag = int(rng.integers(1, RING_DAYS + 1))
        kind = ("labels", "features", "both")[int(rng.integers(3))]
        schedule.append({
            "after_bar": bar,
            "day": max(0, served - lag),
            "kind": kind,
            "scale": float(1.0 + rng.uniform(-0.05, 0.05)),
        })
    return schedule


def run_serve(spec: dict, setup: dict, region=contextlib.nullcontext) -> dict:
    """Stream every episode through a warm server; check against offline.

    Episode 0 serves on the server ``setup_serve`` warmed; each later
    episode restarts a fresh server from the suspended warm state (not
    timed) and replays the served days under its own correction schedule.
    ``region`` wraps each timed episode (the tracer's root span).
    """
    from repro.core.interpreter import AlphaEvaluator
    from repro.stream.server import AlphaServer

    taskset, programs = setup["taskset"], setup["programs"]
    server = setup.pop("server")
    size = spec["size"]["serve"]
    train = taskset.split.train
    warm_state = server.suspend()
    bars_ms: list[float] = []
    corrections: list[dict] = []
    episodes: list[dict] = []
    wall_total = cpu_total = history_mb = 0.0
    for episode in range(len(spec["seeds"]["corrections"])):
        if episode > 0:
            server = None  # one serving process holds one fleet
            server = AlphaServer(taskset, seed=spec["seeds"]["evaluator"],
                                 max_train_steps=60)
            for program in programs:
                server.register(program, name=program.name)
            server.resume(warm_state)
        keys = {registration.name: registration.key
                for registration in server.registrations}
        # One name per executor: deduplicated names share its predictions.
        names = {key: name for name, key in reversed(keys.items())}
        schedule = {item["after_bar"]: item
                    for item in correction_schedule(spec, episode)}
        # Corrected bars, by served day; every other bar is the task set's.
        fixed_features: dict[int, np.ndarray] = {}
        fixed_labels: dict[int, np.ndarray] = {}
        panels = {key: np.empty((size["served"], taskset.num_tasks))
                  for key in names}
        with region():
            wall, cpu = time.perf_counter(), cpu_now()
            for day in range(size["served"]):
                start = time.perf_counter()
                predictions = server.on_bar(taskset.features[train + day])
                server.reveal(taskset.labels[train + day])
                bars_ms.append((time.perf_counter() - start) * 1e3)
                for key, name in names.items():
                    panels[key][day] = predictions[name]
                item = schedule.get(day)
                if item is None:
                    continue
                target = item["day"]
                new_features = new_labels = None
                if item["kind"] in ("features", "both"):
                    new_features = fixed_features.get(
                        target, taskset.features[train + target]) * item["scale"]
                    fixed_features[target] = new_features
                if item["kind"] in ("labels", "both"):
                    new_labels = fixed_labels.get(
                        target, taskset.labels[train + target]) * item["scale"]
                    fixed_labels[target] = new_labels
                start = time.perf_counter()
                suffix = server.correct_bar(target, features=new_features,
                                            labels=new_labels)
                elapsed = time.perf_counter() - start
                record = server.corrections[-1]
                corrections.append({
                    "episode": episode, "day": target,
                    "days_served": record.days_served,
                    "replayed_days": record.replayed_days,
                    "ms": elapsed * 1e3,
                })
                for key, name in names.items():
                    panels[key][target:day + 1] = suffix[name]
            wall_total += time.perf_counter() - wall
            cpu_total += cpu_now() - cpu
        # The server's retained-history buffers have no public accessor.
        history_mb = max(history_mb, sum(
            buffer.nbytes for buffer in (server._history_features,
                                         server._history_labels)) / 1e6)
        episodes.append({"keys": keys, "panels": panels,
                         "features": fixed_features, "labels": fixed_labels})
    peak_rss = peak_rss_mb()

    # ---- checks, outside the timed regions -----------------------------
    # Every served day's final prediction (first served, or re-served by a
    # correction's replay) must equal the offline batch path over the fully
    # corrected history.
    check_started = time.perf_counter()
    checks = {"attempted": 0, "failed": 0, "failures": []}
    digests: list[str] = []
    for episode, outcome in enumerate(episodes):
        features = np.array(taskset.features, copy=True)
        labels = np.array(taskset.labels, copy=True)
        for day, row in outcome["features"].items():
            features[train + day] = row
        for day, row in outcome["labels"].items():
            labels[train + day] = row
        reference = AlphaEvaluator(
            dataclasses.replace(taskset, features=features, labels=labels),
            seed=spec["seeds"]["evaluator"], max_train_steps=60,
            engine="compiled")
        representative = {}
        for program in programs:
            representative.setdefault(outcome["keys"][program.name], program)
        for key, program in representative.items():
            checks["attempted"] += 1
            offline = reference.run(program, splits=("valid", "test"))
            expected = np.concatenate([offline["valid"], offline["test"]])
            if expected.tobytes() != outcome["panels"][key].tobytes():
                checks["failed"] += 1
                checks["failures"].append(
                    f"episode {episode}: {program.name} differs from the "
                    "offline replay of the corrected history")
        digests.append(_digest(sorted(
            hashlib.sha256(panel.tobytes()).hexdigest()
            for panel in outcome["panels"].values())))
        del features, labels, reference
    checks["seconds"] = time.perf_counter() - check_started
    counts = {
        "engine.fleet.unique": server.num_unique,
        "engine.fleet.stack_groups": server.fleet.stack_groups,
        "engine.replay.corrections": len(corrections),
        "engine.replay.replayed_days": sum(c["replayed_days"] for c in corrections),
    }
    return {
        "wall_s": wall_total,
        "cpu_s": cpu_total,
        "peak_rss_at_work_end_mb": peak_rss,
        "bars_ms": bars_ms,
        "corrections": corrections,
        "registered": server.num_registered,
        "history_mb": history_mb,
        "train_days": len(server.evaluator.train_day_indices()),
        "counts": counts,
        "digests": {"served": _digest(digests), "per_episode": digests},
        "checks": checks,
    }


def thread_settings() -> dict:
    """The thread limits this process runs under (recorded with results)."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "PYTHONHASHSEED")
    return {name: os.environ.get(name) for name in names}
