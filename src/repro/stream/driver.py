"""Online backtest driver: market ticks → AlphaServer → backtest engine.

The driver closes the loop the ROADMAP's serving goal asks for: it takes the
task set built from :mod:`repro.data.market_sim` ticks, warm-starts an
:class:`~repro.stream.server.AlphaServer` over the training history, then
replays the validation and test splits **one day at a time** — exactly as a
live serving process would see them — collecting each alpha's predictions
and handing the test-split panel to :class:`repro.backtest.engine.BacktestEngine`
for the paper's Sharpe/IC metrics.

Its defining feature is the **parity assertion**: for every served alpha the
day-by-day streamed predictions are compared bit for bit against the offline
batch path (:meth:`repro.core.interpreter.AlphaEvaluator.run` with the same
seed), and the online backtest metrics against the offline backtest of those
batch predictions.  Online serving and offline research share one code path,
so the assertion holds by construction — and the driver makes the contract
executable, which is what the CI stream-parity gate and
``benchmarks/bench_stream.py`` run.

:func:`run_serve` is the ``repro serve`` CLI entry point: it mines (or
receives) a top-K alpha fleet for an :class:`ExperimentConfig` and streams
it through the driver.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from ..backtest.engine import BacktestEngine
from ..core.interpreter import AlphaEvaluator
from ..core.program import AlphaProgram
from ..data.dataset import TaskSet
from ..engine.protocol import stream_days
from ..errors import StreamError
from ..obs import TELEMETRY, RunRecord, build_run_record
from .server import AlphaServer

__all__ = [
    "BarCorrection", "ServedAlphaRow", "ServeReport", "OnlineBacktestDriver",
    "run_serve",
]

#: Splits the driver streams, in chronological order.
_STREAM_SPLITS = ("valid", "test")


@dataclass(frozen=True)
class BarCorrection:
    """A late point correction to one already-served bar.

    ``day`` is the served-day index (0 = the first streamed bar, counting
    across the valid and test splits); the scales multiply that day's
    feature tensor / label vector — the shape a vendor restatement takes
    when it rescales a bad print.  ``None`` leaves that side untouched.
    """

    day: int
    feature_scale: float | None = None
    label_scale: float | None = None

    def __post_init__(self) -> None:
        if self.feature_scale is None and self.label_scale is None:
            raise StreamError(
                f"correction at day {self.day} changes neither features "
                f"nor labels"
            )


@dataclass
class ServedAlphaRow:
    """Metrics and parity verdict for one served alpha."""

    name: str
    sharpe: float
    ic: float
    #: Bitwise equality of streamed vs batch predictions, per split.
    parity: bool
    #: Whether this name shares another registration's executor.
    deduplicated: bool

    def row(self) -> dict[str, float | str | bool]:
        """A flat table row (used by the CLI and the recorder)."""
        return {
            "alpha": self.name,
            "sharpe": self.sharpe,
            "ic": self.ic,
            "parity": self.parity,
            "deduplicated": self.deduplicated,
        }


@dataclass
class ServeReport:
    """Everything one online serving run produced."""

    rows: list[ServedAlphaRow]
    #: Serving statistics from :meth:`AlphaServer.stats`.
    stats: dict[str, float | int]
    #: name → split → streamed ``(days, K)`` prediction panel.
    predictions: dict[str, dict[str, np.ndarray]]
    elapsed_seconds: float
    metadata: dict = field(default_factory=dict)
    #: Provenance + telemetry of the run (attached by :func:`run_serve`).
    run_record: RunRecord | None = None
    #: The fleet that was served, in row order (attached by
    #: :func:`run_serve`).  Lets callers replay the identical programs over
    #: a different data repair — the robustness-band evaluation in
    #: :mod:`repro.scenarios.robustness`.
    programs: list[AlphaProgram] | None = None
    program_names: list[str] | None = None

    @property
    def parity(self) -> bool:
        """Whether every served alpha matched the offline path bitwise.

        Covers both the clean stream (per-row verdicts) and, when late
        corrections were injected, the delta-replayed suffix against a full
        offline replay of the corrected history.
        """
        corrected = self.metadata.get("corrections")
        correction_parity = corrected is None or bool(corrected["parity"])
        return all(row.parity for row in self.rows) and correction_parity

    def render(self) -> str:
        """A printable summary table plus the serving statistics."""
        lines = ["{:<20} {:>10} {:>9} {:>7} {:>7}".format(
            "alpha", "Sharpe", "IC", "parity", "dedup")]
        for row in self.rows:
            lines.append("{:<20} {:>10.4f} {:>9.4f} {:>7} {:>7}".format(
                row.name, row.sharpe, row.ic,
                "ok" if row.parity else "FAIL",
                "yes" if row.deduplicated else "no"))
        stats = self.stats
        lines.append("")
        lines.append(
            f"served {stats['days_served']} days x "
            f"{stats['registered_alphas']} alphas "
            f"({stats['unique_executors']} unique executors, "
            f"{stats['deduplicated_alphas']} deduplicated)"
        )
        lines.append(
            f"bar latency mean {stats['mean_bar_latency_ms']:.3f} ms, "
            f"p95 {stats['p95_bar_latency_ms']:.3f} ms; "
            f"{stats['alpha_days_per_second']:.0f} alpha-days/s"
        )
        lines.append(
            "parity with the offline batch path: "
            + ("bitwise identical" if self.parity else "VIOLATED")
        )
        return "\n".join(lines)


class OnlineBacktestDriver:
    """Streams a program fleet through an :class:`AlphaServer` and verifies it.

    Parameters
    ----------
    taskset:
        The task set whose train split warms the server and whose valid/test
        splits are replayed as arriving bars.
    programs / names:
        The fleet to serve; ``names`` defaults to each program's own name.
    seed / max_train_steps / use_update:
        Evaluator settings, shared by the server and the offline reference
        path so the parity assertion is meaningful.
    long_k / short_k:
        Long-short book sizes for the backtest.
    """

    def __init__(
        self,
        taskset: TaskSet,
        programs: list[AlphaProgram],
        names: list[str] | None = None,
        seed: int | np.random.Generator | None = 0,
        max_train_steps: int | None = None,
        use_update: bool = True,
        long_k: int = 10,
        short_k: int = 10,
    ) -> None:
        if not programs:
            raise StreamError("no programs to serve")
        if names is not None and len(names) != len(programs):
            raise StreamError(
                f"{len(names)} names for {len(programs)} programs"
            )
        self.taskset = taskset
        self.programs = list(programs)
        self.names = list(names) if names is not None else [
            program.name for program in programs
        ]
        self.seed = seed
        self.max_train_steps = max_train_steps
        self.use_update = use_update
        self.engine = BacktestEngine(taskset, long_k=long_k, short_k=short_k)

    # ------------------------------------------------------------------
    def build_server(self) -> AlphaServer:
        """A warm server with the whole fleet registered."""
        server = AlphaServer(
            self.taskset,
            seed=self.seed,
            max_train_steps=self.max_train_steps,
            use_update=self.use_update,
        )
        for program, name in zip(self.programs, self.names):
            server.register(program, name=name)
        server.warm_start()
        return server

    def stream(self, server: AlphaServer) -> dict[str, dict[str, np.ndarray]]:
        """Replay the valid and test splits through ``server`` day by day.

        The day-loop (and its predict-before-reveal ordering) is the single
        shared implementation, :func:`repro.engine.protocol.stream_days` —
        the same loop the offline inference stage runs.
        """
        taskset = self.taskset
        num_tasks = taskset.num_tasks
        served: dict[str, dict[str, np.ndarray]] = {
            name: {
                split: np.zeros((getattr(taskset.split, split), num_tasks))
                for split in _STREAM_SPLITS
            }
            for name in self.names
        }
        for split in _STREAM_SPLITS:
            def step(day: int, bar: np.ndarray, split: str = split) -> None:
                predictions = server.on_bar(bar)
                for name in self.names:
                    served[name][split][day] = predictions[name]

            stream_days(
                taskset.split_features(split),
                taskset.split_labels(split),
                step,
                server.reveal,
            )
        return served

    # ------------------------------------------------------------------
    def apply_corrections(
        self,
        server: AlphaServer,
        served: dict[str, dict[str, np.ndarray]],
        corrections: list[BarCorrection],
    ) -> dict:
        """Inject late corrections into ``server`` and verify delta-replay.

        Each correction rewrites one already-served bar through
        :meth:`AlphaServer.correct_bar`; the delta-replayed suffix
        predictions are patched back into the ``served`` panels in place.
        Afterwards every unique alpha is re-run offline over a task set with
        the same corrections applied, and the panels are compared bit for
        bit — the executable form of the claim that bounded delta-replay
        equals a full warm-start recompute.  Returns the metadata block
        recorded under ``ServeReport.metadata["corrections"]``.
        """
        taskset = self.taskset
        valid_days = taskset.split.valid
        # Patched copies of the full sample panels back the offline
        # reference; served day d is global sample index train + d.
        features = np.array(taskset.features, copy=True)
        labels = np.array(taskset.labels, copy=True)
        records: list[dict] = []
        for correction in corrections:
            day = int(correction.day)
            if not 0 <= day < server.days_served:
                raise StreamError(
                    f"correction day {day} outside the "
                    f"{server.days_served} served days"
                )
            sample = taskset.split.train + day
            new_features = None
            new_labels = None
            if correction.feature_scale is not None:
                features[sample] = features[sample] * float(
                    correction.feature_scale
                )
                new_features = features[sample]
            if correction.label_scale is not None:
                labels[sample] = labels[sample] * float(correction.label_scale)
                new_labels = labels[sample]
            suffix = server.correct_bar(
                day, features=new_features, labels=new_labels
            )
            for name in self.names:
                panel = suffix[name]
                for offset in range(panel.shape[0]):
                    served_day = day + offset
                    if served_day < valid_days:
                        served[name]["valid"][served_day] = panel[offset]
                    else:
                        served[name]["test"][served_day - valid_days] = (
                            panel[offset]
                        )
            record = server.corrections[-1]
            records.append({
                "day": record.day,
                "features_corrected": record.features_corrected,
                "labels_corrected": record.labels_corrected,
                "replayed_days": record.replayed_days,
                "days_served": record.days_served,
            })
        # Offline reference over the *corrected* history: a fresh evaluator
        # on the patched task set, forced onto the server's base seed so the
        # comparison is meaningful even for Generator/None driver seeds.
        patched = dataclasses.replace(
            taskset, features=features, labels=labels
        )
        reference = AlphaEvaluator(
            patched,
            seed=self.seed,
            max_train_steps=self.max_train_steps,
            use_update=self.use_update,
            engine="compiled",
        )
        reference._base_seed = server.base_seed
        batch_by_key: dict[str, dict[str, np.ndarray]] = {}
        key_by_name = {
            registration.name: registration.key
            for registration in server.registrations
        }
        violations: list[str] = []
        for program, name in zip(self.programs, self.names):
            key = key_by_name[name]
            batch = batch_by_key.get(key)
            if batch is None:
                batch = reference.run(program, splits=_STREAM_SPLITS)
                batch_by_key[key] = batch
            if not all(
                served[name][split].tobytes() == batch[split].tobytes()
                for split in _STREAM_SPLITS
            ):
                violations.append(name)
        return {
            "count": len(records),
            "records": records,
            "parity": not violations,
            "violations": violations,
        }

    # ------------------------------------------------------------------
    def run(self, strict_parity: bool = True) -> ServeReport:
        """Serve the fleet online and verify it against the offline path.

        With ``strict_parity`` (the default) any bitwise divergence between
        the streamed and the batch predictions — or between the online and
        offline backtest metrics — raises :class:`StreamError`; otherwise
        the mismatch is recorded in the report rows.
        """
        start = time.perf_counter()
        server = self.build_server()
        served = self.stream(server)
        return self.verify(server, served, strict_parity=strict_parity,
                           start_time=start)

    def verify(
        self,
        server: AlphaServer,
        served: dict[str, dict[str, np.ndarray]],
        strict_parity: bool = True,
        start_time: float | None = None,
    ) -> ServeReport:
        """Check streamed predictions against the offline path and report.

        Split out of :meth:`run` so callers that already hold a streamed
        server — the latency benchmark, a long-lived serving process — can
        get the parity verdict without serving the splits a second time.
        """
        start = time.perf_counter() if start_time is None else start_time
        # The server's own (paired) evaluator is the offline reference: with
        # a Generator or None seed a freshly built evaluator would draw a
        # *different* base seed, turning a healthy run into a spurious
        # parity failure.  Its run() builds a fresh context per call, so
        # running the batch path through it leaves the server untouched.
        offline = server.evaluator
        registration_key = {
            registration.name: registration.key
            for registration in server.registrations
        }
        deduplicated = {
            registration.name: registration.deduplicated
            for registration in server.registrations
        }
        rows: list[ServedAlphaRow] = []
        violations: list[str] = []
        # Names deduplicated onto one executor serve the representative's
        # predictions, so the (expensive) offline reference and the two
        # backtests are computed once per unique executor as well.
        batch_by_key: dict[str, dict[str, np.ndarray]] = {}
        results_by_key: dict[str, tuple] = {}
        for program, name in zip(self.programs, self.names):
            key = registration_key[name]
            batch = batch_by_key.get(key)
            if batch is None:
                batch = offline.run(program, splits=_STREAM_SPLITS)
                batch_by_key[key] = batch
                results_by_key[key] = (
                    self.engine.evaluate(
                        served[name]["test"], split="test", name=name
                    ),
                    self.engine.evaluate(batch["test"], split="test", name=name),
                )
            parity = all(
                served[name][split].tobytes() == batch[split].tobytes()
                for split in _STREAM_SPLITS
            )
            online_result, offline_result = results_by_key[key]
            same_metrics = (
                online_result.sharpe == offline_result.sharpe
                and online_result.ic == offline_result.ic
            ) or (
                np.isnan(online_result.sharpe)
                and np.isnan(offline_result.sharpe)
            )
            parity = parity and same_metrics
            if not parity:
                violations.append(name)
            rows.append(ServedAlphaRow(
                name=name,
                sharpe=online_result.sharpe,
                ic=online_result.ic,
                parity=parity,
                deduplicated=deduplicated[name],
            ))
        if strict_parity and violations:
            raise StreamError(
                "online serving diverged from the offline batch path for: "
                + ", ".join(violations)
            )
        return ServeReport(
            rows=rows,
            stats=server.stats(),
            predictions=served,
            elapsed_seconds=time.perf_counter() - start,
            metadata={
                "base_seed": server.base_seed,
                "splits": list(_STREAM_SPLITS),
            },
        )


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------

def run_serve(config, programs: list[AlphaProgram] | None = None,
              names: list[str] | None = None,
              corrections: list[BarCorrection] | None = None) -> ServeReport:
    """Mine (or receive) a top-K fleet for ``config`` and serve it online.

    ``corrections`` injects late point corrections after the stream: each
    one rewrites an already-served bar through the server's bounded
    delta-replay (:meth:`AlphaServer.correct_bar`) and the corrected panels
    are verified bitwise against a full offline replay of the corrected
    history (``metadata["corrections"]``, folded into ``report.parity``).

    Without ``programs`` a :class:`~repro.core.mining.MiningSession` mines
    ``config.serve_top_k`` weakly correlated alphas — one search per
    initialisation, cycling D → NN → R as in the paper's protocol — and the
    accepted set is what gets served.  The report's metadata records how the
    fleet was obtained; its ``run_record`` captures provenance plus the
    per-phase (mine / compile / serve) wall-clock breakdown — and, when
    telemetry is enabled (``--telemetry`` or :func:`~repro.obs.telemetry_session`),
    the full metric snapshot and span tree.
    """
    # Imported lazily: repro.experiments sits above repro.stream.
    from ..core.initializations import get_initialization
    from ..core.mining import MiningSession
    from ..core.ops import Dimensions
    from ..experiments.configs import make_taskset

    #: Initialisations worth mining from (NOOP is the ablation baseline).
    mining_codes = ("D", "NN", "R")

    phase_seconds: dict[str, float] = {}
    phase_started = time.perf_counter()
    taskset = make_taskset(config)
    mined_names: list[str] | None = names
    if programs is None:
        with TELEMETRY.span("serve.mine", top_k=config.serve_top_k):
            session = MiningSession(
                taskset,
                evolution_config=config.evolution_config(),
                correlation_cutoff=config.correlation_cutoff,
                long_k=config.long_positions,
                short_k=config.short_positions,
                max_train_steps=config.max_train_steps,
                seed=config.search_seed,
                checkpoint_dir=config.checkpoint_dir,
            )
            dims = Dimensions(taskset.num_features, taskset.window)
            codes = [
                mining_codes[i % len(mining_codes)]
                for i in range(config.serve_top_k)
            ]
            for i, code in enumerate(codes):
                mined = session.search(
                    get_initialization(code, dims, seed=config.search_seed + i),
                    name=f"alpha_AE_{code}_{i}",
                    enforce_cutoff=True,
                )
                session.accept(mined)
            programs = session.accepted_programs()
            mined_names = [alpha.name for alpha in session.accepted]
    phase_seconds["mine"] = time.perf_counter() - phase_started

    driver = OnlineBacktestDriver(
        taskset,
        programs,
        names=mined_names,
        seed=config.search_seed,
        max_train_steps=config.max_train_steps,
        long_k=config.long_positions,
        short_k=config.short_positions,
    )
    start = time.perf_counter()
    # The compile phase covers registration (canonical-IR dedup), tape
    # compilation and the warm-start training replay.
    phase_started = time.perf_counter()
    with TELEMETRY.span("serve.compile", fleet=len(programs)):
        server = driver.build_server()
    phase_seconds["compile"] = time.perf_counter() - phase_started
    phase_started = time.perf_counter()
    with TELEMETRY.span("serve.stream"):
        served = driver.stream(server)
    # Parity violations are recorded in the report (and turned into a
    # non-zero exit by the CLI) instead of raising, so the rendered table
    # and --output diagnostics survive a failure.
    report = driver.verify(server, served, strict_parity=False,
                           start_time=start)
    phase_seconds["serve"] = time.perf_counter() - phase_started
    if corrections:
        # Verified *after* the clean-stream parity rows above, so a
        # correction failure is attributable to the delta-replay path.
        phase_started = time.perf_counter()
        with TELEMETRY.span("serve.correct", corrections=len(corrections)):
            report.metadata["corrections"] = driver.apply_corrections(
                server, served, list(corrections)
            )
        phase_seconds["correct"] = time.perf_counter() - phase_started
    report.programs = list(programs)
    report.program_names = list(driver.names)
    report.metadata["scale"] = config.name
    report.metadata["serve_top_k"] = getattr(config, "serve_top_k", len(programs))
    report.metadata["phase_seconds"] = {
        phase: round(seconds, 6) for phase, seconds in phase_seconds.items()
    }
    report.run_record = build_run_record(
        "serve",
        config=config,
        data_key=str(config.data_backend().cache_key()),
        engine="fleet-compiled",
        phase_seconds=report.metadata["phase_seconds"],
        metadata={
            "fleet": list(report.predictions),
            "parity": report.parity,
            "days_served": report.stats.get("days_served", 0),
            "stack_groups": report.stats.get("stack_groups", 0),
        },
    )
    return report
