"""Command-line interface for regenerating the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1                 # regenerate Table 1 (laptop scale)
    python -m repro.cli table3 --scale smoke   # quick pass of Table 3
    python -m repro.cli all --output results/  # everything, saved as JSON
    python -m repro.cli inspect alpha.json     # show pruned/compiled forms
    python -m repro.cli ops                    # print the operator registry
    python -m repro.cli serve --scale smoke    # mine top-K alphas, serve online
    python -m repro.cli scenario --list        # the named scenario suite
    python -m repro.cli scenario weekly --scale smoke   # one scenario, end to end
    python -m repro.cli stats serve.runrecord.json      # render a run record

Each experiment command prints the regenerated table (in the paper's layout)
and, when ``--output`` is given, stores the structured rows as JSON through
:mod:`repro.experiments.recorder` so they can be inspected or re-rendered
later without re-running the search.

``inspect`` takes a program serialised with
:meth:`repro.core.AlphaProgram.to_json` and renders it next to its pruned
form, its fingerprint, its compiled tape IR and the per-pass optimiser
statistics (:mod:`repro.compile`).

``serve`` mines a top-K fleet of weakly correlated alphas (or loads saved
programs with ``--program``) and streams the validation/test days through
the :class:`repro.stream.server.AlphaServer`, printing each alpha's online
backtest metrics, the per-bar serving latency and the result of the bitwise
parity check against the offline batch path.  ``--correct DAY`` (or a
``--corrections`` JSON file) injects late point corrections after the
stream: each rewrites an already-served bar through the server's bounded
delta-replay and is verified bitwise against a full replay of the corrected
history.

``scenario`` drives the same mine→compile→serve pipeline for one *named
scenario* of the suite in :mod:`repro.scenarios` (``--list`` shows them):
the scenario picks the data backend (synthetic, file-backed, resampled)
and market regime, ``--scale``/``--top-k``/``--candidates`` size the run,
and ``--output`` stores a per-scenario results JSON.

``serve`` and ``scenario`` accept ``--telemetry <path>``: the run executes
under an enabled :func:`repro.obs.telemetry_session` (results are bitwise
unchanged — telemetry is strictly observational) and its
:class:`~repro.obs.RunRecord` — provenance, phase timings, metric snapshot
and span tree — is written to ``<path>``.  ``stats`` renders such a record
(or a result JSON embedding one) back as a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    PAPER_REFERENCE,
    SCALES,
    run_all,
    run_figure6,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    save_result,
)

_RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "figure6": run_figure6,
}

#: The experiment scales ``--scale`` accepts — the single registry shared
#: with the scenario suite (repro.experiments.configs.SCALES).
_SCALES = SCALES


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the AlphaEvolve paper's tables and figure.",
        epilog="Additional subcommands: 'repro inspect <program.json>' renders "
               "a saved alpha next to its pruned and compiled forms with "
               "per-pass optimiser statistics; 'repro ops' prints the "
               "alpha-language operator registry; 'repro serve' mines a top-K "
               "alpha fleet and streams it through the online AlphaServer "
               "with a bitwise parity check against the offline batch path; "
               "'repro scenario <name>' (or --list) runs one named scenario "
               "of the suite in repro.scenarios end to end; 'repro stats "
               "<record.json>' renders a saved run record (provenance, span "
               "tree, instrument table).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_RUNNERS) + ["all"],
        help="which experiment to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="laptop",
        help="experiment scale (default: laptop)",
    )
    parser.add_argument(
        "--stocks", type=int, default=None,
        help="override the number of simulated stocks",
    )
    parser.add_argument(
        "--candidates", type=int, default=None,
        help="override the per-round candidate budget of the evolutionary search",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="override the number of mining rounds",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the search seed",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="run each search's islands on this many worker processes, one "
             "island segment per job (default: 1, in-process); workers beyond "
             "--islands idle, and results do not depend on this",
    )
    parser.add_argument(
        "--islands", type=int, default=None,
        help="run each search as this many evolution islands with migration (default: 1)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="checkpoint every search into DIR and resume from existing checkpoints",
    )
    parser.add_argument(
        "--engine", choices=["interpreter", "compiled"], default=None,
        help="execution engine candidates run on (default: compiled; "
             "results are bitwise identical across engines)",
    )
    parser.add_argument(
        "--output", default=None,
        help="directory to write <experiment>.json result files into",
    )
    parser.add_argument(
        "--show-reference", action="store_true",
        help="also print the paper's reference rows",
    )
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Turn parsed arguments into an :class:`ExperimentConfig`."""
    config = _SCALES[args.scale]
    overrides = {}
    if args.stocks is not None:
        overrides["num_stocks"] = args.stocks
    if args.candidates is not None:
        overrides["max_candidates"] = args.candidates
    if args.rounds is not None:
        overrides["num_rounds"] = args.rounds
    if args.seed is not None:
        overrides["search_seed"] = args.seed
    if args.workers is not None:
        overrides["num_workers"] = args.workers
    if args.islands is not None:
        overrides["num_islands"] = args.islands
    if args.checkpoint is not None:
        overrides["checkpoint_dir"] = args.checkpoint
    if args.engine is not None:
        overrides["engine"] = args.engine
    if overrides:
        config = config.scaled(**overrides)
    return config


def build_inspect_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``inspect`` subcommand (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro inspect",
        description="Render an alpha program alongside its pruned and "
                    "compiled forms with per-pass optimiser statistics.",
    )
    parser.add_argument(
        "program",
        help="path to a program JSON file (AlphaProgram.to_json output)",
    )
    return parser


def run_inspect(argv: list[str]) -> int:
    """Entry point of ``repro inspect <program.json>``."""
    from .compile import describe_compilation
    from .core import AlphaProgram

    args = build_inspect_parser().parse_args(argv)
    path = Path(args.program)
    if not path.exists():
        print(f"error: no such program file: {path}", file=sys.stderr)
        return 2
    program = AlphaProgram.from_json(path.read_text())
    print(describe_compilation(program))
    return 0


def build_ops_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``ops`` subcommand (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro ops",
        description="Print the alpha-language operator registry: name, "
                    "kind, arity, operand types, constant parameters and "
                    "the components each operator may appear in.",
    )
    parser.add_argument(
        "--kind",
        choices=["arithmetic", "extraction", "relation", "init"],
        default=None,
        help="only show operators of this kind",
    )
    parser.add_argument(
        "--component",
        choices=["setup", "predict", "update"],
        default=None,
        help="only show operators allowed in this component",
    )
    return parser


def render_ops_table(kind: str | None = None,
                     component: str | None = None) -> str:
    """The operator-registry table printed by ``repro ops``."""
    from .core.ops import OpKind, list_ops

    specs = list_ops(
        kind=OpKind(kind) if kind is not None else None,
        component=component,
    )
    header = ("name", "kind", "arity", "signature", "params", "components")
    rows = [header]
    for spec in sorted(specs, key=lambda spec: (spec.kind.value, spec.name)):
        inputs = ", ".join(t.value for t in spec.input_types) or "-"
        rows.append((
            spec.name,
            spec.kind.value,
            str(spec.arity),
            f"({inputs}) -> {spec.output_type.value}",
            ", ".join(spec.param_names) or "-",
            ", ".join(
                name for name in ("setup", "predict", "update")
                if name in spec.components
            ),
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    lines.append("")
    lines.append(f"{len(specs)} operators")
    return "\n".join(lines)


def run_ops(argv: list[str]) -> int:
    """Entry point of ``repro ops``."""
    args = build_ops_parser().parse_args(argv)
    print(render_ops_table(kind=args.kind, component=args.component))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``serve`` subcommand (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Mine a top-K alpha fleet (or load saved programs) and "
                    "serve the validation/test days through the streaming "
                    "AlphaServer, verifying bitwise parity with the offline "
                    "batch path.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="laptop",
        help="experiment scale (default: laptop)",
    )
    parser.add_argument(
        "--top-k", type=int, default=None, dest="top_k",
        help="number of alphas to mine and serve (default: config.serve_top_k)",
    )
    parser.add_argument(
        "--candidates", type=int, default=None,
        help="override the candidate budget of each mining search",
    )
    parser.add_argument(
        "--stocks", type=int, default=None,
        help="override the number of simulated stocks",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the search/serving seed",
    )
    parser.add_argument(
        "--program", action="append", default=None, metavar="JSON",
        help="serve this saved program (AlphaProgram.to_json output) instead "
             "of mining; repeatable",
    )
    parser.add_argument(
        "--correct", action="append", type=int, default=None, metavar="DAY",
        help="after streaming, inject a late correction to served day DAY "
             "(a 1%% feature restatement) and delta-replay it, verifying "
             "bitwise parity with a full offline replay; repeatable",
    )
    parser.add_argument(
        "--repair", default=None, metavar="POLICY",
        help="repair policy applied when loading file-backed data "
             "(see repro.data.repair; default: the config's DataSpec)",
    )
    parser.add_argument(
        "--corrections", default=None, metavar="JSON",
        help="JSON file with a list of corrections "
             '[{"day": 3, "feature_scale": 1.01, "label_scale": 0.99}, ...] '
             "to inject after streaming (combines with --correct)",
    )
    parser.add_argument(
        "--output", default=None,
        help="directory to write a serve.json result file into",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="JSON",
        help="collect metrics and spans during the run and write the run "
             "record (readable by 'repro stats') to this path",
    )
    return parser


def parse_corrections(args: argparse.Namespace):
    """Build the ``BarCorrection`` list from ``--correct``/``--corrections``.

    Exposed for testing.  Returns ``None`` when neither flag was given.
    """
    from .errors import StreamError
    from .stream import BarCorrection

    corrections = []
    for day in args.correct or ():
        corrections.append(BarCorrection(day=day, feature_scale=1.01))
    if args.corrections:
        path = Path(args.corrections)
        if not path.exists():
            raise StreamError(f"no such corrections file: {path}")
        try:
            entries = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StreamError(f"corrections file {path} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(entries, list):
            raise StreamError(f"corrections file {path} must hold a JSON "
                              f"list of objects")
        for entry in entries:
            if not isinstance(entry, dict) or "day" not in entry:
                raise StreamError(
                    f"corrections file {path}: each entry needs at least "
                    f'a "day" key; got {entry!r}'
                )
            unknown = set(entry) - {"day", "feature_scale", "label_scale"}
            if unknown:
                raise StreamError(
                    f"corrections file {path}: unknown keys {sorted(unknown)}"
                )
            scale = {
                key: float(entry[key])
                for key in ("feature_scale", "label_scale") if key in entry
            }
            corrections.append(BarCorrection(day=int(entry["day"]), **scale))
    return corrections or None


def resolve_serve_config(args: argparse.Namespace):
    """Turn parsed ``serve`` arguments into an :class:`ExperimentConfig`."""
    config = _SCALES[args.scale]
    overrides = {}
    if args.top_k is not None:
        overrides["serve_top_k"] = args.top_k
    if args.candidates is not None:
        overrides["max_candidates"] = args.candidates
    if args.stocks is not None:
        overrides["num_stocks"] = args.stocks
    if args.seed is not None:
        overrides["search_seed"] = args.seed
    if overrides:
        config = config.scaled(**overrides)
    if getattr(args, "repair", None) is not None:
        config = config.scaled(data=config.data.repaired(args.repair))
    return config


def run_serve_command(argv: list[str]) -> int:
    """Entry point of ``repro serve``."""
    from contextlib import nullcontext

    from .core import AlphaProgram
    from .errors import ProgramError, StreamError
    from .experiments.recorder import ExperimentResult
    from .obs import save_run_record, telemetry_session
    from .stream import run_serve

    args = build_serve_parser().parse_args(argv)
    config = resolve_serve_config(args)
    programs = None
    names = None
    if args.program:
        programs = []
        for raw_path in args.program:
            path = Path(raw_path)
            if not path.exists():
                print(f"error: no such program file: {path}", file=sys.stderr)
                return 2
            try:
                program = AlphaProgram.from_json(path.read_text())
                program.validate()
            except ProgramError as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 2
            programs.append(program)
        # Saved artifacts from separate runs often embed the same program
        # name; serving names must be unique, so repeats get a suffix.
        names, seen = [], {}
        for program in programs:
            count = seen.get(program.name, 0) + 1
            seen[program.name] = count
            names.append(
                program.name if count == 1 else f"{program.name}#{count}"
            )
    # --telemetry turns the collectors on for this run; without it the run
    # proceeds with telemetry in whatever state the process already had.
    session = telemetry_session() if args.telemetry else nullcontext()
    try:
        corrections = parse_corrections(args)
        with session:
            report = run_serve(config, programs=programs, names=names,
                               corrections=corrections)
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    corrected = report.metadata.get("corrections")
    if corrected is not None:
        replayed = sum(
            record["replayed_days"] for record in corrected["records"]
        )
        print(
            f"late corrections: {corrected['count']} applied, "
            f"{replayed} days delta-replayed; parity with a full replay "
            f"of the corrected history: "
            + ("bitwise identical" if corrected["parity"] else "VIOLATED")
        )
    if args.telemetry and report.run_record is not None:
        path = save_run_record(report.run_record, args.telemetry)
        print(f"\nwrote run record {path}")
    if args.output:
        result = ExperimentResult(
            experiment="serve",
            rows=[row.row() for row in report.rows],
            rendered=report.render(),
            metadata={**report.metadata, **report.stats},
            run_record=report.run_record,
        )
        path = save_result(result, args.output)
        print(f"\nsaved {path}")
    return 0 if report.parity else 1


def build_scenario_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``scenario`` subcommand (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="Run one named scenario end to end (mine → compile → "
                    "serve, with the online/offline parity check), or list "
                    "the scenario suite.",
    )
    parser.add_argument(
        "name", nargs="?", default=None,
        help="scenario to run (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the registered scenarios and exit",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="laptop",
        help="experiment scale the scenario materialises at (default: laptop)",
    )
    parser.add_argument(
        "--top-k", type=int, default=None, dest="top_k",
        help="number of alphas to mine and serve (default: scenario config)",
    )
    parser.add_argument(
        "--candidates", type=int, default=None,
        help="override the candidate budget of each mining search",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the search/serving seed",
    )
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="directory file-backed scenarios export their CSVs into "
             "(default: .scenario_data, or $REPRO_SCENARIO_DATA)",
    )
    parser.add_argument(
        "--repair", default=None, metavar="POLICY",
        help="override the scenario's primary repair policy for file-backed "
             "data (see repro.data.repair)",
    )
    parser.add_argument(
        "--output", default=None,
        help="directory to write a scenario-<name>.json result file into",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="JSON",
        help="collect metrics and spans during the run and write the run "
             "record (readable by 'repro stats') to this path",
    )
    return parser


def run_scenario_command(argv: list[str]) -> int:
    """Entry point of ``repro scenario [<name> | --list]``."""
    from contextlib import nullcontext

    from .errors import ConfigurationError, DataError, StreamError
    from .obs import save_run_record, telemetry_session
    from .scenarios import render_scenario_list, run_scenario

    args = build_scenario_parser().parse_args(argv)
    if args.list_scenarios:
        print(render_scenario_list())
        return 0
    if args.name is None:
        print("error: provide a scenario name or --list", file=sys.stderr)
        return 2
    overrides = {}
    if args.top_k is not None:
        overrides["serve_top_k"] = args.top_k
    if args.candidates is not None:
        overrides["max_candidates"] = args.candidates
    if args.seed is not None:
        overrides["search_seed"] = args.seed
    session = telemetry_session() if args.telemetry else nullcontext()
    try:
        with session:
            result = run_scenario(
                args.name,
                scale=args.scale,
                data_dir=args.data_dir,
                overrides=overrides or None,
                repair=args.repair,
            )
    except (ConfigurationError, DataError, StreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.rendered)
    if args.telemetry and result.run_record is not None:
        path = save_run_record(result.run_record, args.telemetry)
        print(f"\nwrote run record {path}")
    if args.output:
        path = save_result(result, args.output)
        print(f"\nsaved {path}")
    return 0 if result.metadata.get("parity") else 1


def build_stats_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``stats`` subcommand (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Render a run record — provenance, per-phase timing, "
                    "span tree and instrument table — from a "
                    "*.runrecord.json (or a result JSON embedding one), as "
                    "written by 'repro serve/scenario --telemetry' or "
                    "--output.",
    )
    parser.add_argument(
        "record",
        help="path to a run-record JSON, or a result JSON with a "
             "'run_record' key",
    )
    return parser


def run_stats_command(argv: list[str]) -> int:
    """Entry point of ``repro stats <record.json>``."""
    from .errors import ObservabilityError
    from .obs import load_run_record, render_run_record

    args = build_stats_parser().parse_args(argv)
    path = Path(args.record)
    if not path.exists():
        print(f"error: no such record file: {path}", file=sys.stderr)
        return 2
    try:
        record = load_run_record(path)
    except (ObservabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_run_record(record))
    return 0


def _emit(result, args: argparse.Namespace) -> None:
    print(result.rendered)
    if args.show_reference and result.experiment in PAPER_REFERENCE:
        print(f"\nPaper reference ({result.experiment}):")
        for row in PAPER_REFERENCE[result.experiment]:
            print("  " + ", ".join(f"{key}={value}" for key, value in row.items()))
    if args.output:
        path = save_result(result, args.output)
        print(f"\nsaved {path}")
    print()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "inspect":
        return run_inspect(argv[1:])
    if argv and argv[0] == "ops":
        return run_ops(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve_command(argv[1:])
    if argv and argv[0] == "scenario":
        return run_scenario_command(argv[1:])
    if argv and argv[0] == "stats":
        return run_stats_command(argv[1:])
    args = build_parser().parse_args(argv)
    config = resolve_config(args)
    if args.experiment == "all":
        for result in run_all(config).values():
            _emit(result, args)
        return 0
    result = _RUNNERS[args.experiment](config)
    _emit(result, args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in docs
    sys.exit(main())
