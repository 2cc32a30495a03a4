"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    build_inspect_parser,
    build_ops_parser,
    build_parser,
    build_serve_parser,
    main,
    resolve_config,
    resolve_serve_config,
)
from repro.core import Dimensions, domain_expert_alpha
from repro.experiments import LAPTOP, SMOKE


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "laptop"
        assert args.output is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])


class TestResolveConfig:
    def test_scale_selection(self):
        args = build_parser().parse_args(["table1", "--scale", "smoke"])
        assert resolve_config(args) == SMOKE

    def test_no_overrides_returns_builtin(self):
        args = build_parser().parse_args(["table1"])
        assert resolve_config(args) == LAPTOP

    def test_overrides_applied(self):
        args = build_parser().parse_args(
            ["table2", "--scale", "smoke", "--stocks", "44", "--candidates", "99",
             "--rounds", "2", "--seed", "123"]
        )
        config = resolve_config(args)
        assert config.num_stocks == 44
        assert config.max_candidates == 99
        assert config.num_rounds == 2
        assert config.search_seed == 123

    def test_parallel_overrides_applied(self, tmp_path):
        args = build_parser().parse_args(
            ["table1", "--scale", "smoke", "--workers", "2", "--islands", "4",
             "--checkpoint", str(tmp_path)]
        )
        config = resolve_config(args)
        assert config.num_workers == 2
        assert config.num_islands == 4
        assert config.checkpoint_dir == str(tmp_path)
        evolution = config.evolution_config()
        assert evolution.num_workers == 2
        assert evolution.num_islands == 4

    def test_parallel_defaults_are_serial(self):
        config = resolve_config(build_parser().parse_args(["table1"]))
        assert config.num_workers == 1
        assert config.num_islands == 1
        assert config.checkpoint_dir is None

    def test_no_compile_flag_is_gone(self):
        """``--engine interpreter`` is the one way to pick the interpreter."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--no-compile"])

    def test_scheduler_flag_is_gone(self, capsys):
        """Every search runs the one barrier main loop; the CLI rejects the
        retired switch as a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--scale", "smoke", "--scheduler", "overlap"])
        assert excinfo.value.code == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_engine_flag_selects_engine(self):
        args = build_parser().parse_args(["table1", "--engine", "interpreter"])
        config = resolve_config(args)
        assert config.engine == "interpreter"
        assert config.evolution_config().execution_engine == "interpreter"

    def test_engine_defaults_to_compiled(self):
        config = resolve_config(build_parser().parse_args(["table1"]))
        assert config.engine is None
        assert config.evolution_config().execution_engine == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--engine", "gpu"])

    def test_unknown_engine_rejected_at_configuration_time(self):
        """A typo'd engine raises the config's own error type, like every
        other invalid field — not later, in a worker mid-search."""
        from repro.core import EvolutionConfig
        from repro.errors import ConfigurationError, EvolutionError
        from repro.experiments import ExperimentConfig

        with pytest.raises(EvolutionError, match="unknown execution engine"):
            EvolutionConfig(engine="gpu")
        with pytest.raises(ConfigurationError, match="unknown execution engine"):
            ExperimentConfig(engine="gpu")


class TestMain:
    def test_table1_end_to_end(self, capsys, tmp_path):
        exit_code = main([
            "table1", "--scale", "smoke", "--stocks", "40", "--candidates", "60",
            "--output", str(tmp_path), "--show-reference",
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Table 1" in captured
        assert "alpha_AE_D_0" in captured
        assert "Paper reference" in captured
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["experiment"] == "table1"
        assert len(payload["rows"]) == 3


class TestInspect:
    def write_program(self, tmp_path):
        program = domain_expert_alpha(Dimensions(13, 13))
        path = tmp_path / "alpha.json"
        path.write_text(program.to_json())
        return path

    def test_inspect_renders_all_sections(self, capsys, tmp_path):
        path = self.write_program(tmp_path)
        exit_code = main(["inspect", str(path)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "## original" in captured
        assert "## pruned" in captured
        assert "## compiled (execution pipeline)" in captured
        assert "## canonical IR (fingerprint pipeline)" in captured
        # per-pass statistics for every optimiser pass
        for name in ("fold", "canonicalize", "cse", "dse"):
            assert f"pass {name}:" in captured
        assert "fused batched inference: yes" in captured
        # the expert alpha's two placeholder constants are pruned
        assert "removed 2 of 6 operations" in captured

    def test_inspect_missing_file(self, capsys, tmp_path):
        exit_code = main(["inspect", str(tmp_path / "nope.json")])
        assert exit_code == 2
        assert "no such program file" in capsys.readouterr().err

    def test_inspect_parser_requires_program(self):
        with pytest.raises(SystemExit):
            build_inspect_parser().parse_args([])


class TestOps:
    def test_ops_prints_full_registry(self, capsys):
        from repro.core.ops import OP_REGISTRY

        exit_code = main(["ops"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        for name in OP_REGISTRY:
            assert name in captured
        assert f"{len(OP_REGISTRY)} operators" in captured
        # the table header names every documented column
        for column in ("name", "kind", "arity", "signature", "params",
                       "components"):
            assert column in captured

    def test_ops_kind_filter(self, capsys):
        exit_code = main(["ops", "--kind", "relation"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "relation_rank" in captured
        assert "s_add" not in captured

    def test_ops_component_filter(self, capsys):
        from repro.core.ops import list_ops

        exit_code = main(["ops", "--component", "setup"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert f"{len(list_ops(component='setup'))} operators" in captured
        # the cross-sectional RelationOps are predict/update-only
        assert "relation_rank" not in captured

    def test_ops_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_ops_parser().parse_args(["--kind", "quantum"])

    def test_signature_reflects_registry_arity(self, capsys):
        main(["ops"])
        captured = capsys.readouterr().out
        line = next(l for l in captured.splitlines() if l.startswith("v_outer"))
        assert "(vector, vector) -> matrix" in line


class TestServe:
    def test_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.scale == "laptop"
        assert args.top_k is None
        assert args.program is None

    def test_resolve_serve_config_overrides(self):
        args = build_serve_parser().parse_args(
            ["--scale", "smoke", "--top-k", "2", "--candidates", "50",
             "--stocks", "44", "--seed", "9"]
        )
        config = resolve_serve_config(args)
        assert config.serve_top_k == 2
        assert config.max_candidates == 50
        assert config.num_stocks == 44
        assert config.search_seed == 9

    def test_resolve_serve_config_default_top_k(self):
        config = resolve_serve_config(build_serve_parser().parse_args([]))
        assert config.serve_top_k == LAPTOP.serve_top_k == 3

    def test_serve_saved_programs_end_to_end(self, capsys, tmp_path):
        program = domain_expert_alpha(Dimensions(13, 13))
        path = tmp_path / "alpha.json"
        path.write_text(program.to_json())
        exit_code = main([
            "serve", "--scale", "smoke", "--program", str(path),
            "--output", str(tmp_path),
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "bitwise identical" in captured
        assert "bar latency" in captured
        payload = json.loads((tmp_path / "serve.json").read_text())
        assert payload["experiment"] == "serve"
        assert payload["rows"][0]["parity"] is True
        assert payload["metadata"]["registered_alphas"] == 1

    def test_serve_missing_program_file(self, capsys, tmp_path):
        exit_code = main(["serve", "--program", str(tmp_path / "nope.json")])
        assert exit_code == 2
        assert "no such program file" in capsys.readouterr().err

    def test_serve_rejects_an_out_of_domain_parameter(self, capsys, tmp_path):
        # A reduction axis the mutator never draws used to reach the tape
        # and fail there (or, at K == f == w, predict differently on the
        # interpreter and the tape); loading now refuses it.
        payload = domain_expert_alpha(Dimensions(13, 13)).to_dict()
        payload["predict"].insert(0, {
            "op": "m_std_axis", "inputs": ["m0"], "output": "v1",
            "params": {"axis": 3},
        })
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        exit_code = main(["serve", "--scale", "smoke", "--program", str(path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "m_std_axis" in err and "axis=3" in err

    def test_serve_rejects_a_write_to_the_input_matrix(self, capsys, tmp_path):
        # The tape holds m0 as the day's bar; a program writing it would
        # serve predictions the interpreter does not make.
        payload = domain_expert_alpha(Dimensions(13, 13)).to_dict()
        payload["predict"].insert(0, {
            "op": "m_scale", "inputs": ["s2", "m0"], "output": "m0",
            "params": {},
        })
        path = tmp_path / "writes_m0.json"
        path.write_text(json.dumps(payload))
        exit_code = main(["serve", "--scale", "smoke", "--program", str(path)])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: predict() writes m0" in err

    def test_serve_uniquifies_duplicate_program_names(self, capsys, tmp_path):
        """Two artifacts embedding the same name serve under distinct names."""
        program = domain_expert_alpha(Dimensions(13, 13))
        path = tmp_path / "alpha.json"
        path.write_text(program.to_json())
        exit_code = main([
            "serve", "--scale", "smoke",
            "--program", str(path), "--program", str(path),
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert f"{program.name}#2" in captured
        assert "1 unique executors" in captured
