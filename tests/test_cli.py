"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        assert commands == {
            "fig4", "table1", "table2", "table3",
            "fig5a", "fig5b", "table4", "fig6", "synth-trace", "testbed",
            "chaos", "overhead", "model-selection",
            "recover", "resume", "run", "explain",
        }

    def test_chaos_arguments_parse(self):
        args = build_parser().parse_args([
            "chaos", "--seed", "3",
            "--schedule", "kill:file0@40%", "outage:pic@60+30",
            "--migration-failure-rate", "0.1",
        ])
        assert args.seed == 3
        assert args.schedule == ["kill:file0@40%", "outage:pic@60+30"]
        assert args.migration_failure_rate == 0.1

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 7
        assert args.schedule is None
        assert args.migration_failure_rate == 0.05

    def test_recover_arguments_parse(self):
        args = build_parser().parse_args([
            "recover", "/tmp/ckpt", "--checkpoint-every", "3",
            "--keep", "2", "--guardrail", "--fallback", "lru",
            "--schedule", "kill:file0@120",
            "--kill-at-run", "10", "--kill-point", "mid-checkpoint",
        ])
        assert args.checkpoint_dir == "/tmp/ckpt"
        assert args.checkpoint_every == 3
        assert args.keep == 2
        assert args.guardrail
        assert args.fallback == "lru"
        assert args.schedule == ["kill:file0@120"]
        assert args.kill_at_run == 10
        assert args.kill_point == "mid-checkpoint"

    def test_recover_defaults(self):
        args = build_parser().parse_args(["recover", "/tmp/ckpt"])
        assert args.checkpoint_every == 5
        assert not args.guardrail
        assert args.fallback == "static"
        assert args.kill_at_run is None

    def test_resume_requires_directory(self):
        assert (
            build_parser().parse_args(["resume", "/tmp/ckpt"]).checkpoint_dir
            == "/tmp/ckpt"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["fig4", "--scale", "paper"])
        assert args.scale == "paper"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--scale", "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workers_flag_parses(self):
        assert build_parser().parse_args(["table2"]).workers == 1
        for cmd in ("table2", "fig5a"):
            args = build_parser().parse_args([cmd, "--workers", "4"])
            assert args.workers == 4


class TestExecution:
    def test_table1_prints_architectures(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Model 23" in out

    def test_fig4_prints_correlations(self, capsys):
        assert main(["fig4", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "rb" in out

    def test_synth_trace_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert main(["synth-trace", str(out_path), "--rows", "25"]) == 0
        assert "wrote 25 records" in capsys.readouterr().out
        from repro.replaydb.traceio import load_trace_jsonl

        assert len(load_trace_jsonl(out_path)) == 25

    def test_default_seeds_mirror_benchmarks(self):
        assert build_parser().parse_args(["fig5a"]).seeds == [2]
        assert build_parser().parse_args(["fig6"]).seed == 0

    def test_fig5a_takes_seeds_not_seed(self, capsys):
        # Its environment seeds are --seeds; a --seed it would ignore, or
        # read as an abbreviation of --seeds, is a usage error.
        with pytest.raises(SystemExit) as exited:
            main(["fig5a", "--seed", "5"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


    def test_online_run_with_a_diverged_cycle_exits_cleanly(self, capsys):
        # At seed 3 one online cycle diverges and its error gauge reads
        # NaN, which the run's Prometheus dump must still render.
        assert main(["run", "--online", "--scale", "test", "--seed", "3"]) == 0

    def test_testbed_describes_mounts(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        for mount in ("USBtmp", "pic", "tmp", "file0", "var", "people"):
            assert mount in out


class TestUserErrors:
    """A ``ReproError`` a user can cause is one stderr line and exit 1."""

    def test_missing_ledger_is_one_line_not_a_traceback(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "missing.jsonl"
        assert main(["explain", "1", "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro explain: ConfigurationError: "
            f"no provenance ledger at {ledger}\n"
        )

    def test_zero_workers_is_one_line_not_a_traceback(self, capsys):
        assert main(["fig5a", "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro fig5a: ExperimentError: workers must be >= 1, got 0\n"
        )

    def test_a_nan_slo_threshold_is_one_line_and_no_run(self, capsys):
        # NaN fails every comparison, so a check written ``x < 0`` would
        # let it through to a burn table that alerts on every run.
        assert main(
            ["run", "--scale", "test", "--throughput-floor", "nan"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro run: ExperimentError: throughput_floor_gbps must be "
            ">= 0, got nan\n"
        )

    @pytest.mark.parametrize("rate", ["--drop-rate", "--corrupt-rate"])
    def test_a_link_that_loses_everything_ends_the_warm_up(
        self, rate, capsys
    ):
        assert main(["chaos", "--scale", "test", rate, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro chaos: ExperimentError: warm-up landed 0 of 400 accesses "
            "in 400 runs: the telemetry link delivers too little\n"
        )


class TestProvenanceCommands:
    def test_explain_arguments_parse(self):
        args = build_parser().parse_args(
            ["explain", "3", "--ledger", "prov.jsonl"]
        )
        assert args.movement_id == 3
        assert args.ledger == "prov.jsonl"

    def test_slo_arguments_parse(self):
        args = build_parser().parse_args(
            ["run", "--queue-delay-threshold", "0.1",
             "--throughput-floor", "2.0"]
        )
        assert args.queue_delay_threshold == 0.1
        assert args.throughput_floor == 2.0

    def test_run_provenance_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--provenance", "prov.jsonl"]
        )
        assert args.provenance == "prov.jsonl"

    def test_run_then_explain_walks_every_movement(self, tmp_path, capsys):
        prov = tmp_path / "prov.jsonl"
        assert main(["run", "--provenance", str(prov)]) == 0
        out = capsys.readouterr().out
        assert "SLO burn status" in out
        assert prov.exists()

        from repro.observability.provenance import ProvenanceLedger

        movement_ids = ProvenanceLedger.load(prov).movement_ids()
        assert movement_ids
        for movement_id in movement_ids:
            assert main(
                ["explain", str(movement_id), "--ledger", str(prov)]
            ) == 0
            out = capsys.readouterr().out
            assert f"movement {movement_id} <-" in out
            assert "critical path:" in out

    def test_explain_unknown_movement_degrades_gracefully(
        self, tmp_path, capsys
    ):
        from repro.observability.provenance import ProvenanceLedger

        prov = tmp_path / "prov.jsonl"
        ProvenanceLedger(prov).record_batch("var", 1, 0.0, 0.0, 1, 1)
        assert main(["explain", "42", "--ledger", str(prov)]) == 0
        assert "no provenance recorded" in capsys.readouterr().out

    def test_slo_command_reports_objectives(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "queue-delay" in out
        assert "throughput-floor" in out

    def test_bad_slo_threshold_fails_before_the_run(self, capsys):
        assert main(["run", "--queue-delay-threshold", "0"]) == 1
        assert "queue_delay_threshold_s must be positive" in (
            capsys.readouterr().err
        )
