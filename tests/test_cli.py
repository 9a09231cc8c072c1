"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def test_scenario_prints_table(self, capsys):
        assert main(["scenario", "--amount", "200"]) == 0
        out = capsys.readouterr().out
        assert "withdrawal at A" in out
        assert "granted" in out
        assert "-125" in out

    def test_scenario_consistent_amount(self, capsys):
        assert main(["scenario", "--amount", "100"]) == 0
        out = capsys.readouterr().out
        assert "overdraft letters    0" in out

    def test_theorem_small_run(self, capsys):
        assert main(["theorem", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "forests" in out
        assert "cyclic" in out

    def test_spectrum_custom_duration(self, capsys):
        assert main(["spectrum", "--seed", "3", "--duration", "50"]) == 0
        out = capsys.readouterr().out
        assert "fa-unrestricted" in out
        assert "mutual-exclusion" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_help_structure(self):
        parser = build_parser()
        assert parser.prog == "repro"

    def test_scenario_trace_writes_jsonl(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["scenario", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        from repro.obs import summarize_trace

        summary = summarize_trace(path)
        assert summary.count("txn.commit") > 0
        assert summary.count("partition.cut") == 1

    def test_metrics_snapshot_run(self, capsys):
        assert main(["metrics", "--seed", "3", "--duration", "50"]) == 0
        out = capsys.readouterr().out
        assert "net.messages_sent" in out
        assert "txn.committed" in out
        assert "net.delivery_delay" in out

    def test_metrics_summarize_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["scenario", "--trace", path]) == 0
        capsys.readouterr()
        assert main(["metrics", "--summarize", path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "message.send" in out

    def test_chaos_with_partial_replication(self, capsys):
        assert main([
            "chaos", "--seed", "5", "--protocol", "with-seqno",
            "--replication-factor", "2", "--quorum-reads", "3",
            "--bursts", "0", "--flaps", "0", "--crashes", "0",
            "--partitions", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "with-seqno" in out
        assert "OK" in out


    def test_a_run_that_raises_is_a_violation_row(self, capsys):
        # none@167 trips a known lost-object defect (an update runs at
        # a crashed home): the sweep reports it and goes on.
        assert main(["chaos", "--protocol", "none", "--seed", "167",
                     "--seeds", "2"]) == 1
        captured = capsys.readouterr()
        rows = [line for line in captured.out.splitlines()
                if line.startswith("none ")]
        assert len(rows) == 2
        assert "VIOLATION (ReproError: node 'N0': unknown data object 'u')" \
            in rows[0]
        assert rows[1].rstrip().endswith("OK")
        assert "1 guarantee violation(s): [('none', 167)]" in captured.err

    def test_a_loop_error_on_asyncio_is_a_violation_row(
        self, capsys, monkeypatch
    ):
        from repro import cli
        from repro.errors import SimulationError

        def raising(seed, protocol, config, trace_path, backend):
            assert backend == "asyncio" and config.jitter == 0.0
            raise SimulationError("1 runtime callback(s) raised")

        monkeypatch.setattr(cli, "run_nemesis", raising)
        assert main(["chaos", "--backend=asyncio",
                     "--protocol", "fixed-agents"]) == 1
        assert ("VIOLATION (SimulationError: 1 runtime callback(s) "
                "raised)") in capsys.readouterr().out

    def test_asyncio_refuses_an_explicit_jitter(self, capsys):
        assert main(["chaos", "--backend=asyncio", "--jitter", "1"]) == 2
        assert "jitter is simulator-only" in capsys.readouterr().err


class TestObservabilityCommands:
    def trace_file(self, tmp_path, capsys):
        """Produce a small traced chaos run to feed the dashboard."""
        path = str(tmp_path / "trace.jsonl")
        assert main([
            "chaos", "--seed", "3", "--protocol", "with-seqno",
            "--bursts", "0", "--flaps", "0", "--crashes", "1",
            "--partitions", "0", "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_metrics_watch_prints_tick_blocks(self, capsys):
        assert main([
            "metrics", "--seed", "7", "--duration", "40", "--watch", "25",
        ]) == 0
        out = capsys.readouterr().out
        assert "t=" in out
        assert "metrics snapshot" in out

    def test_metrics_watch_rejects_nonpositive_tick(self, capsys):
        assert main(["metrics", "--watch", "0"]) == 1
        assert "must be positive" in capsys.readouterr().err

    def test_metrics_timeline_out_writes_jsonl(self, capsys, tmp_path):
        out_path = str(tmp_path / "tl.jsonl")
        assert main([
            "metrics", "--seed", "7", "--duration", "40", "--watch", "25",
            "--timeline-out", out_path,
        ]) == 0
        assert "timeline records written" in capsys.readouterr().out
        from repro.obs.timeline import load_jsonl

        loaded = load_jsonl(out_path)
        assert loaded["counter"]  # sampled something

    def test_dashboard_requires_a_mode(self, capsys, tmp_path):
        path = self.trace_file(tmp_path, capsys)
        assert main(["dashboard", path]) == 1
        assert "--html" in capsys.readouterr().err

    def test_dashboard_html_renders_the_trace(self, capsys, tmp_path):
        path = self.trace_file(tmp_path, capsys)
        html_path = str(tmp_path / "dash.html")
        assert main(["dashboard", path, "--html", html_path]) == 0
        assert "dashboard written" in capsys.readouterr().out
        with open(html_path, encoding="utf-8") as handle:
            html = handle.read()
        assert "<svg" in html
        assert "viz-root" in html

    def test_dashboard_html_missing_trace_errors(self, capsys, tmp_path):
        assert main([
            "dashboard", str(tmp_path / "absent.jsonl"),
            "--html", str(tmp_path / "dash.html"),
        ]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_chaos_table_has_availability_columns(self, capsys):
        assert main([
            "chaos", "--seed", "11", "--protocol", "with-seqno",
            "--bursts", "0", "--flaps", "0", "--crashes", "0",
            "--partitions", "0", "--kill-agent", "1", "--failover",
        ]) == 0
        out = capsys.readouterr().out
        assert "avail" in out
        assert "worst-win" in out
        assert "unavailability by cause:" in out


class TestExperimentCommand:
    """`repro experiment`: the one door to the gated experiments."""

    def test_check_against_the_committed_record(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert main(["experiment", "E19", "--check"]) == 0
        out = capsys.readouterr().out
        assert "E19" in out
        assert "all gates OK against BENCH_partial.json" in out

    def test_check_on_a_missing_record_exits_1(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        assert main(["experiment", "E19", "--check", missing]) == 1
        err = capsys.readouterr().err
        assert f"no committed benchmark at {missing}" in err

    @pytest.mark.parametrize(
        "argv",
        [["experiment", "E22"]]
        + [
            [f"{name}-bench"]  # the five subcommands `experiment` replaced
            for name in ("scale", "partial", "failover",
                         "availability-accounting", "serve")
        ],
    )
    def test_unknown_key_and_deleted_subcommands_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_one_positional_two_options(self):
        subparsers = build_parser()._subparsers._group_actions[0]
        assert len(subparsers.choices) == 12
        actions = [
            action for action in subparsers.choices["experiment"]._actions
            if action.dest != "help"
        ]
        assert [a.dest for a in actions if not a.option_strings] == ["key"]
        assert sorted(
            flag for a in actions for flag in a.option_strings
        ) == ["--check", "--json"]
