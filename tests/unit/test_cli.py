"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nodes == 160
        assert args.failure_rate == pytest.approx(10.66)

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "--nodes", "320", "--seed", "5", "--no-traffic"]
        )
        assert args.nodes == 320
        assert args.seed == 5
        assert args.no_traffic

    def test_all_artifact_commands_exist(self):
        parser = build_parser()
        for name in ("fig9", "fig10", "fig11", "table1", "fig12", "fig13", "fig14"):
            assert parser.parse_args([name]).command == name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_run_trace_and_profile_flags(self):
        args = build_parser().parse_args(
            ["run", "--trace", "out.ndjson", "--profile"]
        )
        assert args.trace == "out.ndjson"
        assert args.profile

    def test_run_faults_flag(self):
        args = build_parser().parse_args(["run", "--faults", "plan.json"])
        assert args.faults == "plan.json"
        assert build_parser().parse_args(["run"]).faults is None

    def test_run_snapshot_flags(self):
        args = build_parser().parse_args(
            ["run", "--snapshot", "ck.json", "--checkpoint-every", "500",
             "--stop-after", "1200"]
        )
        assert args.snapshot == "ck.json"
        assert args.checkpoint_every == 500.0
        assert args.stop_after == 1200.0
        defaults = build_parser().parse_args(["run"])
        assert defaults.snapshot is None
        assert defaults.restore is None
        assert defaults.checkpoint_every is None
        assert not defaults.force_restore

    def test_robustness_command_exists(self):
        assert build_parser().parse_args(["robustness"]).command == "robustness"

    def test_inspect_command(self):
        args = build_parser().parse_args(
            ["inspect", "trace.ndjson", "--validate", "--max-nodes", "5"]
        )
        assert args.command == "inspect"
        assert args.trace == "trace.ndjson"
        assert args.validate
        assert args.max_nodes == 5


class TestCommands:
    def test_estimator_command(self, capsys):
        assert main(["estimator", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "k-interval estimator" in out
        assert "66" in out  # k_for_error magnitude

    def test_connectivity_command(self, capsys):
        assert main(["connectivity", "--trials", "2", "--nodes", "150",
                     "--side", "30"]) == 0
        out = capsys.readouterr().out
        assert "P(connected)" in out

    def test_run_command_small(self, capsys, monkeypatch):
        # Tiny population on the full field finishes quickly.
        assert main(["run", "--nodes", "12", "--seed", "1", "--no-traffic",
                     "--failure-rate", "0"]) == 0
        out = capsys.readouterr().out
        assert "total wakeups" in out
        assert "coverage lifetime" in out

    def test_run_traced_then_inspect(self, capsys, tmp_path):
        trace = tmp_path / "run.ndjson"
        assert main(["run", "--nodes", "12", "--seed", "1", "--no-traffic",
                     "--failure-rate", "0", "--trace", str(trace),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine profile" in out
        assert "provenance" in out
        assert trace.exists()
        manifest = tmp_path / "run.manifest.json"
        assert manifest.exists()

        assert main(["inspect", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "per-node state timelines" in out

    def test_run_snapshot_then_restore_stitches_bytes(self, capsys, tmp_path):
        base = ["run", "--nodes", "12", "--seed", "1", "--no-traffic",
                "--failure-rate", "4"]
        assert main(base + ["--trace", str(tmp_path / "full.ndjson")]) == 0
        assert main(base + ["--trace", str(tmp_path / "prefix.ndjson"),
                            "--snapshot", str(tmp_path / "ck.json"),
                            "--stop-after", "1000"]) == 0
        out = capsys.readouterr().out
        assert "snapshot:" in out
        assert main(["run", "--restore", str(tmp_path / "ck.json"),
                     "--trace", str(tmp_path / "suffix.ndjson")]) == 0
        out = capsys.readouterr().out
        assert "restore:" in out and "resume" in out
        stitched = (tmp_path / "prefix.ndjson").read_bytes() + (
            tmp_path / "suffix.ndjson").read_bytes()
        assert stitched == (tmp_path / "full.ndjson").read_bytes()

    def test_run_restore_rejects_wrong_file(self, capsys, tmp_path):
        bogus = tmp_path / "not-a-snapshot.json"
        bogus.write_text('{"format": "peas-trace/1"}')
        with pytest.raises(SystemExit):
            main(["run", "--restore", str(bogus)])

    def test_inspect_invalid_trace_fails(self, capsys, tmp_path):
        trace = tmp_path / "bad.ndjson"
        trace.write_text('{"t": 0, "ev": "bogus", "node": 1}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", str(trace), "--validate"])
        assert excinfo.value.code == 1
        assert "schema violation" in capsys.readouterr().err
