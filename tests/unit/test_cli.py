"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import code_fingerprint


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

    def test_run_trace_prints_each_sidecar(self, capsys, tmp_path):
        trace = tmp_path / "run.ndjson"
        assert main(["run", "--nodes", "12", "--seed", "1", "--no-traffic",
                     "--failure-rate", "0", "--trace", str(trace),
                     "--profile", "--sanitize"]) == 0
        out = capsys.readouterr().out
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        emitted = manifest["trace"]["emitted"]
        assert emitted == len(trace.read_text().splitlines()) > 0
        lines = out.splitlines()
        assert lines[:3] == [
            f"trace: {trace} ({emitted} events, 0 dropped)",
            f"manifest: {tmp_path / 'run.manifest.json'}",
            f"profile: {tmp_path / 'run.profile.json'}",
        ]
        profile = json.loads((tmp_path / "run.profile.json").read_text())
        assert profile["events"] > 0
        assert manifest["code_fingerprint"] == code_fingerprint()
        assert f"provenance: code={code_fingerprint()}" in out
        assert "invariant checks, 0 violations" in out
        # The harness leaves no scratch file of its atomic writes behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.manifest.json", "run.ndjson", "run.profile.json",
        ]

    def test_inspect_rejects_out_of_range_fields(self, capsys, tmp_path):
        trace = tmp_path / "bad.ndjson"
        trace.write_text(
            '{"cat":"probe_tx","ev":"energy","j":-1.0,"node":1,"t":1.0}\n'
            '{"ev":"collision","frames":0,"node":1,"t":1.0}\n'
            '{"ev":"lambda_hat","lam":-2.0,"node":1,"t":1.0,"window":0}\n'
            '{"ev":"reply_tx","lam":null,"node":1,"t":1.0,"tw":-5}\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", str(trace), "--validate"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "4 schema violation(s)" in err
        for line in range(1, 5):
            assert f"line {line}:" in err

    def test_inspect_invalid_trace_fails(self, capsys, tmp_path):
        trace = tmp_path / "bad.ndjson"
        trace.write_text('{"t": 0, "ev": "bogus", "node": 1}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", str(trace), "--validate"])
        assert excinfo.value.code == 1
        assert "schema violation" in capsys.readouterr().err
