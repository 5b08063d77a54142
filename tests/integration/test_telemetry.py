"""Sweep telemetry end to end: byte-neutrality, pooled progress, exports.

The contract has two halves.  Metrics collection must be *free* when off
and *invisible* when on — identical results and traces, because every
instrument is read outside the event loop.  And sweep progress must be
exact: the executor reports every outcome from the parent as it settles,
so the counts match the returned results before ``finish()`` writes the
schema-valid exports.
"""

import io
import json

from repro.experiments import telemetry as telemetry_module

from repro.experiments import (
    RunError,
    Scenario,
    SweepTelemetry,
    expand_seeds,
    result_to_dict,
    run_sweep,
)
from repro.harness import RunOptions
from repro.harness.runner import run as run_scenario
from repro.obs import diff_runs, load_run, render_diff, validate_metrics_file
from repro.obs.metrics import (
    _DROP_REASONS,
    _FRAME_OUTCOMES,
    METRIC_NAMES,
    MetricsRegistry,
)

BASE = Scenario(
    num_nodes=12,
    field_size=(12.0, 12.0),
    failure_per_5000s=4.0,
    with_traffic=False,
    max_time_s=1_500.0,
)


def _comparable(result):
    """The result, minus wall-clock provenance and the metrics block."""
    payload = result_to_dict(result)
    payload["manifest"] = dict(payload["manifest"])
    payload["manifest"].pop("timing", None)
    payload.pop("metrics", None)
    return payload


class TestByteNeutrality:
    def test_results_identical_with_metrics_on(self):
        plain = run_scenario(BASE)
        metered = run_scenario(BASE, RunOptions(metrics=True))
        assert _comparable(metered) == _comparable(plain)
        assert plain.metrics is None
        assert metered.metrics

    def test_collected_samples_tell_the_runs_story(self):
        result = run_scenario(BASE, RunOptions(metrics=True))
        by_name = {}
        for sample in result.metrics:
            by_name.setdefault(sample["name"], []).append(sample)
        assert by_name["peas_runs_total"][0]["value"] == 1
        assert by_name["peas_sim_events_total"][0]["value"] > 0
        assert by_name["peas_sim_heap_size"][0]["value"] > 0
        labels = by_name["peas_runs_total"][0]["labels"]
        assert labels["protocol"] == "peas"
        assert labels["status"] == "ok"
        # Samples merge cleanly into a registry (the sweep-level path).
        registry = MetricsRegistry()
        registry.merge(result.metrics)
        registry.merge(result.metrics)
        assert registry.counter(
            "peas_runs_total", **labels
        ).value == 2

    def test_channel_samples_equal_the_channel_counters(self):
        result = run_scenario(BASE, RunOptions(metrics=True))
        counters = result.channel_counters
        assert counters["frames_sent"] > 0
        samples = {
            (s["name"], s["labels"].get("outcome") or s["labels"].get("reason")):
                s["value"]
            for s in result.metrics
            if s["name"] in ("peas_channel_frames_total",
                             "peas_channel_drops_total")
        }
        expected = {
            ("peas_channel_frames_total", outcome): counters[key]
            for key, outcome in _FRAME_OUTCOMES.items()
            if counters.get(key)
        }
        expected.update(
            (("peas_channel_drops_total", reason), counters[key])
            for key, reason in _DROP_REASONS.items()
            if counters.get(key)
        )
        assert samples == expected


class TestSerialTelemetry:
    def test_progress_and_exports(self, tmp_path):
        stream = io.StringIO()
        telemetry = SweepTelemetry(
            tmp_path / "out", label="unit", stream=stream, live=False,
        )
        scenarios = expand_seeds([BASE], [0, 1])
        results = run_sweep(
            scenarios, options=RunOptions(metrics=True), telemetry=telemetry
        )
        assert len(results) == 2
        out = stream.getvalue()
        assert "[unit] 2/2 runs (100%)" in out
        assert telemetry.done == 2 and telemetry.errors == 0

        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["schema"] == "peas-sweep-manifest/1"
        assert manifest["runs"] == 2 and manifest["ok"] == 2
        assert manifest["protocols"] == ["peas"]
        assert manifest["seed_range"] == [0, 1]
        assert len(manifest["config_hashes"]) == 2
        prom = (tmp_path / "out" / "metrics.prom").read_text()
        assert "# TYPE peas_sweep_runs_total counter" in prom
        assert 'peas_sweep_runs_total{status="ok"} 2' in prom

    def test_exports_survive_failed_runs(self, tmp_path):
        telemetry = SweepTelemetry(
            tmp_path / "out", stream=io.StringIO(), live=False
        )
        # Constructs fine but fails inside the worker: GAF rejects a
        # clock-drift plan (same trick as the fault-injection tests).
        from repro.faults import ClockDriftFault, FaultPlan

        bad = BASE.with_(
            protocol="gaf",
            fault_plan=FaultPlan((ClockDriftFault(max_skew=0.05),)),
        )
        results = run_sweep(
            [BASE.with_(seed=0), bad],
            errors="collect",
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        assert isinstance(results[1], RunError)
        assert telemetry.errors == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["ok"] == 1 and manifest["errors"] == 1
        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []


class TestPooledTelemetry:
    def test_parent_counts_progress_exactly(self, tmp_path, monkeypatch):
        # Render every update, so each settled run leaves a line.
        monkeypatch.setattr(telemetry_module, "_RENDER_PERIOD_S", 0.0)
        stream = io.StringIO()
        telemetry = SweepTelemetry(
            tmp_path / "out", label="pooled", stream=stream, live=False,
        )
        # Counts as the executor left them, before finish() touches anything.
        before_finish = {}
        finish = telemetry.finish

        def spy_finish(scenarios, results):
            before_finish.update(done=telemetry.done, errors=telemetry.errors)
            return finish(scenarios, results)

        monkeypatch.setattr(telemetry, "finish", spy_finish)
        from repro.faults import ClockDriftFault, FaultPlan

        # GAF rejects a clock-drift plan inside the worker, on every attempt.
        bad = BASE.with_(
            protocol="gaf",
            seed=9,
            fault_plan=FaultPlan((ClockDriftFault(max_skew=0.05),)),
        )
        scenarios = expand_seeds([BASE], [0, 1, 2, 3]) + [bad]
        results = run_sweep(
            scenarios,
            processes=2,
            errors="collect",
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        assert len(results) == 5
        failures = [r for r in results if isinstance(r, RunError)]
        assert len(failures) == 1
        assert before_finish == {"done": 5, "errors": 1}
        assert telemetry.workers_seen

        lines = stream.getvalue().splitlines()
        final = next(i for i, line in enumerate(lines) if "5/5 runs" in line)
        assert any(
            f"[pooled] {n}/5 runs" in line
            for line in lines[:final]
            for n in (1, 2, 3, 4)
        )
        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["runs"] == 5
        assert manifest["ok"] == 4 and manifest["errors"] == 1
        assert manifest["retries"] == failures[0].attempts - 1 == 1
        assert manifest["workers"] >= 1
        # Per-run samples merged: 4 runs' counters folded into one export.
        record = load_run(tmp_path / "out")
        key = next(
            k for k in record.samples
            if k[0] == "peas_runs_total" and ("status", "ok") in k[1]
        )
        assert record.samples[key]["value"] == 4


class TestDiffWorkflow:
    def run_sweep_with_export(self, tmp_path, name, seeds):
        telemetry = SweepTelemetry(
            tmp_path / name, label=name, stream=io.StringIO(), live=False
        )
        run_sweep(
            expand_seeds([BASE], seeds),
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        return tmp_path / name

    def test_identical_sweeps_diff_clean(self, tmp_path):
        a = self.run_sweep_with_export(tmp_path, "a", [0, 1])
        b = self.run_sweep_with_export(tmp_path, "b", [0, 1])
        diff = diff_runs(load_run(a), load_run(b))
        # Same config digest and git SHA; only the label + wall-clock
        # instruments move.
        drift_fields = [f for f, _va, _vb in diff.drift]
        assert "git_sha" not in drift_fields
        assert "config_digest" not in drift_fields
        moved = {d.name for d in diff.changed}
        assert moved <= {"peas_sweep_wall_seconds", "peas_run_wall_seconds",
                         "peas_run_rss_mb"}
        assert diff.unchanged > 5

    def test_diff_reports_real_movement(self, tmp_path):
        a = self.run_sweep_with_export(tmp_path, "a", [0])
        b = self.run_sweep_with_export(tmp_path, "b", [0, 1, 2])
        diff = diff_runs(load_run(a), load_run(b))
        assert ("runs", 1, 3) in diff.drift
        report = render_diff(diff)
        assert "provenance drift" in report
        assert "peas_runs_total" in report
        assert "metrics moved" in report


class TestRunErrorSummary:
    def test_summary_carries_coordinates_and_traceback_tail(self):
        error = RunError(
            scenario=Scenario(num_nodes=10, seed=7),
            error_type="ValueError",
            error_message="boom",
            traceback_text=(
                "Traceback (most recent call last):\n"
                '  File "pool.py", line 1, in plumbing\n'
                '  File "runner.py", line 2, in _run\n'
                '  File "node.py", line 3, in _wake\n'
                "ValueError: boom\n"
            ),
        )
        text = error.summary()
        head, *tail = text.splitlines()
        assert head == "peas/n=10/seed=7: ValueError: boom"
        # Last three non-empty traceback lines, indented; pool plumbing
        # (the head of the trace) is elided.
        assert len(tail) == 3
        assert tail[0] == '      File "runner.py", line 2, in _run'
        assert tail[-1] == "    ValueError: boom"
        assert "pool.py" not in text

    def test_summary_without_traceback_is_one_line(self):
        error = RunError(
            scenario=Scenario(num_nodes=5, seed=1),
            error_type="RuntimeError",
            error_message="x",
            traceback_text="",
        )
        assert error.summary() == "peas/n=5/seed=1: RuntimeError: x"


def test_metric_catalogue_matches_prometheus_conventions():
    # Counters end in _total (or a unit), gauges/histograms carry units.
    for name, (kind, _help) in METRIC_NAMES.items():
        if kind == "counter":
            assert name.endswith(("_total", "_seconds")), name
