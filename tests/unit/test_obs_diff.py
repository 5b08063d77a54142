"""Unit tests for the cross-run comparator (``repro.obs.diff``)."""

import json

import pytest

from repro.obs.diff import MetricDelta, diff_runs, load_run, render_diff
from repro.obs.metrics import MetricsRegistry, save_metrics


def write_run(path, label, *, runs=2, code="abc1234", wall=1.0, energy=5.0):
    path.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    registry.counter("peas_runs_total", status="ok").inc(runs)
    registry.counter("peas_energy_joules_total", cat="sleep").inc(energy)
    registry.gauge("peas_sweep_wall_seconds").set(wall)
    hist = registry.histogram("peas_coverage_lifetime_seconds", k="3")
    for _ in range(runs):
        hist.observe(2500.0)
    save_metrics(registry, path / "metrics.ndjson", meta={"label": label})
    (path / "manifest.json").write_text(json.dumps({
        "schema": "peas-sweep-manifest/1",
        "label": label,
        "runs": runs,
        "ok": runs,
        "errors": 0,
        "code_fingerprint": code,
        "config_digest": "cfg-1",
        "protocols": ["peas"],
    }))
    return path


class TestLoadRun:
    def test_accepts_directory_or_file(self, tmp_path):
        run_dir = write_run(tmp_path / "a", "a")
        by_dir = load_run(run_dir)
        by_file = load_run(run_dir / "metrics.ndjson")
        assert by_dir.samples == by_file.samples
        assert by_dir.manifest["label"] == "a"
        assert by_dir.label == "a"

    def test_missing_manifest_degrades(self, tmp_path):
        run_dir = write_run(tmp_path / "a", "a")
        (run_dir / "manifest.json").unlink()
        record = load_run(run_dir)
        assert record.manifest == {}
        assert record.header["label"] == "a"

    def test_missing_metrics_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no metrics export"):
            load_run(tmp_path)


class TestDiffRuns:
    def test_identical_runs_show_no_movement(self, tmp_path):
        a = load_run(write_run(tmp_path / "a", "same"))
        b = load_run(write_run(tmp_path / "b", "same"))
        diff = diff_runs(a, b)
        assert diff.drift == []
        assert diff.changed == []
        assert diff.unchanged == 4
        assert "provenance: identical" in render_diff(diff)

    def test_code_fingerprint_alone_is_drift(self, tmp_path):
        # Two trees at one git HEAD, one of them edited: same config, same
        # metrics, different code.
        a = load_run(write_run(tmp_path / "a", "same", code="clean"))
        b = load_run(write_run(tmp_path / "b", "same", code="edited"))
        diff = diff_runs(a, b)
        assert diff.drift == [("code_fingerprint", "clean", "edited")]
        assert diff.changed == []
        report = render_diff(diff)
        assert "provenance drift" in report
        assert "provenance: identical" not in report

    def test_drift_and_deltas_reported(self, tmp_path):
        a = load_run(write_run(tmp_path / "a", "a", runs=2, energy=5.0))
        b = load_run(
            write_run(tmp_path / "b", "b", runs=4, code="def5678", energy=7.5)
        )
        diff = diff_runs(a, b)
        assert ("code_fingerprint", "abc1234", "def5678") in diff.drift
        assert ("runs", 2, 4) in diff.drift
        by_name = {d.name: d for d in diff.changed}
        runs = by_name["peas_runs_total"]
        assert (runs.value_a, runs.value_b) == (2, 4)
        assert runs.pct == pytest.approx(100.0)
        energy = by_name["peas_energy_joules_total"]
        assert energy.delta == pytest.approx(2.5)
        # Histogram compared by mean: same mean, different count -> changed.
        lifetime = by_name["peas_coverage_lifetime_seconds"]
        assert lifetime.value_a == lifetime.value_b == 2500.0
        assert (lifetime.count_a, lifetime.count_b) == (2, 4)
        report = render_diff(diff)
        assert "provenance drift" in report
        assert "energy by category" in report
        assert "top counter movers" in report

    def test_one_sided_metrics_listed(self, tmp_path):
        a_dir = write_run(tmp_path / "a", "a")
        b_dir = write_run(tmp_path / "b", "b")
        registry = MetricsRegistry()
        registry.counter("peas_runs_total", status="ok").inc(2)
        registry.counter("peas_wakeups_total").inc(9)
        save_metrics(registry, b_dir / "metrics.ndjson", meta={"label": "b"})
        diff = diff_runs(load_run(a_dir), load_run(b_dir))
        assert diff.only_b == ["peas_wakeups_total"]
        assert any(name.startswith("peas_energy") for name in diff.only_a)
        report = render_diff(diff)
        assert "only in A" in report and "only in B" in report


class TestMetricDelta:
    def test_pct_none_when_baseline_zero(self):
        delta = MetricDelta(
            name="peas_wakeups_total", labels={}, kind="counter",
            value_a=0, value_b=5,
        )
        assert delta.pct is None
        assert "new" in delta.describe()

    def test_describe_includes_labels(self):
        delta = MetricDelta(
            name="peas_runs_total", labels={"status": "ok"}, kind="counter",
            value_a=2, value_b=3,
        )
        text = delta.describe()
        assert "peas_runs_total{status=ok}" in text
        assert "+50.0%" in text
