"""The metrics registry and the ``peas-metrics/1`` export contract.

Covers the three instrument kinds, the name catalogue (enforced at the
call, and exercised name by name by a run plus a sweep export), the
log2 bucketing (exact at power-of-two edges), cross-worker merge
semantics, NDJSON round-trip + validation, and the Prometheus renderer.
"""

import io
import json
import math
from types import SimpleNamespace

import pytest

from repro.experiments import RunError, Scenario
from repro.experiments.telemetry import SweepTelemetry
from repro.obs.metrics import (
    BUCKET_COUNT,
    BUCKET_LOG2_LOW,
    METRIC_NAMES,
    MetricsRegistry,
    RunMetrics,
    _bucket_index,
    bucket_bounds,
    load_metrics_file,
    render_prometheus,
    save_metrics,
    validate_metrics_file,
)


class TestBucketing:
    def test_bounds_layout(self):
        bounds = bucket_bounds()
        assert len(bounds) == BUCKET_COUNT + 1
        assert bounds[0] == 2.0 ** BUCKET_LOG2_LOW
        assert bounds[-1] == math.inf
        assert bounds[:-1] == sorted(bounds[:-1])

    def test_power_of_two_edges_are_exact(self):
        # Bucket i covers (2^(LOW+i-1), 2^(LOW+i)]: a power of two lands
        # in the bucket it bounds, not the next one up.
        bounds = bucket_bounds()
        for i, bound in enumerate(bounds[:-1]):
            assert _bucket_index(bound) == i
            assert _bucket_index(bound * 1.0000001) == i + 1

    def test_underflow_and_overflow(self):
        assert _bucket_index(0.0) == 0
        assert _bucket_index(2.0 ** (BUCKET_LOG2_LOW - 5)) == 0
        assert _bucket_index(2.0 ** (BUCKET_LOG2_LOW + BUCKET_COUNT + 3)) == BUCKET_COUNT

    def test_every_observation_lands_in_exactly_one_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("peas_run_wall_seconds")
        values = [0.001, 0.5, 1.0, 1.5, 3600.0, 1e9]
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert sum(hist.buckets) == len(values)
        assert hist.sum == pytest.approx(sum(values))
        assert hist.mean == pytest.approx(sum(values) / len(values))


class TestRegistry:
    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("peas_runs_total", protocol="peas", status="ok")
        b = registry.counter("peas_runs_total", status="ok", protocol="peas")
        c = registry.counter("peas_runs_total", status="error", protocol="peas")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5
        assert len(registry) == 2

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("peas_runs_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_set_max_keeps_peak(self):
        gauge = MetricsRegistry().gauge("peas_sim_heap_size")
        gauge.set_max(10)
        gauge.set_max(4)
        assert gauge.value == 10
        gauge.set(4)
        assert gauge.value == 4

    def test_strict_rejects_undeclared_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="undeclared metric name"):
            registry.counter("peas_bogus_total")

    def test_kind_must_match_catalogue(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="declared as a counter"):
            registry.gauge("peas_runs_total")

    def test_label_values_stringify(self):
        registry = MetricsRegistry()
        registry.histogram("peas_coverage_lifetime_seconds", k=3).observe(1.0)
        (sample,) = registry.snapshot()
        assert sample["labels"] == {"k": "3"}


class TestMergeSemantics:
    def build(self, runs_value, heap_value, observations):
        registry = MetricsRegistry()
        registry.counter("peas_runs_total").inc(runs_value)
        registry.gauge("peas_sim_heap_size").set(heap_value)
        hist = registry.histogram("peas_run_wall_seconds")
        for v in observations:
            hist.observe(v)
        return registry

    def test_counters_add_gauges_max_histograms_add(self):
        merged = MetricsRegistry()
        merged.merge(self.build(2, 10, [1.0, 2.0]).snapshot())
        merged.merge(self.build(3, 7, [4.0]).snapshot())
        assert merged.counter("peas_runs_total").value == 5
        assert merged.gauge("peas_sim_heap_size").value == 10
        hist = merged.histogram("peas_run_wall_seconds")
        assert hist.count == 3
        assert hist.sum == pytest.approx(7.0)

    def test_merge_rejects_incompatible_bucket_layout(self):
        (sample,) = [
            s for s in self.build(1, 1, [1.0]).snapshot()
            if s["type"] == "histogram"
        ]
        sample["buckets"] = sample["buckets"][:-2]
        with pytest.raises(ValueError, match="incompatible bucket layout"):
            MetricsRegistry().merge([sample])

    def test_merge_is_idempotent_on_empty(self):
        registry = MetricsRegistry()
        registry.merge([])
        assert registry.snapshot() == []


class TestExportRoundTrip:
    def populated(self):
        registry = MetricsRegistry()
        registry.counter("peas_runs_total", protocol="peas", status="ok").inc(4)
        registry.gauge("peas_run_rss_mb").set_max(120.5)
        hist = registry.histogram("peas_run_wall_seconds", phase="run")
        hist.observe(0.25)
        hist.observe(8.0)
        return registry

    def test_round_trip_preserves_every_sample(self, tmp_path):
        registry = self.populated()
        path = tmp_path / "metrics.ndjson"
        save_metrics(registry, path, meta={"label": "unit"})
        header, samples = load_metrics_file(path)
        assert header["schema"] == "peas-metrics/1"
        assert header["label"] == "unit"
        assert header["bucket_log2_low"] == BUCKET_LOG2_LOW
        assert samples == registry.snapshot()
        # Folding the samples into a fresh registry reproduces the export.
        merged = MetricsRegistry()
        merged.merge(samples)
        assert merged.snapshot() == registry.snapshot()

    def test_export_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_metrics(self.populated(), a)
        save_metrics(self.populated(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_validator_accepts_real_exports(self, tmp_path):
        path = tmp_path / "metrics.ndjson"
        save_metrics(self.populated(), path)
        assert validate_metrics_file(path) == []

    def test_validator_catches_drift(self, tmp_path):
        path = tmp_path / "metrics.ndjson"
        save_metrics(self.populated(), path)
        lines = path.read_text().splitlines()
        doctored = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("name") == "peas_runs_total":
                obj["name"] = "peas_rogue_total"
            if obj.get("type") == "histogram":
                obj["count"] += 1
            doctored.append(json.dumps(obj))
        path.write_text("\n".join(doctored) + "\n")
        problems = "\n".join(validate_metrics_file(path))
        assert "not a canonical metric" in problems
        assert "must equal the bucket total" in problems

    def test_validator_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "metrics.ndjson"
        path.write_text('{"schema":"peas-trace/1"}\n')
        (problem,) = validate_metrics_file(path)
        assert "header must declare schema" in problem

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "metrics.ndjson"
        path.write_text('{"schema":"nope/9"}\n')
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            load_metrics_file(path)


class TestPrometheusRendering:
    def test_counter_gauge_and_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("peas_runs_total", protocol="peas", status="ok").inc(3)
        registry.gauge("peas_sim_heap_size").set(42)
        hist = registry.histogram("peas_run_wall_seconds")
        hist.observe(0.25)
        hist.observe(0.25)
        hist.observe(1e9)
        text = render_prometheus(registry)
        assert "# TYPE peas_runs_total counter" in text
        assert 'peas_runs_total{protocol="peas",status="ok"} 3' in text
        assert "# TYPE peas_sim_heap_size gauge" in text
        assert "peas_sim_heap_size 42" in text
        # Buckets are cumulative and end at +Inf == count.
        assert 'peas_run_wall_seconds_bucket{le="0.25"} 2' in text
        assert 'peas_run_wall_seconds_bucket{le="+Inf"} 3' in text
        assert "peas_run_wall_seconds_count 3" in text
        # Every catalogue name rendered carries its HELP line.
        assert f"# HELP peas_runs_total {METRIC_NAMES['peas_runs_total'][1]}" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("peas_runs_total", status='we"ird\\x').inc()
        text = render_prometheus(registry)
        assert 'status="we\\"ird\\\\x"' in text


class _FakeSim:
    pending_events = 9
    live_events = 7
    tombstones = 2
    events_executed = 1234


class _FakeResult:
    end_time = 5000.0
    coverage_lifetimes = {1: 4000.0, 3: 2500.0, 5: None}
    delivery_lifetime = 3000.0
    energy_by_category = {"sleep": 1.5, "probe": 0.0, "tx": 2.5}
    total_wakeups = 77


class TestRunMetrics:
    def test_finish_records_the_run_level_story(self):
        run = RunMetrics(protocol="peas")
        run.sample_engine(_FakeSim())
        run.record_channel({"frames_sent": 10, "frames_delivered": 8,
                            "collisions": 2, "random_losses": 0})
        run.record_faults(injected=5, events_by_kind={"crash": 5, "region_kill": 0})
        run.finish(_FakeSim(), _FakeResult(), wall_s=1.25, rss_mb=64.0)
        registry = run.registry
        labels = dict(protocol="peas")
        assert registry.counter("peas_runs_total", status="ok", **labels).value == 1
        assert registry.gauge("peas_sim_heap_size", **labels).value == 9
        assert registry.counter(
            "peas_channel_frames_total", outcome="sent", **labels
        ).value == 10
        assert registry.counter(
            "peas_channel_drops_total", reason="collision", **labels
        ).value == 2
        assert registry.counter(
            "peas_fault_events_total", kind="crash", **labels
        ).value == 5
        assert registry.counter("peas_wakeups_total", **labels).value == 77
        assert registry.counter(
            "peas_energy_joules_total", cat="tx", **labels
        ).value == 2.5
        # k=5 had no lifetime; zero-valued categories are suppressed.
        names = {s["name"]: s for s in registry.snapshot()}
        k_labels = [
            s["labels"]["k"] for s in registry.snapshot()
            if s["name"] == "peas_coverage_lifetime_seconds"
        ]
        assert k_labels == ["1", "3"]
        assert not any(
            s["labels"].get("cat") == "probe"
            for s in registry.snapshot()
            if s["name"] == "peas_energy_joules_total"
        )
        assert "peas_delivery_lifetime_seconds" in names

    def test_every_catalogue_name_is_well_formed(self):
        # The catalogue itself obeys the naming contract the validator
        # builds on.
        for name, (kind, help_text) in METRIC_NAMES.items():
            assert name.startswith("peas_")
            assert kind in ("counter", "gauge", "histogram")
            assert help_text.strip()


class TestCatalogueCoverage:
    """Every catalogued name has an emitter, and every emitted name is
    catalogued (the registry raises at the call on any other)."""

    def test_run_and_sweep_exports_cover_every_catalogue_name(self, tmp_path):
        run = RunMetrics(protocol="peas")
        run.sample_engine(_FakeSim())
        run.record_channel({"frames_sent": 10, "frames_delivered": 8,
                            "collisions": 2})
        run.record_faults(injected=5, events_by_kind={"crash": 5},
                          recoveries=1)
        run.finish(_FakeSim(), _FakeResult(), wall_s=1.25, rss_mb=64.0)

        telemetry = SweepTelemetry(tmp_path, stream=io.StringIO(), live=False)
        telemetry.start(total=3)
        scenarios = [Scenario(seed=0), Scenario(seed=1), Scenario(seed=2)]
        results = [
            SimpleNamespace(metrics=run.registry.snapshot()),
            RunError(scenarios[1], "RuntimeError", "poison", "",
                     attempts=2, quarantined=True),
            SimpleNamespace(metrics=None),
        ]
        # The executor's reports, in the order a pooled sweep makes them.
        telemetry.note_store_hit(scenarios[2])
        telemetry.note_outcome(scenarios[0], worker=101)
        telemetry.note_retry(scenarios[1])
        telemetry.note_pool_restart()
        telemetry.note_outcome(scenarios[1], error=results[1])
        telemetry.note_store(misses=2, evictions=1)
        paths = telemetry.finish(scenarios, results)

        assert validate_metrics_file(paths["metrics"]) == []
        _header, samples = load_metrics_file(paths["metrics"])
        assert {sample["name"] for sample in samples} == set(METRIC_NAMES)
        manifest = json.loads(paths["manifest"].read_text())
        assert (manifest["ok"], manifest["errors"]) == (2, 1)
        assert manifest["retries"] == 1 and manifest["quarantined"] == 1
        assert manifest["workers"] == 1 and manifest["pool_restarts"] == 1
        assert manifest["store"] == {"hits": 1, "misses": 2, "evictions": 1}
