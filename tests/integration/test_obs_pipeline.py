"""Integration tests for the observability pipeline.

Two guarantees hold the tentpole together:

* **Golden traces** — the NDJSON stream of a tiny run is byte-stable: two
  runs of the same scenario produce identical files, with the neighbor
  cache on or off (tracing must not observe optimization-dependent state).
* **Tracing neutrality** — running with a live tracer, or with the engine
  profiler, produces bit-identical results to running without one.
"""

import dataclasses
import hashlib
import math
from collections import defaultdict

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.obs import (
    NdjsonSink,
    RingBufferSink,
    Tracer,
    validate_trace_file,
)
from repro.obs.inspect import summarize_trace_file

TINY = Scenario(
    num_nodes=10,
    field_size=(12.0, 12.0),
    seed=3,
    failure_per_5000s=2.0,
    with_traffic=False,
    max_time_s=4_000.0,
)


#: sha256 of TINY's NDJSON trace bytes.  The other golden tests compare two
#: runs through the same encoder, so an encoder change that altered bytes
#: the same way in both would slip past them; this literal would not.  A
#: deliberate change to the trace format or to the simulation must update
#: it and say why.
TINY_TRACE_SHA256 = "16f3ae9e7d1617a2f1012c037b035028fd6dd65179f64302616c74433f45f933"


def _trace_to(path):
    tracer = Tracer(NdjsonSink(path))
    try:
        result = run_scenario(TINY, tracer=tracer)
    finally:
        tracer.close()
    return result


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "trace.ndjson"
        result = _trace_to(path)
        return path.read_bytes(), result

    def test_trace_has_content_and_validates(self, golden, tmp_path):
        raw, result = golden
        assert raw.count(b"\n") > 50
        path = tmp_path / "replay.ndjson"
        path.write_bytes(raw)
        assert validate_trace_file(path) == []
        assert result.manifest["trace"]["emitted"] == raw.count(b"\n")

    def test_trace_bytes_match_pinned_digest(self, golden):
        assert hashlib.sha256(golden[0]).hexdigest() == TINY_TRACE_SHA256

    def test_rerun_is_byte_identical(self, golden, tmp_path):
        again = tmp_path / "again.ndjson"
        _trace_to(again)
        assert again.read_bytes() == golden[0]

    def test_cache_off_is_byte_identical(self, golden, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NEIGHBOR_CACHE", "0")
        brute = tmp_path / "brute.ndjson"
        _trace_to(brute)
        assert brute.read_bytes() == golden[0]

    def test_summary_matches_result(self, golden, tmp_path):
        raw, result = golden
        path = tmp_path / "sum.ndjson"
        path.write_bytes(raw)
        summary = summarize_trace_file(path)
        assert len(summary.failures) == result.failures_injected
        assert sum(summary.probes.values()) == result.counters.get("probes_sent", 0)

    def test_harness_entrypoint_is_byte_identical(self, golden, tmp_path):
        # The refactored composition layer must reproduce the legacy
        # run_scenario trace byte-for-byte, manifest sidecar included.
        from repro.harness import RunOptions, run

        trace = tmp_path / "harness.ndjson"
        run(TINY, RunOptions(trace_path=str(trace)))
        assert trace.read_bytes() == golden[0]
        assert (tmp_path / "harness.manifest.json").exists()

    def test_empty_fault_plan_is_byte_identical(self, golden, tmp_path):
        # The fault subsystem's no-op guarantee: a scenario carrying an
        # explicitly-empty FaultPlan emits no fault events and perturbs
        # no RNG stream, so its trace matches the golden byte-for-byte.
        from repro.faults import FaultPlan

        trace = tmp_path / "emptyplan.ndjson"
        tracer = Tracer(NdjsonSink(trace))
        try:
            run_scenario(TINY.with_(fault_plan=FaultPlan()), tracer=tracer)
        finally:
            tracer.close()
        assert trace.read_bytes() == golden[0]

    def test_sweep_path_is_byte_identical(self, golden, tmp_path):
        # Serial run_sweep with a templated trace path runs the same
        # harness code pooled workers do; its trace must match too.
        from repro.experiments import run_sweep
        from repro.harness import RunOptions

        template = tmp_path / "s{seed}-n{nodes}-{protocol}.ndjson"
        (result,) = run_sweep([TINY], options=RunOptions(trace_path=str(template)))
        trace = tmp_path / f"s{TINY.seed}-n{TINY.num_nodes}-peas.ndjson"
        assert trace.read_bytes() == golden[0]
        assert result.manifest["protocol"] == "peas"


def _fingerprint(result):
    payload = dataclasses.asdict(result)
    payload.pop("manifest")  # wall-clock provenance is volatile by design
    payload.pop("profile")
    return payload


class TestNullSinkNeutrality:
    def test_live_tracer_does_not_change_results(self):
        untraced = run_scenario(TINY)
        tracer = Tracer(RingBufferSink())
        traced = run_scenario(TINY, tracer=tracer)
        assert _fingerprint(traced) == _fingerprint(untraced)
        assert tracer.stats()["emitted"] > 0

    def test_profiled_run_does_not_change_results(self):
        plain = run_scenario(TINY)
        profiled = run_scenario(TINY, profile=True)
        assert _fingerprint(profiled) == _fingerprint(plain)
        assert profiled.profile is not None
        assert profiled.profile["events"] > 0
        assert plain.profile is None


class TestEnergyEventsMatchTheResult:
    def test_traced_categories_sum_to_energy_by_category(self):
        """Every joule a sensor battery is charged (data frames included,
        which only ``charge_data_energy`` charges) appears as an ``energy``
        event, so summing the trace reproduces the run's accounting."""
        scenario = Scenario(
            num_nodes=200, seed=3, max_time_s=300.0, charge_data_energy=True
        )
        sink = RingBufferSink()
        result = run_scenario(scenario, tracer=Tracer(sink))
        traced = defaultdict(float)
        for event in sink.events("energy"):
            if not isinstance(event["node"], str):  # anchors are str ids
                traced[event["cat"]] += event["j"]
        assert {"data_tx", "data_rx"} <= set(result.energy_by_category)
        assert set(traced) == set(result.energy_by_category)
        for category, joules in result.energy_by_category.items():
            assert math.isclose(traced[category], joules, rel_tol=1e-9), category

    def test_inspect_energy_matches_energy_by_category(self, tmp_path):
        """``peas-repro inspect`` reports the run's own energy accounting:
        the anchors' charges, which the trace keeps, are not counted."""
        scenario = Scenario(num_nodes=200, seed=0, max_time_s=300.0)
        path = tmp_path / "trace.ndjson"
        tracer = Tracer(NdjsonSink(path))
        try:
            result = run_scenario(scenario, tracer=tracer)
        finally:
            tracer.close()
        anchor_charges = [
            line for line in path.read_text().splitlines()
            if '"ev":"energy"' in line and '"node":"anchor' in line
        ]
        assert anchor_charges  # non-vacuous: anchors were charged
        summary = summarize_trace_file(path)
        assert set(summary.energy_by_cat) == set(result.energy_by_category)
        for category, joules in result.energy_by_category.items():
            assert math.isclose(
                summary.energy_by_cat[category], joules, rel_tol=1e-9
            ), category


class TestManifestProvenance:
    def test_manifest_block(self):
        result = run_scenario(TINY)
        manifest = result.manifest
        assert manifest["seed"] == TINY.seed
        assert manifest["protocol"] == "peas"
        assert manifest["config_hash"] == run_scenario(TINY).manifest["config_hash"]
        assert "channel" in manifest["rng_streams"]
        assert manifest["events_executed"] > 0
        assert manifest["sim_end_time_s"] == result.end_time
        assert manifest["mac"]["num_probes"] == TINY.config.num_probes
        assert manifest["timing"]["wall_time_s"] > 0
