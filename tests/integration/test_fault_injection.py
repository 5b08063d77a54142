"""Integration tests for the fault subsystem under the full harness.

The contract under test, end to end:

* every fault model runs a real scenario to completion under the runtime
  sanitizer, with fault lifecycle events landing in a schema-valid trace;
* fault schedules are seed-deterministic — identical seed and plan yield
  byte-identical traces;
* an explicitly-empty plan is byte-identical to the default (no plan);
* plans ride the scenario through ``peas-scenario/1`` JSON and process
  pools, and unsupported models are rejected per protocol capability;
* sweeps survive in-run failures: captured, retried once, surfaced.
"""

import hashlib

import pytest

from repro.experiments import (
    RunError,
    Scenario,
    SweepError,
    run_scenario,
    run_sweep,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.faults import (
    BurstyLossFault,
    ClockDriftFault,
    CrashFault,
    FaultPlan,
    RegionKillFault,
    TransientOutageFault,
)
from repro.harness import RunOptions
from repro.obs import NdjsonSink, Tracer, validate_trace_file
from repro.obs.inspect import summarize_trace_file

from .test_perf_invariants import fingerprint_sha256

BASE = Scenario(
    num_nodes=40,
    field_size=(25.0, 25.0),
    seed=11,
    failure_per_5000s=2.0,
    with_traffic=False,
    max_time_s=3_000.0,
)

FULL_PLAN = FaultPlan((
    RegionKillFault(at_s=400.0, radius_m=8.0),
    TransientOutageFault(rate_per_5000s=40.0, mean_outage_s=100.0),
    BurstyLossFault(good_mean_s=60.0, bad_mean_s=10.0, bad_loss=0.6),
    ClockDriftFault(max_skew=0.05),
    CrashFault(rate_per_5000s=4.0),
))


def _traced_run(scenario, path, sanitize=True):
    tracer = Tracer(NdjsonSink(path))
    try:
        result = run_scenario(scenario, tracer=tracer, sanitize=sanitize)
    finally:
        tracer.close()
    return result


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def faulted(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("faults") / "faulted.ndjson"
        result = _traced_run(BASE.with_(fault_plan=FULL_PLAN), path)
        return path, result

    def test_trace_validates_with_fault_events(self, faulted):
        path, _result = faulted
        assert validate_trace_file(path) == []
        summary = summarize_trace_file(path)
        # One arm per plan entry, ids in plan order.
        assert summary.fault_arms == {
            "fault0": "region_kill",
            "fault1": "transient_outage",
            "fault2": "bursty_loss",
            "fault3": "clock_drift",
            "fault4": "crash",
        }
        fired_kinds = {kind for _t, _fid, kind, _v in summary.fault_fires}
        assert {"region_kill", "bursty_loss", "clock_drift"} <= fired_kinds

    def test_resilience_metrics_in_extras(self, faulted):
        _path, result = faulted
        assert result.extras["faults_fired"] > 0
        assert result.extras["coverage_dip_max"] >= 0.0
        assert "faults_unrecovered" in result.extras

    def test_bursty_losses_counted_on_channel(self, faulted):
        _path, result = faulted
        assert result.channel_counters.get("bursty_losses", 0) > 0

    def test_outages_and_restores_counted(self, faulted):
        _path, result = faulted
        assert result.counters.get("outages", 0) > 0
        assert result.counters.get("restores", 0) > 0

    def test_inspect_reports_fault_section(self, faulted):
        from repro.obs import render_summary

        path, _result = faulted
        report = render_summary(summarize_trace_file(path))
        assert "fault plan:" in report
        assert "fault0: region_kill armed" in report

    def test_fault_schedule_is_byte_deterministic(self, faulted, tmp_path):
        path, _result = faulted
        again = tmp_path / "again.ndjson"
        _traced_run(BASE.with_(fault_plan=FULL_PLAN), again)
        assert again.read_bytes() == path.read_bytes()

    def test_empty_plan_is_byte_identical_to_default(self, tmp_path):
        default = tmp_path / "default.ndjson"
        explicit = tmp_path / "explicit.ndjson"
        r_default = _traced_run(BASE, default, sanitize=False)
        r_explicit = _traced_run(
            BASE.with_(fault_plan=FaultPlan()), explicit, sanitize=False
        )
        assert explicit.read_bytes() == default.read_bytes()
        assert r_explicit.extras == r_default.extras
        assert "faults_fired" not in r_default.extras


#: One faulted run with every plan kind, traffic on: the region kill's
#: centre is drawn from its stream and kills through ``grid.within``.
PINNED = Scenario(
    num_nodes=80,
    field_size=(25.0, 25.0),
    seed=3,
    failure_per_5000s=4.0,
    with_traffic=True,
    fault_plan=FaultPlan((
        CrashFault(rate_per_5000s=2.0),
        RegionKillFault(at_s=800.0, radius_m=10.0),
        TransientOutageFault(rate_per_5000s=20.0, mean_outage_s=100.0),
        BurstyLossFault(good_mean_s=60.0, bad_mean_s=10.0, bad_loss=0.6),
        ClockDriftFault(max_skew=0.05),
    )),
)

#: sha256 of PINNED's result fingerprint (extras included) and of its
#: trace bytes.  No other pinned digest runs a fault plan, so these are
#: what catch a drift in fault arming, firing or recovery accounting.
#: A deliberate change to the simulation must update them and say why.
PINNED_FINGERPRINT_SHA256 = (
    "21186afa4de6886f30a123b230eb363f194c515c35e876eaa13f5ca9ca05c5ab"
)
PINNED_TRACE_SHA256 = (
    "646c63a773e69284ff2a11a0128e6be27952733c4b025a8389d837315b2c197d"
)


class TestPinnedFaultedRun:
    @pytest.fixture(scope="class")
    def pinned(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pinned") / "pinned.ndjson"
        result = _traced_run(PINNED, path, sanitize=False)
        return path, result

    def test_result_fingerprint_is_pinned(self, pinned):
        _path, result = pinned
        assert result.extras["faults_fired"] > 0
        assert fingerprint_sha256(result) == PINNED_FINGERPRINT_SHA256

    def test_trace_bytes_are_pinned(self, pinned):
        path, _result = pinned
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_TRACE_SHA256


class TestSingleModelRuns:
    @pytest.mark.parametrize("entry", [
        CrashFault(rate_per_5000s=12.0),
        RegionKillFault(at_s=300.0, radius_m=10.0, center=(12.0, 12.0)),
        TransientOutageFault(rate_per_5000s=60.0, mean_outage_s=80.0),
        BurstyLossFault(good_mean_s=50.0, bad_mean_s=12.0, bad_loss=0.7),
        ClockDriftFault(max_skew=0.08),
    ], ids=lambda e: e.kind)
    def test_each_model_runs_sanitized(self, entry):
        result = run_scenario(
            BASE.with_(fault_plan=FaultPlan((entry,))), sanitize=True
        )
        assert result.end_time > 0
        assert result.extras["sanitizer_checks"] > 0


class TestScenarioPlumbing:
    def test_plan_rides_scenario_json(self):
        scenario = BASE.with_(fault_plan=FULL_PLAN, loss_rate=0.1)
        restored = scenario_from_dict(scenario_to_dict(scenario))
        assert restored.fault_plan == FULL_PLAN
        assert restored.loss_rate == pytest.approx(0.1)
        assert restored == scenario

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError, match="loss_rate"):
            BASE.with_(loss_rate=1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            BASE.with_(loss_rate=-0.1)

    def test_unsupported_model_rejected_for_baselines(self):
        scenario = BASE.with_(
            protocol="gaf",
            fault_plan=FaultPlan((TransientOutageFault(10.0, 50.0),)),
        )
        with pytest.raises(ValueError, match="not supported"):
            run_scenario(scenario)

    def test_baselines_accept_region_kill(self):
        scenario = BASE.with_(
            protocol="always_on",
            max_time_s=1_000.0,
            fault_plan=FaultPlan((
                RegionKillFault(at_s=200.0, radius_m=8.0, center=(12.0, 12.0)),
            )),
        )
        result = run_scenario(scenario)
        assert result.extras["faults_fired"] == 1.0
        assert result.failures_injected > 0


def _bad_scenario():
    # Constructs fine, but the fault engine rejects the plan inside the
    # worker: a deterministic in-run failure for exercising sweep capture.
    return BASE.with_(
        protocol="gaf",
        fault_plan=FaultPlan((ClockDriftFault(max_skew=0.05),)),
    )


class TestSweepErrorCapture:
    def test_collect_returns_errors_in_position(self):
        quick = BASE.with_(max_time_s=500.0)
        results = run_sweep(
            [quick, _bad_scenario(), quick.with_(seed=12)],
            errors="collect",
        )
        assert len(results) == 3
        assert not isinstance(results[0], RunError)
        assert isinstance(results[1], RunError)
        assert not isinstance(results[2], RunError)
        error = results[1]
        assert error.error_type == "ValueError"
        assert error.attempts == 2  # failed, retried once, failed again
        assert "clock_drift" in error.error_message
        assert "FaultEngine" in error.traceback_text or error.traceback_text

    def test_raise_mode_summarizes_after_completion(self):
        quick = BASE.with_(max_time_s=500.0)
        with pytest.raises(SweepError) as excinfo:
            run_sweep([quick, _bad_scenario()])
        assert len(excinfo.value.failures) == 1
        assert "gaf" in str(excinfo.value)

    def test_invalid_errors_policy_rejected(self):
        with pytest.raises(ValueError, match="errors"):
            run_sweep([], errors="ignore")

    def test_pooled_sweep_collects_errors(self):
        quick = BASE.with_(max_time_s=500.0)
        results = run_sweep(
            [quick, _bad_scenario()], processes=2, errors="collect"
        )
        assert not isinstance(results[0], RunError)
        assert isinstance(results[1], RunError)
