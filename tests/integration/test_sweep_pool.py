"""Pooled and serial sweeps must be interchangeable.

Each run is seeded deterministically from its scenario alone, so a process
pool is a pure execution detail: the pooled sweep must return exactly the
results a serial sweep does, in the input scenario order.  A regression
here means either the harness picked up hidden global state or the
executor's result ordering broke.
"""

from repro.experiments import (
    Scenario,
    expand_protocols,
    expand_seeds,
    result_to_dict,
    run_sweep,
)

BASE = Scenario(
    num_nodes=12,
    field_size=(12.0, 12.0),
    failure_per_5000s=4.0,
    with_traffic=False,
    max_time_s=1_500.0,
)

# Two protocols x two seeds: heterogeneous enough that misordering or
# cross-worker state would show, small enough to run in seconds.
SCENARIOS = expand_seeds(expand_protocols([BASE], ["peas", "duty_cycle"]), [0, 1])


def _comparable(result):
    payload = result_to_dict(result)
    # Provenance carries wall-clock timings; everything else must match.
    protocol = payload["manifest"].get("protocol")
    payload["manifest"] = {"protocol": protocol}
    payload.pop("profile")
    return payload


class TestPooledVsSerial:
    def test_pooled_matches_serial_in_input_order(self):
        serial = run_sweep(SCENARIOS)
        pooled = run_sweep(SCENARIOS, processes=2)
        assert [_comparable(r) for r in pooled] == [
            _comparable(r) for r in serial
        ]

    def test_results_follow_scenario_order(self):
        results = run_sweep(SCENARIOS, processes=2)
        assert [
            (r.manifest["protocol"], r.seed) for r in results
        ] == [(s.protocol, s.seed) for s in SCENARIOS]
