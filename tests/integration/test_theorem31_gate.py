"""Theorem 3.1 on a simulated working set, not on point sets.

The theorem: when the deployment is dense enough that PEAS keeps the field
covered, ``R_t >= (1 + sqrt(5)) R_p`` makes the working nodes one connected
component.  The fig9 scenario has ``R_p = 3 m`` and ``R_t = 10 m >= 9.71
m``.  This gate runs fig9 seed 0 to the network's death and, every 500
simulated seconds at which 3-coverage is still at least 0.96 (the
premise), checks that the working sensors (anchored stations excluded)
form one component at ``R_t``.  Once coverage has decayed below that
level the premise no longer holds and the working set may split.
"""

from repro.analysis.connectivity import is_connected
from repro.analysis.geometry import THEOREM_RANGE_FACTOR
from repro.coverage import CoverageTracker
from repro.experiments import Scenario
from repro.harness import LiveRun

FIG9 = Scenario(num_nodes=480, seed=0)
CHECK_EVERY_S = 500.0
COVERAGE_PREMISE = 0.96


def test_covered_working_set_is_connected_at_rt(monkeypatch):
    r_p = FIG9.config.probe_range_m
    r_t = FIG9.comm_range_m
    assert r_t >= THEOREM_RANGE_FACTOR * r_p

    checkpoints = []
    state = {"next": CHECK_EVERY_S, "network": None}
    original = CoverageTracker._sample

    def sample(tracker):
        original(tracker)
        now = tracker.sim.now
        if now < state["next"]:
            return
        state["next"] += CHECK_EVERY_S
        coverage = tracker.grid.fraction(3)
        if coverage < COVERAGE_PREMISE:
            return
        network = state["network"]
        sensors = network.working_ids() - set(network.anchor_ids)
        working = [network.nodes[node_id].position for node_id in sorted(sensors)]
        checkpoints.append((now, coverage, len(working), is_connected(working, r_t)))

    monkeypatch.setattr(CoverageTracker, "_sample", sample)
    live = LiveRun(FIG9)
    state["network"] = live.network
    live.start()
    live.run_loop()
    live.collect()

    # The premise holds for most of the run (from the first checkpoint to
    # about 16,500 s on this seed): a gate that checked nothing would pass.
    assert len(checkpoints) >= 20, checkpoints
    split = [c for c in checkpoints if not c[3]]
    assert split == [], split
