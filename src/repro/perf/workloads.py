"""Kernel benchmark workloads: the single source of truth for perf numbers.

Each workload is a zero-argument callable returning a checksum; both the
pytest-benchmark suite (``benchmarks/bench_kernel.py``) and the standalone
report generator (``benchmarks/bench_report.py``) execute these exact
functions, so a number in a ``BENCH_*.json`` is directly comparable to a
pytest-benchmark row.

All ``repro`` imports happen lazily inside the workload bodies, and this
module itself never imports the rest of the package at module level.  That
is deliberate: ``bench_report.py --against <src>`` loads this file *by
path* into a subprocess whose ``sys.path`` points ``repro`` at a different
source tree (e.g. the previous release), so the same workload definitions
measure both trees — apples to apples.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

__all__ = [
    "KERNEL_WORKLOADS",
    "engine_event_throughput",
    "spatial_grid_query_throughput",
    "coverage_update_throughput",
    "channel_broadcast_throughput",
    "baseline_run_throughput",
]


def engine_event_throughput() -> int:
    """A 20 000-event self-rescheduling chain through the event kernel."""
    from repro.sim import Simulator

    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < 20000:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return count


def spatial_grid_query_throughput() -> int:
    """500 radius-10 range queries over an 800-node spatial index."""
    from repro.net import Field, SpatialGrid

    rng = random.Random(1)
    field = Field(50.0, 50.0)
    grid = SpatialGrid()
    for i in range(800):
        grid.insert(i, field.random_point(rng))
    centers = [field.random_point(rng) for _ in range(500)]
    return sum(len(grid.within(center, 10.0)) for center in centers)


def coverage_update_throughput() -> float:
    """200 sensing disks added then removed from the K-coverage lattice,
    read every 20 updates as the coverage tracker's samples do."""
    from repro.coverage import CoverageGrid
    from repro.net import Field

    rng = random.Random(2)
    field = Field(50.0, 50.0)
    grid = CoverageGrid(field, sensing_range=10.0, resolution=1.0)
    nodes = [field.random_point(rng) for _ in range(200)]
    updates = [(grid.add_node, node) for node in nodes]
    updates += [(grid.remove_node, node) for node in nodes]
    for done, (update, node) in enumerate(updates, start=1):
        update(node)
        if done % 20 == 0:
            grid.fraction(1)
    return grid.fraction(1)


def channel_broadcast_throughput() -> int:
    """Steady-state periodic probing: 300 nodes x 4 PROBE rounds (§2)."""
    from repro.net import BroadcastChannel, Field, Packet, RadioModel, SpatialGrid
    from repro.sim import Simulator

    class Endpoint:
        def __init__(self, node_id: int, position) -> None:
            self.node_id = node_id
            self.position = position
            self.received = 0

        def is_listening(self) -> bool:
            return True

        def on_packet(self, packet, rssi, dist) -> None:
            self.received += 1

    sim = Simulator()
    field = Field(50.0, 50.0)
    grid = SpatialGrid()
    channel = BroadcastChannel(sim, grid, RadioModel(), rng=random.Random(3))
    rng = random.Random(4)
    endpoints = [Endpoint(i, field.random_point(rng)) for i in range(300)]
    for endpoint in endpoints:
        channel.attach(endpoint)
    for round_start in (0.0, 60.0, 120.0, 180.0):
        for i, endpoint in enumerate(endpoints):
            sim.schedule(
                round_start + i * 0.02,
                channel.transmit,
                endpoint.node_id,
                Packet("PROBE", endpoint.node_id),
                3.0,
            )
    sim.run()
    return sum(e.received for e in endpoints)


def baseline_run_throughput() -> int:
    """One small end-to-end duty-cycle baseline run through the harness.

    Exercises the full composition path (deployment, channel, coverage,
    failures, metrics) rather than a single kernel; uses only the
    ``run_baseline(scenario, protocol=...)`` signature, which older trees
    also expose, so ``--against`` comparisons still load.
    """
    from repro.baselines import run_baseline
    from repro.experiments import Scenario

    scenario = Scenario(
        num_nodes=40,
        field_size=(20.0, 20.0),
        seed=5,
        failure_per_5000s=4.0,
        with_traffic=False,
        max_time_s=2000.0,
    )
    result = run_baseline(scenario, protocol="duty_cycle")
    return result.failures_injected + int(result.end_time)


#: name -> workload, in report order
KERNEL_WORKLOADS: Dict[str, Callable[[], object]] = {
    "engine_event_throughput": engine_event_throughput,
    "spatial_grid_query_throughput": spatial_grid_query_throughput,
    "coverage_update_throughput": coverage_update_throughput,
    "channel_broadcast_throughput": channel_broadcast_throughput,
    "baseline_run_throughput": baseline_run_throughput,
}
