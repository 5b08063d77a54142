"""Simulation-substrate microbenchmarks (engine throughput, channel, grid).

Not a paper artifact: these track the raw performance of the PARSEC-
substitute kernel so regressions in the substrates are visible separately
from protocol-level changes.

The workload bodies live in :mod:`repro.perf.workloads` — the same
functions power ``benchmarks/bench_report.py``, so pytest-benchmark rows
and committed ``BENCH_*.json`` numbers are directly comparable.
"""

from repro.perf.workloads import (
    channel_broadcast_throughput,
    coverage_update_throughput,
    engine_event_throughput,
    spatial_grid_query_throughput,
)


def test_engine_event_throughput(benchmark):
    assert benchmark(engine_event_throughput) == 20000


def test_spatial_grid_query_throughput(benchmark):
    assert benchmark(spatial_grid_query_throughput) > 0


def test_coverage_update_throughput(benchmark):
    assert benchmark(coverage_update_throughput) == 0.0


def test_channel_broadcast_throughput(benchmark):
    assert benchmark(channel_broadcast_throughput) > 0
