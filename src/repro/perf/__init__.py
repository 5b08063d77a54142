"""Performance measurement for the simulation substrate.

``repro.perf`` owns the kernel benchmark workloads (shared with the
pytest-benchmark suite) and the machinery that turns them into committed
``BENCH_<date>.json`` perf-trajectory reports — see
``benchmarks/bench_report.py`` for the CLI.
"""

from .report import (
    SCALING_NODE_COUNTS,
    SCHEMA,
    ab_measure,
    compare_micro,
    compare_scaling,
    host_fingerprint,
    measure_tree,
    micro_rounds,
    peak_rss_mb,
    run_micro,
    run_scaling,
    time_workload,
    write_report,
)
from .workloads import KERNEL_WORKLOADS

__all__ = [
    "SCALING_NODE_COUNTS",
    "SCHEMA",
    "KERNEL_WORKLOADS",
    "ab_measure",
    "compare_micro",
    "compare_scaling",
    "host_fingerprint",
    "measure_tree",
    "micro_rounds",
    "peak_rss_mb",
    "run_micro",
    "run_scaling",
    "time_workload",
    "write_report",
]
