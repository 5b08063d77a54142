"""Canonical definitions of the paper's evaluation experiments (§5).

Two simulation sweeps power all seven reported artifacts:

* the **deployment sweep** (populations 160..800, failure rate 10.66/5000 s)
  → Fig 9 (coverage lifetimes), Fig 10 (delivery lifetime), Fig 11 (total
  wakeups) and Table 1 (energy overhead);
* the **failure sweep** (N = 480, failure rates 5.33..48/5000 s)
  → Fig 12 (coverage lifetime), Fig 13 (delivery lifetime) and Fig 14
  (total wakeups + the <0.25 % overhead claim).

Scale control: the paper averages 5 seeds per point; set
``REPRO_BENCH_SCALE=full`` to do the same, ``quick`` (default) uses 2 seeds
and ``smoke`` a single seed.  ``REPRO_PROCESSES`` bounds the process pool.

Sweep results are memoized per process so the per-figure benchmarks share
one simulation batch.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.options import RunOptions
from .metrics import MeanStd, RunResult, aggregate_values
from .scenario import Scenario
from .sweep import expand_seeds, group_by, run_sweep

__all__ = [
    "DEPLOYMENT_NUMBERS",
    "FAILURE_RATES",
    "BASELINE_FAILURE_RATE",
    "bench_seeds",
    "bench_processes",
    "deployment_scenarios",
    "failure_scenarios",
    "get_deployment_results",
    "get_failure_results",
    "fig9_rows",
    "fig10_rows",
    "fig11_rows",
    "table1_rows",
    "fig12_rows",
    "fig13_rows",
    "fig14_rows",
]

#: §5.2: "we set the node number as 160, 320, 480, 640 and 800".
DEPLOYMENT_NUMBERS: Tuple[int, ...] = (160, 320, 480, 640, 800)

#: §5.3: "we increase the failure rate from 5.33 to 48 failures per 5000
#: seconds at incremental steps of 5.33" with N = 480.
FAILURE_RATES: Tuple[float, ...] = (
    5.33, 10.66, 16.0, 21.33, 26.66, 32.0, 37.33, 42.66, 48.0
)

#: §5.2: "a failure rate of 10.66 failures/5000 seconds" for the
#: deployment-number experiments.
BASELINE_FAILURE_RATE = 10.66

FAILURE_SWEEP_POPULATION = 480

_SCALE_SEEDS = {"smoke": 1, "quick": 2, "full": 5}


def bench_seeds() -> List[int]:
    """Seed list for the current ``REPRO_BENCH_SCALE`` (paper scale: 5)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in _SCALE_SEEDS:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALE_SEEDS)}, got {scale!r}"
        )
    return list(range(_SCALE_SEEDS[scale]))


def bench_processes() -> Optional[int]:
    """Process-pool width for sweeps (``REPRO_PROCESSES`` override)."""
    env = os.environ.get("REPRO_PROCESSES")
    if env is not None:
        return max(1, int(env))
    cpus = os.cpu_count() or 1
    return min(8, cpus)


def deployment_scenarios(seeds: Sequence[int]) -> List[Scenario]:
    """The Fig 9/10/11 + Table 1 sweep."""
    base = Scenario(failure_per_5000s=BASELINE_FAILURE_RATE)
    return expand_seeds(
        [base.with_(num_nodes=n) for n in DEPLOYMENT_NUMBERS], seeds
    )


def failure_scenarios(seeds: Sequence[int]) -> List[Scenario]:
    """The Fig 12/13/14 sweep."""
    base = Scenario(num_nodes=FAILURE_SWEEP_POPULATION)
    return expand_seeds(
        [base.with_(failure_per_5000s=r) for r in FAILURE_RATES], seeds
    )


# --------------------------------------------------------------------------
# Memoized sweep execution (shared across the per-figure benchmarks).
# --------------------------------------------------------------------------
_memo: Dict[Tuple, Dict[object, List[RunResult]]] = {}


def get_deployment_results(
    seeds: Optional[Sequence[int]] = None,
    processes: Optional[int] = None,
    options: Optional[RunOptions] = None,
    telemetry=None,
) -> Dict[int, List[RunResult]]:
    """Deployment-sweep results grouped by population.

    ``options`` applies one capability stack (sanitize / trace-to-path /
    metrics) to every run in the sweep, pooled or serial.  ``telemetry``
    (a :class:`~repro.experiments.telemetry.SweepTelemetry`) attaches live
    progress and exports; it is not part of the memo key, so it only
    takes effect when the sweep actually executes (always true for fresh
    CLI processes).
    """
    seeds = tuple(seeds if seeds is not None else bench_seeds())
    key = ("deployment", seeds, options)
    if key not in _memo:
        results = run_sweep(
            deployment_scenarios(seeds),
            processes=processes if processes is not None else bench_processes(),
            options=options,
            telemetry=telemetry,
        )
        _memo[key] = group_by(results, lambda r: r.num_nodes)
    return _memo[key]  # type: ignore[return-value]


def get_failure_results(
    seeds: Optional[Sequence[int]] = None,
    processes: Optional[int] = None,
    options: Optional[RunOptions] = None,
    telemetry=None,
) -> Dict[float, List[RunResult]]:
    """Failure-sweep results grouped by failure rate."""
    seeds = tuple(seeds if seeds is not None else bench_seeds())
    key = ("failure", seeds, options)
    if key not in _memo:
        results = run_sweep(
            failure_scenarios(seeds),
            processes=processes if processes is not None else bench_processes(),
            options=options,
            telemetry=telemetry,
        )
        _memo[key] = group_by(results, lambda r: r.failure_rate_per_5000s)
    return _memo[key]  # type: ignore[return-value]


# --------------------------------------------------------------------------
# Row builders: one per table/figure, emitting exactly the paper's series.
# --------------------------------------------------------------------------
def _mean(ms: Optional[MeanStd]) -> Optional[float]:
    return ms.mean if ms is not None else None


def fig9_rows(groups: Dict[int, List[RunResult]]) -> List[List[object]]:
    """Fig 9: coverage lifetime (3/4/5-coverage) vs deployment number."""
    rows = []
    for n in sorted(groups):
        runs = groups[n]
        rows.append(
            [n]
            + [
                _mean(aggregate_values([r.coverage_lifetimes.get(k) for r in runs]))
                for k in (3, 4, 5)
            ]
        )
    return rows


def fig10_rows(groups: Dict[int, List[RunResult]]) -> List[List[object]]:
    """Fig 10: data delivery lifetime vs deployment number."""
    return [
        [n, _mean(aggregate_values([r.delivery_lifetime for r in groups[n]]))]
        for n in sorted(groups)
    ]


def fig11_rows(groups: Dict[int, List[RunResult]]) -> List[List[object]]:
    """Fig 11: average total wakeup count vs deployment number."""
    return [
        [n, _mean(aggregate_values([float(r.total_wakeups) for r in groups[n]]))]
        for n in sorted(groups)
    ]


def table1_rows(groups: Dict[int, List[RunResult]]) -> List[List[object]]:
    """Table 1: energy overhead (J) and overhead ratio vs deployment number."""
    rows = []
    for n in sorted(groups):
        runs = groups[n]
        overhead = _mean(aggregate_values([r.energy_overhead_j for r in runs]))
        ratio = _mean(aggregate_values([r.energy_overhead_ratio for r in runs]))
        rows.append([n, overhead, ratio * 100 if ratio is not None else None])
    return rows


def fig12_rows(groups: Dict[float, List[RunResult]]) -> List[List[object]]:
    """Fig 12: coverage lifetime (3/4/5) vs failure rate at N = 480."""
    rows = []
    for rate in sorted(groups):
        runs = groups[rate]
        rows.append(
            [rate]
            + [
                _mean(aggregate_values([r.coverage_lifetimes.get(k) for r in runs]))
                for k in (3, 4, 5)
            ]
            + [_mean(aggregate_values([r.failure_fraction for r in runs]))]
        )
    return rows


def fig13_rows(groups: Dict[float, List[RunResult]]) -> List[List[object]]:
    """Fig 13: data delivery lifetime vs failure rate."""
    return [
        [rate, _mean(aggregate_values([r.delivery_lifetime for r in groups[rate]]))]
        for rate in sorted(groups)
    ]


def fig14_rows(groups: Dict[float, List[RunResult]]) -> List[List[object]]:
    """Fig 14: total wakeups vs failure rate, plus the overhead-ratio claim."""
    rows = []
    for rate in sorted(groups):
        runs = groups[rate]
        wakeups = _mean(aggregate_values([float(r.total_wakeups) for r in runs]))
        ratio = _mean(aggregate_values([r.energy_overhead_ratio for r in runs]))
        rows.append([rate, wakeups, ratio * 100 if ratio is not None else None])
    return rows
