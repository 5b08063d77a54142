"""The robustness experiment: PEAS under the full fault-model catalogue.

The paper only stresses PEAS with uniformly random crashes (§5.3).  This
sweep runs the same §5.2 setup under one named *regime* per fault model —
an empty-plan baseline, extra crashes, a correlated region kill, transient
outages, bursty channel loss, and clock drift — and reports the coverage
lifetime next to the resilience metrics the fault engine produces
(coverage-dip depth and recovery time to K-coverage).

Regimes are deliberately aggressive relative to §5.3 so the resilience
metrics have signal; the empty-plan baseline row anchors them against the
paper's own operating point.  Like :mod:`repro.experiments.paper`, scale
comes from ``REPRO_BENCH_SCALE`` and results are memoized per process.
Runs use ``errors="collect"`` so one crashed regime surfaces in its row
("failed n/m") instead of killing the sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..faults import (
    BurstyLossFault,
    ClockDriftFault,
    CrashFault,
    FaultPlan,
    RegionKillFault,
    TransientOutageFault,
)
from ..harness.options import RunOptions
from .metrics import MeanStd, RunResult, aggregate_values
from .paper import BASELINE_FAILURE_RATE, bench_processes, bench_seeds
from .scenario import Scenario
from .sweep import RunError, expand_seeds, run_sweep

__all__ = [
    "ROBUSTNESS_POPULATION",
    "ROBUSTNESS_REGIMES",
    "robustness_scenarios",
    "get_robustness_results",
    "robustness_rows",
]

#: Middle of the §5.2 deployment range: dense enough that recovery is
#: possible, small enough that six regimes x seeds stays tractable.
ROBUSTNESS_POPULATION = 320

#: Named fault regimes, one per model (plus the empty-plan baseline).
ROBUSTNESS_REGIMES: Tuple[Tuple[str, FaultPlan], ...] = (
    ("baseline", FaultPlan()),
    ("crash", FaultPlan((CrashFault(rate_per_5000s=10.66),))),
    ("region_kill", FaultPlan((RegionKillFault(at_s=2000.0, radius_m=15.0),))),
    (
        "transient_outage",
        FaultPlan(
            (TransientOutageFault(rate_per_5000s=32.0, mean_outage_s=300.0),)
        ),
    ),
    (
        "bursty_loss",
        FaultPlan(
            (
                BurstyLossFault(
                    good_mean_s=120.0, bad_mean_s=20.0, bad_loss=0.7
                ),
            )
        ),
    ),
    ("clock_drift", FaultPlan((ClockDriftFault(max_skew=0.05),))),
)


def robustness_scenarios(seeds: Sequence[int]) -> List[Scenario]:
    """The regime x seed scenario list, in regime order."""
    base = Scenario(
        num_nodes=ROBUSTNESS_POPULATION,
        failure_per_5000s=BASELINE_FAILURE_RATE,
    )
    return expand_seeds(
        [base.with_(fault_plan=plan) for _name, plan in ROBUSTNESS_REGIMES],
        seeds,
    )


_memo: Dict[Tuple, Dict[str, List[Union[RunResult, RunError]]]] = {}


def get_robustness_results(
    seeds: Optional[Sequence[int]] = None,
    processes: Optional[int] = None,
    options: Optional[RunOptions] = None,
    telemetry=None,
) -> Dict[str, List[Union[RunResult, RunError]]]:
    """Robustness-sweep results grouped by regime name, in regime order.

    Individual run failures are collected (as :class:`RunError` entries in
    the regime's list), not raised.  ``telemetry`` attaches sweep
    telemetry (live progress + exports); like the paper sweeps it is
    not part of the memo key.
    """
    seeds = tuple(seeds if seeds is not None else bench_seeds())
    key = (seeds, options)
    if key not in _memo:
        results = run_sweep(
            robustness_scenarios(seeds),
            processes=processes if processes is not None else bench_processes(),
            options=options,
            errors="collect",
            telemetry=telemetry,
        )
        # expand_seeds keeps regime-major order: slice per regime.
        grouped: Dict[str, List[Union[RunResult, RunError]]] = {}
        for index, (name, _plan) in enumerate(ROBUSTNESS_REGIMES):
            grouped[name] = results[index * len(seeds): (index + 1) * len(seeds)]
        _memo[key] = grouped
    return _memo[key]


def _mean(ms: Optional[MeanStd]) -> Optional[float]:
    return ms.mean if ms is not None else None


def robustness_rows(
    groups: Dict[str, List[Union[RunResult, RunError]]]
) -> List[List[object]]:
    """One row per regime: K=3 lifetime, dip depth, recovery time, deaths.

    Columns: regime, runs ok ("n/m"), 3-coverage lifetime, max coverage
    dip, mean recovery seconds, mean injected deaths.
    """
    rows: List[List[object]] = []
    for name, _plan in ROBUSTNESS_REGIMES:
        runs = groups.get(name, [])
        ok = [r for r in runs if isinstance(r, RunResult)]
        rows.append(
            [
                name,
                f"{len(ok)}/{len(runs)}",
                _mean(
                    aggregate_values([r.coverage_lifetimes.get(3) for r in ok])
                ),
                _mean(
                    aggregate_values(
                        [r.extras.get("coverage_dip_max") for r in ok]
                    )
                ),
                _mean(
                    aggregate_values(
                        [r.extras.get("recovery_mean_s") for r in ok]
                    )
                ),
                _mean(
                    aggregate_values([float(r.failures_injected) for r in ok])
                ),
            ]
        )
    return rows
