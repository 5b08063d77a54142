"""Parameter sweeps over scenarios with repeated seeds.

The paper averages every data point over 5 simulation runs (§5.2).  A sweep
here is a list of scenarios (typically one base scenario crossed with a
parameter list, a protocol list and a seed range); results can be computed
serially or on a process pool (each run is independent and seeded
deterministically).  Because a :class:`~repro.experiments.scenario.Scenario`
names its protocol and a :class:`~repro.harness.RunOptions` is picklable,
pooled runs execute the identical harness code path as serial ones —
capabilities included.

Execution is delegated to :mod:`repro.experiments.executor`, which makes
the sweep crash-safe end to end: a failed run is re-queued at once under a
declarative :class:`RetryPolicy` (attempt budget, optional per-run
timeout), a run that exhausts its budget completes the sweep as a
quarantined :class:`RunError` instead of aborting it, worker death
re-spawns the pool and keeps draining, and — with ``options.store_dir``
set — every completed run is durable in a :class:`repro.store.ResultStore`
the moment it finishes, so an interrupted sweep re-run against the same
store resumes with zero recomputation (``docs/STORE.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..harness.options import RunOptions
from ..store import ResultStore, store_eligible
from .executor import RetryPolicy, RunError, SweepError, _guarded_run, execute
from .metrics import RunResult
from .scenario import Scenario

__all__ = [
    "RetryPolicy",
    "RunError",
    "SweepError",
    "expand_seeds",
    "expand_protocols",
    "run_sweep",
    "group_by",
]


def expand_seeds(scenarios: Iterable[Scenario], seeds: Sequence[int]) -> List[Scenario]:
    """Cross a scenario list with a seed list."""
    return [scenario.with_(seed=seed) for scenario in scenarios for seed in seeds]


def expand_protocols(
    scenarios: Iterable[Scenario], protocols: Sequence[str]
) -> List[Scenario]:
    """Cross a scenario list with a protocol list (registry names)."""
    return [
        scenario.with_(protocol=protocol)
        for scenario in scenarios
        for protocol in protocols
    ]


def run_sweep(
    scenarios: Sequence[Scenario],
    processes: Optional[int] = None,
    options: Optional[RunOptions] = None,
    errors: str = "raise",
    telemetry=None,
    retry: Optional[RetryPolicy] = None,
    _run_fn=None,
) -> List[Union[RunResult, RunError]]:
    """Run every scenario; ``processes`` > 1 uses a process pool.

    Results are returned in the order of the input scenarios either way, so
    downstream grouping is deterministic.  ``options`` applies the same
    capability stack (profile / sanitize / trace-to-path / metrics /
    result store) to every run, pooled or serial.  Pooled sweeps dispatch
    one run at a time, so the executor can time each out and survive
    worker death.

    ``options.store_dir`` attaches a :class:`repro.store.ResultStore`:
    runs already recorded there (same scenario, seed, code fingerprint,
    options) replay instantly in the parent, every newly computed run is
    persisted the moment its worker finishes, and re-running an
    interrupted sweep against the same store resumes with zero
    recomputation of completed ``(scenario, seed)`` pairs.

    ``telemetry`` (a :class:`~repro.experiments.telemetry.SweepTelemetry`)
    attaches sweep telemetry: the executor reports every run's outcome,
    retry, pool restart and store replay from the parent to a live
    progress line, and once the sweep finishes — including the
    ``errors="raise"`` path, so a partly-failed sweep still leaves its
    exports behind — the merged ``peas-metrics/1`` export and manifest
    are written to the telemetry's output directory.

    ``retry`` (a :class:`RetryPolicy`, default two attempts) governs
    failures: each failing run is re-queued at once with the identical
    scenario (runs are seed-deterministic, so a logic bug fails every
    attempt while a transient worker problem recovers), and a run that
    exhausts its attempts is quarantined as a structured
    :class:`RunError` carrying the attempt trail.  ``errors`` picks what
    happens to quarantined runs: ``"raise"`` (default) raises a
    :class:`SweepError` summarizing every failure once the sweep finishes,
    ``"collect"`` returns :class:`RunError` records in the failed runs'
    positions (callers filter with ``isinstance``).
    """
    if errors not in ("raise", "collect"):
        raise ValueError(f"errors must be 'raise' or 'collect', got {errors!r}")
    options = options if options is not None else RunOptions()
    policy = retry if retry is not None else RetryPolicy()
    store = None
    if options.store_dir is not None and store_eligible(options):
        store = ResultStore(options.store_dir)
    pooled = processes is not None and processes > 1
    if telemetry is not None:
        telemetry.start(len(scenarios))
    results = execute(
        scenarios,
        processes=processes if pooled else None,
        options=options,
        policy=policy,
        telemetry=telemetry,
        store=store,
        run_fn=_run_fn if _run_fn is not None else _guarded_run,
    )
    if store is not None and telemetry is not None:
        telemetry.note_store(
            misses=len(scenarios) - telemetry.store_hits,
            evictions=store.quarantined,
        )
    failures = [r for r in results if isinstance(r, RunError)]
    if telemetry is not None:
        telemetry.finish(scenarios, results)
    if failures and errors == "raise":
        raise SweepError(failures)
    return results


def group_by(
    results: Iterable[RunResult], key: Callable[[RunResult], object]
) -> Dict[object, List[RunResult]]:
    """Group run results (e.g. by population or failure rate) preserving
    first-seen key order."""
    groups: Dict[object, List[RunResult]] = {}
    for result in results:
        groups.setdefault(key(result), []).append(result)
    return groups
