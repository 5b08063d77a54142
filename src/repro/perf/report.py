"""Measurement and report plumbing behind ``benchmarks/bench_report.py``.

Three layers:

* :func:`time_workload` — warmup + repeated timing of one kernel workload,
  reporting best/median/mean (best-of-N is the headline number: it is the
  least noise-sensitive statistic on a shared machine, and the kernel
  workloads are deterministic so their true cost is a constant);
* :func:`run_micro` / :func:`run_scaling` — execute the kernel workload
  set and the density scaling curve in this process;
* :func:`measure_tree` — run the *same* workloads against another source
  tree (e.g. the previous release) in a subprocess, for honest A/B
  speedup numbers in the emitted report.

Reports are plain JSON (``BENCH_<date>.json``) so future PRs can diff a
perf trajectory with :func:`compare_micro`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

__all__ = [
    "SCHEMA",
    "SCALING_NODE_COUNTS",
    "micro_rounds",
    "peak_rss_mb",
    "time_workload",
    "run_micro",
    "run_scaling",
    "measure_tree",
    "ab_measure",
    "compare_micro",
    "compare_scaling",
    "write_report",
]

SCHEMA = "repro-bench/1"

#: default node counts for the scaling curve (density grows on the paper's
#: fixed 50x50 field, the same axis as the Fig 11 density-adaptivity claim)
SCALING_NODE_COUNTS = (1_000, 10_000, 50_000)

#: timing rounds per kernel workload, by REPRO_BENCH_SCALE
_SCALE_ROUNDS = {"smoke": 10, "quick": 20, "full": 40}


def micro_rounds(scale: str) -> int:
    try:
        return _SCALE_ROUNDS[scale]
    except KeyError:
        raise ValueError(
            f"scale must be one of {sorted(_SCALE_ROUNDS)}, got {scale!r}"
        ) from None


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def time_workload(
    fn: Callable[[], object], rounds: int, warmup: int = 2
) -> Dict[str, float]:
    """Time ``fn`` ``rounds`` times after ``warmup`` discarded runs."""
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    best = min(samples)
    return {
        "best_ms": best * 1000.0,
        "median_ms": statistics.median(samples) * 1000.0,
        "mean_ms": statistics.fmean(samples) * 1000.0,
        "rounds": rounds,
        "ops_per_sec": (1.0 / best) if best > 0 else math.inf,
    }


def run_micro(
    workloads: Dict[str, Callable[[], object]], rounds: int
) -> Dict[str, Dict[str, float]]:
    return {name: time_workload(fn, rounds) for name, fn in workloads.items()}


def run_scaling(
    node_counts: Sequence[int] = SCALING_NODE_COUNTS,
    protocols: Sequence[str] = ("peas", "duty_cycle"),
    seed: int = 0,
    max_time_s: float = 2000.0,
) -> Dict[str, object]:
    """The scaling curve: PEAS plus one baseline at growing density.

    Every point keeps the paper's 50 x 50 m field and deploys
    ``node_counts`` nodes on it (growing *density*, the axis the paper's
    §5.2 robustness claim and Fig 11 live on), with traffic and failure
    injection off and a bounded horizon, so the wall-clock isolates the
    protocol control plane plus the simulation substrate.  Points run
    serially, cheapest first, and each one records its own wall so a
    partial curve is still meaningful if a large point is interrupted.
    """
    from repro.baselines import run_baseline
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario

    points: List[Dict[str, object]] = []
    for num_nodes in sorted(node_counts):
        for protocol in protocols:
            scenario = Scenario(
                num_nodes=num_nodes,
                seed=seed,
                failure_per_5000s=0.0,
                with_traffic=False,
                max_time_s=max_time_s,
            )
            start = time.perf_counter()
            if protocol == "peas":
                result = run_scenario(scenario)
            else:
                result = run_baseline(scenario, protocol=protocol)
            wall = time.perf_counter() - start
            points.append(
                {
                    "protocol": protocol,
                    "num_nodes": num_nodes,
                    "wall_s": wall,
                    "end_time_s": result.end_time,
                    "total_wakeups": getattr(result, "total_wakeups", None),
                }
            )
    return {
        "seed": seed,
        "max_time_s": max_time_s,
        "node_counts": sorted(node_counts),
        "protocols": list(protocols),
        "points": points,
    }


def compare_scaling(
    current: Dict[str, object], baseline: Dict[str, object]
) -> Dict[str, float]:
    """Per-point wall-clock speedup of ``current`` over ``baseline``.

    Points are matched on ``(protocol, num_nodes)``; keys come back as
    ``"<protocol>@<num_nodes>"``.  Values > 1 mean the current tree is
    faster.
    """
    base_walls = {
        (point["protocol"], point["num_nodes"]): point["wall_s"]
        for point in baseline.get("points", [])
    }
    speedups: Dict[str, float] = {}
    for point in current.get("points", []):
        key = (point["protocol"], point["num_nodes"])
        wall = point["wall_s"]
        if key in base_walls and wall:
            speedups[f"{key[0]}@{key[1]}"] = base_walls[key] / wall
    return speedups


def measure_tree(src: Path, rounds: int) -> Dict[str, object]:
    """Measure another source tree on this tree's workload definitions.

    Spawns a subprocess whose ``PYTHONPATH`` is ``src`` alone, loads the
    *current* ``repro/perf/workloads.py`` by file path (its lazy imports
    then resolve against ``src``), and returns the measured micro
    numbers.  This is how a report carries honest speedups vs. a previous
    checkout: both trees execute byte-identical workload code.
    """
    src = Path(src).resolve()
    if not (src / "repro").is_dir():
        raise FileNotFoundError(f"{src} does not contain a 'repro' package")
    runner = Path(__file__).resolve().parent / "_subrunner.py"
    workloads = Path(__file__).resolve().parent / "workloads.py"
    cmd = [
        sys.executable,
        str(runner),
        "--workloads",
        str(workloads),
        "--rounds",
        str(rounds),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measuring tree {src} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def _merge_min(runs: List[Dict[str, object]]) -> Dict[str, object]:
    """Merge repeated measurements of one tree, keeping per-workload bests.

    ``best_ms``/``median_ms``/``mean_ms`` take the minimum across runs (the
    run least disturbed by machine noise); peak RSS takes the max.
    """
    merged = dict(runs[0])
    merged["micro"] = {}
    for name in runs[0]["micro"]:
        stats = dict(runs[0]["micro"][name])
        for key in ("best_ms", "median_ms", "mean_ms"):
            stats[key] = min(run["micro"][name][key] for run in runs)
        stats["ops_per_sec"] = (
            1000.0 / stats["best_ms"] if stats["best_ms"] > 0 else math.inf
        )
        merged["micro"][name] = stats
    merged["peak_rss_mb"] = max(run["peak_rss_mb"] for run in runs)
    merged["ab_repeats"] = len(runs)
    return merged


def ab_measure(
    current_src: Path,
    other_src: Path,
    rounds: int,
    repeats: int = 3,
) -> tuple:
    """Measure both trees with alternating subprocesses, min-merged.

    A single pair of subprocess runs is hostage to whatever else the
    machine was doing during each run; alternating A/B/A/B… and taking
    per-workload minima across repeats gives both trees an equal shot at
    quiet windows.  Both sides run the identical ``_subrunner`` path, so
    there is no in-process-vs-subprocess asymmetry either.
    """
    current_runs: List[Dict[str, object]] = []
    other_runs: List[Dict[str, object]] = []
    for _ in range(repeats):
        current_runs.append(measure_tree(current_src, rounds))
        other_runs.append(measure_tree(other_src, rounds))
    return _merge_min(current_runs), _merge_min(other_runs)


def compare_micro(
    current: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
    stat: str = "best_ms",
) -> Dict[str, float]:
    """Per-workload speedup of ``current`` over ``baseline`` (>1 = faster)."""
    speedups: Dict[str, float] = {}
    for name, stats in current.items():
        base = baseline.get(name)
        if base is None or stat not in base or not stats.get(stat):
            continue
        speedups[name] = base[stat] / stats[stat]
    return speedups


def write_report(path: Path, report: Dict[str, object]) -> None:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")


def host_fingerprint() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": str(os.cpu_count() or 0),
    }
