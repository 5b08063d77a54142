"""Subprocess entry point for ``repro.perf.report.measure_tree``.

Executed as a *script* (never imported as part of the package): the parent
sets ``PYTHONPATH`` to the source tree under measurement, and this file
loads the parent tree's ``workloads.py`` by path, so the lazy ``repro``
imports inside each workload resolve against the measured tree.  Must not
import ``repro`` at module level for that reason.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path


def _load_workloads(path: Path):
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True, type=Path)
    parser.add_argument("--rounds", required=True, type=int)
    parser.add_argument(
        "--other-tree",
        action="store_true",
        help="the tree is the --against side: skip kernels it cannot "
        "import or construct",
    )
    args = parser.parse_args()

    workloads = _load_workloads(args.workloads)

    # Minimal local reimplementation of the timing/report helpers: this
    # script cannot import repro.perf (``repro`` resolves to the tree under
    # measurement, which may predate the perf module).
    import math
    import resource
    import statistics

    micro = {}
    for name, fn in workloads.KERNEL_WORKLOADS.items():
        try:
            for _ in range(2):
                fn()
        except (ImportError, TypeError):
            # The other tree predates this kernel's subsystem (e.g.
            # snapshot_roundtrip against a pre-snapshot checkout) or has
            # another signature (e.g. a SpatialGrid that needs a field and
            # a cell size): skip it so the remaining kernels still produce a
            # comparison.  The tree under test must fail on a broken kernel.
            if not args.other_tree:
                raise
            continue
        samples = []
        for _ in range(args.rounds):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        best = min(samples)
        micro[name] = {
            "best_ms": best * 1000.0,
            "median_ms": statistics.median(samples) * 1000.0,
            "mean_ms": statistics.fmean(samples) * 1000.0,
            "rounds": args.rounds,
            "ops_per_sec": (1.0 / best) if best > 0 else math.inf,
        }

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
    json.dump({"micro": micro, "peak_rss_mb": peak_mb}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
