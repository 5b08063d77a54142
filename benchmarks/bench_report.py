#!/usr/bin/env python
"""Emit a ``BENCH_<date>.json`` perf report for the current tree.

Runs the kernel microbenchmarks (the exact workloads behind
``benchmarks/bench_kernel.py``), the Fig 9 deployment-sweep macro-benchmark
(PEAS, N=480), and a scaling curve (PEAS + the duty-cycle baseline at
1k/10k/50k nodes on the paper's 50x50 field — growing density, traffic and
failures off), and writes a JSON report so every PR leaves a perf
trajectory to compare against.  ``--skip-micro --scaling-nodes 1000``
(with ``--fail-on-regression``) is the CI smoke variant — scaling walls
gate at 2x, which survives a machine change, where the 15 % micro gate
would not; ``--skip-scaling`` drops the curve entirely.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py                 # quick
    REPRO_BENCH_SCALE=smoke PYTHONPATH=src python benchmarks/bench_report.py
    PYTHONPATH=src python benchmarks/bench_report.py \
        --against /path/to/old/checkout/src --against-label seed
    PYTHONPATH=src python benchmarks/bench_report.py \
        --baseline BENCH_2026-08-06.json --fail-on-regression

Scale (``REPRO_BENCH_SCALE`` or ``--scale``): ``smoke`` = 10 timing rounds
and 1 macro seed, ``quick`` = 20/2, ``full`` = 40/5 — the same seed policy
as the figure sweeps (``repro.experiments.paper.bench_seeds``).

``--against SRC`` measures another source tree on *this* tree's workload
definitions in a subprocess (honest A/B: byte-identical bench code on both
sides) and records per-workload speedups.  ``--baseline FILE`` compares
against a previously committed report instead; with ``--fail-on-regression``
the exit code is 1 when any microbenchmark got >15 % slower.
"""

from __future__ import annotations

import argparse
import datetime as _datetime
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.paper import bench_seeds  # noqa: E402
from repro.perf import (  # noqa: E402
    KERNEL_WORKLOADS,
    SCALING_NODE_COUNTS,
    SCHEMA,
    ab_measure,
    compare_micro,
    compare_scaling,
    host_fingerprint,
    micro_rounds,
    peak_rss_mb,
    run_macro,
    run_micro,
    run_scaling,
    write_report,
)

REGRESSION_THRESHOLD = 1.15  # >15 % slower than baseline = regression
#: Scaling points are single long runs (no best-of-N), so they carry more
#: machine noise than the micro rounds; only a halving of throughput is
#: treated as a gate failure.
SCALING_REGRESSION_THRESHOLD = 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "quick").lower(),
        choices=("smoke", "quick", "full"),
        help="rounds/seeds preset (default: REPRO_BENCH_SCALE or quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default: benchmarks/BENCH_<date>.json)",
    )
    parser.add_argument(
        "--skip-macro",
        action="store_true",
        help="microbenchmarks only (used by the CI smoke job)",
    )
    parser.add_argument(
        "--skip-micro",
        action="store_true",
        help="drop the kernel microbenchmarks: CI's scaling gate compares "
        "wall times across machines, where the 15%% micro threshold is all "
        "noise but the 2x scaling threshold still means something",
    )
    parser.add_argument(
        "--scaling-nodes",
        default=",".join(str(n) for n in SCALING_NODE_COUNTS),
        metavar="N,N,...",
        help="node counts for the scaling curve (default: %(default)s)",
    )
    parser.add_argument(
        "--skip-scaling",
        action="store_true",
        help="skip the scaling curve (it dominates full-report wall time)",
    )
    parser.add_argument(
        "--against",
        type=Path,
        default=None,
        metavar="SRC",
        help="also measure another source tree (its 'src' dir) for A/B speedups",
    )
    parser.add_argument(
        "--against-label", default="baseline-tree", help="label for --against"
    )
    parser.add_argument(
        "--ab-repeats",
        type=int,
        default=3,
        help="alternating subprocess repeats per tree for --against (min-merged)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="JSON",
        help="compare against a previously emitted BENCH_*.json",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 if a microbenchmark regressed >15%% vs --baseline",
    )
    args = parser.parse_args(argv)
    if args.against is not None and args.skip_micro:
        parser.error("--skip-micro cannot be combined with --against")

    # Keep the macro seed policy in lockstep with the paper sweeps.
    os.environ["REPRO_BENCH_SCALE"] = args.scale
    rounds = micro_rounds(args.scale)
    seeds = bench_seeds()
    today = _datetime.date.today().isoformat()
    output = args.output or REPO_ROOT / "benchmarks" / f"BENCH_{today}.json"

    print(f"[bench] scale={args.scale} rounds={rounds} macro_seeds={seeds}")
    micro = None
    if not args.skip_micro:
        print(f"[bench] micro: {len(KERNEL_WORKLOADS)} kernel workloads ...")
        micro = run_micro(KERNEL_WORKLOADS, rounds)
        for name, stats in micro.items():
            print(
                f"[bench]   {name:34s} best {stats['best_ms']:8.2f} ms   "
                f"median {stats['median_ms']:8.2f} ms"
            )

    macro = None
    if not args.skip_macro:
        print(f"[bench] macro: fig9 N=480, seeds {seeds} (serial) ...")
        macro = run_macro(num_nodes=480, seeds=seeds)
        print(f"[bench]   wall {macro['wall_s_total']:.2f} s total")

    scaling_nodes = sorted(
        int(n) for n in args.scaling_nodes.split(",") if n.strip()
    )
    scaling = None
    if not args.skip_scaling:
        print(f"[bench] scaling: nodes {scaling_nodes}, peas + duty_cycle ...")
        scaling = run_scaling(node_counts=scaling_nodes)
        for point in scaling["points"]:
            print(
                f"[bench]   {point['protocol']:12s} N={point['num_nodes']:<6d} "
                f"wall {point['wall_s']:8.2f} s"
            )

    report = {
        "schema": SCHEMA,
        "date": today,
        "scale": args.scale,
        "metadata": {
            "backend": "columnar",
            "effective_scale": args.scale,
            "scale_env": os.environ.get("REPRO_BENCH_SCALE"),
            "macro_num_nodes": None if args.skip_macro else 480,
            "scaling_nodes": None if args.skip_scaling else scaling_nodes,
        },
        "host": host_fingerprint(),
        "micro_stat": "best_ms",
        "micro": micro,
        "macro": macro,
        "scaling": scaling,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }

    if args.against is not None:
        print(
            f"[bench] against: alternating A/B subprocess runs, "
            f"this tree vs {args.against} ..."
        )
        ours, other = ab_measure(
            REPO_ROOT / "src",
            args.against,
            rounds,
            macro_seeds=seeds,
            skip_macro=args.skip_macro,
            repeats=args.ab_repeats,
        )
        speedups = compare_micro(ours["micro"], other["micro"])
        against = {
            "label": args.against_label,
            "src": str(args.against),
            "ab_repeats": args.ab_repeats,
            "current_micro": ours["micro"],
            "micro": other["micro"],
            "macro": other["macro"],
            "peak_rss_mb": round(other["peak_rss_mb"], 1),
            "micro_speedup": {k: round(v, 2) for k, v in speedups.items()},
        }
        for name, speedup in speedups.items():
            print(f"[bench]   {name:34s} {speedup:5.2f}x vs {args.against_label}")
        if ours.get("macro") is not None and other["macro"] is not None:
            ours_wall = ours["macro"]["wall_s_total"]
            macro_speedup = other["macro"]["wall_s_total"] / ours_wall
            against["current_macro"] = ours["macro"]
            against["macro_speedup"] = round(macro_speedup, 2)
            print(
                f"[bench]   fig9 macro {macro_speedup:5.2f}x "
                f"({other['macro']['wall_s_total']:.2f} s -> {ours_wall:.2f} s)"
            )
        report["against"] = against

    exit_code = 0
    if args.baseline is not None:
        import json

        baseline = json.loads(args.baseline.read_text())
        speedups = (
            compare_micro(micro, baseline.get("micro") or {})
            if micro is not None
            else {}
        )
        regressions = sorted(
            name for name, s in speedups.items() if s < 1.0 / REGRESSION_THRESHOLD
        )
        scaling_speedups = {}
        scaling_regressions = []
        if scaling is not None and baseline.get("scaling"):
            scaling_speedups = compare_scaling(scaling, baseline["scaling"])
            scaling_regressions = sorted(
                name
                for name, s in scaling_speedups.items()
                if s < 1.0 / SCALING_REGRESSION_THRESHOLD
            )
        report["baseline_comparison"] = {
            "path": str(args.baseline),
            "date": baseline.get("date"),
            "micro_speedup": {k: round(v, 2) for k, v in speedups.items()},
            "regressions": regressions,
            "scaling_speedup": {
                k: round(v, 2) for k, v in scaling_speedups.items()
            },
            "scaling_regressions": scaling_regressions,
        }
        for name, speedup in sorted(speedups.items()):
            flag = "  REGRESSION" if name in regressions else ""
            print(f"[bench]   {name:34s} {speedup:5.2f}x vs baseline{flag}")
        for name, speedup in sorted(scaling_speedups.items()):
            flag = "  REGRESSION" if name in scaling_regressions else ""
            print(f"[bench]   scaling {name:26s} {speedup:5.2f}x vs baseline{flag}")
        all_regressions = regressions + scaling_regressions
        if all_regressions and args.fail_on_regression:
            print(
                f"[bench] FAIL: {len(all_regressions)} regression(s): "
                f"{all_regressions}"
            )
            exit_code = 1

    write_report(output, report)
    print(f"[bench] wrote {output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
