"""Command-line interface: ``peas-repro <command>``.

Commands mirror the paper's evaluation artifacts::

    peas-repro run --nodes 320 --seed 1          # one scenario, full metrics
    peas-repro run --protocol duty_cycle          # any registered protocol
    peas-repro run --faults plan.json             # run under a fault plan
    peas-repro robustness                         # fault-regime sweep
    peas-repro fig9                               # coverage lifetime vs N
    peas-repro fig10 / fig11 / table1             # delivery / wakeups / energy
    peas-repro fig12 / fig13 / fig14              # failure-rate sweeps
    peas-repro baselines --nodes 320 --seeds 3    # PEAS vs baseline protocols
    peas-repro baselines --protocol gaf --protocol peas   # subset comparison
    peas-repro connectivity                       # Theorem 3.1 sweep
    peas-repro estimator                          # §2.2.1 accuracy study

Scale knobs: ``REPRO_BENCH_SCALE`` in {smoke, quick, full} (seeds per
point), ``REPRO_PROCESSES`` (process-pool width).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    connectivity_vs_range_factor,
    k_for_error,
    relative_error_quantile,
    simulate_estimator_errors,
)
from .experiments import (
    Scenario,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    fig12_rows,
    fig13_rows,
    fig14_rows,
    format_table,
    get_deployment_results,
    get_failure_results,
    group_by,
    run_scenario,
    table1_rows,
)
from .net import Field
from .protocols import protocol_names
from .sim import RngRegistry

__all__ = ["main"]


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    scenario = Scenario(
        num_nodes=args.nodes,
        seed=args.seed,
        protocol=args.protocol,
        failure_per_5000s=args.failure_rate,
        with_traffic=not args.no_traffic,
        measure_gaps=True,
    )
    if args.faults:
        from .faults import load_fault_plan

        scenario = scenario.with_(fault_plan=load_fault_plan(args.faults))
    return scenario


def _cmd_run(args: argparse.Namespace) -> None:
    from .harness import RunOptions, run, sidecar_path

    scenario = _scenario_from_args(args)
    options = RunOptions(
        trace_path=args.trace, profile=args.profile,
        sanitize=args.sanitize,
    )
    try:
        trace_path = options.resolved_trace_path(scenario)
    except ValueError as exc:
        raise SystemExit(f"error: --trace: {exc}")
    result = run(scenario, options)
    if trace_path is not None:
        stats = result.manifest.get("trace", {})
        print(f"trace: {trace_path} ({stats.get('emitted', 0)} events, "
              f"{stats.get('dropped', 0)} dropped)")
        print(f"manifest: {sidecar_path(trace_path, 'manifest')}")
        if result.profile is not None:
            print(f"profile: {sidecar_path(trace_path, 'profile')}")
    _print_run_summary(args, result)


def _print_run_summary(args: argparse.Namespace, result) -> None:
    print(f"nodes={result.num_nodes} seed={result.seed} end_time={result.end_time:.0f}s")
    for k in sorted(result.coverage_lifetimes):
        print(f"  {k}-coverage lifetime: {result.coverage_lifetimes[k]}")
    print(f"  data delivery lifetime: {result.delivery_lifetime}")
    print(f"  total wakeups: {result.total_wakeups}")
    print(
        f"  energy: total={result.energy_total_j:.1f}J "
        f"overhead={result.energy_overhead_j:.2f}J "
        f"({result.energy_overhead_ratio * 100:.3f}%)"
    )
    print(f"  failures injected: {result.failures_injected} "
          f"({result.failure_fraction * 100:.1f}%)")
    if "faults_fired" in result.extras:
        recovery = result.extras.get("recovery_mean_s")
        print(f"  faults fired: {result.extras['faults_fired']:.0f} "
              f"(max coverage dip {result.extras.get('coverage_dip_max', 0.0):.3f}, "
              f"mean recovery "
              f"{'-' if recovery is None else f'{recovery:.0f}s'}, "
              f"unrecovered {result.extras.get('faults_unrecovered', 0.0):.0f})")
    if args.sanitize:
        print(f"  sanitizer: {result.extras.get('sanitizer_checks', 0):.0f} "
              f"invariant checks, 0 violations")
    if "gap_count" in result.extras:
        print(f"  replacement gaps: n={result.extras['gap_count']:.0f} "
              f"mean={result.extras['gap_mean_s']:.1f}s "
              f"p95={result.extras['gap_p95_s']:.1f}s")
    manifest = result.manifest
    if manifest:
        print(f"  provenance: code={manifest.get('code_fingerprint')} "
              f"config={manifest.get('config_hash')} "
              f"wall={manifest.get('timing', {}).get('wall_time_s')}s")
    if result.profile:
        from .obs import EngineProfiler

        print()
        print(EngineProfiler.render(result.profile, limit=12))


def _cmd_inspect(args: argparse.Namespace) -> None:
    from .obs import render_summary, validate_trace_file
    from .obs.inspect import summarize_trace_file

    if args.diff:
        from .obs import diff_runs, load_run, render_diff

        record_a = load_run(args.diff[0])
        record_b = load_run(args.diff[1])
        print(render_diff(diff_runs(record_a, record_b)))
        return
    if args.trace is None and args.profile is None:
        raise SystemExit(
            "inspect: provide a trace file, --diff A B, or --profile PATH"
        )
    # `--profile` takes an optional PATH, so `inspect --profile t.ndjson`
    # binds the trace to --profile; re-interpret trace files as the
    # positional and fall back to sidecar discovery.
    if (args.trace is None and args.profile not in (None, "auto")
            and args.profile.endswith(".ndjson")):
        args.trace = args.profile
        args.profile = "auto"
    if args.trace is not None:
        if args.validate:
            errors = validate_trace_file(args.trace)
            if errors:
                print(f"{args.trace}: {len(errors)} schema violation(s)",
                      file=sys.stderr)
                for error in errors:
                    print(f"  {error}", file=sys.stderr)
                raise SystemExit(1)
            print(f"{args.trace}: schema OK")
        summary = summarize_trace_file(args.trace)
        print(render_summary(summary, max_nodes=args.max_nodes))
    if args.profile is not None:
        import json
        from pathlib import Path

        from .obs import EngineProfiler

        profile_path = args.profile
        if profile_path == "auto":
            if args.trace is None:
                raise SystemExit(
                    "inspect --profile without a path needs a trace argument "
                    "to discover <trace-stem>.profile.json next to"
                )
            from .harness import sidecar_path

            profile_path = str(sidecar_path(args.trace, "profile"))
        try:
            profile = json.loads(Path(profile_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise SystemExit(
                f"inspect: no profile at {profile_path} (run with --profile "
                "and --trace to record one)"
            )
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"inspect: {profile_path} is not an engine profile "
                f"(expected the <trace-stem>.profile.json sidecar): {exc}"
            )
        if args.trace is not None:
            print()
        print(EngineProfiler.render(profile, limit=15))


def _sweep_telemetry(args: argparse.Namespace, label: str):
    """``(telemetry, options)`` for a sweep command's shared flags.

    ``--telemetry DIR`` forces per-run metrics collection on so the
    sweep-level export actually carries simulation metrics, with exports
    landing in the flag's directory.  ``--store DIR`` attaches the
    content-addressed result store (``docs/STORE.md``): completed runs
    replay instantly on a re-run against the same store.  ``--resume``
    additionally requires the store to already exist — a typo'd path
    fails fast instead of silently recomputing into a fresh store.
    ``(None, None)`` when no flag is given.
    """
    target = getattr(args, "telemetry", None)
    store_dir = getattr(args, "store", None)
    if getattr(args, "resume", False):
        if store_dir is None:
            raise SystemExit("error: --resume requires --store DIR")
        from .store import ResultStore, StoreError

        try:
            ResultStore(store_dir, create=False)
        except StoreError as exc:
            raise SystemExit(f"error: --resume: {exc}")
    if target is None and store_dir is None:
        return None, None
    telemetry = None
    if target is not None:
        from .experiments import SweepTelemetry

        telemetry = SweepTelemetry(target, label=label)
    from .harness import RunOptions

    return telemetry, RunOptions(metrics=target is not None, store_dir=store_dir)


def _announce_exports(telemetry) -> None:
    if telemetry is not None:
        print(f"telemetry: {telemetry.out_dir}/metrics.ndjson "
              f"(+ manifest.json)")


def _cmd_deployment_artifact(name: str, args: argparse.Namespace) -> None:
    telemetry, options = _sweep_telemetry(args, label=name)
    groups = get_deployment_results(options=options, telemetry=telemetry)
    _announce_exports(telemetry)
    if name == "fig9":
        print(format_table(
            ["nodes", "3-cov lifetime (s)", "4-cov lifetime (s)", "5-cov lifetime (s)"],
            fig9_rows(groups), title="Figure 9: coverage lifetime vs deployment number"))
    elif name == "fig10":
        print(format_table(
            ["nodes", "delivery lifetime (s)"],
            fig10_rows(groups), title="Figure 10: data delivery lifetime vs deployment number"))
    elif name == "fig11":
        print(format_table(
            ["nodes", "total wakeups"],
            fig11_rows(groups), title="Figure 11: average total wakeups vs deployment number"))
    elif name == "table1":
        print(format_table(
            ["nodes", "energy overhead (J)", "overhead ratio (%)"],
            [[n, o, f"{r:.3f}" if r is not None else "-"] for n, o, r in table1_rows(groups)],
            title="Table 1: energy overhead for deployment numbers"))


def _cmd_failure_artifact(name: str, args: argparse.Namespace) -> None:
    telemetry, options = _sweep_telemetry(args, label=name)
    groups = get_failure_results(options=options, telemetry=telemetry)
    _announce_exports(telemetry)
    if name == "fig12":
        print(format_table(
            ["failure rate", "3-cov (s)", "4-cov (s)", "5-cov (s)", "failed frac"],
            [[f"{r[0]:.2f}", r[1], r[2], r[3], f"{r[4]:.2f}" if r[4] else "-"]
             for r in fig12_rows(groups)],
            title="Figure 12: coverage lifetime vs failure rate (N=480)"))
    elif name == "fig13":
        print(format_table(
            ["failure rate", "delivery lifetime (s)"],
            fig13_rows(groups), title="Figure 13: data delivery lifetime vs failure rate"))
    elif name == "fig14":
        print(format_table(
            ["failure rate", "total wakeups", "overhead ratio (%)"],
            [[f"{r[0]:.2f}", r[1], f"{r[2]:.3f}" if r[2] is not None else "-"]
             for r in fig14_rows(groups)],
            title="Figure 14: total wakeups vs failure rate (N=480)"))


def _cmd_baselines(args: argparse.Namespace) -> None:
    from .experiments import (
        aggregate_values,
        bench_processes,
        expand_protocols,
        expand_seeds,
        run_sweep,
    )

    protocols = args.protocol or protocol_names()
    base = Scenario(
        num_nodes=args.nodes, seed=args.seed, with_traffic=False, measure_gaps=True
    )
    seeds = [args.seed + i for i in range(args.seeds)]
    scenarios = expand_seeds(expand_protocols([base], protocols), seeds)
    telemetry, options = _sweep_telemetry(args, label="baselines")
    results = run_sweep(
        scenarios, processes=bench_processes(), options=options,
        telemetry=telemetry,
    )
    _announce_exports(telemetry)
    by_protocol = group_by(results, lambda r: r.manifest.get("protocol"))

    def _cell(stats, spec=".0f"):
        return format(stats, spec) if stats is not None else "-"

    rows = []
    for name in protocols:
        runs = by_protocol.get(name, [])
        rows.append([
            name,
            _cell(aggregate_values([r.coverage_lifetimes.get(4) for r in runs])),
            _cell(aggregate_values([r.end_time for r in runs])),
            _cell(aggregate_values([r.extras.get("gap_mean_s") for r in runs])),
            _cell(aggregate_values([r.extras.get("gap_p95_s") for r in runs])),
        ])
    print(format_table(
        ["protocol", "4-cov lifetime (s)", "end (s)", "mean gap (s)", "p95 gap (s)"],
        rows,
        title=f"PEAS vs baselines (N={args.nodes}, {len(seeds)} seed(s))"))


def _cmd_robustness(args: argparse.Namespace) -> None:
    from .experiments import get_robustness_results, robustness_rows

    telemetry, options = _sweep_telemetry(args, label="robustness")
    groups = get_robustness_results(options=options, telemetry=telemetry)
    _announce_exports(telemetry)
    rows = []
    for name, ok, lifetime, dip, recovery, deaths in robustness_rows(groups):
        rows.append([
            name,
            ok,
            f"{lifetime:.0f}" if lifetime is not None else "-",
            f"{dip:.3f}" if dip is not None else "-",
            f"{recovery:.0f}" if recovery is not None else "-",
            f"{deaths:.1f}" if deaths is not None else "-",
        ])
    print(format_table(
        ["regime", "runs ok", "3-cov lifetime (s)", "max dip",
         "mean recovery (s)", "deaths"],
        rows,
        title="Robustness: PEAS under the fault-model catalogue (N=320)"))


def _cmd_store(args: argparse.Namespace) -> int:
    """``peas-repro store {stats,verify,gc} DIR`` — attach, never create."""
    import json

    from .store import ResultStore, StoreError

    try:
        store = ResultStore(args.dir, create=False)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.store_cmd == "stats":
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
        return 0
    if args.store_cmd == "verify":
        report = store.verify()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if report["quarantined"] else 0
    report = store.gc(max_age_days=args.max_age_days, drop_all=args.all)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_connectivity(args: argparse.Namespace) -> None:
    # Derived, named stream (not bare random.Random(seed)): seeds stay
    # decorrelated from every simulation stream built on the same master.
    rng = RngRegistry(seed=args.seed).stream("analysis.connectivity")
    rows = connectivity_vs_range_factor(
        Field(args.side, args.side),
        num_nodes=args.nodes,
        probe_range=3.0,
        factors=[1.5, 2.0, 2.5, 3.0, 1.0 + 5 ** 0.5, 3.5, 4.0],
        trials=args.trials,
        rng=rng,
    )
    print(format_table(
        ["Rt/Rp factor", "P(connected)"],
        [[f"{f:.3f}", f"{p:.2f}"] for f, p in rows],
        title="Theorem 3.1: connectivity vs transmission-range factor"))


def _cmd_estimator(args: argparse.Namespace) -> None:
    rng = RngRegistry(seed=args.seed).stream("analysis.estimator")
    rows = []
    for k in (4, 8, 16, 32, 64, 128):
        errors = simulate_estimator_errors(k, rate=0.02, trials=2000, rng=rng)
        rms = (sum(e * e for e in errors) / len(errors)) ** 0.5
        within_1pct = sum(1 for e in errors if abs(e) <= 0.01) / len(errors)
        clt = relative_error_quantile(k, 0.99)
        rows.append([k, f"{rms * 100:.1f}", f"{within_1pct * 100:.1f}", f"{clt * 100:.1f}"])
    print(format_table(
        ["k", "RMS error (%)", "P(|err|<=1%) (%)", "CLT 99% bound (%)"],
        rows, title="k-interval estimator accuracy (paper claims 1% @ 99% for k>=16)"))
    print(f"\nk needed for 1% error at 99% confidence (CLT): {k_for_error(0.01, 0.99)}")


def _cmd_report(args: argparse.Namespace) -> None:
    from .experiments import render_report

    scenario = Scenario(
        num_nodes=args.nodes,
        seed=args.seed,
        failure_per_5000s=args.failure_rate,
        keep_series=True,
        measure_gaps=True,
    )
    print(render_report(run_scenario(scenario)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peas-repro",
        description="PEAS (ICDCS 2003) reproduction: run paper experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print metrics")
    run_p.add_argument("--nodes", type=int, default=160)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--protocol", choices=protocol_names(), default="peas",
                       help="registered protocol to run the scenario under")
    run_p.add_argument("--failure-rate", type=float, default=10.66,
                       help="failures per 5000 s")
    run_p.add_argument("--no-traffic", action="store_true")
    run_p.add_argument("--faults", metavar="PATH", default=None,
                       help="run under a declarative fault plan "
                            "(peas-faultplan/1 JSON; see docs/ROBUSTNESS.md)")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="stream structured trace events to an NDJSON file "
                            "(a .manifest.json is written next to it; "
                            "{seed}, {nodes} and {protocol} are substituted)")
    run_p.add_argument("--profile", action="store_true",
                       help="profile the engine and print a self-time breakdown")
    run_p.add_argument("--sanitize", action="store_true",
                       help="run with cheap invariant assertions (monotonic "
                            "event time, legal transmissions, battery and "
                            "estimator well-formedness); off by default")

    inspect_p = sub.add_parser(
        "inspect",
        help="summarize a trace, render a profile, or diff two recorded runs",
    )
    inspect_p.add_argument("trace", nargs="?", default=None,
                           help="path to a trace .ndjson file")
    inspect_p.add_argument("--validate", action="store_true",
                           help="check every line against the trace schema first")
    inspect_p.add_argument("--max-nodes", type=int, default=20,
                           help="cap on per-node timelines shown")
    inspect_p.add_argument("--profile", metavar="PATH", nargs="?", const="auto",
                           default=None,
                           help="render an engine profile (self-time table + "
                                "queue-gauge sparklines); with no PATH, "
                                "discovers <trace-stem>.profile.json next to "
                                "the trace argument")
    inspect_p.add_argument("--diff", metavar=("A", "B"), nargs=2, default=None,
                           help="compare two recorded runs (telemetry output "
                                "dirs or metrics.ndjson files): provenance "
                                "drift, lifetime/coverage/energy deltas, top "
                                "counter movers")

    def _add_telemetry_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--telemetry", metavar="DIR", nargs="?", const="peas-telemetry",
            default=None,
            help="live sweep progress/ETA plus peas-metrics/1 and "
                 "manifest exports written into DIR "
                 "(default ./peas-telemetry)",
        )

    def _add_store_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", metavar="DIR", default=None,
            help="content-addressed result store: every completed run is "
                 "durable in DIR the moment it finishes, and runs already "
                 "recorded there (same scenario, seed, code fingerprint) "
                 "replay instantly instead of recomputing (docs/STORE.md)",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="with --store: require the store to already exist, i.e. "
                 "resume an interrupted sweep rather than start a new one",
        )

    for name in ("fig9", "fig10", "fig11", "table1"):
        fig_p = sub.add_parser(name, help=f"reproduce {name} (deployment sweep)")
        _add_telemetry_flag(fig_p)
        _add_store_flags(fig_p)
    for name in ("fig12", "fig13", "fig14"):
        fig_p = sub.add_parser(name, help=f"reproduce {name} (failure sweep)")
        _add_telemetry_flag(fig_p)
        _add_store_flags(fig_p)
    robustness_p = sub.add_parser(
        "robustness",
        help="sweep the fault-model catalogue and report recovery metrics",
    )
    _add_telemetry_flag(robustness_p)
    _add_store_flags(robustness_p)

    base_p = sub.add_parser("baselines", help="PEAS vs baseline protocols")
    base_p.add_argument("--nodes", type=int, default=320)
    base_p.add_argument("--seed", type=int, default=0)
    base_p.add_argument("--protocol", action="append", choices=protocol_names(),
                        metavar="NAME", default=None,
                        help="restrict the comparison to this protocol "
                             "(repeatable; default: all registered)")
    base_p.add_argument("--seeds", type=int, default=1,
                        help="seeds per protocol, averaged like the paper's "
                             "5-run points (default 1)")
    _add_telemetry_flag(base_p)
    _add_store_flags(base_p)

    store_p = sub.add_parser(
        "store",
        help="inspect or maintain a result store (peas-store/1 directory)",
    )
    store_sub = store_p.add_subparsers(dest="store_cmd", required=True)
    stats_p = store_sub.add_parser(
        "stats", help="occupancy, journal tallies and staleness as JSON"
    )
    stats_p.add_argument("dir", help="store directory")
    verify_p = store_sub.add_parser(
        "verify",
        help="re-check every record's digest; corrupt records are "
             "quarantined (exit status 1 if any were)",
    )
    verify_p.add_argument("dir", help="store directory")
    gc_p = store_sub.add_parser(
        "gc",
        help="evict records from other code "
             "fingerprints (and optionally by age, or everything)",
    )
    gc_p.add_argument("dir", help="store directory")
    gc_p.add_argument("--max-age-days", type=float, metavar="DAYS",
                      default=None,
                      help="also evict records not touched for DAYS days")
    gc_p.add_argument("--all", action="store_true",
                      help="drop every record regardless of "
                           "fingerprint or age")

    conn_p = sub.add_parser("connectivity", help="Theorem 3.1 range sweep")
    conn_p.add_argument("--side", type=float, default=50.0)
    conn_p.add_argument("--nodes", type=int, default=600)
    conn_p.add_argument("--trials", type=int, default=20)
    conn_p.add_argument("--seed", type=int, default=0)

    est_p = sub.add_parser("estimator", help="§2.2.1 estimator accuracy study")
    est_p.add_argument("--seed", type=int, default=0)

    report_p = sub.add_parser(
        "report", help="run one scenario and print a timeline report"
    )
    report_p.add_argument("--nodes", type=int, default=320)
    report_p.add_argument("--seed", type=int, default=0)
    report_p.add_argument("--failure-rate", type=float, default=10.66)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        _cmd_run(args)
    elif args.command in ("fig9", "fig10", "fig11", "table1"):
        _cmd_deployment_artifact(args.command, args)
    elif args.command in ("fig12", "fig13", "fig14"):
        _cmd_failure_artifact(args.command, args)
    elif args.command == "robustness":
        _cmd_robustness(args)
    elif args.command == "baselines":
        _cmd_baselines(args)
    elif args.command == "connectivity":
        _cmd_connectivity(args)
    elif args.command == "estimator":
        _cmd_estimator(args)
    elif args.command == "report":
        _cmd_report(args)
    elif args.command == "inspect":
        _cmd_inspect(args)
    elif args.command == "store":
        return _cmd_store(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
