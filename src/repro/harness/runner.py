"""The single composition layer every protocol runs under.

:func:`run` assembles the full §5 substrate — deployment, coverage tracker,
replacement-gap monitor, GRAB traffic, failure injector — and the complete
capability stack (tracer, profiler, sanitizer, manifest) exactly once,
around whichever protocol ``scenario.protocol`` names in the registry
(:mod:`repro.protocols`).  ``repro.experiments.runner.run_scenario`` and
``repro.baselines.runner.run_baseline`` are thin wrappers over this
function, so PEAS-vs-baseline comparisons are controlled by construction:
divergent harnesses, not divergent protocols, are how power-aware protocol
comparisons usually die.

The composition lives in :class:`LiveRun`, whose lifecycle is split into
phases: construction wires every subsystem, ``start()`` boots the run,
``run_loop()`` drives it and ``collect()`` assembles the result.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Union

from ..baselines.gaps import CellGapMonitor
from ..coverage import CoverageGrid, CoverageTracker
from ..experiments.metrics import (
    RunResult,
    recovery_after_faults,
    recovery_extras,
)
from ..experiments.scenario import Scenario
from ..faults import FaultEngine
from ..obs import build_manifest, save_manifest
from ..obs.atomic import atomic_write_text
from ..obs.manifest import peak_rss_mb, wall_clock_s
from ..obs.metrics import RunMetrics
from ..obs.tracer import Tracer
from ..protocols import BaselineRun, ProtocolRun, get_protocol
from ..routing import GrabRouter, ReportTraffic
from ..sim import EngineProfiler, RngRegistry, SimSanitizer, Simulator
from .options import RunOptions

__all__ = ["LiveRun", "run", "sidecar_path"]


def sidecar_path(trace_path: Union[str, Path], kind: str) -> Path:
    """Where a traced run's ``kind`` sidecar (``manifest``, ``profile``)
    lives: ``<trace-stem>.<kind>.json`` next to the trace."""
    trace_path = Path(trace_path)
    return trace_path.parent / f"{trace_path.stem}.{kind}.json"


def run(
    scenario: Scenario,
    options: Optional[RunOptions] = None,
    *,
    tracer: Optional[Tracer] = None,
    protocol_factory: Optional[Callable] = None,
) -> RunResult:
    """Run one scenario under its protocol to completion; collect §5 metrics.

    Parameters
    ----------
    scenario:
        What to simulate, including which registered protocol runs it
        (``scenario.protocol``, default ``"peas"``).
    options:
        The capability stack (profile / sanitize / trace-to-path /
        metrics); see :class:`~repro.harness.options.RunOptions`.
    tracer:
        Optional live :class:`repro.obs.Tracer`; when given every
        subsystem emits structured trace events through it.  The caller
        owns the sink.  Mutually exclusive with ``options.trace_path``,
        which makes the harness own a file sink.
    protocol_factory:
        Escape hatch for custom-parameterized baselines: a
        ``factory(network, rngs)`` run on a
        :class:`~repro.baselines.base.BaselineNetwork` instead of the
        registry entry for ``scenario.protocol``.
    """
    options = options if options is not None else RunOptions()
    owned_tracer: Optional[Tracer] = None
    trace_file = None
    if tracer is None:
        trace_target = options.resolved_trace_path(scenario)
        if trace_target is not None:
            from ..obs import NdjsonSink

            trace_file = trace_target
            owned_tracer = Tracer(NdjsonSink(trace_target))
            tracer = owned_tracer
    try:
        live = LiveRun(
            scenario, options, tracer=tracer, protocol_factory=protocol_factory
        )
        live.start()
        live.run_loop()
        result = live.collect()
    finally:
        if owned_tracer is not None:
            owned_tracer.close()
    if trace_file is not None:
        save_manifest(result.manifest, sidecar_path(trace_file, "manifest"))
        if result.profile is not None:
            # Profile sidecar next to the trace, so ``peas-repro inspect
            # --profile`` can surface the engine breakdown and gauge series
            # long after the run.
            atomic_write_text(
                sidecar_path(trace_file, "profile"),
                json.dumps(result.profile, indent=2) + "\n",
            )
    return result


def _build_protocol(
    scenario: Scenario,
    sim: Simulator,
    rngs: RngRegistry,
    tracer: Optional[Tracer],
    protocol_factory: Optional[Callable],
) -> ProtocolRun:
    if protocol_factory is not None:
        return BaselineRun(
            scenario, sim, rngs, factory=protocol_factory, tracer=tracer
        )
    return get_protocol(scenario.protocol).build(scenario, sim, rngs, tracer)


class LiveRun:
    """One fully composed run of a scenario, phase by phase.

    Construction wires the complete substrate (engine, RNG registry,
    protocol network, coverage tracker, gap monitor, GRAB traffic, fault
    engine — ``faults.prepare()`` included) but schedules **nothing**;
    ``start()`` then boots the run, ``run_loop()`` drives it and
    ``collect()`` assembles the result.
    """

    def __init__(
        self,
        scenario: Scenario,
        options: Optional[RunOptions] = None,
        *,
        tracer: Optional[Tracer] = None,
        protocol_factory: Optional[Callable] = None,
    ) -> None:
        self.scenario = scenario
        self.options = options if options is not None else RunOptions()
        self.tracer = tracer
        self._custom_protocol = protocol_factory is not None
        self.wall_start = wall_clock_s()
        options = self.options

        self.sim = Simulator()
        self.rngs = RngRegistry(seed=scenario.seed)
        self.sanitizer: Optional[SimSanitizer] = None
        if options.sanitize:
            self.sanitizer = SimSanitizer()
            self.sanitizer.install(self.sim)
        self.protocol = _build_protocol(
            scenario, self.sim, self.rngs, tracer, protocol_factory
        )
        self.network = self.protocol.network
        if self.sanitizer is not None:
            self.sanitizer.attach_network(self.network)
        field = self.network.field
        self.profiler: Optional[EngineProfiler] = None
        if options.profile:
            self.profiler = EngineProfiler()
            self.sim.profiler = self.profiler
        self.run_metrics: Optional[RunMetrics] = None
        if options.metrics:
            self.run_metrics = RunMetrics(
                protocol=scenario.protocol if not self._custom_protocol else "custom",
            )

        # --- coverage metric ---------------------------------------------
        grid = CoverageGrid(
            field,
            sensing_range=scenario.sensing_range_m,
            resolution=scenario.coverage_resolution_m,
            max_k=max(scenario.coverage_ks) + 1,
        )
        self.tracker = CoverageTracker(
            self.sim,
            grid,
            ks=scenario.coverage_ks,
            sample_interval_s=scenario.sample_interval_s,
            threshold=scenario.lifetime_threshold,
        )
        self.network.working_observers.append(self.tracker.on_working_change)

        # --- replacement gaps (Fig 4/5 metric) ----------------------------
        self.gap_monitor: Optional[CellGapMonitor] = None
        if scenario.measure_gaps:
            self.gap_monitor = CellGapMonitor(
                self.sim, field, cell_size_m=scenario.config.probe_range_m
            )
            self.network.working_observers.append(self.gap_monitor.on_working_change)

        # --- data delivery metric ----------------------------------------
        self.traffic: Optional[ReportTraffic] = None
        self.topology = None
        if scenario.with_traffic:
            topology = self.protocol.topology(scenario)
            self.topology = topology

            def topology_observer(time, node, started, _topology=topology):
                if started:
                    _topology.add_working(node.node_id, node.position)
                else:
                    _topology.remove_working(node.node_id)

            self.network.working_observers.append(topology_observer)
            router = GrabRouter(
                topology,
                source=scenario.source,
                sink=scenario.sink,
                attach_radius=scenario.comm_range_m,
                link_loss=scenario.grab_link_loss,
                mesh_width=scenario.grab_mesh_width,
                rng=self.rngs.stream("grab"),
            )
            self.traffic = ReportTraffic(
                self.sim,
                router,
                interval_s=scenario.report_interval_s,
                threshold=scenario.lifetime_threshold,
                path_hook=self.protocol.report_path_hook(scenario),
            )

        # --- fault injection ---------------------------------------------
        # The §5.3 crash process plus the scenario's declarative fault plan
        # (region kills, outages, bursty loss, clock drift), all on named
        # RNG streams.  ``prepare`` must precede ``protocol.start()``:
        # clock skews have to be in place before nodes draw their first
        # sleep intervals.
        self.faults = FaultEngine(
            self.sim,
            self.network,
            scenario.fault_plan,
            self.rngs,
            ambient_crash_per_5000s=scenario.failure_per_5000s,
            field_size=scenario.field_size,
            capabilities=self.protocol.fault_capabilities(),
            tracer=tracer,
        )
        self.faults.prepare()
        self._started = False

    # --------------------------------------------------------------- boot
    def start(self) -> None:
        """Boot the run: initial node sleeps, periodic samplers, faults."""
        if self._started:
            raise RuntimeError("run already started")
        self._started = True
        self.protocol.start()
        self.tracker.start()
        if self.traffic is not None:
            self.traffic.start()
        self.faults.start()

    # ------------------------------------------------------------ the loop
    def run_loop(self) -> None:
        """Drive the chunked event loop to its stop condition.

        Chunk boundaries are an accumulated float sum from zero
        (``sim.now + chunk``), **not** multiples of the chunk, which differ
        once the sum stops being exactly representable.  The boundaries
        reach the results and the trace: the run stops at the first one
        after the network dies, and the clock ends on it.
        """
        scenario, sim = self.scenario, self.sim
        network = self.network
        chunk = scenario.run_chunk_s
        while not network.all_dead and sim.now < scenario.max_time_s:
            sim.run(until=sim.now + chunk)
            # Metrics gauges are sampled *between* chunks: zero code runs
            # inside the event loop, so the RNG draw sequence is untouched.
            if self.run_metrics is not None:
                self.run_metrics.sample_engine(sim)

    # ------------------------------------------------------------- collect
    def collect(self) -> RunResult:
        """Stop the samplers and assemble the §5 metrics + provenance."""
        scenario, sim = self.scenario, self.sim
        network, tracker, traffic = self.network, self.tracker, self.traffic
        faults = self.faults
        tracker.stop()
        if traffic is not None:
            traffic.stop()

        energy = network.energy_report()
        result = RunResult(
            num_nodes=scenario.num_nodes,
            seed=scenario.seed,
            failure_rate_per_5000s=scenario.failure_per_5000s,
            end_time=sim.now,
            coverage_lifetimes=tracker.lifetimes(),
            delivery_lifetime=traffic.delivery_lifetime() if traffic else None,
            total_wakeups=self.protocol.total_wakeups(),
            energy_total_j=energy.total_consumed_j,
            energy_overhead_j=self.protocol.energy_overhead_j(energy),
            energy_by_category=dict(energy.by_category),
            failures_injected=faults.failures_injected,
            counters=network.counters.as_dict(),
            channel_counters=self.protocol.channel_counters(),
        )
        if scenario.keep_series:
            for name in tracker.series.names():
                result.series[name] = tracker.series.samples(name)
            if traffic is not None:
                for name in traffic.series.names():
                    result.series[name] = traffic.series.samples(name)
        fire_times = faults.fire_times
        if fire_times:
            # Resilience metrics (extras stay empty for the empty plan,
            # keeping no-fault runs byte-identical): how the lowest-K
            # coverage fraction weathered each plan-fault strike.
            k = min(scenario.coverage_ks)
            recoveries = recovery_after_faults(
                tracker.series.samples(f"coverage_{k}"),
                fire_times,
                scenario.lifetime_threshold,
            )
            result.extras["faults_fired"] = float(len(fire_times))
            result.extras.update(recovery_extras(recoveries))
        if self.gap_monitor is not None:
            gap_monitor = self.gap_monitor
            result.extras["gap_count"] = float(gap_monitor.gap_count())
            result.extras["gap_mean_s"] = gap_monitor.mean_gap()
            result.extras["gap_max_s"] = gap_monitor.max_gap()
            result.extras["gap_p95_s"] = gap_monitor.percentile_gap(0.95)
        if self.sanitizer is not None:
            # Final sweep so end-of-run state is checked even when the last
            # sweep period did not elapse, then report what ran.
            self.sanitizer.sweep(sim.now)
            result.extras["sanitizer_checks"] = float(self.sanitizer.total_checks)
        if self.profiler is not None:
            sim.profiler = None
            result.profile = self.profiler.as_dict()
        if self.run_metrics is not None:
            run_metrics = self.run_metrics
            run_metrics.record_channel(result.channel_counters)
            run_metrics.record_faults(**faults.fault_counts())
            run_metrics.finish(
                sim,
                result,
                wall_s=wall_clock_s() - self.wall_start,
                rss_mb=peak_rss_mb(),
            )
            result.metrics = run_metrics.registry.snapshot()

        # --- provenance ---------------------------------------------------
        trace_info = None
        if self.tracer is not None:
            trace_info = self.tracer.stats()
            path = getattr(self.tracer.sink, "path", None)
            if path is not None:
                trace_info["path"] = str(path)
        result.manifest = build_manifest(
            seed=scenario.seed,
            config=scenario,
            protocol=scenario.protocol if not self._custom_protocol else "custom",
            rng_streams=tuple(self.rngs.names()),
            wall_time_s=wall_clock_s() - self.wall_start,
            events_executed=sim.events_executed,
            sim_end_time_s=sim.now,
            trace=trace_info,
            mac=self.protocol.mac_layout(scenario),
        )
        return result
