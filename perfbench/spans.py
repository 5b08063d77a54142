"""Per-layer spans, recorded from outside the simulator's own code.

:class:`SpanRecorder` replaces public entry points of the ``src/repro``
layers with timing wrappers at class level and puts the originals back in
:meth:`SpanRecorder.restore`.  A span's self time is its duration minus the
spans nested inside it.  Event-handler time per label comes from the
engine's own profiler (``RunOptions(profile=True)``); spans that open
directly inside a handler are charged to that handler's label, so a layer
that owns handlers reports handler time minus the other layers it called.

Install the recorder *before* the run is constructed: components bind
methods such as ``node._wake`` at construction time, and the binding then
resolves to the wrapper.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class, method, span): the layer entry points that get spans
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.net.channel", "BroadcastChannel", "transmit", "net.transmit"),
    ("repro.net.neighbors", "NeighborCache", "columnar_entry", "net.neighbors"),
    ("repro.net.neighbors", "NeighborCache", "neighbors_with_distance", "net.neighbors"),
    ("repro.net.neighbors", "NeighborCache", "neighbors", "net.neighbors"),
    ("repro.net.neighbors", "NeighborCache", "neighbors_at", "net.neighbors"),
    ("repro.core.node", "PEASNode", "on_packet", "core.on_packet"),
    ("repro.coverage.grid", "CoverageGrid", "add_node", "coverage.update"),
    ("repro.coverage.grid", "CoverageGrid", "remove_node", "coverage.update"),
    ("repro.energy.battery", "NodeBattery", "charge_frame", "energy"),
    ("repro.energy.battery", "NodeBattery", "charge", "energy"),
    ("repro.energy.battery", "NodeBattery", "set_mode", "energy"),
    ("repro.energy.battery", "NodeBattery", "time_to_depletion", "energy"),
    ("repro.routing.grab", "GrabRouter", "deliver", "routing.deliver"),
    ("repro.routing.costfield", "WorkingTopology", "add_working", "routing.topology"),
    ("repro.routing.costfield", "WorkingTopology", "remove_working", "routing.topology"),
    ("repro.baselines.base", "BaselineNode", "set_working", "baselines.set_working"),
    ("repro.baselines.base", "BaselineNode", "charge", "baselines.charge"),
    ("repro.obs.tracer", "Tracer", "emit", "obs.emit"),
)

#: hooks that are not spans: the engine loop (root timer), the profiler's
#: per-handler record (handler boundary) and the channel's reception
#: completion (reception counter)
HOOK_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run"),
    ("repro.sim.profiling", "EngineProfiler", "record"),
    ("repro.net.channel", "BroadcastChannel", "_complete"),
)

#: PEAS node handlers (event labels) owned by the ``core`` layer
CORE_LABELS = frozenset({"wake", "probe-window", "probe-tx", "reply-tx"})
COVERAGE_SAMPLE_LABEL = "coverage-sample"

#: neighbor lookups whose result length is one broadcast's audience
_AUDIENCE_SIZE: Dict[str, Callable[[Any], int]] = {
    "columnar_entry": lambda entry: len(entry[0]),
    "neighbors_with_distance": len,
    "neighbors": len,
    "neighbors_at": len,
}

#: audience histogram: bucket ``lt<2^i>`` holds sizes in [2^(i-1), 2^i)
AUDIENCE_BUCKETS = ("lt1",) + tuple(f"lt{1 << i}" for i in range(1, 11)) + ("ge1024",)
#: ``BroadcastChannel.transmit`` switches to its vectorized audience tier
#: above this many candidates (``repro.net.neighbors._SCALAR_AUDIENCE_MAX``)
AUDIENCE_TIER = 256


def _class(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def _own_attribute(owner: type, attr: str) -> Any:
    """The attribute as defined on ``owner`` itself (what restore puts back)."""
    try:
        return owner.__dict__[attr]
    except KeyError:
        raise AttributeError(
            f"{owner.__qualname__}.{attr} is not defined on the class itself"
        ) from None


class SpanRecorder:
    """Wraps layer entry points in spans for one run, then restores them."""

    def __init__(self) -> None:
        #: span name -> inclusive seconds / self seconds / calls
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: event label -> seconds of top-level spans run inside its handlers
        self.in_handler_s: Dict[str, float] = defaultdict(float)
        #: seconds inside ``Simulator.run``
        self.loop_s = 0.0
        self.receptions = 0
        self.reports_delivered = 0
        #: audience size of every broadcast (lookups made inside transmit)
        self.audiences: List[int] = []
        self._stack: List[float] = []
        self._names: List[str] = []
        #: top-level span time not yet claimed by a handler record
        self._loose = [0.0]
        self._patches: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------ install
    def install(self) -> "SpanRecorder":
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        try:
            for module, cls, attr, span in ENTRY_POINTS:
                self._wrap(_class(module, cls), attr, span)
            self._hook_engine(_class("repro.sim.engine", "Simulator"))
            self._hook_profiler(_class("repro.sim.profiling", "EngineProfiler"))
            self._hook_receptions(_class("repro.net.channel", "BroadcastChannel"))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original entry point back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _patch(self, owner: type, attr: str, replacement: Any) -> Any:
        original = _own_attribute(owner, attr)
        replacement.__wrapped__ = original
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def _wrap(self, owner: type, attr: str, name: str) -> None:
        original = _own_attribute(owner, attr)
        clock = time.perf_counter
        stack, names, loose = self._stack, self._names, self._loose
        total_s, self_s, calls = self.total_s, self.self_s, self.calls
        size_of = _AUDIENCE_SIZE.get(attr)
        audiences = self.audiences
        recorder = self
        counts_deliveries = name == "routing.deliver"

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            names.append(name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                names.pop()
                total_s[name] += elapsed
                self_s[name] += elapsed - child
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    loose[0] += elapsed
            if size_of is not None and names and names[-1] == "net.transmit":
                audiences.append(size_of(result))
            elif counts_deliveries and result:
                recorder.reports_delivered += 1
            return result

        self._patch(owner, attr, span)

    def _hook_engine(self, owner: type) -> None:
        recorder = self
        clock = time.perf_counter
        loose = self._loose
        original = _own_attribute(owner, "run")

        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            loose[0] = 0.0
            start = clock()
            try:
                return original(sim, *args, **kwargs)
            finally:
                recorder.loop_s += clock() - start
                loose[0] = 0.0

        self._patch(owner, "run", run)

    def _hook_profiler(self, owner: type) -> None:
        in_handler_s = self.in_handler_s
        loose = self._loose
        original = _own_attribute(owner, "record")

        def record(profiler: Any, label: str, dt: float) -> None:
            # Called right after each handler returns: every top-level span
            # since the previous record ran inside this handler.
            in_handler_s[label] += loose[0]
            loose[0] = 0.0
            original(profiler, label, dt)

        self._patch(owner, "record", record)

    def _hook_receptions(self, owner: type) -> None:
        recorder = self
        original = _own_attribute(owner, "_complete")

        def complete(channel: Any, sender_id: Any, packet: Any, receivers: Any, airtime: float) -> None:
            recorder.receptions += len(receivers)
            original(channel, sender_id, packet, receivers, airtime)

        self._patch(owner, "_complete", complete)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(values: List[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def layer_metrics(recorder: SpanRecorder, live: Any, result: Any) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` of one finished span run.

    ``live`` is the :class:`repro.harness.LiveRun` that produced
    ``result``; it must have run with ``RunOptions(profile=True)``.
    Layers a workload does not exercise report zeros.
    """
    profiler = live.profiler
    if profiler is None:
        raise ValueError("layer metrics need a run with RunOptions(profile=True)")
    in_handler = recorder.in_handler_s

    def handler_self_s(owns: Callable[[str], bool]) -> float:
        return sum(
            (
                stats.total_s - in_handler.get(label, 0.0)
                for label, stats in profiler.labels.items()
                if owns(label)
            ),
            0.0,
        )

    span_self = recorder.self_s
    calls = recorder.calls
    events = live.sim.events_executed
    counters = result.counters
    channel = result.channel_counters

    sim_self = recorder.loop_s - profiler.wall_s
    net_rx = handler_self_s(lambda label: label.startswith("rx:"))
    core_self = handler_self_s(CORE_LABELS.__contains__) + span_self["core.on_packet"]
    coverage_sample = handler_self_s(lambda label: label == COVERAGE_SAMPLE_LABEL)
    other = handler_self_s(
        lambda label: not (
            label.startswith("rx:") or label in CORE_LABELS or label == COVERAGE_SAMPLE_LABEL
        )
    )

    wakeups = result.total_wakeups
    per_node = [
        node.wakeup_count
        for node in live.network.nodes.values()
        if hasattr(node, "wakeup_count") and not getattr(node, "anchor", False)
    ]
    caches = {
        id(cache): cache
        for cache in (
            getattr(live.network, "neighbors", None),
            getattr(live.topology, "neighbor_cache", None),
        )
        if cache is not None
    }
    hits = sum(cache.stats()["hits"] for cache in caches.values())
    misses = sum(cache.stats()["misses"] for cache in caches.values())
    audiences = recorder.audiences
    histogram = defaultdict(int)
    for size in audiences:
        bucket = size.bit_length()
        histogram[AUDIENCE_BUCKETS[bucket] if bucket < len(AUDIENCE_BUCKETS) - 1 else "ge1024"] += 1
    updates = calls["coverage.update"]
    emits = calls["obs.emit"]
    reports = calls["routing.deliver"]

    metrics: Dict[str, Tuple[float, str]] = {
        "sim.self_s": (sim_self, "s"),
        "sim.events": (float(events), "count"),
        "sim.us_per_event": (_ratio(sim_self, events) * 1e6, "us"),
        "sim.heap_peak": (float(profiler.max_heap), "count"),
        "sim.tombstone_ratio": (_ratio(profiler.max_tombstones, profiler.max_heap), "ratio"),
        "net.transmit_s": (span_self["net.transmit"], "s"),
        "net.frames_sent": (float(channel.get("frames_sent", 0)), "count"),
        "net.neighbors_s": (span_self["net.neighbors"], "s"),
        "net.neighbors_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "net.audience_mean": (statistics.fmean(audiences) if audiences else 0.0, "count"),
        "net.audience_max": (float(max(audiences, default=0)), "count"),
        "net.audience_gt256": (float(sum(1 for size in audiences if size > AUDIENCE_TIER)), "count"),
        "net.rx_s": (net_rx, "s"),
        "net.receptions": (float(recorder.receptions), "count"),
        "net.frames_delivered": (float(channel.get("frames_delivered", 0)), "count"),
        "net.collisions": (float(channel.get("collisions", 0)), "count"),
        "net.delivery_ratio": (_ratio(channel.get("frames_delivered", 0), recorder.receptions), "ratio"),
        "net.us_per_reception": (_ratio(net_rx, recorder.receptions) * 1e6, "us"),
        "core.self_s": (core_self, "s"),
        "core.wakeups": (float(wakeups), "count"),
        "core.wakeups_per_node": (_ratio(wakeups, len(per_node)), "count"),
        "core.wakeups_per_node_p50": (_quantile(per_node, 0.5), "count"),
        "core.wakeups_per_node_p90": (_quantile(per_node, 0.9), "count"),
        "core.wakeups_per_node_max": (float(max(per_node, default=0)), "count"),
        "core.us_per_wakeup": (_ratio(core_self, wakeups) * 1e6, "us"),
        "core.work_ratio": (_ratio(counters.get("work_starts", 0), wakeups), "ratio"),
        "coverage.update_s": (span_self["coverage.update"], "s"),
        "coverage.updates": (float(updates), "count"),
        "coverage.us_per_update": (_ratio(span_self["coverage.update"], updates) * 1e6, "us"),
        "coverage.sample_s": (coverage_sample, "s"),
        "energy.s": (span_self["energy"], "s"),
        "energy.calls": (float(calls["energy"]), "count"),
        "routing.deliver_s": (span_self["routing.deliver"], "s"),
        "routing.reports": (float(reports), "count"),
        "routing.delivery_ratio": (_ratio(recorder.reports_delivered, reports), "ratio"),
        "routing.topology_s": (span_self["routing.topology"], "s"),
        "baselines.self_s": (
            span_self["baselines.set_working"] + span_self["baselines.charge"], "s"
        ),
        "baselines.toggles": (float(calls["baselines.set_working"]), "count"),
        "obs.emit_s": (span_self["obs.emit"], "s"),
        "obs.events": (float(emits), "count"),
        "obs.us_per_event": (_ratio(span_self["obs.emit"], emits) * 1e6, "us"),
        "other.handler_s": (other, "s"),
    }
    for bucket in AUDIENCE_BUCKETS:
        metrics[f"net.audience.{bucket}"] = (float(histogram[bucket]), "count")
    return metrics
