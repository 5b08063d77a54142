"""Dependency-free metrics registry: counters, gauges, log2 histograms.

This is the quantitative side of the observability layer (traces in
:mod:`repro.obs.tracer` are the qualitative side): named, labeled
instruments a run populates cheaply, snapshotted into picklable samples
that cross process-pool boundaries, merged sweep-wide by the sweep
telemetry, and exported in two canonical formats:

* ``peas-metrics/1`` — NDJSON, one header line plus one line per labeled
  sample, byte-stable encoding like the trace pipeline (see
  :func:`save_metrics` / :func:`validate_metrics_file`);
* Prometheus text exposition — what a long-lived ``peas-repro serve``
  daemon will expose on a scrape endpoint (see :func:`render_prometheus`).

Design rules, mirroring the tracer:

* **Off by default and byte-neutral.**  Nothing in the simulation draws
  on this module unless ``RunOptions(metrics=True)``; collection never
  touches an RNG, so results are bit-identical with metrics on or off.
* **Canonical names.**  Every instrument the stack emits is declared in
  :data:`METRIC_NAMES`; the registry rejects undeclared names (and kind
  mismatches) at the call, and the validator flags them in exports.
* **Merge semantics.**  Counters add, gauges keep the maximum (they are
  high-water marks here), histograms add bucket-wise — so per-run
  snapshots from pool workers fold into one sweep-level registry.

Histogram buckets are fixed log2: bucket ``i`` covers values in
``(2**(LOW+i-1), 2**(LOW+i)]`` with ``LOW = -10`` (sub-millisecond floor
for wall times) through ``2**17`` seconds (covers coverage lifetimes),
plus one overflow bucket.  Fixed buckets are what make histograms
mergeable across workers without coordination.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "bucket_bounds",
    "save_metrics",
    "save_prometheus",
    "render_prometheus",
    "load_metrics_file",
    "validate_metrics_file",
]

METRICS_SCHEMA = "peas-metrics/1"

#: log2 histogram layout: bucket i covers (2^(LOW+i-1), 2^(LOW+i)], i in
#: [0, COUNT); index COUNT is the overflow bucket.
BUCKET_LOG2_LOW = -10
BUCKET_COUNT = 28

_NAME_RE = re.compile(r"^peas_[a-z0-9_]+$")

#: The canonical instrument catalogue: name -> (kind, help).  This table
#: *is* the peas-metrics/1 vocabulary: the registry enforces it and
#: :func:`validate_metrics_file` checks exports against it.
METRIC_NAMES: Dict[str, Tuple[str, str]] = {
    "peas_runs_total": ("counter", "Simulation runs completed, by status."),
    "peas_run_wall_seconds": ("histogram", "Wall-clock seconds per run."),
    "peas_run_rss_mb": ("gauge", "Peak resident set size across runs (MiB)."),
    "peas_run_sim_time_seconds": ("histogram", "Simulated seconds covered per run."),
    "peas_sim_events_total": ("counter", "Engine events executed."),
    "peas_sim_heap_size": ("gauge", "Peak event-heap size (live + tombstones)."),
    "peas_sim_live_events": ("gauge", "Peak live (uncancelled) queued events."),
    "peas_sim_tombstones": ("gauge", "Peak cancelled-but-unreaped heap entries."),
    "peas_channel_frames_total": ("counter", "Channel frames, by outcome (sent/delivered)."),
    "peas_channel_drops_total": ("counter", "Channel frames lost, by reason."),
    "peas_fault_events_total": ("counter", "Fault strikes by model kind (victims for instantaneous models)."),
    "peas_fault_recoveries_total": ("counter", "Stunned nodes restored after transient outages."),
    "peas_failures_injected_total": ("counter", "Node deaths injected (ambient + plan)."),
    "peas_wakeups_total": ("counter", "Protocol wakeups (the Fig 11 metric)."),
    "peas_coverage_lifetime_seconds": ("histogram", "K-coverage lifetime per run, labeled by k."),
    "peas_delivery_lifetime_seconds": ("histogram", "Data-delivery lifetime per run."),
    "peas_energy_joules_total": ("counter", "Energy consumed, by accounting category."),
    "peas_sweep_runs_total": ("counter", "Sweep runs by final status (ok/error)."),
    "peas_sweep_retries_total": ("counter", "Same-seed retries attempted by the sweep."),
    "peas_sweep_workers": ("gauge", "Distinct pool workers that returned a run's outcome."),
    "peas_sweep_wall_seconds": ("gauge", "Wall-clock duration of the whole sweep."),
    "peas_sweep_quarantined_total": ("counter", "Poison runs quarantined after exhausting every retry attempt."),
    "peas_sweep_pool_restarts_total": ("counter", "Process-pool respawns after worker death or run timeout."),
    "peas_store_hits_total": ("counter", "Result-store records replayed instead of simulated."),
    "peas_store_misses_total": ("counter", "Result-store lookups that fell through to a simulation."),
    "peas_store_evictions_total": ("counter", "Result-store records evicted (GC) or quarantined (corrupt)."),
}

_KINDS = ("counter", "gauge", "histogram")

LabelKey = Tuple[Tuple[str, str], ...]


def bucket_bounds() -> List[float]:
    """Upper bounds of every histogram bucket (last is ``+inf``)."""
    return [
        float(2.0 ** (BUCKET_LOG2_LOW + i)) for i in range(BUCKET_COUNT)
    ] + [math.inf]


def _bucket_index(value: float) -> int:
    """The log2 bucket for one observation (exact at power-of-two edges)."""
    if value <= 2.0 ** BUCKET_LOG2_LOW:
        return 0
    if value > 2.0 ** (BUCKET_LOG2_LOW + BUCKET_COUNT - 1):
        return BUCKET_COUNT
    # frexp is exact: value = m * 2**e with 0.5 <= m < 1, so
    # ceil(log2(value)) is e-1 iff value is itself a power of two.
    m, e = math.frexp(value)
    exp = e - 1 if m == 0.5 else e
    return exp - BUCKET_LOG2_LOW


class Counter:
    """A monotonically increasing count (float-valued: energy sums too)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:  # perf: one add per call
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        self.value += amount


class Gauge:
    """A point-in-time value; merges (and :meth:`set_max`) keep the peak."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed log2-bucket distribution with sum/count (mergeable)."""

    __slots__ = ("buckets", "count", "sum")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * (BUCKET_COUNT + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.buckets[_bucket_index(value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


_Instrument = Union[Counter, Gauge, Histogram]
_CLASSES: Dict[str, type] = {
    "counter": Counter, "gauge": Gauge, "histogram": Histogram,
}


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Labeled instruments addressed by ``(name, labels)``.

    ``registry.counter("peas_runs_total", protocol="peas")`` returns the
    one Counter for that label set, creating it on first use.  Callers on
    hot-ish paths should hold the returned handle rather than re-resolve.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], _Instrument] = {}

    # ------------------------------------------------------------ access
    def _get(self, kind: str, name: str, labels: Dict[str, Any]) -> _Instrument:
        declared = METRIC_NAMES.get(name)
        if declared is None:
            raise ValueError(
                f"undeclared metric name {name!r}; add it to "
                "repro.obs.metrics.METRIC_NAMES"
            )
        if declared[0] != kind:
            raise ValueError(
                f"metric {name!r} is declared as a {declared[0]}, not a {kind}"
            )
        key = (name, _label_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            instrument = self._metrics[key] = _CLASSES[kind]()
        return instrument

    def value(self, name: str, **labels: Any) -> float:
        """A counter's or gauge's value; 0 for one never touched (reading
        does not create it, so untouched instruments stay out of exports)."""
        instrument = self._metrics.get((name, _label_key(labels)))
        return instrument.value if isinstance(instrument, (Counter, Gauge)) else 0.0

    def counter(self, name: str, **labels: Any) -> Counter:
        instrument = self._get("counter", name, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        instrument = self._get("gauge", name, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        instrument = self._get("histogram", name, labels)
        assert isinstance(instrument, Histogram)
        return instrument

    def __len__(self) -> int:
        return len(self._metrics)

    # --------------------------------------------------------- snapshots
    def snapshot(self) -> List[Dict[str, Any]]:
        """Picklable, JSON-compatible samples in canonical order."""
        samples: List[Dict[str, Any]] = []
        for (name, label_key) in sorted(self._metrics):
            instrument = self._metrics[(name, label_key)]
            sample: Dict[str, Any] = {
                "name": name,
                "labels": dict(label_key),
            }
            if isinstance(instrument, Counter):
                sample["type"] = "counter"
                sample["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                sample["type"] = "gauge"
                sample["value"] = instrument.value
            else:
                sample["type"] = "histogram"
                sample["count"] = instrument.count
                sample["sum"] = instrument.sum
                sample["buckets"] = list(instrument.buckets)
            samples.append(sample)
        return samples

    def merge(self, samples: Iterable[Dict[str, Any]]) -> None:
        """Fold a snapshot in: counters add, gauges max, histograms add."""
        for sample in samples:
            kind = sample["type"]
            labels = dict(sample.get("labels", {}))
            instrument = self._get(kind, sample["name"], labels)
            if isinstance(instrument, Counter):
                instrument.inc(sample["value"])
            elif isinstance(instrument, Gauge):
                instrument.set_max(sample["value"])
            else:
                assert isinstance(instrument, Histogram)
                buckets = sample["buckets"]
                if len(buckets) != len(instrument.buckets):
                    raise ValueError(
                        f"histogram {sample['name']!r} has {len(buckets)} "
                        f"buckets, expected {len(instrument.buckets)} "
                        "(incompatible bucket layout)"
                    )
                for i, n in enumerate(buckets):
                    instrument.buckets[i] += n
                instrument.count += sample["count"]
                instrument.sum += sample["sum"]


# --------------------------------------------------------------------------
# peas-metrics/1 NDJSON export / load / validation
# --------------------------------------------------------------------------
def _encode(obj: Dict[str, Any]) -> str:
    """Canonical byte-stable encoding (same discipline as the tracer)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def metrics_header(meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The export's first line: schema id + bucket layout + caller meta."""
    header: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "bucket_log2_low": BUCKET_LOG2_LOW,
        "bucket_count": BUCKET_COUNT,
    }
    if meta:
        header.update(meta)
    return header


def save_metrics(
    registry: MetricsRegistry,
    path: Union[str, Path],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a ``peas-metrics/1`` NDJSON export (header + one sample/line).

    The write is atomic (:func:`repro.obs.atomic.atomic_write_text`): a
    crash mid-export never leaves a truncated file for ``inspect --diff``
    or the validator to trip over.
    """
    from .atomic import atomic_write_text

    lines = [_encode(metrics_header(meta))]
    lines.extend(_encode(sample) for sample in registry.snapshot())
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_metrics_file(
    path: Union[str, Path]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read back an export as ``(header, samples)``, checking the schema id."""
    header: Optional[Dict[str, Any]] = None
    samples: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if header is None:
                if obj.get("schema") != METRICS_SCHEMA:
                    raise ValueError(
                        f"unsupported metrics schema {obj.get('schema')!r}"
                    )
                header = obj
            else:
                samples.append(obj)
    if header is None:
        raise ValueError(f"{path}: empty metrics export")
    return header, samples


def _validate_sample(obj: object) -> Optional[str]:
    """First problem with one decoded sample line, or ``None``."""
    if not isinstance(obj, dict):
        return f"sample must be an object, got {type(obj).__name__}"
    name = obj.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        return f"'name' must match {_NAME_RE.pattern}, got {name!r}"
    kind = obj.get("type")
    if kind not in _KINDS:
        return f"{name}: 'type' must be one of {_KINDS}, got {kind!r}"
    declared = METRIC_NAMES.get(name)
    if declared is None:
        return f"{name}: not a canonical metric (see METRIC_NAMES)"
    if declared[0] != kind:
        return f"{name}: declared as {declared[0]}, exported as {kind}"
    labels = obj.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        return f"{name}: 'labels' must be a string-to-string object"
    if kind in ("counter", "gauge"):
        value = obj.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"{name}: 'value' must be a number, got {value!r}"
        if kind == "counter" and value < 0:
            return f"{name}: counter value must be >= 0, got {value!r}"
        extras = set(obj) - {"name", "type", "labels", "value"}
    else:
        buckets = obj.get("buckets")
        if (
            not isinstance(buckets, list)
            or len(buckets) != BUCKET_COUNT + 1
            or not all(isinstance(b, int) and b >= 0 for b in buckets)
        ):
            return (
                f"{name}: 'buckets' must be {BUCKET_COUNT + 1} nonnegative "
                "integers"
            )
        count = obj.get("count")
        if not isinstance(count, int) or count != sum(buckets):
            return f"{name}: 'count' must equal the bucket total"
        total = obj.get("sum")
        if isinstance(total, bool) or not isinstance(total, (int, float)):
            return f"{name}: 'sum' must be a number"
        extras = set(obj) - {"name", "type", "labels", "count", "sum", "buckets"}
    if extras:
        return f"{name}: unexpected fields {sorted(extras)}"
    return None


def validate_metrics_file(
    path: Union[str, Path], max_errors: int = 20
) -> List[str]:
    """Validate a ``peas-metrics/1`` export line by line.

    Returns ``"line N: problem"`` strings (empty = fully valid), truncated
    at ``max_errors`` like the trace validator.
    """
    errors: List[str] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not valid JSON ({exc})")
            else:
                if not saw_header:
                    saw_header = True
                    if not isinstance(obj, dict) or obj.get("schema") != METRICS_SCHEMA:
                        errors.append(
                            f"line {lineno}: header must declare schema "
                            f"{METRICS_SCHEMA!r}"
                        )
                    elif (
                        obj.get("bucket_log2_low") != BUCKET_LOG2_LOW
                        or obj.get("bucket_count") != BUCKET_COUNT
                    ):
                        errors.append(
                            f"line {lineno}: incompatible bucket layout "
                            f"(expected low={BUCKET_LOG2_LOW}, "
                            f"count={BUCKET_COUNT})"
                        )
                else:
                    problem = _validate_sample(obj)
                    if problem is not None:
                        errors.append(f"line {lineno}: {problem}")
            if len(errors) >= max_errors:
                errors.append(f"(stopped after {max_errors} errors)")
                break
    if not saw_header and not errors:
        errors.append("line 1: missing peas-metrics/1 header")
    return errors


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return format(value, ".10g")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    by_name: Dict[str, List[Tuple[Dict[str, str], _Instrument]]] = {}
    for (name, label_key), instrument in sorted(registry._metrics.items()):
        by_name.setdefault(name, []).append((dict(label_key), instrument))
    bounds = bucket_bounds()
    lines: List[str] = []
    for name, entries in by_name.items():
        kind, help_text = METRIC_NAMES[name]
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, instrument in entries:
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{name}{_label_str(labels)} "
                    f"{_format_number(instrument.value)}"
                )
            else:
                assert isinstance(instrument, Histogram)
                cumulative = 0
                for bound, count in zip(bounds, instrument.buckets):
                    cumulative += count
                    le = _label_str(labels, ("le", _format_number(bound)))
                    lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(
                    f"{name}_sum{_label_str(labels)} "
                    f"{_format_number(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_label_str(labels)} {instrument.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def save_prometheus(registry: MetricsRegistry, path: Union[str, Path]) -> None:
    """Write the Prometheus text-exposition dump next to the NDJSON export
    (atomically, like :func:`save_metrics`)."""
    from .atomic import atomic_write_text

    atomic_write_text(path, render_prometheus(registry))


# --------------------------------------------------------------------------
# The per-run collector the harness drives
# --------------------------------------------------------------------------
#: channel CounterSet key -> peas_channel_frames_total{outcome=...}
_FRAME_OUTCOMES = {"frames_sent": "sent", "frames_delivered": "delivered"}
#: channel CounterSet key -> peas_channel_drops_total{reason=...}
_DROP_REASONS = {
    "collisions": "collision",
    "half_duplex_losses": "half_duplex",
    "random_losses": "random",
    "bursty_losses": "bursty",
    "aborted_receptions": "aborted",
}


class RunMetrics:
    """One run's metrics collection, labeled by protocol.

    Built by the harness when ``RunOptions(metrics=True)``; everything it
    records happens *outside* the event loop (between run chunks and after
    the run), so the simulation's RNG draw sequence — and therefore every
    result and trace byte — is untouched.  Gauges are sampled with
    :meth:`sample_engine` between chunks; after the run the harness folds
    in the protocol's ``channel_counters`` (:meth:`record_channel`) and the
    fault engine's ``fault_counts`` (:meth:`record_faults`), then calls
    :meth:`finish`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        protocol: str,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels: Dict[str, str] = {"protocol": protocol}
        labels = self.labels
        # Pre-resolved gauge handles: sample_engine runs once per chunk.
        self._heap = self.registry.gauge("peas_sim_heap_size", **labels)
        self._live = self.registry.gauge("peas_sim_live_events", **labels)
        self._tombstones = self.registry.gauge("peas_sim_tombstones", **labels)

    # ------------------------------------------------------------ sampling
    def sample_engine(self, sim: Any) -> None:
        """High-water engine queue gauges (called between run chunks)."""
        self._heap.set_max(sim.pending_events)
        self._live.set_max(sim.live_events)
        self._tombstones.set_max(sim.tombstones)

    # ----------------------------------------------------------- subsystem
    def record_channel(self, counters: Dict[str, int]) -> None:
        """Fold the broadcast channel's per-run counter set in."""
        registry = self.registry
        labels = self.labels
        for key, outcome in _FRAME_OUTCOMES.items():
            value = counters.get(key, 0)
            if value:
                registry.counter(
                    "peas_channel_frames_total", outcome=outcome, **labels
                ).inc(value)
        for key, reason in _DROP_REASONS.items():
            value = counters.get(key, 0)
            if value:
                registry.counter(
                    "peas_channel_drops_total", reason=reason, **labels
                ).inc(value)

    def record_faults(
        self,
        *,
        injected: int,
        events_by_kind: Dict[str, int],
        recoveries: int = 0,
    ) -> None:
        """Fold the fault engine's per-run accounting in."""
        registry = self.registry
        labels = self.labels
        if injected:
            registry.counter(
                "peas_failures_injected_total", **labels
            ).inc(injected)
        for kind, count in sorted(events_by_kind.items()):
            if count:
                registry.counter(
                    "peas_fault_events_total", kind=kind, **labels
                ).inc(count)
        if recoveries:
            registry.counter(
                "peas_fault_recoveries_total", **labels
            ).inc(recoveries)

    # -------------------------------------------------------------- finish
    def finish(
        self,
        sim: Any,
        result: Any,
        *,
        wall_s: float,
        rss_mb: Optional[float] = None,
        status: str = "ok",
    ) -> None:
        """Record the run-level outcomes once the result is assembled."""
        registry = self.registry
        labels = self.labels
        self.sample_engine(sim)
        registry.counter("peas_runs_total", status=status, **labels).inc()
        registry.histogram(
            "peas_run_wall_seconds", phase="run", **labels
        ).observe(wall_s)
        if rss_mb is not None:
            registry.gauge("peas_run_rss_mb", **labels).set_max(rss_mb)
        registry.counter("peas_sim_events_total", **labels).inc(
            sim.events_executed
        )
        registry.histogram(
            "peas_run_sim_time_seconds", phase="run", **labels
        ).observe(result.end_time)
        for k, lifetime in sorted(result.coverage_lifetimes.items()):
            if lifetime is not None:
                registry.histogram(
                    "peas_coverage_lifetime_seconds", k=str(k), **labels
                ).observe(lifetime)
        if result.delivery_lifetime is not None:
            registry.histogram(
                "peas_delivery_lifetime_seconds", **labels
            ).observe(result.delivery_lifetime)
        for cat, joules in sorted(result.energy_by_category.items()):
            if joules:
                registry.counter(
                    "peas_energy_joules_total", cat=cat, **labels
                ).inc(joules)
        if result.total_wakeups:
            registry.counter("peas_wakeups_total", **labels).inc(
                result.total_wakeups
            )
