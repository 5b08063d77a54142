"""Unified observability layer: structured tracing, manifests, inspection.

``repro.obs`` is the always-available instrumentation subsystem threaded
through the kernel and protocol layers:

* :mod:`repro.obs.events` — typed trace-event constructors (node state
  transitions, PROBE/REPLY/collision, lambda-hat updates, failure
  injections, energy category deltas) and the stdlib-only encoder that
  writes them, in the trace writer process or in place;
* :mod:`repro.obs.schema` — the published JSON schema every NDJSON trace
  line conforms to, plus a dependency-free validator;
* :mod:`repro.obs.sinks` — pluggable sinks: :class:`NullSink` (near-zero
  cost no-op), :class:`RingBufferSink` (bounded in-memory, with a
  ``dropped`` counter), :class:`NdjsonSink` (file writer with rotation,
  encoding on a second CPU);
* :mod:`repro.obs.tracer` — the :class:`Tracer` handle components emit
  through;
* :mod:`repro.obs.manifest` — run provenance (git SHA, config hash, seed,
  RNG streams, package versions, wall time, peak RSS);
* :mod:`repro.obs.metrics` — the quantitative side: a dependency-free
  registry of labeled counters/gauges/histograms, the ``peas-metrics/1``
  NDJSON export, and a Prometheus text-exposition renderer;
* :mod:`repro.obs.diff` — the cross-run comparator behind
  ``peas-repro inspect --diff``;
* :mod:`repro.obs.inspect` — trace summarization behind
  ``peas-repro inspect``.

Engine profiling lives beside the engine in :mod:`repro.sim.profiling`
(re-exported here) so the kernel stays import-independent of this package.
"""

from ..sim.profiling import EngineProfiler
from . import events
from .inspect import TraceSummary, render_summary, summarize_trace
from .diff import RunDiff, RunRecord, diff_runs, load_run, render_diff
from .manifest import build_manifest, config_hash, git_sha, load_manifest, save_manifest
from .metrics import (
    METRIC_NAMES,
    METRICS_SCHEMA,
    MetricsRegistry,
    RunMetrics,
    load_metrics_file,
    render_prometheus,
    save_metrics,
    save_prometheus,
    validate_metrics_file,
)
from .schema import SCHEMA_VERSION, TRACE_EVENT_SCHEMA, validate_event, validate_trace_file
from .sinks import NdjsonSink, NullSink, RingBufferSink, TraceSink, TraceWriterError
from .tracer import Tracer, null_tracer

__all__ = [
    "events",
    "Tracer",
    "null_tracer",
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "NdjsonSink",
    "TraceWriterError",
    "SCHEMA_VERSION",
    "TRACE_EVENT_SCHEMA",
    "validate_event",
    "validate_trace_file",
    "build_manifest",
    "config_hash",
    "git_sha",
    "save_manifest",
    "load_manifest",
    "TraceSummary",
    "summarize_trace",
    "render_summary",
    "EngineProfiler",
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "MetricsRegistry",
    "RunMetrics",
    "save_metrics",
    "load_metrics_file",
    "validate_metrics_file",
    "render_prometheus",
    "save_prometheus",
    "RunRecord",
    "RunDiff",
    "load_run",
    "diff_runs",
    "render_diff",
]
