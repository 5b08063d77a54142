"""Unified observability layer: structured tracing, manifests, inspection.

``repro.obs`` is the always-available instrumentation subsystem threaded
through the kernel and protocol layers:

* :mod:`repro.obs.events` — typed trace-event constructors (node state
  transitions, PROBE/REPLY/collision, lambda-hat updates, failure
  injections, energy category deltas) and the stdlib-only encoder that
  writes them, in the trace writer process or in place;
* :mod:`repro.obs.schema` — the published JSON schema every NDJSON trace
  line conforms to, and the dependency-free validator that interprets it;
* :mod:`repro.obs.sinks` — pluggable sinks: :class:`RingBufferSink`
  (bounded in-memory, with a ``dropped`` counter) and :class:`NdjsonSink`
  (file writer with rotation, encoding on a second CPU);
* :mod:`repro.obs.tracer` — the :class:`Tracer` handle components emit
  through (tracing off is ``tracer=None``);
* :mod:`repro.obs.manifest` — run provenance (code fingerprint, config
  hash, seed, RNG streams, package versions, wall time, peak RSS);
* :mod:`repro.obs.metrics` — the quantitative side: a dependency-free
  registry of labeled counters/gauges/histograms and the
  ``peas-metrics/1`` NDJSON export;
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
from .manifest import (
    build_manifest,
    code_fingerprint,
    config_hash,
    load_manifest,
    save_manifest,
)
from .metrics import (
    METRIC_NAMES,
    METRICS_SCHEMA,
    MetricsRegistry,
    RunMetrics,
    load_metrics_file,
    save_metrics,
    validate_metrics_file,
)
from .schema import SCHEMA_VERSION, TRACE_EVENT_SCHEMA, validate_event, validate_trace_file
from .sinks import NdjsonSink, RingBufferSink, TraceSink, TraceWriterError
from .tracer import Tracer

__all__ = [
    "events",
    "Tracer",
    "TraceSink",
    "RingBufferSink",
    "NdjsonSink",
    "TraceWriterError",
    "SCHEMA_VERSION",
    "TRACE_EVENT_SCHEMA",
    "validate_event",
    "validate_trace_file",
    "build_manifest",
    "config_hash",
    "code_fingerprint",
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
    "RunRecord",
    "RunDiff",
    "load_run",
    "diff_runs",
    "render_diff",
]
