"""The tracer handle instrumented components emit through.

An event is emitted as a record: ``tracer.emit(ENERGY, now, node, cat,
joules)`` passes the event type and its constructor's positional fields
(:mod:`repro.obs.events`), so no dict is built on the hot path; sinks
rebuild the dict, or encode the record, where they need it.

Components accept an ``Optional[Tracer]`` and normalize it once at
construction with :meth:`Tracer.active`: a missing tracer *and* a tracer
wrapping a :class:`~repro.obs.sinks.NullSink` both normalize to ``None``,
so every hot-path guard is a single ``if self._tracer is not None`` —
tracing off costs nothing measurable (the <3 % null-sink budget of the
observability bench).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .sinks import NullSink, TraceSink

__all__ = ["Tracer", "null_tracer"]


class Tracer:
    """Routes event records to a sink and keeps aggregate stats."""

    __slots__ = ("sink",)

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink if sink is not None else NullSink()

    @property
    def enabled(self) -> bool:
        """False when emitting can have no observable effect."""
        return not isinstance(self.sink, NullSink)

    def active(self) -> Optional["Tracer"]:
        """``self`` when enabled, else ``None`` — the normalization every
        instrumented component applies to its ``tracer`` argument."""
        return self if self.enabled else None

    def emit(self, *record: Any) -> None:
        """Emit one event: ``emit(ev, *fields)``, its type and then its
        constructor's positional fields."""
        self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()

    def stats(self) -> Dict[str, int]:
        """Sink-side accounting for manifests: events kept vs dropped."""
        return {"emitted": self.sink.emitted, "dropped": self.sink.dropped}


def null_tracer() -> Tracer:
    """A fresh disabled tracer (``active()`` is ``None``)."""
    return Tracer(NullSink())
