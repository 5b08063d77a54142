"""The tracer handle instrumented components emit through.

An event is emitted as a record: ``tracer.emit(ENERGY, now, node, cat,
joules)`` passes the event type and its constructor's positional fields
(:mod:`repro.obs.events`), so no dict is built on the hot path; sinks
rebuild the dict, or encode the record, where they need it.

Tracing off is ``tracer=None``: components keep the ``Optional[Tracer]``
they are given, and every hot-path guard is a single ``if self._tracer is
not None``.
"""

from __future__ import annotations

from typing import Any, Dict

from .sinks import TraceSink

__all__ = ["Tracer"]


class Tracer:
    """Routes event records to a sink and keeps aggregate stats."""

    __slots__ = ("sink",)

    def __init__(self, sink: TraceSink) -> None:
        self.sink = sink

    def emit(self, *record: Any) -> None:
        """Emit one event: ``emit(ev, *fields)``, its type and then its
        constructor's positional fields."""
        self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()

    def stats(self) -> Dict[str, int]:
        """Sink-side accounting for manifests: events kept vs dropped."""
        return {"emitted": self.sink.emitted, "dropped": self.sink.dropped}
