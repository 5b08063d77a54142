"""Trace sinks: where emitted events go.

All sinks share a tiny duck-typed surface — ``emit(event)``, ``close()``,
and the ``emitted`` / ``dropped`` counters — so the tracer, the manifest
and tests treat them interchangeably:

* :class:`NullSink` — discards everything.  Components additionally treat
  a tracer wrapping a null sink as *no tracer at all* (see
  :class:`~repro.obs.tracer.Tracer.active`), so the disabled default costs
  one ``is not None`` check per site — the PR-1 fast path keeps its
  numbers.
* :class:`RingBufferSink` — bounded in-memory buffer keeping the newest
  events.  Evictions are counted and exposed via ``dropped``, so a full
  buffer never passes for a complete record.
* :class:`NdjsonSink` — streams canonical NDJSON lines to a file, with
  optional size-based rotation for long runs.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Protocol, Union

from .events import encode_event

__all__ = ["TraceSink", "NullSink", "RingBufferSink", "NdjsonSink"]


class TraceSink(Protocol):
    """What the tracer needs from a sink."""

    emitted: int
    dropped: int

    def emit(self, event: Dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards every event (the default: tracing off)."""

    __slots__ = ("emitted", "dropped")

    def __init__(self) -> None:
        self.emitted = 0
        self.dropped = 0

    def emit(self, event: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the newest ``capacity`` events in memory.

    When full, the oldest event is evicted and ``dropped`` is incremented,
    so the buffer never claims to be complete when it is not.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.emitted = 0
        self.dropped = 0
        self._buffer: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, event: Dict[str, Any]) -> None:
        self.emitted += 1
        if self.capacity is not None and len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def close(self) -> None:
        pass

    def events(self, ev_type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Snapshot of the retained events, optionally filtered by type."""
        if ev_type is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.get("ev") == ev_type]

    def __len__(self) -> int:
        return len(self._buffer)


class NdjsonSink:
    """Writes one canonical JSON line per event to ``path``.

    Parameters
    ----------
    path:
        Output file; truncated on open.
    rotate_bytes:
        When set, the stream rotates once the current file would exceed
        this size: the active file is closed and the next one opens as
        ``<stem>.1<suffix>``, ``<stem>.2<suffix>``, ...  ``path`` always
        holds the *first* chunk so downstream tooling finds the run start.
    """

    def __init__(
        self, path: Union[str, Path], rotate_bytes: Optional[int] = None
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1024:
            raise ValueError("rotate_bytes must be at least 1 KiB")
        self.path = Path(path)
        self.rotate_bytes = rotate_bytes
        self.emitted = 0
        self.dropped = 0
        self.rotations = 0
        self._written = 0
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, event: Dict[str, Any]) -> None:
        line = encode_event(event) + "\n"
        if (
            self.rotate_bytes is not None
            and self._written > 0
            and self._written + len(line) > self.rotate_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._written += len(line)
        self.emitted += 1

    def _rotate(self) -> None:
        self._handle.close()
        self.rotations += 1
        chunk = self.path.with_name(
            f"{self.path.stem}.{self.rotations}{self.path.suffix}"
        )
        self._handle = open(chunk, "w", encoding="utf-8")
        self._written = 0

    def chunk_paths(self) -> List[Path]:
        """Every file this sink has written, in emission order."""
        return [self.path] + [
            self.path.with_name(f"{self.path.stem}.{i}{self.path.suffix}")
            for i in range(1, self.rotations + 1)
        ]

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
