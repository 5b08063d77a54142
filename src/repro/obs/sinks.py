"""Trace sinks: where emitted records go.

A record is an event's type followed by its constructor's positional
fields (:mod:`repro.obs.events`).  All sinks share a tiny duck-typed
surface — ``emit(record)``, ``close()``, and the ``emitted`` / ``dropped``
counters — so the tracer, the manifest and tests treat them
interchangeably:

* :class:`RingBufferSink` — bounded in-memory buffer keeping the newest
  events, each rebuilt as its dict (``CONSTRUCTORS[ev](*fields)``).
  Evictions are counted and exposed via ``dropped``, so a full buffer
  never passes for a complete record.
* :class:`NdjsonSink` — streams canonical NDJSON lines to a file, with
  optional size-based rotation for long runs.  It only collects records;
  a writer process on another CPU encodes and writes them with
  :class:`~repro.obs.events.Encoder`, or the sink's own encoder does when
  there is no other CPU or the trace is short.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Protocol, Union

from . import events
from .events import CONSTRUCTORS, Encoder, Record

__all__ = ["TraceSink", "RingBufferSink", "NdjsonSink", "TraceWriterError"]

#: records :class:`NdjsonSink` collects before it hands them on: about
#: 27 KiB pickled on a PEAS trace, inside one 64 KiB pipe buffer
BATCH_RECORDS = 1024


class TraceWriterError(RuntimeError):
    """The writer process of an :class:`NdjsonSink` died or failed, so its
    trace is incomplete."""


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


class TraceSink(Protocol):
    """What the tracer needs from a sink."""

    @property
    def emitted(self) -> int: ...

    @property
    def dropped(self) -> int: ...

    def emit(self, record: Record) -> None: ...

    def close(self) -> None: ...


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

    def emit(self, record: Record) -> None:
        self.emitted += 1
        if self.capacity is not None and len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(CONSTRUCTORS[record[0]](*record[1:]))

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
    """Writes one canonical JSON line per record to ``path``.

    Parameters
    ----------
    path:
        Output file; truncated on open.
    rotate_bytes:
        When set, the stream rotates once the current file would exceed
        this size (see :class:`~repro.obs.events.Encoder`); at least 1 KiB.

    ``emit`` appends the record to a batch of :data:`BATCH_RECORDS`.  The
    first full batch starts a writer process, ``python -I`` running
    :mod:`repro.obs.events` by path, which imports only the standard
    library; each full batch then goes to it pickled through a pipe, and
    the simulation's CPU never encodes a line.  Two cases encode in this
    process instead, with the same :class:`~repro.obs.events.Encoder`:
    a trace that never fills a batch (written at :meth:`close`), and a
    process whose CPU affinity allows only one CPU, where a writer would
    only take turns with the simulation.

    ``emitted`` and ``dropped`` are counted here; ``rotations`` and
    :meth:`chunk_paths` are final after :meth:`close`.  A writer that dies
    or fails raises :class:`TraceWriterError` at the next full batch or at
    :meth:`close`, which is idempotent and always reaps the writer.
    """

    def __init__(
        self, path: Union[str, Path], rotate_bytes: Optional[int] = None
    ) -> None:
        if rotate_bytes is not None and rotate_bytes < 1024:
            raise ValueError("rotate_bytes must be at least 1 KiB")
        self.path = Path(path)
        self.rotate_bytes = rotate_bytes
        self.dropped = 0
        self.rotations = 0
        #: records handed to the encoder or the writer
        self._sent = 0
        self._batch: List[Record] = []
        self._encoder: Optional[Encoder] = None
        self._writer: Optional["subprocess.Popen[bytes]"] = None
        self._closed = False
        open(self.path, "w", encoding="utf-8").close()  # a bad path fails here

    @property
    def emitted(self) -> int:
        return self._sent + len(self._batch)

    def emit(self, record: Record) -> None:
        batch = self._batch
        batch.append(record)
        if len(batch) >= BATCH_RECORDS:
            self._flush()

    def _flush(self) -> None:
        if self._closed:
            raise ValueError(f"trace sink for {self.path} is closed")
        batch = self._batch
        self._batch = []
        self._sent += len(batch)
        if self._writer is None and self._encoder is None:
            if _usable_cpus() > 1:
                self._writer = self._spawn()
            else:
                self._encoder = Encoder(self.path, self.rotate_bytes)
        if self._encoder is not None:
            self._write_in_place(self._encoder, batch)
        else:
            self._send(batch)

    def _write_in_place(self, encoder: Encoder, batch: List[Record]) -> None:
        """Encode ``batch`` here; a failure closes the sink, as it does
        when the writer process fails."""
        try:
            encoder.write(batch)
        except Exception as exc:
            self._closed = True
            encoder.close()
            raise TraceWriterError(
                f"trace writer for {self.path} failed: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            self.rotations = encoder.rotations

    def _spawn(self) -> "subprocess.Popen[bytes]":
        command = [
            sys.executable, "-I", events.__file__,
            str(self.path), str(self.rotate_bytes or 0),
        ]
        return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def _send(self, batch: List[Record]) -> None:
        writer = self._writer
        assert writer is not None and writer.stdin is not None
        try:
            writer.stdin.write(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
            writer.stdin.flush()
        except BrokenPipeError:
            self._reap()  # the writer is gone: raises its error

    def _reap(self) -> None:
        """Close the writer's input, wait for it and take its report; the
        sink is closed after this, whatever the writer's fate."""
        writer = self._writer
        assert writer is not None and writer.stdin is not None
        assert writer.stdout is not None
        self._writer = None
        self._closed = True
        try:
            writer.stdin.close()
        except BrokenPipeError:
            pass  # unflushed bytes of a dead writer
        with writer.stdout:
            report = writer.stdout.read().decode("utf-8", "replace").strip()
        status = writer.wait()
        if status != 0:
            detail = f": {report}" if report else ""
            raise TraceWriterError(
                f"trace writer for {self.path} exited with status {status}{detail}"
            )
        self.rotations = int(report)

    def chunk_paths(self) -> List[Path]:
        """Every file this sink has written, in emission order."""
        return [Encoder.chunk_path(self.path, i) for i in range(self.rotations + 1)]

    def close(self) -> None:
        """Write the last batch and finish the trace; idempotent."""
        if self._closed:
            return
        self._closed = True
        batch = self._batch
        self._batch = []
        self._sent += len(batch)
        if self._writer is not None:
            try:
                if batch:
                    self._send(batch)
            finally:
                if self._writer is not None:
                    self._reap()
            return
        encoder = self._encoder
        if encoder is None:
            encoder = self._encoder = Encoder(self.path, self.rotate_bytes)
        self._write_in_place(encoder, batch)
        encoder.close()
