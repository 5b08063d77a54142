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
  optional size-based rotation for long runs.  The five event types that
  make up nearly all of a PEAS trace (``energy``, ``probe_tx``,
  ``reply_tx``, ``state``, ``collision``) are written from per-type
  templates filled with memoized text; every other event goes through
  :func:`~repro.obs.events.encode_event`.  Both give the bytes of
  ``json.dumps(event, sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

from collections import deque
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any, Callable, Deque, Dict, Hashable, List, Optional, Protocol, Tuple, Union,
)

from .events import COLLISION, ENERGY, PROBE_TX, REPLY_TX, STATE, encode_event

__all__ = ["TraceSink", "NullSink", "RingBufferSink", "NdjsonSink"]


#: entries a text memo of :class:`NdjsonSink` may hold before it is emptied
_MEMO_MAX = 4096
#: marks a key an event does not carry
_ABSENT = object()


def _text(value: Any) -> Optional[str]:
    """The JSON text ``json.dumps`` gives ``value`` when ``value`` is exactly
    a finite ``float``, an ``int``, a ``str`` or ``None``; else ``None``.

    Exact types only: ``bool`` and ``numpy.float64`` (subclasses with their
    own text) and non-finite floats (``NaN``, ``Infinity``) are left to
    :func:`~repro.obs.events.encode_event`.
    """
    kind = type(value)
    if kind is float:
        return repr(value) if value - value == 0.0 else None
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    return None


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

    An ``energy``, ``probe_tx``, ``reply_tx``, ``state`` or ``collision``
    event with exactly its constructor's keys is written from a template.
    Three memos fill it: the ``t`` text of the last event (every event of
    one handler carries the same ``sim.now`` object, so it is matched by
    identity), one ``energy`` line head per ``(cat, j)`` and one text per
    node id.  Values are only memoized when their type is exact and their
    text follows from their value, so ``1``, ``1.0`` and ``True`` never
    share an entry, and ``0.0`` / ``-0.0`` heads are never stored.  Any
    other event, and any value :func:`_text` refuses, goes through
    :func:`~repro.obs.events.encode_event` instead.
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
        #: the ``t`` object of the last templated event, and its text
        self._t: Any = _ABSENT
        self._t_text = ""
        #: (cat, j) -> '{"cat":..,"ev":"energy","j":..,"node":'
        self._heads: Dict[Tuple[str, float], str] = {}
        #: node id (exact int or str) -> its JSON text
        self._nodes: Dict[Hashable, str] = {}
        self._templates: Dict[str, Callable[[Dict[str, Any]], Optional[str]]] = {
            ENERGY: self._energy_line,
            PROBE_TX: self._probe_tx_line,
            REPLY_TX: self._reply_tx_line,
            STATE: self._state_line,
            COLLISION: self._collision_line,
        }

    def emit(self, event: Dict[str, Any]) -> None:
        ev = event.get("ev")
        template = self._templates.get(ev) if type(ev) is str else None
        line = None if template is None else template(event)
        if line is None:
            line = encode_event(event) + "\n"
        written = self._written
        rotate_bytes = self.rotate_bytes
        if (
            rotate_bytes is not None
            and written > 0
            and written + len(line) > rotate_bytes
        ):
            self._rotate()
            written = 0
        self._handle.write(line)
        self._written = written + len(line)
        self.emitted += 1

    # ------------------------------------------------------------ templates
    # Each returns the finished line, or ``None`` to fall back to
    # ``encode_event``.  The key count check plus the lookups of every
    # required key prove the event has exactly the template's keys.
    def _time(self, t: Any) -> Optional[str]:
        if t is self._t:
            return self._t_text
        text = _text(t)
        if text is not None:
            self._t = t
            self._t_text = text
        return text

    def _node(self, node: Any) -> Optional[str]:
        kind = type(node)
        if kind is not int and kind is not str:
            return _text(node)
        nodes = self._nodes
        text = nodes.get(node)
        if text is None:
            text = repr(node) if kind is int else encode_basestring_ascii(node)
            if len(nodes) >= _MEMO_MAX:
                nodes.clear()
            nodes[node] = text
        return text

    def _energy_line(self, event: Dict[str, Any]) -> Optional[str]:
        if len(event) != 5:
            return None
        try:
            t, node, cat, j = event["t"], event["node"], event["cat"], event["j"]
        except KeyError:
            return None
        memo = type(j) is float and type(cat) is str
        heads = self._heads
        head = heads.get((cat, j)) if memo else None
        if head is None:
            cat_text = _text(cat)
            j_text = _text(j)
            if cat_text is None or j_text is None:
                return None
            head = f'{{"cat":{cat_text},"ev":"energy","j":{j_text},"node":'
            if memo and j:  # 0.0 == -0.0: a zero would share their entry
                if len(heads) >= _MEMO_MAX:
                    heads.clear()
                heads[(cat, j)] = head
        # The two memo hits inlined: this is most of a PEAS trace's lines.
        node_text = self._nodes.get(node) if type(node) is int else None
        if node_text is None:
            node_text = self._node(node)
        t_text = self._t_text if t is self._t else self._time(t)
        if node_text is None or t_text is None:
            return None
        return f'{head}{node_text},"t":{t_text}}}\n'

    def _probe_tx_line(self, event: Dict[str, Any]) -> Optional[str]:
        if len(event) != 5:
            return None
        try:
            texts = (
                _text(event["idx"]), self._node(event["node"]),
                self._time(event["t"]), _text(event["wakeup"]),
            )
        except KeyError:
            return None
        if None in texts:
            return None
        return '{"ev":"probe_tx","idx":%s,"node":%s,"t":%s,"wakeup":%s}\n' % texts

    def _reply_tx_line(self, event: Dict[str, Any]) -> Optional[str]:
        if len(event) != 5:
            return None
        try:
            texts = (
                _text(event["lam"]), self._node(event["node"]),
                self._time(event["t"]), _text(event["tw"]),
            )
        except KeyError:
            return None
        if None in texts:
            return None
        return '{"ev":"reply_tx","lam":%s,"node":%s,"t":%s,"tw":%s}\n' % texts

    def _collision_line(self, event: Dict[str, Any]) -> Optional[str]:
        if len(event) != 4:
            return None
        try:
            texts = (
                _text(event["frames"]), self._node(event["node"]), self._time(event["t"]),
            )
        except KeyError:
            return None
        if None in texts:
            return None
        return '{"ev":"collision","frames":%s,"node":%s,"t":%s}\n' % texts

    def _state_line(self, event: Dict[str, Any]) -> Optional[str]:
        cause = event.get("cause", _ABSENT)
        rate_hz = event.get("rate_hz", _ABSENT)
        if len(event) != 5 + (cause is not _ABSENT) + (rate_hz is not _ABSENT):
            return None
        try:
            texts = (
                "" if cause is _ABSENT else _text(cause),
                _text(event["from"]), self._node(event["node"]),
                "" if rate_hz is _ABSENT else _text(rate_hz),
                self._time(event["t"]), _text(event["to"]),
            )
        except KeyError:
            return None
        if None in texts:
            return None
        cause_text, src, node, rate_text, t, dst = texts
        if cause_text:
            cause_text = f'"cause":{cause_text},'
        if rate_text:
            rate_text = f'"rate_hz":{rate_text},'
        return (
            f'{{{cause_text}"ev":"state","from":{src},"node":{node},'
            f'{rate_text}"t":{t},"to":{dst}}}\n'
        )

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
