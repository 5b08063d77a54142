"""Trace events: typed constructors, and the encoder that writes them.

An event travels through the simulator as a *record*: its type followed
by its constructor's positional fields, for example
``(ENERGY, t, node, cat, joules)``.  Instrumented components hand records
to :meth:`Tracer.emit <repro.obs.tracer.Tracer.emit>`, so the hot path
builds no dict.  ``CONSTRUCTORS[ev](*fields)`` turns a record into its
event: a plain JSON-compatible dict with two mandatory keys — ``t``
(simulation time, seconds) and ``ev`` (the event type) — plus
type-specific fields.  :func:`encode_event` writes an event as canonical
JSON (sorted keys), the reference every trace line is tested against.

:class:`Encoder` writes records as NDJSON lines, with size-based
rotation.  The five most frequent types (``energy``, ``probe_tx``,
``reply_tx``, ``state``, ``collision``) come from positional templates
filled with memoized text, the rest from ``encode_event`` of the rebuilt
event; both give the bytes of ``json.dumps(event, sort_keys=True,
separators=(",", ":"))``.

This module imports only the standard library, so
:class:`~repro.obs.sinks.NdjsonSink` can run it by path as its writer
process (``python -I events.py <trace path> <rotate bytes>``) without
importing the ``repro`` package, numpy or the simulator.  The writer
reads pickled batches of records from its stdin, writes them with one
:class:`Encoder` and, at end of input, reports its rotation count (or its
error) on its stdout, which is a pipe to the sink.

Event types (see :data:`repro.obs.schema.TRACE_EVENT_SCHEMA` for the
published contract):

================  ======================================================
``state``         node state transition (Sleeping/Probing/Working/Dead)
``probe_tx``      a PROBE frame put on the air
``reply_tx``      a REPLY frame put on the air (carries lambda-hat)
``collision``     receiver-side frame overlap destroyed frames there
``drop``          frame lost at a receiver (half duplex / random / abort)
``lambda_hat``    a working node completed a k-interval measurement
``rate``          a sleeper applied eq. (2) to its wakeup rate
``fail``          the failure injector killed a node
``energy``        an energy-accounting category was charged
``fault_arm``     a fault-plan entry was armed (scheduled) by the engine
``fault_fire``    a fault-plan entry struck (victims = nodes affected)
``fault_clear``   a fired fault ended (e.g. a transient outage restored)
================  ======================================================

Fault lifecycle events carry the plan-entry id (``"fault0"``,
``"fault1"``, ...) in the ``node`` envelope slot — the acting entity is
the fault, not any one sensor — plus the entry's model ``kind``.
"""

from __future__ import annotations

import json
import pickle
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "STATE",
    "PROBE_TX",
    "REPLY_TX",
    "COLLISION",
    "DROP",
    "LAMBDA_HAT",
    "RATE",
    "FAIL",
    "ENERGY",
    "FAULT_ARM",
    "FAULT_FIRE",
    "FAULT_CLEAR",
    "EVENT_TYPES",
    "CONSTRUCTORS",
    "Record",
    "Encoder",
    "state",
    "probe_tx",
    "reply_tx",
    "collision",
    "drop",
    "lambda_hat",
    "rate",
    "fail",
    "energy",
    "fault_arm",
    "fault_fire",
    "fault_clear",
    "encode_event",
]

#: an event's type followed by its constructor's positional fields
Record = Tuple[Any, ...]

STATE = "state"
PROBE_TX = "probe_tx"
REPLY_TX = "reply_tx"
COLLISION = "collision"
DROP = "drop"
LAMBDA_HAT = "lambda_hat"
RATE = "rate"
FAIL = "fail"
ENERGY = "energy"
FAULT_ARM = "fault_arm"
FAULT_FIRE = "fault_fire"
FAULT_CLEAR = "fault_clear"

EVENT_TYPES = (
    STATE,
    PROBE_TX,
    REPLY_TX,
    COLLISION,
    DROP,
    LAMBDA_HAT,
    RATE,
    FAIL,
    ENERGY,
    FAULT_ARM,
    FAULT_FIRE,
    FAULT_CLEAR,
)


def state(
    t: float,
    node: Hashable,
    src: str,
    dst: str,
    cause: Optional[str] = None,
    rate_hz: Optional[float] = None,
) -> Dict[str, Any]:
    """A node moved between protocol modes; ``cause`` qualifies deaths and
    turnoffs, ``rate_hz`` snapshots the wakeup rate on entry to Sleeping."""
    event: Dict[str, Any] = {"t": t, "ev": STATE, "node": node, "from": src, "to": dst}
    if cause is not None:
        event["cause"] = cause
    if rate_hz is not None:
        event["rate_hz"] = rate_hz
    return event


def probe_tx(t: float, node: Hashable, wakeup: int, idx: int) -> Dict[str, Any]:
    """PROBE ``idx`` of the burst belonging to wakeup number ``wakeup``."""
    return {"t": t, "ev": PROBE_TX, "node": node, "wakeup": wakeup, "idx": idx}


def reply_tx(
    t: float, node: Hashable, lam: Optional[float], tw: float
) -> Dict[str, Any]:
    """A REPLY left ``node``: ``lam`` is the lambda-hat feedback it carries
    (null before the first usable measurement), ``tw`` its working duration."""
    return {"t": t, "ev": REPLY_TX, "node": node, "lam": lam, "tw": tw}


def collision(t: float, node: Hashable, frames: int) -> Dict[str, Any]:
    """``frames`` newly corrupted frames overlapped at receiver ``node``."""
    return {"t": t, "ev": COLLISION, "node": node, "frames": frames}


def drop(t: float, node: Hashable, why: str) -> Dict[str, Any]:
    """A frame was lost at receiver ``node``; ``why`` is one of
    ``half_duplex`` / ``random`` / ``aborted``."""
    return {"t": t, "ev": DROP, "node": node, "why": why}


def lambda_hat(t: float, node: Hashable, lam: float, window: int) -> Dict[str, Any]:
    """Working node ``node`` completed full measurement window ``window``
    with aggregate-rate estimate ``lam`` (eq. 3)."""
    return {"t": t, "ev": LAMBDA_HAT, "node": node, "lam": lam, "window": window}


def rate(
    t: float, node: Hashable, old_hz: float, new_hz: float, lam: float
) -> Dict[str, Any]:
    """Sleeper ``node`` rescaled its rate ``old_hz`` -> ``new_hz`` against
    the REPLY feedback ``lam`` (eq. 2)."""
    return {"t": t, "ev": RATE, "node": node, "old_hz": old_hz, "new_hz": new_hz, "lam": lam}


def fail(t: float, node: Hashable) -> Dict[str, Any]:
    """The failure injector destroyed ``node`` (a non-energy death)."""
    return {"t": t, "ev": FAIL, "node": node}


def energy(t: float, node: Hashable, cat: str, joules: float) -> Dict[str, Any]:
    """``joules`` were charged to accounting category ``cat`` at ``node``."""
    return {"t": t, "ev": ENERGY, "node": node, "cat": cat, "j": joules}


def fault_arm(t: float, fault: str, kind: str) -> Dict[str, Any]:
    """Fault-plan entry ``fault`` (of model ``kind``) armed its process."""
    return {"t": t, "ev": FAULT_ARM, "node": fault, "kind": kind}


def fault_fire(t: float, fault: str, kind: str, victims: int) -> Dict[str, Any]:
    """Entry ``fault`` struck, affecting ``victims`` nodes at once."""
    return {"t": t, "ev": FAULT_FIRE, "node": fault, "kind": kind, "victims": victims}


def fault_clear(t: float, fault: str, kind: str) -> Dict[str, Any]:
    """A fired instance of entry ``fault`` ended (outage restored, window
    closed); instantaneous models never emit this."""
    return {"t": t, "ev": FAULT_CLEAR, "node": fault, "kind": kind}


#: event type -> the constructor that rebuilds its dict from a record's fields
CONSTRUCTORS: Dict[str, Callable[..., Dict[str, Any]]] = {
    STATE: state,
    PROBE_TX: probe_tx,
    REPLY_TX: reply_tx,
    COLLISION: collision,
    DROP: drop,
    LAMBDA_HAT: lambda_hat,
    RATE: rate,
    FAIL: fail,
    ENERGY: energy,
    FAULT_ARM: fault_arm,
    FAULT_FIRE: fault_fire,
    FAULT_CLEAR: fault_clear,
}


#: The C encoder ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
#: reaches, built once instead of once per call (with the stock ``default``,
#: which raises ``TypeError``).  ``markers=None`` skips circular-reference
#: tracking: events are flat dicts of scalars.  ``None`` on interpreters
#: without the ``_json`` accelerator.
_C_MAKE_ENCODER = getattr(json.encoder, "c_make_encoder", None)
_ENCODE = (
    None
    if _C_MAKE_ENCODER is None
    else _C_MAKE_ENCODER(
        None,  # markers
        json.JSONEncoder().default,
        json.encoder.encode_basestring_ascii,
        None,  # indent
        ":",  # key separator
        ",",  # item separator
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
)


def encode_event(event: Dict[str, Any]) -> str:
    """Canonical single-line JSON: sorted keys, no whitespace.

    The sorted, compact form is what makes golden traces byte-stable: two
    runs that emit equal event dicts produce equal NDJSON bytes.  The
    output is exactly ``json.dumps(event, sort_keys=True,
    separators=(",", ":"))``, produced by the prebuilt encoder when the
    interpreter has one.
    """
    if _ENCODE is None:
        return json.dumps(event, sort_keys=True, separators=(",", ":"))
    return "".join(_ENCODE(event, 0))


#: entries a text memo of :class:`Encoder` may hold before it is emptied
_MEMO_MAX = 4096
#: the ``t`` memo before the first templated line
_ABSENT = object()


def _text(value: Any) -> Optional[str]:
    """The JSON text ``json.dumps`` gives ``value`` when ``value`` is exactly
    a finite ``float``, an ``int``, a ``str`` or ``None``; else ``None``.

    Exact types only: ``bool`` and ``numpy.float64`` (subclasses with their
    own text) and non-finite floats (``NaN``, ``Infinity``) are left to
    :func:`encode_event`.
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


class Encoder:
    """Writes records as canonical NDJSON lines to ``path``.

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
    record with its constructor's arity is written from a positional
    template.  Three memos fill it: the ``t`` text of the last record
    (every event of one handler carries the same ``sim.now`` object, so it
    is matched by identity), one ``energy`` line head per ``(cat, j)`` and
    one text per node id.  Values are only memoized when their type is
    exact and their text follows from their value, so ``1``, ``1.0`` and
    ``True`` never share an entry, and ``0.0`` / ``-0.0`` heads are never
    stored.  Any other record, and any value :func:`_text` refuses, goes
    through :func:`encode_event` of ``CONSTRUCTORS[ev](*fields)`` instead.
    """

    def __init__(self, path: Path, rotate_bytes: Optional[int] = None) -> None:
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.rotations = 0
        self._written = 0
        self._handle = open(path, "w", encoding="utf-8")
        #: the ``t`` object of the last templated record, and its text
        self._t: Any = _ABSENT
        self._t_text = ""
        #: (cat, j) -> '{"cat":..,"ev":"energy","j":..,"node":'
        self._heads: Dict[Tuple[str, float], str] = {}
        #: node id (exact int or str) -> its JSON text
        self._nodes: Dict[Hashable, str] = {}
        self._templates: Dict[str, Callable[[Record], Optional[str]]] = {
            ENERGY: self._energy_line,
            PROBE_TX: self._probe_tx_line,
            REPLY_TX: self._reply_tx_line,
            STATE: self._state_line,
            COLLISION: self._collision_line,
        }

    @staticmethod
    def chunk_path(path: Path, index: int) -> Path:
        """The file rotation ``index`` opens (``path`` itself for 0)."""
        if index == 0:
            return path
        return path.with_name(f"{path.stem}.{index}{path.suffix}")

    def write(self, records: Sequence[Record]) -> None:
        """Encode ``records`` and write their lines, in order."""
        templates = self._templates
        lines: List[str] = []
        append = lines.append
        for record in records:
            template = templates.get(record[0])
            line = None if template is None else template(record)
            if line is None:
                line = encode_event(CONSTRUCTORS[record[0]](*record[1:])) + "\n"
            append(line)
        rotate_bytes = self.rotate_bytes
        if rotate_bytes is None:
            self._handle.write("".join(lines))
            return
        for line in lines:
            written = self._written
            if written > 0 and written + len(line) > rotate_bytes:
                self._rotate()
                written = 0
            self._handle.write(line)
            self._written = written + len(line)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def _rotate(self) -> None:
        self._handle.close()
        self.rotations += 1
        self._handle = open(
            self.chunk_path(self.path, self.rotations), "w", encoding="utf-8"
        )
        self._written = 0

    # ------------------------------------------------------------ templates
    # Each returns the finished line, or ``None`` to fall back to
    # ``encode_event``.  The arity check proves the record holds exactly the
    # constructor's fields.
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

    def _energy_line(self, record: Record) -> Optional[str]:
        if len(record) != 5:
            return None
        _, t, node, cat, j = record
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

    def _probe_tx_line(self, record: Record) -> Optional[str]:
        if len(record) != 5:
            return None
        _, t, node, wakeup, idx = record
        texts = (_text(idx), self._node(node), self._time(t), _text(wakeup))
        if None in texts:
            return None
        return '{"ev":"probe_tx","idx":%s,"node":%s,"t":%s,"wakeup":%s}\n' % texts

    def _reply_tx_line(self, record: Record) -> Optional[str]:
        if len(record) != 5:
            return None
        _, t, node, lam, tw = record
        texts = (_text(lam), self._node(node), self._time(t), _text(tw))
        if None in texts:
            return None
        return '{"ev":"reply_tx","lam":%s,"node":%s,"t":%s,"tw":%s}\n' % texts

    def _collision_line(self, record: Record) -> Optional[str]:
        if len(record) != 4:
            return None
        _, t, node, frames = record
        texts = (_text(frames), self._node(node), self._time(t))
        if None in texts:
            return None
        return '{"ev":"collision","frames":%s,"node":%s,"t":%s}\n' % texts

    def _state_line(self, record: Record) -> Optional[str]:
        size = len(record)
        if not 5 <= size <= 7:
            return None
        _, t, node, src, dst, cause, rate_hz = record + (None,) * (7 - size)
        texts = (
            "" if cause is None else _text(cause),
            _text(src), self._node(node),
            "" if rate_hz is None else _text(rate_hz),
            self._time(t), _text(dst),
        )
        if None in texts:
            return None
        cause_text, src_text, node_text, rate_text, t_text, dst_text = texts
        if cause_text:
            cause_text = f'"cause":{cause_text},'
        if rate_text:
            rate_text = f'"rate_hz":{rate_text},'
        return (
            f'{{{cause_text}"ev":"state","from":{src_text},"node":{node_text},'
            f'{rate_text}"t":{t_text},"to":{dst_text}}}\n'
        )


def _write_trace(path: str, rotate_bytes: str) -> int:
    """The writer process: encode pickled batches from stdin until it ends.

    Prints the rotation count, or the error that stopped the writer, on
    stdout — a pipe the sink reads at close, never a terminal's stdout.
    """
    try:
        encoder = Encoder(Path(path), int(rotate_bytes) or None)
        try:
            source = sys.stdin.buffer
            while True:
                try:
                    batch = pickle.load(source)
                except EOFError:
                    break
                encoder.write(batch)
        finally:
            encoder.close()
    except Exception as exc:
        report = f"{type(exc).__name__}: {exc}"
        sys.stdout.buffer.write(report.encode("utf-8", "backslashreplace"))
        return 1
    sys.stdout.write(f"{encoder.rotations}\n")
    return 0


if __name__ == "__main__":
    sys.exit(_write_trace(*sys.argv[1:]))
