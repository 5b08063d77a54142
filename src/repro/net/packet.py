"""Packet representation for the control plane.

PEAS's control traffic consists of 25-byte PROBE and REPLY broadcasts
(§5.1).  The network layer is agnostic to packet kinds; protocol semantics
live in :mod:`repro.core.messages`, which builds payloads carried here.

Snapshot support: in-flight frames must round-trip through the
``peas-snapshot/1`` format, but this layer cannot know the payload types
(they live one layer up, in ``repro.core``).  Payload classes therefore
register a tagged codec via :func:`register_payload`, and
:func:`packet_to_dict` / :func:`packet_from_dict` serialize whole frames
without a downward import.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, Type

__all__ = [
    "Packet",
    "PACKET_SIZE_BYTES",
    "register_payload",
    "packet_to_dict",
    "packet_from_dict",
    "ensure_uid_floor",
]

#: The paper's PROBE/REPLY packet size (§5.1): "The packet size of PROBE and
#: REPLY messages is 25 bytes, which is enough to hold the information they
#: need to carry."
PACKET_SIZE_BYTES = 25

_packet_ids = itertools.count()


@dataclass(eq=False, slots=True, init=False)
class Packet:
    """An over-the-air frame.

    Packets are logically immutable and compare by identity: the per-instance
    ``uid`` makes every frame distinct.  One packet is built per broadcast,
    so the constructor is hand-written: plain slot stores, no factory.

    Attributes
    ----------
    kind:
        Application-level type tag (e.g. ``"PROBE"``/``"REPLY"``).
    sender:
        Node id of the transmitter.
    payload:
        Opaque protocol payload (a message object from ``repro.core``).
    size_bytes:
        Frame length; determines airtime via the radio bitrate.
    uid:
        Unique id assigned at construction, useful for trace correlation.
    """

    kind: str
    sender: Hashable
    payload: Any
    size_bytes: int
    uid: int

    def __init__(self, kind: str, sender: Hashable, payload: Any = None,
                 size_bytes: int = PACKET_SIZE_BYTES, uid: Optional[int] = None) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        self.kind = kind
        self.sender = sender
        self.payload = payload
        self.size_bytes = size_bytes
        self.uid = next(_packet_ids) if uid is None else uid


# --------------------------------------------------------------------------
# Snapshot codecs.
# --------------------------------------------------------------------------
#: tag -> (payload class, to_dict, from_dict)
_PAYLOAD_CODECS: Dict[str, Tuple[Type, Callable[[Any], dict], Callable[[dict], Any]]] = {}


def register_payload(
    tag: str,
    cls: Type,
    to_dict: Callable[[Any], dict],
    from_dict: Callable[[dict], Any],
) -> None:
    """Register a payload type's snapshot codec under ``tag``.

    Called at import time by the modules that define payload classes
    (e.g. :mod:`repro.core.messages`), so the packet layer can serialize
    frames without importing protocol code.
    """
    if tag in _PAYLOAD_CODECS:
        raise ValueError(f"payload tag {tag!r} is already registered")
    _PAYLOAD_CODECS[tag] = (cls, to_dict, from_dict)


def packet_to_dict(packet: Packet) -> dict:
    """Serialize a frame (payload via its registered codec)."""
    payload = None
    if packet.payload is not None:
        for tag, (cls, to_dict, _from_dict) in _PAYLOAD_CODECS.items():
            if isinstance(packet.payload, cls):
                payload = [tag, to_dict(packet.payload)]
                break
        else:
            raise TypeError(
                f"packet payload {type(packet.payload).__name__} has no "
                "registered snapshot codec (see register_payload)"
            )
    return {
        "kind": packet.kind,
        "sender": packet.sender,
        "payload": payload,
        "size": packet.size_bytes,
        "uid": packet.uid,
    }


def packet_from_dict(spec: dict) -> Packet:
    """Rebuild a frame serialized by :func:`packet_to_dict`, keeping its
    original ``uid`` (pending receptions are keyed by it)."""
    payload = None
    if spec["payload"] is not None:
        tag, data = spec["payload"]
        try:
            _cls, _to_dict, from_dict = _PAYLOAD_CODECS[tag]
        except KeyError:
            raise ValueError(f"unknown packet payload tag {tag!r}") from None
        payload = from_dict(data)
    return Packet(
        kind=spec["kind"],
        sender=spec["sender"],
        payload=payload,
        size_bytes=int(spec["size"]),
        uid=int(spec["uid"]),
    )


def ensure_uid_floor(next_uid: int) -> None:
    """Advance the process-global uid counter to at least ``next_uid``.

    Called after a restore so frames allocated post-restore can never
    collide with restored in-flight uids (receptions are keyed by uid).
    The counter is process-global, so uid values are *not* part of the
    byte-identity contract — they never appear in traces or metrics; only
    uniqueness within a run matters.
    """
    global _packet_ids
    current = next(_packet_ids)
    _packet_ids = itertools.count(max(current, int(next_uid)))
