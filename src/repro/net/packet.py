"""Packet representation for the control plane.

PEAS's control traffic consists of 25-byte PROBE and REPLY broadcasts
(§5.1).  The network layer is agnostic to packet kinds; protocol semantics
live in :mod:`repro.core.messages`, which builds payloads carried here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["Packet", "PACKET_SIZE_BYTES"]

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
                 size_bytes: int = PACKET_SIZE_BYTES) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        self.kind = kind
        self.sender = sender
        self.payload = payload
        self.size_bytes = size_bytes
        self.uid = next(_packet_ids)
