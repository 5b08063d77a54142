"""PEAS control-plane message payloads.

Both messages fit in the paper's 25-byte frames (§5.1).  The REPLY carries
exactly the feedback the Adaptive Sleeping algorithm needs (§2.2) plus the
working duration T_w used by the §4 overlap-resolution rule:

* ``measured_rate`` — the working node's current aggregate-rate measurement
  lambda-hat (``None`` until its first k-PROBE window completes);
* ``desired_rate`` — lambda_d, echoed so probers need no global config;
* ``working_duration`` — how long the sender has been working (T_w).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = ["ProbeMessage", "ReplyMessage", "PROBE_KIND", "REPLY_KIND"]

PROBE_KIND = "PROBE"
REPLY_KIND = "REPLY"


# One message is built per frame, so both ``__init__``s store through the
# slot descriptors (half the cost of the generated per-field
# ``object.__setattr__``); the dataclass keeps equality, hashing and freezing.
@dataclass(frozen=True, slots=True, init=False)
class ProbeMessage:
    """Payload of a PROBE broadcast.

    ``wakeup_seq`` identifies the wakeup this PROBE belongs to and
    ``probe_index`` its position among the wakeup's repeated transmissions,
    letting working nodes count a multi-PROBE wakeup once when measuring
    the aggregate probing rate.
    """

    prober_id: Hashable
    wakeup_seq: int
    probe_index: int = 0

    def __init__(self, prober_id: Hashable, wakeup_seq: int, probe_index: int = 0) -> None:
        if wakeup_seq < 0 or probe_index < 0:
            raise ValueError("wakeup_seq and probe_index must be nonnegative")
        _set_prober_id(self, prober_id)
        _set_wakeup_seq(self, wakeup_seq)
        _set_probe_index(self, probe_index)

    @property
    def wakeup_key(self) -> tuple:
        """Identity of the originating wakeup (for measurement dedup)."""
        return (self.prober_id, self.wakeup_seq)


@dataclass(frozen=True, slots=True, init=False)
class ReplyMessage:
    """Payload of a REPLY broadcast from a working node."""

    worker_id: Hashable
    measured_rate: Optional[float]
    desired_rate: float
    working_duration: float
    #: The wakeup this REPLY answers (tracing only; REPLYs are broadcast and
    #: any prober that hears one learns a worker is within range).
    answering: Optional[tuple] = None

    def __init__(self, worker_id: Hashable, measured_rate: Optional[float],
                 desired_rate: float, working_duration: float,
                 answering: Optional[tuple] = None) -> None:
        if measured_rate is not None and measured_rate <= 0:
            raise ValueError("measured_rate must be positive when present")
        if desired_rate <= 0:
            raise ValueError("desired_rate must be positive")
        if working_duration < 0:
            raise ValueError("working_duration must be nonnegative")
        _set_worker_id(self, worker_id)
        _set_measured_rate(self, measured_rate)
        _set_desired_rate(self, desired_rate)
        _set_working_duration(self, working_duration)
        _set_answering(self, answering)


_set_prober_id = ProbeMessage.prober_id.__set__
_set_wakeup_seq = ProbeMessage.wakeup_seq.__set__
_set_probe_index = ProbeMessage.probe_index.__set__
_set_worker_id = ReplyMessage.worker_id.__set__
_set_measured_rate = ReplyMessage.measured_rate.__set__
_set_desired_rate = ReplyMessage.desired_rate.__set__
_set_working_duration = ReplyMessage.working_duration.__set__
_set_answering = ReplyMessage.answering.__set__
