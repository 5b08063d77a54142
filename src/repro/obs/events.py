"""Typed trace-event constructors.

Every event is a plain JSON-compatible dict with two mandatory keys —
``t`` (simulation time, seconds) and ``ev`` (the event type) — plus
type-specific fields.  Dicts rather than classes keep the hot emit path a
single allocation and make the NDJSON encoding trivial and byte-stable
(:func:`encode_event` sorts keys).  :class:`~repro.obs.sinks.NdjsonSink`
writes the five most frequent types from per-type templates and leaves
the rest to :func:`encode_event`, the reference its lines are tested
against; each constructor's key set is what those templates expect.

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
from typing import Any, Dict, Hashable, Optional

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
