"""The published trace-event schema and the validator that runs it.

:data:`TRACE_EVENT_SCHEMA` is a standard JSON Schema (draft 2020-12
vocabulary subset) describing every line of an NDJSON trace; CI validates
smoke-run traces against it and external tooling can consume it directly.
:func:`validate_event` interprets that same object, so the schema is the
only declaration of the trace vocabulary and validation needs no
third-party ``jsonschema`` package.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from . import events as ev

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_EVENT_SCHEMA",
    "validate_event",
    "validate_ndjson",
    "validate_trace_file",
    "iter_trace_file",
]

SCHEMA_VERSION = "peas-trace/1"

_STATE_NAMES = ("sleeping", "probing", "working", "stunned", "dead")
_DROP_REASONS = ("half_duplex", "random", "bursty", "aborted")
#: the registered fault models (``kind`` of every fault lifecycle event)
_FAULT_KINDS = (
    "crash", "region_kill", "transient_outage", "bursty_loss", "clock_drift"
)


def _variant(
    ev_type: str,
    fields: Dict[str, Any],
    optional: Sequence[str] = (),
) -> Dict[str, Any]:
    """One ``oneOf`` arm of the published schema: the ``t``/``ev``/``node``
    envelope plus ``fields``, all required except the ``optional`` ones.
    ``node`` is an int for sensors and a string for anchored stations."""
    properties = {
        "t": {"type": "number", "minimum": 0},
        "ev": {"const": ev_type},
        "node": {"type": ["integer", "string"]},
    }
    properties.update(fields)
    return {
        "type": "object",
        "properties": properties,
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
    }


TRACE_EVENT_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": SCHEMA_VERSION,
    "title": "PEAS reproduction trace event",
    "description": "One line of a peas-repro NDJSON trace.",
    "oneOf": [
        _variant(ev.STATE, {
            "from": {"enum": list(_STATE_NAMES)},
            "to": {"enum": list(_STATE_NAMES)},
            "cause": {"type": "string"},
            "rate_hz": {"type": "number"},
        }, optional=("cause", "rate_hz")),
        _variant(ev.PROBE_TX, {
            "wakeup": {"type": "integer", "minimum": 0},
            "idx": {"type": "integer", "minimum": 0},
        }),
        _variant(ev.REPLY_TX, {
            "lam": {"type": ["number", "null"]},
            "tw": {"type": "number", "minimum": 0},
        }),
        _variant(ev.COLLISION, {"frames": {"type": "integer", "minimum": 1}}),
        _variant(ev.DROP, {"why": {"enum": list(_DROP_REASONS)}}),
        _variant(ev.LAMBDA_HAT, {
            "lam": {"type": "number", "exclusiveMinimum": 0},
            "window": {"type": "integer", "minimum": 1},
        }),
        _variant(ev.RATE, {
            "old_hz": {"type": "number", "exclusiveMinimum": 0},
            "new_hz": {"type": "number", "exclusiveMinimum": 0},
            "lam": {"type": "number", "exclusiveMinimum": 0},
        }),
        _variant(ev.FAIL, {}),
        _variant(ev.ENERGY, {
            "cat": {"type": "string"},
            "j": {"type": "number", "minimum": 0},
        }),
        _variant(ev.FAULT_ARM, {"kind": {"enum": list(_FAULT_KINDS)}}),
        _variant(ev.FAULT_FIRE, {
            "kind": {"enum": list(_FAULT_KINDS)},
            "victims": {"type": "integer", "minimum": 0},
        }),
        _variant(ev.FAULT_CLEAR, {"kind": {"enum": list(_FAULT_KINDS)}}),
    ],
}


#: the ``oneOf`` arm for each event type, keyed by its ``ev`` const
_ARMS: Dict[str, Dict[str, Any]] = {
    arm["properties"]["ev"]["const"]: arm for arm in TRACE_EVENT_SCHEMA["oneOf"]
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: object) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


#: JSON Schema type name -> membership test.  As in the draft 2020-12
#: vocabulary, booleans are not numbers and 2.0 is an integer.
_TYPES: Dict[str, Callable[[object], bool]] = {
    "string": lambda value: isinstance(value, str),
    "null": lambda value: value is None,
    "number": _is_number,
    "integer": _is_integer,
}


def _check_value(value: Any, rule: Dict[str, Any]) -> Optional[str]:
    """The first keyword of one property ``rule`` that ``value`` breaks."""
    types = rule.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else types
        if not any(_TYPES[name](value) for name in names):
            return f"has bad type {type(value).__name__}"
    if "const" in rule and value != rule["const"]:
        return f"must be {rule['const']!r}, got {value!r}"
    if "enum" in rule and value not in rule["enum"]:
        return f"must be one of {tuple(rule['enum'])}, got {value!r}"
    if _is_number(value):
        if "minimum" in rule and value < rule["minimum"]:
            return f"must be >= {rule['minimum']}, got {value!r}"
        if "exclusiveMinimum" in rule and value <= rule["exclusiveMinimum"]:
            return f"must be > {rule['exclusiveMinimum']}, got {value!r}"
    return None


def validate_event(event: object) -> Optional[str]:
    """Validate one decoded event against :data:`TRACE_EVENT_SCHEMA`.

    Finds the ``oneOf`` arm whose ``ev`` const matches and applies its
    ``required``, ``additionalProperties`` and per-property ``type``,
    ``enum``, ``const``, ``minimum`` and ``exclusiveMinimum``.  Returns
    ``None`` when the event conforms, or a human-readable description of
    the first violation found.
    """
    if not isinstance(event, dict):
        return f"event must be an object, got {type(event).__name__}"
    ev_type = event.get("ev")
    arm = _ARMS.get(ev_type) if isinstance(ev_type, str) else None
    if arm is None:
        return f"unknown event type {ev_type!r}"
    for name in arm["required"]:
        if name not in event:
            return f"{ev_type}: missing field {name!r}"
    properties = arm["properties"]
    if arm["additionalProperties"] is False:
        extras = [name for name in event if name not in properties]
        if extras:
            return f"{ev_type}: unexpected fields {sorted(extras, key=str)}"
    for name, value in event.items():
        if name in properties:
            problem = _check_value(value, properties[name])
            if problem is not None:
                return f"{ev_type}: field {name!r} {problem}"
    return None


def iter_trace_file(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Stream the decoded events of an NDJSON trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                event: Dict[str, Any] = json.loads(line)
                yield event


def validate_ndjson(
    path: Union[str, Path],
    check: Callable[[object, int], Optional[str]],
    max_errors: int = 20,
    if_empty: Optional[str] = None,
) -> List[str]:
    """Validate every line of an NDJSON file with ``check(obj, index)``.

    ``index`` counts the lines decoded before this one, so a format with a
    header line can tell it apart.  Returns ``"line N: problem"`` strings
    (empty = fully valid), truncated at ``max_errors`` so a systematically
    broken file does not produce megabytes of diagnostics; ``if_empty`` is
    the one error of a file with no decodable line.
    """
    errors: List[str] = []
    decoded = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problem: Optional[str] = f"not valid JSON ({exc})"
            else:
                problem = check(obj, decoded)
                decoded += 1
            if problem is not None:
                errors.append(f"line {lineno}: {problem}")
            if len(errors) >= max_errors:
                errors.append(f"(stopped after {max_errors} errors)")
                break
    if if_empty is not None and decoded == 0 and not errors:
        errors.append(if_empty)
    return errors


def validate_trace_file(path: Union[str, Path], max_errors: int = 20) -> List[str]:
    """Validate every line of an NDJSON trace (see :func:`validate_ndjson`)."""
    return validate_ndjson(
        path, lambda event, _index: validate_event(event), max_errors
    )
