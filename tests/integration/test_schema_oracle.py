"""``validate_event`` against an independent JSON Schema implementation.

The hand validator interprets :data:`repro.obs.schema.TRACE_EVENT_SCHEMA`;
``jsonschema`` is the oracle.  Both must give the same verdict on every
event of the fig9 trace that ``perfbench``'s ``fig9-trace-export`` workload
writes (480 nodes, seed 0, 2000 s) and on a battery of one-field mutants
of every event type.
"""

import math

import pytest

from repro.experiments import Scenario
from repro.harness import RunOptions, run
from repro.obs import events
from repro.obs.schema import TRACE_EVENT_SCHEMA, iter_trace_file, validate_event

jsonschema = pytest.importorskip("jsonschema")

#: the fig9 scenario cut to 2000 s, as ``fig9-trace-export`` runs it
FIG9_2000S = Scenario(num_nodes=480, seed=0, max_time_s=2000.0, run_chunk_s=200.0)
FIG9_2000S_EVENTS = 133_368

#: one event of every type (the fault events never occur in fig9)
SAMPLES = [
    events.state(2.0, 3, "working", "dead", cause="energy", rate_hz=0.1),
    events.probe_tx(1.0, 3, 2, 0),
    events.reply_tx(1.0, "anchor0", None, 12.5),
    events.reply_tx(1.0, 4, 0.02, 12.5),
    events.collision(1.0, 3, 2),
    events.drop(1.0, 3, "half_duplex"),
    events.lambda_hat(1.0, 3, 0.05, 1),
    events.rate(1.0, 3, 1.0, 0.5, 0.05),
    events.fail(1.0, 3),
    events.energy(1.0, 3, "probe_tx", 0.0006),
    events.fault_arm(0.0, "fault0", "region_kill"),
    events.fault_fire(5.0, "fault0", "region_kill", 7),
    events.fault_clear(9.0, "fault1", "transient_outage"),
]


@pytest.fixture(scope="module")
def full_schema():
    return jsonschema.Draft202012Validator(TRACE_EVENT_SCHEMA)


def _mutants(event):
    """Per field: negative, zero, two wrong types, missing; plus one
    extra key and one non-object."""
    for name, value in event.items():
        for replacement in (-1.0, 0, [value], True):
            yield {**event, name: replacement}
        yield {key: v for key, v in event.items() if key != name}
    yield {**event, "extra": 1}
    yield [event]


def test_arms_partition_events_by_type():
    # Each arm requires its own ``ev`` const, so an event can match at most
    # one arm and the ``oneOf`` verdict is the verdict of the arm named by
    # its ``ev``.  The trace check below relies on this.
    consts = [arm["properties"]["ev"]["const"] for arm in TRACE_EVENT_SCHEMA["oneOf"]]
    assert len(set(consts)) == len(consts) == len(events.EVENT_TYPES)
    assert all("ev" in arm["required"] for arm in TRACE_EVENT_SCHEMA["oneOf"])


def test_every_fig9_event_agrees_with_jsonschema(tmp_path):
    trace = tmp_path / "fig9.ndjson"
    result = run(FIG9_2000S, RunOptions(trace_path=str(trace)))
    assert result.manifest["trace"]["emitted"] == FIG9_2000S_EVENTS
    # One validator per arm: checking all twelve arms of the ``oneOf`` per
    # event costs about ten times as long and, by the partition above,
    # gives the same verdict.
    arms = {
        arm["properties"]["ev"]["const"]: jsonschema.Draft202012Validator(arm)
        for arm in TRACE_EVENT_SCHEMA["oneOf"]
    }
    count = 0
    disagreements = []
    for event in iter_trace_file(trace):
        count += 1
        ours = validate_event(event) is None
        theirs = arms[event["ev"]].is_valid(event)
        if ours != theirs:
            disagreements.append((event, ours, theirs))
    assert count == FIG9_2000S_EVENTS
    assert disagreements == []


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda e: e["ev"])
def test_mutants_agree_with_jsonschema(sample, full_schema):
    assert validate_event(sample) is None
    assert full_schema.is_valid(sample)
    checked = rejected = 0
    for mutant in _mutants(sample):
        ours = validate_event(mutant)
        assert (ours is None) == full_schema.is_valid(mutant), (mutant, ours)
        checked += 1
        rejected += ours is not None
    # Most mutants break the schema; the rest are values it allows (a zero
    # time, a dropped optional field) and both validators accept them.
    assert rejected > checked // 2


@pytest.mark.parametrize(
    "event",
    [
        {"t": 1.0, "ev": "energy", "node": 1, "cat": "probe_tx", "j": -1.0},
        {"t": 1.0, "ev": "collision", "node": 1, "frames": 0},
        {"t": 1.0, "ev": "lambda_hat", "node": 1, "lam": -2.0, "window": 0},
        {"t": 1.0, "ev": "reply_tx", "node": 1, "lam": None, "tw": -5},
        {"t": 1.0, "ev": "rate", "node": 1, "old_hz": 0, "new_hz": 1.0, "lam": 1.0},
        {"t": 1.0, "ev": "fault_fire", "node": "f", "kind": "crash", "victims": -1},
        {"t": math.nan, "ev": "fail", "node": 1, "extra": None},
    ],
)
def test_bounds_are_enforced(event, full_schema):
    assert validate_event(event) is not None
    assert not full_schema.is_valid(event)
