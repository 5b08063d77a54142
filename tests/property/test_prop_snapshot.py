"""Snapshot/restore exactness at *any* point in the event stream.

The integration suite checkpoints at chunk boundaries; these properties
pin the stronger contract: pause the engine after an **arbitrary event
index** (``run_bounded(max_events=k)`` leaves the simulation exactly
between two events), snapshot, restore into a fresh process-equivalent
``LiveRun``, run to completion — and the result must be indistinguishable
from never having stopped:

* the restored run's trace, appended to the checkpointing run's prefix,
  is byte-identical (canonical JSON) to the uninterrupted golden trace;
* every ``RunResult`` metric matches exactly (manifest excluded: it
  carries wall time by design).

Covered for PEAS-with-traffic and one baseline (``duty_cycle``), with the
broadcast channel taking either candidate source: the per-entry cached
lists (``scalar``) or, with ``_SCALAR_AUDIENCE_MAX`` forced below every
audience size, the ``store.listening`` mask prefilter (``columnar``).  Both
are held to the same golden run, taken on the default path.
"""

import contextlib
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import Scenario
from repro.harness import LiveRun, RunOptions, resume, run
from repro.net import neighbors as neighbors_module
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

SCENARIOS = {
    "peas": Scenario(
        num_nodes=20,
        seed=5,
        field_size=(18.0, 18.0),
        failure_per_5000s=8.0,
        with_traffic=True,
        max_time_s=2_000.0,
    ),
    "duty_cycle": Scenario(
        num_nodes=20,
        seed=5,
        protocol="duty_cycle",
        field_size=(18.0, 18.0),
        failure_per_5000s=8.0,
        with_traffic=False,
        max_time_s=2_000.0,
    ),
}

#: every scenario above fires well over this many engine events, so a
#: budget-stop at k <= MAX_EVENT_INDEX is always mid-run
MAX_EVENT_INDEX = 120

#: non-vacuity floor per scenario: PEAS traces protocol activity, the
#: baselines only trace fault-engine events
MIN_TRACE_EVENTS = {"peas": 50, "duty_cycle": 2}


#: ``_SCALAR_AUDIENCE_MAX`` per candidate source: ``None`` keeps the
#: default, ``-1`` sends every broadcast (even an empty one) through the mask
AUDIENCE_MAX = {"scalar": None, "columnar": -1}


@contextlib.contextmanager
def audience_source(audience):
    """Pin the channel's candidate source without pytest's function-scoped
    monkeypatch (which Hypothesis rejects: it would be shared across
    examples)."""
    old = neighbors_module._SCALAR_AUDIENCE_MAX
    forced = AUDIENCE_MAX[audience]
    if forced is not None:
        neighbors_module._SCALAR_AUDIENCE_MAX = forced
    try:
        yield
    finally:
        neighbors_module._SCALAR_AUDIENCE_MAX = old


def comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("manifest", None)  # wall time differs by design
    return payload


def canonical(events):
    return [json.dumps(event, sort_keys=True) for event in events]


_golden = {}


def golden(name):
    if name not in _golden:
        sink = RingBufferSink()
        result = run(SCENARIOS[name], RunOptions(), tracer=Tracer(sink))
        _golden[name] = (comparable(result), canonical(sink.events()))
    return _golden[name]


@pytest.mark.parametrize("audience", ["scalar", "columnar"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=4, deadline=None)
@given(k=st.integers(min_value=1, max_value=MAX_EVENT_INDEX))
def test_snapshot_at_any_event_index_is_exact(name, audience, k):
    want_result, want_trace = golden(name)
    with audience_source(audience):
        scenario = SCENARIOS[name]

        prefix_sink = RingBufferSink()
        live = LiveRun(scenario, RunOptions(), tracer=Tracer(prefix_sink))
        live.start()
        fired = live.sim.run_bounded(
            until=scenario.max_time_s, max_events=k
        )
        assert fired == k, "scenario too small for MAX_EVENT_INDEX"
        snapshot = live.snapshot_state()

        suffix_sink = RingBufferSink()
        restored = resume(snapshot, RunOptions(), tracer=Tracer(suffix_sink))

        got_trace = canonical(prefix_sink.events()) + canonical(
            suffix_sink.events()
        )
        assert got_trace == want_trace
        assert comparable(restored) == want_result
        # guard against a silently empty sink making the bytes vacuous
        assert len(want_trace) >= MIN_TRACE_EVENTS[name]
