"""Property test: the prebuilt trace encoder is byte-identical to
``json.dumps(..., sort_keys=True, separators=(",", ":"))``.

``repro.obs.events.encode_event`` builds its C encoder once at import
instead of once per event.  Golden traces stay byte-stable only if, for
*any* flat event dict of scalars, both paths agree byte for byte —
including non-finite floats, huge ints, ``numpy.float64`` (a ``float``
subclass) and strings full of quotes, backslashes, control characters,
lone surrogates and non-ASCII text.

``NdjsonSink`` writes its five most frequent event types from per-type
templates filled with memoized text, and everything else through
``encode_event``; the lines one sink writes for events built by every
constructor must be the same ``json.dumps`` bytes, whatever the history of
its memos.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NdjsonSink, events
from repro.obs.events import encode_event

texts = st.text(
    alphabet=st.characters(exclude_categories=()), max_size=16
) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "é"])

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.floats().map(np.float64),
    texts,
)

flat_events = st.dictionaries(texts, scalars, max_size=8)


@given(flat_events)
def test_encode_event_matches_json_dumps(event):
    assert encode_event(event) == json.dumps(
        event, sort_keys=True, separators=(",", ":")
    )


# --- typed lines: NdjsonSink's per-type templates against json.dumps -------

numbers = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 1, True, math.nan, math.inf, -math.inf]),
)
node_ids = st.one_of(
    st.integers(),
    texts,
    st.booleans(),
    st.sampled_from([0, 1, "anchor0", 'quo"te', "nœud", "1"]),
)
labels = texts | st.sampled_from(["probe_tx", "sleeping", "energy"])
maybe = st.none() | numbers

#: one strategy per constructor of ``repro.obs.events``, keyed by event type
CONSTRUCTED = {
    events.STATE: st.builds(
        events.state, numbers, node_ids, labels, labels,
        cause=st.none() | labels, rate_hz=maybe,
    ),
    events.PROBE_TX: st.builds(events.probe_tx, numbers, node_ids, numbers, numbers),
    events.REPLY_TX: st.builds(events.reply_tx, numbers, node_ids, maybe, numbers),
    events.COLLISION: st.builds(events.collision, numbers, node_ids, numbers),
    events.DROP: st.builds(events.drop, numbers, node_ids, labels),
    events.LAMBDA_HAT: st.builds(events.lambda_hat, numbers, node_ids, numbers, numbers),
    events.RATE: st.builds(events.rate, numbers, node_ids, numbers, numbers, numbers),
    events.FAIL: st.builds(events.fail, numbers, node_ids),
    events.ENERGY: st.builds(events.energy, numbers, node_ids, labels, numbers),
    events.FAULT_ARM: st.builds(events.fault_arm, numbers, labels, labels),
    events.FAULT_FIRE: st.builds(events.fault_fire, numbers, labels, labels, numbers),
    events.FAULT_CLEAR: st.builds(events.fault_clear, numbers, labels, labels),
}


def test_every_event_type_has_a_strategy():
    assert set(CONSTRUCTED) == set(events.EVENT_TYPES)


def _sink_lines(event_list):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        sink = NdjsonSink(path)
        for event in event_list:
            sink.emit(event)
        sink.close()
        return path.read_text(encoding="utf-8").split("\n")[:-1]


def _assert_canonical(event_list):
    lines = _sink_lines(event_list)
    assert len(lines) == len(event_list)
    for line, event in zip(lines, event_list):
        assert line == json.dumps(event, sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(numbers, min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2), st.one_of(*CONSTRUCTED.values())),
        min_size=1,
        max_size=12,
    ),
)
def test_sink_lines_match_json_dumps_for_every_constructor(times, drawn):
    # Few distinct ``t`` objects, so consecutive events share one (the
    # identity memo's hit path) and equal values recur as other objects.
    event_list = []
    for index, event in drawn:
        event["t"] = times[index % len(times)]
        event_list.append(event)
    _assert_canonical(event_list)


def test_sink_memos_are_not_poisoned_by_equal_values():
    """``1.0 == 1 == True`` and ``0.0 == -0.0``: a memo keyed on the value
    alone would write the first one's text for all of them."""
    event_list = [
        events.energy(0.0, 1, "probe_tx", 1.0),
        events.energy(0.0, 1, "probe_tx", 1),
        events.energy(-0.0, 1, "probe_tx", True),
        events.energy(-0.0, True, "probe_tx", 0.0),
        events.energy(0.0, True, "probe_tx", -0.0),
        events.probe_tx(1, 1, 0, 0),
        events.probe_tx(True, True, False, 1.0),
        events.collision(float(0), "1", 1),
        events.collision(-0.0, 1, 1.0),
        events.state(0.0, 1, "sleeping", "probing", rate_hz=1),
        events.state(-0.0, True, "sleeping", "probing", rate_hz=True),
        events.reply_tx(1.0, 1, None, 1.0),
        events.reply_tx(1, 1, 1, True),
    ]
    _assert_canonical(event_list)
