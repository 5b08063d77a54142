"""Property test: the prebuilt trace encoder is byte-identical to
``json.dumps(..., sort_keys=True, separators=(",", ":"))``.

``repro.obs.events.encode_event`` builds its C encoder once at import
instead of once per event.  Golden traces stay byte-stable only if, for
*any* flat event dict of scalars, both paths agree byte for byte —
including non-finite floats, huge ints, ``numpy.float64`` (a ``float``
subclass) and strings full of quotes, backslashes, control characters,
lone surrogates and non-ASCII text.

Trace records (an event's type, then its constructor's positional fields)
are written by ``repro.obs.events.Encoder``: its five most frequent types
from positional templates filled with memoized text, everything else
through ``encode_event`` of the rebuilt event.  The lines one sink writes
for records of every constructor must be the ``json.dumps`` bytes of
``CONSTRUCTORS[ev](*fields)``, whatever the history of its memos, and the
same whether the sink encodes in place or in its writer process.
"""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import NdjsonSink, events, sinks
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

#: one strategy per event type, drawing records of every arity its
#: constructor accepts
RECORDS = {
    events.STATE: st.one_of(
        st.tuples(st.just(events.STATE), numbers, node_ids, labels, labels),
        st.tuples(
            st.just(events.STATE), numbers, node_ids, labels, labels,
            st.none() | labels,
        ),
        st.tuples(
            st.just(events.STATE), numbers, node_ids, labels, labels,
            st.none() | labels, maybe,
        ),
    ),
    events.PROBE_TX: st.tuples(st.just(events.PROBE_TX), numbers, node_ids, numbers, numbers),
    events.REPLY_TX: st.tuples(st.just(events.REPLY_TX), numbers, node_ids, maybe, numbers),
    events.COLLISION: st.tuples(st.just(events.COLLISION), numbers, node_ids, numbers),
    events.DROP: st.tuples(st.just(events.DROP), numbers, node_ids, labels),
    events.LAMBDA_HAT: st.tuples(
        st.just(events.LAMBDA_HAT), numbers, node_ids, numbers, numbers
    ),
    events.RATE: st.tuples(
        st.just(events.RATE), numbers, node_ids, numbers, numbers, numbers
    ),
    events.FAIL: st.tuples(st.just(events.FAIL), numbers, node_ids),
    events.ENERGY: st.tuples(st.just(events.ENERGY), numbers, node_ids, labels, numbers),
    events.FAULT_ARM: st.tuples(st.just(events.FAULT_ARM), numbers, labels, labels),
    events.FAULT_FIRE: st.tuples(
        st.just(events.FAULT_FIRE), numbers, labels, labels, numbers
    ),
    events.FAULT_CLEAR: st.tuples(st.just(events.FAULT_CLEAR), numbers, labels, labels),
}


def test_every_event_type_has_a_strategy():
    assert set(RECORDS) == set(events.EVENT_TYPES) == set(events.CONSTRUCTORS)


def _sink_lines(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ndjson"
        sink = NdjsonSink(path)
        for record in records:
            sink.emit(record)
        sink.close()
        return path.read_text(encoding="utf-8").split("\n")[:-1]


def _assert_canonical(records):
    lines = _sink_lines(records)
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        event = events.CONSTRUCTORS[record[0]](*record[1:])
        assert line == json.dumps(event, sort_keys=True, separators=(",", ":"))


def _with_shared_times(times, drawn):
    # Few distinct ``t`` objects, so consecutive records share one (the
    # identity memo's hit path) and equal values recur as other objects.
    return [
        (record[0], times[index % len(times)]) + record[2:] for index, record in drawn
    ]


drawn_records = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.one_of(*RECORDS.values())),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(numbers, min_size=1, max_size=3), drawn_records)
def test_sink_lines_match_json_dumps_for_every_constructor(times, drawn):
    _assert_canonical(_with_shared_times(times, drawn))


@settings(max_examples=4, deadline=None)
@given(st.lists(numbers, min_size=1, max_size=3), drawn_records)
def test_multi_batch_trace_matches_json_dumps_on_both_paths(times, drawn):
    """Several full batches: with a second CPU they go to the writer
    process (its own memos, fed by unpickled records), with one CPU they
    are encoded in place; both give the ``json.dumps`` lines."""
    pattern = _with_shared_times(times, drawn)
    records = pattern * (2 * sinks.BATCH_RECORDS // len(pattern) + 1)
    assert len(records) > 2 * sinks.BATCH_RECORDS
    _assert_canonical(records)
    with mock.patch.object(sinks, "_usable_cpus", return_value=1):
        _assert_canonical(records)


def test_sink_memos_are_not_poisoned_by_equal_values():
    """``1.0 == 1 == True`` and ``0.0 == -0.0``: a memo keyed on the value
    alone would write the first one's text for all of them."""
    records = [
        (events.ENERGY, 0.0, 1, "probe_tx", 1.0),
        (events.ENERGY, 0.0, 1, "probe_tx", 1),
        (events.ENERGY, -0.0, 1, "probe_tx", True),
        (events.ENERGY, -0.0, True, "probe_tx", 0.0),
        (events.ENERGY, 0.0, True, "probe_tx", -0.0),
        (events.PROBE_TX, 1, 1, 0, 0),
        (events.PROBE_TX, True, True, False, 1.0),
        (events.COLLISION, float(0), "1", 1),
        (events.COLLISION, -0.0, 1, 1.0),
        (events.STATE, 0.0, 1, "sleeping", "probing", None, 1),
        (events.STATE, -0.0, True, "sleeping", "probing", None, True),
        (events.REPLY_TX, 1.0, 1, None, 1.0),
        (events.REPLY_TX, 1, 1, 1, True),
    ]
    _assert_canonical(records)
