"""Tracing must not change a run, and the channel must trace in a pinned order.

The broadcast channel picks every audience through one per-candidate loop,
traced or not, so a live tracer only adds ``drop``/``collision`` events.
Two gates hold that:

* a seeded run gives the same result with and without a tracer;
* a dense fixed-power run, where broadcast audiences exceed the list-memo
  size and are masked by the store's ``listening`` column, reproduces a
  pinned trace digest.  The digest was recorded when traced runs still took
  a separate per-candidate path, so it pins the order in which the single
  loop emits half-duplex drops and collisions.
"""

import dataclasses
import hashlib

from repro.core.config import PEASConfig
from repro.experiments import Scenario, run_scenario
from repro.net.neighbors import _SCALAR_AUDIENCE_MAX, NeighborCache
from repro.obs import NdjsonSink, RingBufferSink, Tracer

SCENARIO = Scenario(
    num_nodes=48,
    seed=13,
    field_size=(30.0, 30.0),
    failure_per_5000s=5.0,
    with_traffic=True,
    max_time_s=2_500.0,
)

#: 300 nodes on 15 x 15 m broadcasting at the full 10 m range: the central
#: nodes' audiences hold nearly the whole field
DENSE = Scenario(
    num_nodes=300,
    seed=7,
    field_size=(15.0, 15.0),
    config=PEASConfig(fixed_power=True),
    failure_per_5000s=0.0,
    with_traffic=False,
    max_time_s=10.0,
    run_chunk_s=10.0,
)

#: sha256 of DENSE's NDJSON trace bytes (2,469,744 bytes; 9,419 collision
#: and 557 half-duplex drop events)
DENSE_TRACE_SHA256 = "b2c569ea9eefb677eb7d18243b571411300f054a16d6271ae99fa5040fb782e9"


def comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("manifest", None)  # carries wall time, differs by design
    return payload


def test_traced_and_untraced_runs_are_identical():
    sink = RingBufferSink()
    traced = run_scenario(SCENARIO, tracer=Tracer(sink), sanitize=True)
    untraced = run_scenario(SCENARIO, sanitize=True)
    assert comparable(traced) == comparable(untraced)
    # guard against a silently empty sink making the comparison vacuous
    assert len(sink.events()) > 100


def test_dense_fixed_power_trace_matches_pinned_digest(tmp_path, monkeypatch):
    audiences = []
    lookup = NeighborCache.columnar_entry

    def recording_lookup(self, item, radius):
        entry = lookup(self, item, radius)
        audiences.append(len(entry[0]))
        return entry

    monkeypatch.setattr(NeighborCache, "columnar_entry", recording_lookup)
    path = tmp_path / "dense.ndjson"
    tracer = Tracer(NdjsonSink(path))
    try:
        traced = run_scenario(DENSE, tracer=tracer)
    finally:
        tracer.close()
    assert max(audiences) > _SCALAR_AUDIENCE_MAX
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DENSE_TRACE_SHA256
    assert comparable(run_scenario(DENSE)) == comparable(traced)
