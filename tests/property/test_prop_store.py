"""Property tests for the result store's honesty contract.

Two invariants, over *arbitrary* ``peas-result/1`` payloads:

* **Round trip** — any well-formed :class:`RunResult` put into the store
  comes back observably identical (canonical ``result_to_dict`` form).
* **Never trust a corrupt record** — flip any single bit anywhere in a
  stored record file and ``get`` must either still return the identical
  result (the flip landed somewhere semantically dead, which canonical
  JSON makes rare) or return ``None`` and move the file to quarantine.
  It must *never* return a result that differs from what was stored —
  that is the whole point of the embedded payload digest.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import RunResult, Scenario, result_to_dict
from repro.store import ResultStore

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
nonneg = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)


@st.composite
def run_results(draw):
    return RunResult(
        num_nodes=draw(st.integers(min_value=1, max_value=2000)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        failure_rate_per_5000s=draw(nonneg),
        end_time=draw(nonneg),
        coverage_lifetimes=draw(st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.one_of(st.none(), nonneg), max_size=4,
        )),
        delivery_lifetime=draw(st.one_of(st.none(), nonneg)),
        total_wakeups=draw(st.integers(min_value=0, max_value=10**9)),
        energy_total_j=draw(nonneg),
        energy_overhead_j=draw(nonneg),
        energy_by_category=draw(st.dictionaries(names, nonneg, max_size=4)),
        failures_injected=draw(st.integers(min_value=0, max_value=2000)),
        counters=draw(st.dictionaries(
            names, st.integers(min_value=0, max_value=10**9), max_size=4,
        )),
        channel_counters=draw(st.dictionaries(
            names, st.integers(min_value=0, max_value=10**9), max_size=4,
        )),
        series=draw(st.dictionaries(
            names,
            st.lists(st.tuples(nonneg, finite), max_size=4),
            max_size=2,
        )),
        extras=draw(st.dictionaries(names, finite, max_size=4)),
    )


def _fresh_store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("store") / "s")


class TestStoreHonesty:
    @settings(max_examples=40, deadline=None)
    @given(result=run_results())
    def test_round_trip_is_exact(self, tmp_path_factory, result):
        store = _fresh_store(tmp_path_factory)
        scenario = Scenario(num_nodes=result.num_nodes, seed=result.seed)
        key = store.key_for(scenario)
        store.put(key, result, scenario)
        restored = store.get(key)
        assert restored is not None
        assert result_to_dict(restored) == result_to_dict(result)

    @settings(max_examples=40, deadline=None)
    @given(result=run_results(), data=st.data())
    def test_any_single_bit_flip_is_never_trusted(
        self, tmp_path_factory, result, data
    ):
        store = _fresh_store(tmp_path_factory)
        scenario = Scenario(num_nodes=result.num_nodes, seed=result.seed)
        key = store.key_for(scenario)
        store.put(key, result, scenario)
        golden = result_to_dict(result)

        path = store.record_path(key)
        raw = bytearray(path.read_bytes())
        position = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        raw[position] ^= 1 << bit
        path.write_bytes(bytes(raw))

        restored = store.get(key)
        if restored is None:
            # Corruption detected: the record must be quarantined (or the
            # flip made the file vanish from the read path entirely).
            if not path.exists():
                assert (
                    list(store.quarantine_dir.iterdir())
                    or store.quarantined > 0
                )
        else:
            # The flip landed somewhere semantically dead (e.g. turned one
            # JSON whitespace byte into another): the result must still be
            # byte-for-byte the stored one.
            assert result_to_dict(restored) == golden

    @settings(max_examples=20, deadline=None)
    @given(result=run_results())
    def test_canonical_digest_is_order_insensitive(
        self, tmp_path_factory, result
    ):
        # Rewriting the record with reordered keys (same content) must
        # still verify: the digest covers canonical JSON, not file bytes.
        store = _fresh_store(tmp_path_factory)
        scenario = Scenario(num_nodes=result.num_nodes, seed=result.seed)
        key = store.key_for(scenario)
        store.put(key, result, scenario)
        path = store.record_path(key)
        record = json.loads(path.read_text(encoding="utf-8"))
        reordered = {k: record[k] for k in reversed(list(record))}
        path.write_text(json.dumps(reordered), encoding="utf-8")
        restored = store.get(key)
        assert restored is not None
        assert result_to_dict(restored) == result_to_dict(result)
