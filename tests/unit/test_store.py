"""Unit tests for ``repro.store`` and the executor's retry policy.

The store's whole value is its honesty contract: a record is either a
verified ``peas-result/1`` document or it is quarantined and recomputed.
These tests pin the key derivation (what may and may not share a cache
slot), the read-side verification (bit rot, truncation, schema drift,
wrong-slot records), the journal audit trail that ``peas-repro store
stats`` and CI rely on, and the GC's reachability rule.  The
:class:`~repro.experiments.RetryPolicy` tests pin its two fields'
defaults and validation.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import RetryPolicy, RunError, Scenario, result_to_dict
from repro.harness import RunOptions
from repro.store import (
    RESULT_SCHEMA,
    ResultStore,
    StoreError,
    options_signature,
    store_eligible,
)
from tests.unit.test_serialize import make_result

SCENARIO = Scenario(num_nodes=40, seed=3, with_traffic=False)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestLayoutAndAttach:
    def test_create_writes_marker_and_dirs(self, store):
        marker = json.loads(store.marker_path.read_text(encoding="utf-8"))
        assert marker["schema"] == "peas-store/1"
        assert store.results_dir.is_dir()
        assert store.quarantine_dir.is_dir()

    def test_attach_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no peas-store/1 store"):
            ResultStore(tmp_path / "absent", create=False)

    def test_attach_rejects_foreign_marker(self, tmp_path):
        root = tmp_path / "other"
        root.mkdir()
        (root / "store.json").write_text('{"schema": "something-else/9"}\n')
        with pytest.raises(StoreError, match="not a peas-store/1 store"):
            ResultStore(root)

    def test_reattach_existing_store(self, store):
        again = ResultStore(store.root, create=False)
        assert again.root == store.root


class TestKeyDerivation:
    def test_key_is_stable_across_instances(self, store, tmp_path):
        other = ResultStore(tmp_path / "elsewhere")
        assert store.key_for(SCENARIO) == other.key_for(SCENARIO)

    def test_key_varies_with_seed_and_scenario(self, store):
        base = store.key_for(SCENARIO)
        assert store.key_for(SCENARIO.with_(seed=4)) != base
        assert store.key_for(SCENARIO.with_(num_nodes=41)) != base

    def test_key_varies_with_payload_affecting_options(self, store):
        base = store.key_for(SCENARIO, RunOptions())
        assert store.key_for(SCENARIO, RunOptions(profile=True)) != base
        assert store.key_for(SCENARIO, RunOptions(metrics=True)) != base
        assert store.key_for(SCENARIO, RunOptions(sanitize=True)) != base

    def test_none_options_match_defaults(self, store):
        assert store.key_for(SCENARIO, None) == store.key_for(SCENARIO, RunOptions())


class TestEligibility:
    def test_plain_and_none_options_eligible(self):
        assert store_eligible(None)
        assert store_eligible(RunOptions())
        assert store_eligible(RunOptions(metrics=True, profile=True))

    @pytest.mark.parametrize("kwargs", [
        {"trace_path": "t.ndjson"},
        {"trace_path": "t.ndjson", "metrics": True},
        {"trace_path": "t.ndjson", "store_dir": "cache"},
        {"trace_path": "t_{seed}_{protocol}.ndjson", "profile": True,
         "sanitize": True},
    ])
    def test_artifact_producing_runs_ineligible(self, kwargs):
        assert not store_eligible(RunOptions(**kwargs))

    def test_signature_covers_exactly_the_payload_knobs(self):
        assert options_signature(None) == {
            "profile": False, "sanitize": False, "metrics": False,
        }
        assert options_signature(RunOptions(profile=True))["profile"] is True


class TestRoundTrip:
    def test_put_then_get_round_trips(self, store):
        result = make_result()
        key = store.key_for(SCENARIO)
        store.put(key, result, SCENARIO)
        restored = store.get(key)
        assert restored is not None
        assert result_to_dict(restored) == result_to_dict(result)

    def test_absent_key_is_silent_none(self, store):
        assert store.get("0" * 32) is None
        assert not store.journal_path.exists()

    def test_hit_and_miss_accounting(self, store):
        key = store.key_for(SCENARIO)
        store.note_miss(key)
        store.put(key, make_result(), SCENARIO)
        store.get(key)
        tallies = store.stats()["journal"]
        assert (tallies["miss"], tallies["put"], tallies["hit"]) == (1, 1, 1)


def _corrupt(path, mutate):
    record = json.loads(path.read_text(encoding="utf-8"))
    mutate(record)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


class TestCorruption:
    def _stored(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        return key, store.record_path(key)

    def _assert_quarantined(self, store, key, reason):
        assert store.get(key) is None
        assert not store.record_path(key).exists()
        assert store.quarantined == 1
        quarantined = list(store.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        lines = [json.loads(line) for line in
                 store.journal_path.read_text().splitlines()]
        entry = [e for e in lines if e["op"] == "quarantine"]
        assert entry and entry[0]["reason"] == reason

    def test_flipped_payload_bit_is_quarantined(self, store):
        key, path = self._stored(store)
        _corrupt(path, lambda r: r["result"].update(total_wakeups=999999))
        self._assert_quarantined(store, key, "digest-mismatch")

    def test_truncated_record_is_quarantined(self, store):
        key, path = self._stored(store)
        path.write_text(path.read_text()[: 50], encoding="utf-8")
        self._assert_quarantined(store, key, "undecodable")

    def test_non_utf8_record_is_quarantined(self, store):
        key, path = self._stored(store)
        raw = bytearray(path.read_bytes())
        raw[10] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(raw))
        self._assert_quarantined(store, key, "undecodable")

    def test_foreign_schema_is_quarantined(self, store):
        key, path = self._stored(store)
        _corrupt(path, lambda r: r.update(schema="peas-result/999"))
        self._assert_quarantined(store, key, "schema-mismatch")

    def test_record_in_wrong_slot_is_quarantined(self, store):
        key, path = self._stored(store)
        wrong = "f" * 32
        path.rename(store.record_path(wrong))
        self._assert_quarantined(store, wrong, "schema-mismatch")

    def test_doctored_digest_over_bad_payload_is_caught(self, store):
        # An attacker/bitrot fixing up the digest still fails: the payload
        # must deserialize into a RunResult.
        key, path = self._stored(store)

        def mutate(record):
            record["result"] = {"schema": RESULT_SCHEMA, "garbage": True}
            from repro.store import _payload_digest

            record["digest"] = _payload_digest(record["result"])

        _corrupt(path, mutate)
        self._assert_quarantined(store, key, "payload-invalid")

    def test_quarantine_never_deletes_evidence(self, store):
        key, path = self._stored(store)
        original = path.read_text(encoding="utf-8")
        _corrupt(path, lambda r: r.update(digest="0" * 64))
        corrupted = path.read_text(encoding="utf-8")
        store.get(key)
        (survivor,) = store.quarantine_dir.iterdir()
        assert survivor.read_text(encoding="utf-8") == corrupted
        assert original != corrupted


class TestVerify:
    def test_clean_store_verifies_ok(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        report = store.verify()
        assert report["checked"] == 1
        assert report["ok"] == 1
        assert report["quarantined"] == []

    def test_verify_quarantines_and_names_corrupt_records(self, store):
        good = store.key_for(SCENARIO)
        bad = store.key_for(SCENARIO.with_(seed=9))
        store.put(good, make_result(), SCENARIO)
        store.put(bad, make_result(), SCENARIO.with_(seed=9))
        _corrupt(store.record_path(bad), lambda r: r.update(digest="0" * 64))
        report = store.verify()
        assert report["quarantined"] == [f"{bad}.json"]
        assert report["ok"] == 1
        # verify() is an audit, not a lookup: no hit is journaled.
        assert store.stats()["journal"]["hit"] == 0

    def test_verified_good_record_still_readable(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        store.verify()
        assert store.get(key) is not None


class TestGc:
    def test_current_fingerprint_records_survive(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        report = store.gc()
        assert report["evicted"] == 0
        assert store.get(key) is not None

    def test_foreign_fingerprint_records_evicted(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        _corrupt(
            store.record_path(key),
            lambda r: r.update(code_fingerprint="deadbeef"),
        )
        report = store.gc()
        assert report["evicted"] == 1
        assert report["files"] == [f"{key}.json"]
        assert not store.record_path(key).exists()
        assert store.stats()["journal"]["evict"] == 1

    def test_drop_all_clears_records(self, store):
        store.put(store.key_for(SCENARIO), make_result(), SCENARIO)
        store.put(
            store.key_for(SCENARIO.with_(seed=9)), make_result(),
            SCENARIO.with_(seed=9),
        )
        report = store.gc(drop_all=True)
        assert report["evicted"] == 2
        assert not list(store.results_dir.iterdir())

    def test_gc_never_touches_quarantine(self, store):
        key = store.key_for(SCENARIO)
        store.put(key, make_result(), SCENARIO)
        _corrupt(store.record_path(key), lambda r: r.update(digest="0" * 64))
        store.get(key)
        (evidence,) = store.quarantine_dir.iterdir()
        store.gc(drop_all=True)
        assert evidence.exists()


class TestStats:
    def test_stats_shape(self, store):
        store.put(store.key_for(SCENARIO), make_result(), SCENARIO)
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["record_bytes"] > 0
        assert stats["stale_records"] == 0
        assert stats["quarantined_files"] == 0
        assert stats["journal"]["put"] == 1


class TestRetryPolicy:
    def test_defaults_are_two_attempts(self):
        assert RetryPolicy().max_attempts == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"run_timeout_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestRunErrorSummary:
    def _error(self, **kwargs):
        return RunError(
            scenario=SCENARIO,
            error_type="RuntimeError",
            error_message="boom",
            traceback_text="Traceback\n  line1\n  line2\nRuntimeError: boom\n",
            **kwargs,
        )

    def test_single_attempt_has_no_retry_line(self):
        assert "attempts" not in self._error().summary()

    def test_retried_error_reports_attempts_and_wall_clock(self):
        text = self._error(attempts=3, retry_wall_s=1.25).summary()
        assert "[3 attempts over 1.2s of retries]" in text


#: ``repro.experiments`` plus ``repro.store``: the sweep driver, its
#: executor and the result store.  Each retry knob, store access path and
#: failure mode here must be justified by a failure it guards against; new
#: machinery has to fit under this budget.
SWEEP_LINE_BUDGET = 2641


def test_sweep_and_store_stay_within_their_line_budget():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    files = sorted((src / "experiments").glob("*.py")) + [src / "store.py"]
    lines = sum(len(path.read_text().splitlines()) for path in files)
    assert lines <= SWEEP_LINE_BUDGET, (
        f"repro.experiments + repro.store are {lines} lines, over their "
        f"{SWEEP_LINE_BUDGET}-line budget"
    )
