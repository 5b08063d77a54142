"""Unit contracts for ``peas-snapshot/1``: path templating, provenance
enforcement and the atomic file format.  The end-to-end byte-identity
story lives in ``tests/integration/test_snapshot_roundtrip.py`` and
``tests/property/test_prop_snapshot.py``.
"""

import json

import pytest

from repro.experiments import Scenario
from repro.harness import RunOptions, load_snapshot, run, save_snapshot
from repro.harness.snapshot import (
    SNAPSHOT_SCHEMA,
    _check_provenance,
    resume,
)
from repro.obs.manifest import code_fingerprint
from repro.sim import SnapshotError

SCENARIO = Scenario(num_nodes=9, seed=4, protocol="duty_cycle")


# ------------------------------------------------------------- templating
class TestSnapshotPathTemplating:
    def test_placeholders_substitute_like_trace_path(self):
        options = RunOptions(
            trace_path="t-{seed}-{nodes}.ndjson",
            snapshot_path="s-{seed}-{nodes}-{protocol}.json",
        )
        assert options.resolved_trace_path(SCENARIO) == "t-4-9.ndjson"
        assert (
            options.resolved_snapshot_path(SCENARIO)
            == "s-4-9-duty_cycle.json"
        )

    def test_none_resolves_to_none(self):
        assert RunOptions().resolved_snapshot_path(SCENARIO) is None

    @pytest.mark.parametrize("field", ["trace_path", "snapshot_path"])
    def test_unknown_placeholder_names_offender_and_supported(self, field):
        options = RunOptions(**{field: "out-{sed}.json"})
        with pytest.raises(ValueError) as err:
            getattr(options, f"resolved_{field}")(SCENARIO)
        message = str(err.value)
        assert "{sed}" in message
        assert field in message
        for supported in ("{seed}", "{nodes}", "{protocol}"):
            assert supported in message

    @pytest.mark.parametrize("field", ["trace_path", "snapshot_path"])
    def test_positional_placeholder_rejected(self, field):
        options = RunOptions(**{field: "out-{}.json"})
        with pytest.raises(ValueError, match="positional"):
            getattr(options, f"resolved_{field}")(SCENARIO)

    def test_checkpoint_cadence_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RunOptions(snapshot_path="s.json", checkpoint_every_s=0.0)
        with pytest.raises(ValueError, match="requires snapshot_path"):
            RunOptions(checkpoint_every_s=100.0)
        with pytest.raises(ValueError, match="positive"):
            RunOptions(stop_after_s=-1.0)


# ------------------------------------------------------------- provenance
def small_snapshot(tmp_path, **scenario_changes):
    scenario = Scenario(
        num_nodes=9, seed=4, protocol="duty_cycle", with_traffic=False,
        max_time_s=600.0, failure_per_5000s=0.0,
    ).with_(**scenario_changes)
    target = tmp_path / "snap.json"
    run(scenario, RunOptions(snapshot_path=str(target)))
    return target


class TestProvenance:
    def test_roundtrip_and_format_check(self, tmp_path):
        target = small_snapshot(tmp_path)
        document = load_snapshot(target)
        assert document["format"] == SNAPSHOT_SCHEMA
        assert set(document["provenance"]) == {
            "code_fingerprint", "config_digest", "created_at_sim_s",
            "created_events_executed",
        }
        assert document["provenance"]["code_fingerprint"] == code_fingerprint()
        assert not target.with_name("snap.json.tmp").exists()  # atomic write
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "peas-trace/1"}', encoding="utf-8")
        with pytest.raises(SnapshotError, match="peas-snapshot/1"):
            load_snapshot(bad)

    def test_corrupt_config_digest_always_fatal(self, tmp_path):
        document = load_snapshot(small_snapshot(tmp_path))
        document["scenario"]["seed"] = 99  # edited after the fact
        with pytest.raises(SnapshotError, match="corrupt"):
            _check_provenance(document, force=True)

    def test_code_fingerprint_mismatch_refused_unless_forced(self, tmp_path):
        document = load_snapshot(small_snapshot(tmp_path))
        _check_provenance(document)  # written by this very tree
        document["provenance"]["code_fingerprint"] = "0" * 32
        with pytest.raises(SnapshotError, match="force"):
            _check_provenance(document)
        _check_provenance(document, force=True)  # explicit override
        del document["provenance"]["code_fingerprint"]  # an unkeyed snapshot
        with pytest.raises(SnapshotError, match="code fingerprint None"):
            _check_provenance(document)
        _check_provenance(document, force=True)

    def test_resume_refuses_stale_fingerprint_end_to_end(self, tmp_path):
        document = load_snapshot(small_snapshot(tmp_path))
        document["provenance"]["code_fingerprint"] = "0" * 32
        with pytest.raises(SnapshotError, match="code fingerprint"):
            resume(document)
        result = resume(document, force=True)
        assert result.end_time >= 600.0  # ran to the horizon's chunk grid

    def test_save_snapshot_creates_parent_dirs(self, tmp_path):
        nested = tmp_path / "a" / "b" / "snap.json"
        save_snapshot({"format": SNAPSHOT_SCHEMA, "scenario": {}}, nested)
        assert json.loads(nested.read_text())["format"] == SNAPSHOT_SCHEMA
