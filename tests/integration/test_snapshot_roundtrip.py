"""End-to-end ``peas-snapshot/1`` contracts through the file surface.

* A checkpointed-then-restored run's NDJSON trace, concatenated after the
  checkpointing run's prefix, is **byte-identical** to the uninterrupted
  run's trace file, and the restored ``RunResult`` metrics match exactly.
"""

import dataclasses

from repro.experiments import Scenario
from repro.harness import RunOptions, load_snapshot, resume, run

SCENARIO = Scenario(
    num_nodes=24,
    seed=3,
    field_size=(16.0, 16.0),
    failure_per_5000s=12.0,
    with_traffic=True,
    max_time_s=4_000.0,
)


def comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("manifest", None)  # wall time differs by design
    return payload


class TestCheckpointRestore:
    def test_stitched_trace_bytes_and_metrics_match_uninterrupted(
        self, tmp_path
    ):
        full = run(
            SCENARIO, RunOptions(trace_path=str(tmp_path / "full.ndjson"))
        )
        run(
            SCENARIO,
            RunOptions(
                trace_path=str(tmp_path / "prefix.ndjson"),
                snapshot_path=str(tmp_path / "ck.json"),
                stop_after_s=1_200.0,
            ),
        )
        restored = resume(
            tmp_path / "ck.json",
            RunOptions(trace_path=str(tmp_path / "suffix.ndjson")),
        )
        stitched = (tmp_path / "prefix.ndjson").read_bytes() + (
            tmp_path / "suffix.ndjson"
        ).read_bytes()
        want = (tmp_path / "full.ndjson").read_bytes()
        assert len(want) > 1_000  # non-vacuous: the run actually traced
        assert stitched == want
        assert comparable(restored) == comparable(full)

    def test_checkpoint_cadence_rewrites_one_file(self, tmp_path):
        target = tmp_path / "ck-{seed}.json"
        full = run(SCENARIO, RunOptions())
        run(
            SCENARIO,
            RunOptions(
                snapshot_path=str(target), checkpoint_every_s=1_500.0
            ),
        )
        resolved = tmp_path / "ck-3.json"  # {seed} templating applies
        document = load_snapshot(resolved)
        provenance = document["provenance"]
        # last checkpoint wrote at a late chunk boundary, not t=0
        assert provenance["created_at_sim_s"] >= 1_500.0
        assert provenance["created_events_executed"] > 0
        assert not resolved.with_name(resolved.name + ".tmp").exists()
        restored = resume(resolved)
        assert comparable(restored) == comparable(full)
