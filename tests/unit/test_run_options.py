"""Unit contracts for :class:`repro.harness.RunOptions`: per-scenario
trace-path templating, and the atomic writer its sidecars go through."""

import json

import pytest

from repro.experiments import Scenario
from repro.harness import RunOptions
from repro.obs.atomic import atomic_write_text

SCENARIO = Scenario(num_nodes=9, seed=4, protocol="duty_cycle")


class TestTracePathTemplating:
    def test_placeholders_substitute(self):
        options = RunOptions(trace_path="t-{seed}-{nodes}-{protocol}.ndjson")
        assert options.resolved_trace_path(SCENARIO) == "t-4-9-duty_cycle.ndjson"

    def test_none_resolves_to_none(self):
        assert RunOptions().resolved_trace_path(SCENARIO) is None

    def test_unknown_placeholder_names_offender_and_supported(self):
        options = RunOptions(trace_path="out-{sed}.json")
        with pytest.raises(ValueError) as err:
            options.resolved_trace_path(SCENARIO)
        message = str(err.value)
        assert "{sed}" in message
        assert "trace_path" in message
        for supported in ("{seed}", "{nodes}", "{protocol}"):
            assert supported in message

    def test_positional_placeholder_rejected(self):
        options = RunOptions(trace_path="out-{}.json")
        with pytest.raises(ValueError, match="positional"):
            options.resolved_trace_path(SCENARIO)


def test_atomic_write_creates_parent_dirs(tmp_path):
    nested = tmp_path / "a" / "b" / "out.json"
    atomic_write_text(nested, json.dumps({"k": 1}) + "\n")
    assert json.loads(nested.read_text()) == {"k": 1}
    assert [p.name for p in nested.parent.iterdir()] == ["out.json"]
