"""Self-tests of the benchmark, on tiny versions of every workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.measure import simulate
from perfbench.spans import ENTRY_POINTS, HOOK_POINTS, SpanRecorder, _class

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_workloads_are_runnable():
    # dense-boot is runnable by name but not a benchmark workload (README).
    listed = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert listed == [name for name in workloads.NAMES if name != "dense-boot"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_plain_run_emits_every_end_to_end_metric(name):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=0, scale="tiny")
    # One warm-up simulation and at least one timed one, all checked.
    assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0
    assert _units(result) == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_span_run_emits_every_per_layer_metric(name):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=1, scale="tiny")
    # The plain simulation and the span run must agree on the digest.
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert _units(result) == _declared("per_layer")
    assert result["metrics"]["sim.events"]["value"] > 0


def test_tampered_reference_digest_counts_as_failed():
    references = {"duty-cycle": {"3": {"digest": "0" * 64}}}
    result = run.run_workload(
        "duty-cycle", seed=3, seconds=0.1, trace=0, scale="tiny", references=references
    )
    assert not result["correct"]
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] == 0.0


def test_checker_without_reference_holds_runs_to_the_first_digest():
    checker = run.Checker(None)
    assert checker.check({"digest": "a"})
    assert not checker.check({"digest": "b"})
    assert not checker.check(None)
    assert (checker.attempted, checker.failed) == (3, 2)


def _entry_points() -> dict:
    points = [(module, cls, attr) for module, cls, attr, _span in ENTRY_POINTS]
    points.extend(HOOK_POINTS)
    return {
        (module, cls, attr): _class(module, cls).__dict__[attr]
        for module, cls, attr in points
    }


def test_span_wrappers_are_restored_after_a_run():
    workload = workloads.build("fig9-trace-export", seed=3, scale="tiny")
    before = _entry_points()
    with tempfile.TemporaryDirectory() as tmp:
        plain = simulate(workload, Path(tmp))
        spanned = simulate(workload, Path(tmp), SpanRecorder())
    assert _entry_points() == before
    assert spanned["digest"] == plain["digest"]
    assert spanned["layers"]["obs.events"][0] > 0


def test_span_wrappers_are_restored_when_the_run_raises():
    workloads.use_repo_source()
    before = _entry_points()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError, match="boom"):
        with recorder:
            assert _entry_points() != before
            raise RuntimeError("boom")
    assert _entry_points() == before
    with recorder:
        with pytest.raises(RuntimeError, match="already installed"):
            recorder.install()
    assert _entry_points() == before
