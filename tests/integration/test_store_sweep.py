"""Crash-safe sweeps: the store + resumable executor, end to end.

The headline contract of the result store (``docs/STORE.md``): a sweep
whose process is SIGKILLed mid-flight loses only the runs that were in
flight — re-running the identical sweep against the same store replays
every completed ``(scenario, seed)`` pair from disk (no key is ever
computed twice) and produces aggregates identical to a sweep that was
never interrupted.  Around that headline, the executor's failure ladder:
a worker that dies (``os._exit``) triggers pool resurrection and a free
or charged retry, a worker that hangs is killed by the per-run wall-clock
timeout, and a deterministically failing run is quarantined as a
:class:`RunError` under ``errors="collect"`` with the attempt trail in
telemetry and the sweep manifest.  A record whose payload no longer
matches its digest is quarantined by the replay pass and recomputed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import (
    RunError,
    RetryPolicy,
    Scenario,
    SweepTelemetry,
    expand_seeds,
    result_to_dict,
    run_sweep,
)
from repro.experiments.executor import _guarded_run
from repro.harness import RunOptions
from repro.store import ResultStore

BASE = Scenario(
    num_nodes=12,
    field_size=(12.0, 12.0),
    failure_per_5000s=4.0,
    with_traffic=False,
    max_time_s=1_500.0,
)
SCENARIOS = expand_seeds([BASE], [0, 1, 2, 3])


def _comparable(result):
    payload = result_to_dict(result)
    # Provenance carries wall-clock timings; everything else must match.
    payload["manifest"] = {"protocol": payload["manifest"].get("protocol")}
    payload.pop("profile")
    return payload


def _journal_ops(store_root):
    lines = (Path(store_root) / "journal.ndjson").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# injected-failure run functions (module-level: pool workers must pickle them)
# ---------------------------------------------------------------------------

def _crash_once_run(scenario, *, options):
    """SIGKILL-equivalent worker death, once, for one seed."""
    sentinel = os.environ["REPRO_TEST_CRASH_SENTINEL"]
    if scenario.seed == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(42)
    return _guarded_run(scenario, options=options)


def _hang_run(scenario, *, options):
    """One seed never returns; everyone else is normal."""
    if scenario.seed == 1:
        time.sleep(600.0)
    return _guarded_run(scenario, options=options)


def _poison_run(scenario, *, options):
    """One seed fails deterministically on every attempt."""
    if scenario.seed == 1:
        raise RuntimeError(f"poison seed {scenario.seed}")
    return _guarded_run(scenario, options=options)


# ---------------------------------------------------------------------------
# kill -9 mid-sweep, then resume
# ---------------------------------------------------------------------------

_KILLED_SWEEP_SCRIPT = """\
import sys
from repro.experiments import Scenario, expand_seeds, run_sweep
from repro.harness import RunOptions

base = Scenario(
    num_nodes=12, field_size=(12.0, 12.0), failure_per_5000s=4.0,
    with_traffic=False, max_time_s=1_500.0,
)
run_sweep(
    expand_seeds([base], [0, 1, 2, 3]),
    processes=2,
    options=RunOptions(store_dir=sys.argv[1]),
)
print("SWEEP-FINISHED")
"""


class TestKillResume:
    def test_sigkilled_sweep_resumes_without_recomputation(self, tmp_path):
        store_root = tmp_path / "store"
        journal = store_root / "journal.ndjson"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SWEEP_SCRIPT, str(store_root)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        # Wait for at least one durable record, then SIGKILL the whole
        # process group (parent and pool workers alike) mid-flight.
        deadline = time.monotonic() + 120.0
        try:
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                if journal.exists() and any(
                    e["op"] == "put" for e in _journal_ops(store_root)
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep subprocess made no progress in 120s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

        records_before = {
            e["key"] for e in _journal_ops(store_root) if e["op"] == "put"
        }
        assert records_before, "kill landed before any run completed"

        # Resume: the identical sweep against the surviving store.
        resumed = run_sweep(
            SCENARIOS, processes=2, options=RunOptions(store_dir=str(store_root))
        )
        assert all(not isinstance(r, RunError) for r in resumed)

        # Zero recomputation: no key is ever computed (put) twice, and
        # every record that survived the kill was replayed as a hit.
        ops = _journal_ops(store_root)
        puts = [e["key"] for e in ops if e["op"] == "put"]
        assert len(puts) == len(set(puts)), "a completed run was recomputed"
        hits = {e["key"] for e in ops if e["op"] == "hit"}
        assert records_before <= hits
        assert len(set(puts)) == len(SCENARIOS)

        # Aggregate-identical to a sweep that was never interrupted.
        golden = run_sweep(SCENARIOS)
        assert [_comparable(r) for r in resumed] == [
            _comparable(r) for r in golden
        ]

    def test_second_pass_is_all_hits(self, tmp_path):
        store_root = str(tmp_path / "store")
        options = RunOptions(store_dir=store_root)
        first = run_sweep(SCENARIOS[:2], processes=2, options=options)
        second = run_sweep(SCENARIOS[:2], processes=2, options=options)
        store = ResultStore(store_root, create=False)
        tallies = store.stats()["journal"]
        assert tallies["put"] == 2
        assert tallies["miss"] == 2
        assert tallies["hit"] == 2
        assert [_comparable(r) for r in second] == [
            _comparable(r) for r in first
        ]


# ---------------------------------------------------------------------------
# a corrupt record in a swept store
# ---------------------------------------------------------------------------

class TestCorruptRecord:
    def test_corrupt_record_is_quarantined_and_recomputed(self, tmp_path):
        store_root = str(tmp_path / "store")
        options = RunOptions(store_dir=store_root)
        first = run_sweep(SCENARIOS, processes=2, options=options)

        # Bit rot in one record's payload: its embedded digest no longer
        # matches, so the replay pass must quarantine it, not trust it.
        store = ResultStore(store_root, create=False)
        victim = store.record_path(store.key_for(SCENARIOS[1], options))
        record = json.loads(victim.read_text())
        record["result"]["total_wakeups"] += 1
        victim.write_text(json.dumps(record, sort_keys=True) + "\n")

        telemetry = SweepTelemetry(tmp_path / "telemetry", label="corrupt")
        second = run_sweep(
            SCENARIOS, processes=2, options=options, telemetry=telemetry
        )
        tallies = ResultStore(store_root, create=False).stats()["journal"]
        assert (
            tallies["hit"], tallies["miss"], tallies["put"], tallies["quarantine"]
        ) == (3, 5, 5, 1)
        assert (Path(store_root) / "quarantine" / victim.name).exists()
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["store"] == {"hits": 3, "misses": 1, "evictions": 1}
        assert [_comparable(r) for r in second] == [
            _comparable(r) for r in first
        ]


# ---------------------------------------------------------------------------
# the executor's failure ladder (pooled)
# ---------------------------------------------------------------------------

class TestWorkerDeath:
    def test_worker_crash_restarts_pool_and_completes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "crashed-once")
        )
        telemetry = SweepTelemetry(tmp_path / "telemetry", label="crash")
        results = run_sweep(
            SCENARIOS,
            processes=2,
            errors="collect",
            telemetry=telemetry,
            _run_fn=_crash_once_run,
        )
        assert all(not isinstance(r, RunError) for r in results)
        assert telemetry.pool_restarts >= 1
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["pool_restarts"] >= 1
        assert manifest["quarantined"] == 0

    def test_hung_run_is_timed_out_and_quarantined(self, tmp_path):
        telemetry = SweepTelemetry(tmp_path / "telemetry", label="hang")
        results = run_sweep(
            SCENARIOS,
            processes=2,
            errors="collect",
            telemetry=telemetry,
            retry=RetryPolicy(max_attempts=1, run_timeout_s=1.0),
            _run_fn=_hang_run,
        )
        failures = [r for r in results if isinstance(r, RunError)]
        assert len(failures) == 1
        assert failures[0].scenario.seed == 1
        assert failures[0].error_type == "TimeoutError"
        assert "wall-clock budget" in failures[0].error_message
        assert failures[0].quarantined
        survivors = [r for r in results if not isinstance(r, RunError)]
        assert len(survivors) == 3
        assert telemetry.pool_restarts >= 1
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["quarantined"] == 1

    def test_timed_out_retry_is_counted_once(self, tmp_path):
        # A hung seed gets two attempts, each killed by the timeout: one
        # retry, whatever the pool restarts re-queue for free around it.
        telemetry = SweepTelemetry(tmp_path / "telemetry", label="hang2")
        results = run_sweep(
            SCENARIOS,
            processes=2,
            errors="collect",
            telemetry=telemetry,
            retry=RetryPolicy(max_attempts=2, run_timeout_s=1.0),
            _run_fn=_hang_run,
        )
        (failure,) = [r for r in results if isinstance(r, RunError)]
        assert failure.scenario.seed == 1
        assert failure.attempts == 2
        assert failure.error_type == "TimeoutError"
        assert telemetry.pool_restarts >= 2
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["retries"] == 1
        assert manifest["quarantined"] == 1
        assert manifest["ok"] == 3 and manifest["errors"] == 1

    def test_poison_seed_quarantined_and_never_cached(self, tmp_path):
        store_root = str(tmp_path / "store")
        telemetry = SweepTelemetry(tmp_path / "telemetry", label="poison")
        options = RunOptions(store_dir=store_root, metrics=True)
        results = run_sweep(
            SCENARIOS,
            processes=2,
            options=options,
            errors="collect",
            telemetry=telemetry,
            _run_fn=_poison_run,
        )
        (failure,) = [r for r in results if isinstance(r, RunError)]
        assert failure.scenario.seed == 1
        assert failure.attempts == 2
        assert failure.quarantined
        assert len(failure.trail) == 2
        assert "[2 attempts over" in failure.summary()
        manifest = json.loads(
            (tmp_path / "telemetry" / "manifest.json").read_text()
        )
        assert manifest["quarantined"] == 1
        assert manifest["retries"] == 1
        assert manifest["store"]["hits"] == 0

        # Failures are never cached: a second pass replays the three
        # successes from the store and recomputes (and re-fails) the
        # poison seed.
        second = run_sweep(
            SCENARIOS,
            processes=2,
            options=options,
            errors="collect",
            _run_fn=_poison_run,
        )
        (refailure,) = [r for r in second if isinstance(r, RunError)]
        assert refailure.scenario.seed == 1
        store = ResultStore(store_root, create=False)
        assert store.stats()["journal"]["hit"] == 3
