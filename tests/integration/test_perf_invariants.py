"""Golden-seed determinism: the perf fast paths must not change behavior.

The stationary-topology optimizations (neighbor caching, event-kernel fast
loop, channel memoization) are pure optimizations — for a fixed scenario
seed the :class:`RunResult` must be bit-identical whether the neighbor
cache is enabled (default) or disabled (brute-force ``within()`` on every
transmit, via ``REPRO_NEIGHBOR_CACHE=0``).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario

GOLDEN = Scenario(
    num_nodes=80,
    field_size=(25.0, 25.0),
    seed=11,
    failure_per_5000s=5.0,
    measure_gaps=True,
    keep_series=True,
)


#: sha256 of GOLDEN's canonical fingerprint JSON (see ``fingerprint_sha256``).
#: The other tests here compare two runs of the same code, so an output
#: drift that happens identically in both would slip past them; this
#: literal would not.  A deliberate change to the simulation must update it
#: and say why.
GOLDEN_FINGERPRINT_SHA256 = (
    "8dfec5742f7fadd36d27e11ad23ef23c5580e660e56c50a18dcdc71fc9aaff61"
)

#: A baseline whose result leans on the coverage lattice alone: no radio,
#: no PEAS logic, and its K-coverage series vary sample by sample (the
#: 4-coverage lifetime ends at 70 s, well before the horizon).
DUTY_CYCLE = Scenario(
    num_nodes=150,
    seed=3,
    protocol="duty_cycle",
    with_traffic=False,
    max_time_s=1500.0,
    keep_series=True,
)

#: sha256 of DUTY_CYCLE's fingerprint, pinned like GOLDEN's.
DUTY_CYCLE_FINGERPRINT_SHA256 = (
    "94b3b7f00f1b652e6fad56c2319f3b66a04c404eb5be3d1d8494ff3080d22c92"
)


def result_fingerprint(result):
    """Every RunResult field, exact — no tolerances anywhere.

    The manifest is dropped: its timing block (wall clock, peak RSS) is
    volatile by design, and everything reproducible in it (seed, config
    hash, rng streams) is covered by its own tests.  ``profile`` is None
    on unprofiled runs but popped too for symmetry.
    """
    fingerprint = dataclasses.asdict(result)
    fingerprint.pop("manifest", None)
    fingerprint.pop("profile", None)
    return fingerprint


def fingerprint_sha256(result):
    """sha256 of the fingerprint as sorted-key compact JSON (floats keep
    their exact ``repr``, so any drift in any field changes the digest)."""
    text = json.dumps(
        result_fingerprint(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def cached_result():
    return run_scenario(GOLDEN)


class TestGoldenSeedDeterminism:
    def test_rerun_is_bit_identical(self, cached_result):
        again = run_scenario(GOLDEN)
        assert result_fingerprint(again) == result_fingerprint(cached_result)

    def test_result_matches_pinned_digest(self, cached_result):
        assert fingerprint_sha256(cached_result) == GOLDEN_FINGERPRINT_SHA256

    def test_neighbor_cache_off_is_bit_identical(self, cached_result, monkeypatch):
        monkeypatch.setenv("REPRO_NEIGHBOR_CACHE", "0")
        brute = run_scenario(GOLDEN)
        assert result_fingerprint(brute) == result_fingerprint(cached_result)

    def test_golden_result_is_plausible(self, cached_result):
        # Sanity floor so a silently-empty run can't pass the equality tests.
        assert cached_result.total_wakeups > 0
        assert cached_result.coverage_lifetimes.get(3, 0.0) > 0.0
        assert cached_result.energy_total_j > 0.0


class TestDutyCycleBaselinePin:
    def test_result_matches_pinned_digest(self):
        result = run_scenario(DUTY_CYCLE)
        assert result.coverage_lifetimes[4] == 70.0
        assert fingerprint_sha256(result) == DUTY_CYCLE_FINGERPRINT_SHA256
