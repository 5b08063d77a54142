"""Baseline ratchet round-trips, the determinism-refusal policy, and the
self-lint gate: the committed tree must stay clean against the committed
``lint-baseline.json``.
"""

import json
from pathlib import Path

import pytest

from repro.lint import (
    CATEGORY_CONCURRENCY,
    CATEGORY_DETERMINISM,
    Violation,
    lint_paths,
    load_baseline,
    partition_by_baseline,
    save_baseline,
)
from repro.lint.baseline import BaselineError
from repro.lint.cli import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_violation(rule="W403", category=CATEGORY_CONCURRENCY, line=10,
                   source_line="pool.submit(lambda: 1)", path="repro/mod.py"):
    return Violation(
        rule=rule,
        name="some-rule",
        category=category,
        path=path,
        line=line,
        col=4,
        message="test finding",
        source_line=source_line,
    )


# ----------------------------------------------------------------- round-trip
def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    violations = [make_violation(line=10), make_violation(line=20)]
    save_baseline(path, violations)
    baseline = load_baseline(path)
    new, suppressed = partition_by_baseline(violations, baseline)
    assert new == []
    assert suppressed == violations


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


def test_corrupt_and_versioned_baselines_are_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("not json")
    with pytest.raises(BaselineError, match="not valid JSON"):
        load_baseline(path)
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(BaselineError, match="version"):
        load_baseline(path)
    path.write_text(json.dumps({"version": 1, "entries": [{"rule": "X"}]}))
    with pytest.raises(BaselineError, match="fingerprint"):
        load_baseline(path)


def test_occurrence_counting(tmp_path):
    # Two identical findings baselined; a third occurrence of the same
    # fingerprint is NEW (same path + rule + source line => same print).
    path = tmp_path / "baseline.json"
    twice = [make_violation(line=10), make_violation(line=20)]
    save_baseline(path, twice)
    thrice = twice + [make_violation(line=30)]
    assert all(v.fingerprint() == thrice[0].fingerprint() for v in thrice)
    new, suppressed = partition_by_baseline(thrice, load_baseline(path))
    assert len(suppressed) == 2
    assert len(new) == 1


# --------------------------------------------------------------------- policy
def test_determinism_findings_are_refused(tmp_path):
    path = tmp_path / "baseline.json"
    bad = make_violation(rule="D101", category=CATEGORY_DETERMINISM)
    with pytest.raises(BaselineError, match="determinism"):
        save_baseline(path, [bad])
    assert not path.exists()
    save_baseline(path, [bad], allow_determinism=True)
    assert len(load_baseline(path)) == 1


def test_cli_update_refuses_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    baseline = tmp_path / "baseline.json"
    assert run_lint([str(dirty), "--baseline", str(baseline),
                     "--update-baseline"]) == 2
    assert not baseline.exists()


def test_cli_ratchet_suppresses_then_catches_new(tmp_path):
    # W403 (concurrency) is the one rule whose findings may be baselined.
    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\ndef run(pool):\n"
        "    return pool.submit(lambda: 1)\n"
    )
    baseline = tmp_path / "baseline.json"
    assert run_lint([str(dirty), "--root", str(tmp_path),
                     "--baseline", str(baseline), "--update-baseline"]) == 0
    assert run_lint([str(dirty), "--root", str(tmp_path),
                     "--baseline", str(baseline)]) == 0
    dirty.write_text(
        dirty.read_text() +
        "\ndef run_all(pool):\n"
        "    return pool.map(lambda x: x, [1])\n"
    )
    assert run_lint([str(dirty), "--root", str(tmp_path),
                     "--baseline", str(baseline)]) == 1


# ------------------------------------------------------------------ self-lint
def test_tree_is_clean_against_committed_baseline():
    """The acceptance gate: ``peas-lint src/`` must pass on this checkout."""
    findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    new, _suppressed = partition_by_baseline(findings, baseline)
    assert new == [], "\n".join(v.render() for v in new)


def test_committed_baseline_contains_no_determinism_entries():
    payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    assert payload["version"] == 1
    offenders = [e for e in payload["entries"]
                 if e.get("category") == CATEGORY_DETERMINISM]
    assert offenders == []


#: ``repro.lint`` holds only the rules no runtime check covers
#: (determinism and fork safety); a new rule must fit here.
LINT_LINE_BUDGET = 1199


def test_lint_package_stays_within_its_line_budget():
    files = sorted((REPO_ROOT / "src" / "repro" / "lint").glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in files)
    assert lines <= LINT_LINE_BUDGET, (
        f"repro.lint is {lines} lines, over its {LINT_LINE_BUDGET}-line budget"
    )
