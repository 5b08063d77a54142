"""The strict-typing gate: ``repro.sim``, ``repro.obs``, ``repro.faults`` and
``repro.harness`` must pass mypy --strict (configured in pyproject.toml; the
remaining packages are on the ignore burn-down list).

Skipped when mypy is not installed (the minimal runtime container); CI
installs the dev extras and runs both this test and the standalone gate.
"""

from pathlib import Path

import pytest

mypy_api = pytest.importorskip("mypy.api")

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_mypy_config_gate_passes():
    stdout, stderr, status = mypy_api.run(
        ["--config-file", str(REPO_ROOT / "pyproject.toml"), "--no-incremental"]
    )
    assert status == 0, f"mypy gate failed:\n{stdout}\n{stderr}"
