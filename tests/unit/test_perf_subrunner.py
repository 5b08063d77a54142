"""The A/B kernel runner skips kernels the other tree cannot run.

``bench_report.py --against`` times one set of kernel workloads on two
source trees.  A kernel written for this tree may raise ``ImportError``
(a subsystem the older tree predates) or ``TypeError`` (another
signature) there; that side skips it so the other kernels still compare,
while the same error on this tree's side fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.perf

RUNNER = Path(repro.perf.__file__).resolve().parent / "_subrunner.py"

KERNELS = {
    "ok": "return 1",
    "new_api": 'raise TypeError("__init__() missing 2 required positional arguments")',
    "new_subsystem": "raise ImportError(\"cannot import name 'resume'\")",
}


def run_subrunner(tmp_path, names, *flags):
    workloads = tmp_path / "workloads.py"
    workloads.write_text(
        "".join(f"def {name}():\n    {KERNELS[name]}\n\n" for name in names)
        + "KERNEL_WORKLOADS = {"
        + ", ".join(f"{name!r}: {name}" for name in names)
        + "}\n"
    )
    return subprocess.run(
        [sys.executable, str(RUNNER), "--workloads", str(workloads),
         "--rounds", "1", *flags],
        capture_output=True, text=True, check=False,
    )


def test_other_tree_skips_kernels_it_cannot_run(tmp_path):
    proc = run_subrunner(tmp_path, list(KERNELS), "--other-tree")
    assert proc.returncode == 0, proc.stderr
    assert list(json.loads(proc.stdout)["micro"]) == ["ok"]


@pytest.mark.parametrize(
    "kernel, error", [("new_api", "TypeError"), ("new_subsystem", "ImportError")]
)
def test_tree_under_test_fails_on_a_broken_kernel(tmp_path, kernel, error):
    proc = run_subrunner(tmp_path, ["ok", kernel])
    assert proc.returncode != 0
    assert error in proc.stderr
