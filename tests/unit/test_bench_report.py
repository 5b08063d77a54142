"""The ``--baseline --fail-on-regression`` gate of ``benchmarks/bench_report.py``.

``run_scaling`` is stubbed, so these tests time nothing: they check what
the gate does with a measured scaling curve against baselines that have,
lack, or beat it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_report.py"


def _points(peas_s, duty_cycle_s):
    return {
        "points": [
            {"protocol": "peas", "num_nodes": 1000, "wall_s": peas_s},
            {"protocol": "duty_cycle", "num_nodes": 1000, "wall_s": duty_cycle_s},
        ]
    }


@pytest.fixture
def bench_report(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_report_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(
        module, "run_scaling", lambda node_counts: _points(1.0, 0.5)
    )
    return module


def _gate(module, tmp_path, baseline):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    output = tmp_path / "report.json"
    code = module.main([
        "--scale", "smoke", "--skip-micro", "--scaling-nodes", "1000",
        "--baseline", str(path), "--fail-on-regression",
        "--output", str(output),
    ])
    return code, json.loads(output.read_text())["baseline_comparison"]


def test_baseline_without_scaling_fails_and_names_it(bench_report, tmp_path, capsys):
    code, comparison = _gate(
        bench_report, tmp_path, {"date": "2026-10-19", "micro": {}, "scaling": None}
    )
    assert code == 1
    assert comparison["missing_sections"] == ["scaling"]
    assert comparison["scaling_speedup"] == {}
    assert "baseline lacks measured section(s): ['scaling']" in capsys.readouterr().out


def test_baseline_without_the_measured_points_fails(bench_report, tmp_path):
    code, comparison = _gate(
        bench_report,
        tmp_path,
        {"scaling": {"points": [{"protocol": "peas", "num_nodes": 10000, "wall_s": 9.0}]}},
    )
    assert code == 1
    assert comparison["missing_sections"] == ["scaling"]


def test_baseline_with_scaling_passes(bench_report, tmp_path):
    code, comparison = _gate(bench_report, tmp_path, {"scaling": _points(2.5, 1.0)})
    assert code == 0
    assert comparison["missing_sections"] == []
    assert comparison["scaling_speedup"] == {"peas@1000": 2.5, "duty_cycle@1000": 2.0}


def test_scaling_point_twice_as_slow_fails(bench_report, tmp_path):
    code, comparison = _gate(bench_report, tmp_path, {"scaling": _points(0.4, 0.5)})
    assert code == 1
    assert comparison["scaling_regressions"] == ["peas@1000"]
    assert comparison["missing_sections"] == []
