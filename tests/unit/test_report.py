"""Unit tests for the textual run-report renderer."""

import pytest

from repro.experiments import RunResult, render_report, sparkline, timeline_chart


def make_result(with_series=True):
    result = RunResult(
        num_nodes=320,
        seed=7,
        failure_rate_per_5000s=10.66,
        end_time=15000.0,
        coverage_lifetimes={3: 12000.0, 4: 11000.0, 5: None},
        delivery_lifetime=13000.0,
        total_wakeups=14000,
        energy_total_j=17000.0,
        energy_overhead_j=80.0,
        failures_injected=40,
    )
    if with_series:
        result.series["working_count"] = [
            (float(t), 100.0 + (t % 500) / 10.0) for t in range(0, 15000, 100)
        ]
        result.series["coverage_3"] = [
            (float(t), min(1.0, t / 300.0)) for t in range(0, 15000, 100)
        ]
    result.extras["gap_mean_s"] = 120.0
    result.extras["gap_p95_s"] = 600.0
    return result


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_full_blocks(self):
        line = sparkline([5.0] * 10, width=10)
        assert len(line) == 10
        assert set(line) == {"@"}

    def test_all_zero_series_is_blank(self):
        assert sparkline([0.0] * 10, width=10) == " " * 10

    def test_monotone_series_monotone_ramp(self):
        line = sparkline(list(range(100)), width=10)
        levels = " .:-=+*#%@"
        indices = [levels.index(ch) for ch in line]
        assert indices == sorted(indices)

    def test_width_respected(self):
        assert len(sparkline(list(range(1000)), width=25)) == 25

    def test_short_series(self):
        assert len(sparkline([1.0, 2.0], width=60)) == 2

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)


class TestTimelineChart:
    def test_contains_label_and_stats(self):
        chart = timeline_chart([(0.0, 1.0), (10.0, 3.0)], "demo")
        assert "demo" in chart
        assert "min 1.00" in chart
        assert "max 3.00" in chart
        assert "0s .. 10s" in chart

    def test_empty_samples(self):
        assert "(no samples)" in timeline_chart([], "demo")


class TestRenderReport:
    def test_summary_fields_present(self):
        text = render_report(make_result())
        assert "320 nodes" in text
        assert "3-coverage lifetime: 12000" in text
        assert "5-coverage lifetime: -" in text
        assert "delivery lifetime: 13000" in text
        assert "overhead 80.00 J" in text
        assert "replacement gaps" in text

    def test_charts_rendered_for_series(self):
        text = render_report(make_result())
        assert "working nodes over time" in text
        assert "3-coverage fraction" in text

    def test_hint_without_series(self):
        text = render_report(make_result(with_series=False))
        assert "keep_series=True" in text
