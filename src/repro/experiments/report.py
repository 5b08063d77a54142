"""Plain-text run reports: timelines and summaries for a simulation run.

Renders the time series a :class:`~repro.experiments.metrics.RunResult`
carries (when run with ``keep_series=True``) as terminal-friendly ASCII
charts, plus a one-screen summary — the "look at one run" companion to the
sweep tables.

>>> result = run_scenario(Scenario(num_nodes=320, keep_series=True))  # doctest: +SKIP
>>> print(render_report(result))                                       # doctest: +SKIP
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sim.profiling import sparkline
from .metrics import RunResult

__all__ = ["sparkline", "timeline_chart", "render_report"]


def timeline_chart(
    samples: Sequence[Tuple[float, float]],
    label: str,
    width: int = 60,
    value_format: str = ".2f",
) -> str:
    """A labeled sparkline with min/max annotations and the time span."""
    if not samples:
        return f"{label}: (no samples)"
    values = [value for _, value in samples]
    first_time = samples[0][0]
    last_time = samples[-1][0]
    line = sparkline(values, width=width)
    low = min(values)
    high = max(values)
    return (
        f"{label}\n"
        f"  [{line}]\n"
        f"  t: {first_time:.0f}s .. {last_time:.0f}s   "
        f"min {low:{value_format}}  max {high:{value_format}}  "
        f"last {values[-1]:{value_format}}"
    )


def render_report(result: RunResult, width: int = 60) -> str:
    """A one-screen textual report of a run (requires ``keep_series``)."""
    lines: List[str] = []
    lines.append(
        f"PEAS run: {result.num_nodes} nodes, seed {result.seed}, "
        f"failure rate {result.failure_rate_per_5000s:g}/5000s"
    )
    lines.append("-" * 72)
    for k in sorted(result.coverage_lifetimes):
        lines.append(
            f"{k}-coverage lifetime: {_fmt_opt(result.coverage_lifetimes[k])} s"
        )
    lines.append(f"data delivery lifetime: {_fmt_opt(result.delivery_lifetime)} s")
    lines.append(
        f"wakeups: {result.total_wakeups}   "
        f"energy: {result.energy_total_j:.1f} J "
        f"(overhead {result.energy_overhead_j:.2f} J = "
        f"{result.energy_overhead_ratio * 100:.3f}%)"
    )
    lines.append(
        f"failures injected: {result.failures_injected} "
        f"({result.failure_fraction * 100:.1f}% of population)   "
        f"all dead at: {result.end_time:.0f} s"
    )
    if result.extras:
        gap_parts = []
        for key in ("gap_mean_s", "gap_p95_s", "gap_max_s"):
            if key in result.extras:
                gap_parts.append(f"{key[4:-2]} {result.extras[key]:.0f}s")
        if gap_parts:
            lines.append("replacement gaps: " + ", ".join(gap_parts))
    for name, label in (
        ("working_count", "working nodes over time"),
        ("coverage_3", "3-coverage fraction"),
        ("coverage_4", "4-coverage fraction"),
        ("success_ratio", "cumulative data success ratio"),
    ):
        samples = result.series.get(name)
        if samples:
            lines.append("")
            lines.append(timeline_chart(samples, label, width=width))
    if not result.series:
        lines.append("")
        lines.append("(run with keep_series=True for timeline charts)")
    return "\n".join(lines)


def _fmt_opt(value: Optional[float]) -> str:
    return f"{value:.0f}" if value is not None else "-"
