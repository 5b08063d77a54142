"""Trace summarization: the engine behind ``peas-repro inspect``.

Folds an NDJSON event stream into a :class:`TraceSummary` — per-node state
timelines, top talkers, lambda-hat convergence series, energy by category —
and renders it as a one-screen terminal report.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from . import events as ev
from .schema import iter_trace_file

__all__ = ["TraceSummary", "summarize_trace", "summarize_trace_file", "render_summary"]

#: single-letter mode tags for compact timelines
_MODE_TAGS = {
    "sleeping": "S",
    "probing": "P",
    "working": "W",
    "stunned": "X",
    "dead": "D",
}


@dataclass
class TraceSummary:
    """Aggregates of one trace (all derived, no raw event retention)."""

    n_events: int = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    by_type: Dict[str, int] = field(default_factory=dict)
    #: node -> [(t, from, to, cause)] in emission order
    transitions: Dict[Hashable, List[Tuple[float, str, str, Optional[str]]]] = field(
        default_factory=dict
    )
    probes: Dict[Hashable, int] = field(default_factory=dict)
    replies: Dict[Hashable, int] = field(default_factory=dict)
    #: (t, lambda-hat) from completed worker measurement windows
    lambda_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (t, new rate) from sleeper eq. (2) adaptations
    rate_series: List[Tuple[float, float]] = field(default_factory=list)
    energy_by_cat: Dict[str, float] = field(default_factory=dict)
    collisions: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    failures: List[Tuple[float, Hashable]] = field(default_factory=list)
    #: fault id -> model kind, from ``fault_arm`` events
    fault_arms: Dict[str, str] = field(default_factory=dict)
    #: (t, fault id, kind, victims) per ``fault_fire``, in emission order
    fault_fires: List[Tuple[float, str, str, int]] = field(default_factory=list)
    fault_clears: int = 0

    @property
    def nodes(self) -> List[Hashable]:
        """Every node that emitted anything, sensors first, sorted."""
        seen = set(self.transitions) | set(self.probes) | set(self.replies)
        return sorted(seen, key=lambda n: (isinstance(n, str), n))

    def mode_durations(self, node: Hashable) -> Dict[str, float]:
        """Seconds the node spent in each mode, from its transition log.

        Nodes start Sleeping at t=0 (anchors hop straight through Probing);
        the last mode extends to the trace's final timestamp.
        """
        transitions = self.transitions.get(node, [])
        durations: Dict[str, float] = defaultdict(float)
        mode, since = "sleeping", 0.0
        for t, _src, dst, _cause in transitions:
            durations[mode] += t - since
            mode, since = dst, t
        if self.t_max is not None and self.t_max > since:
            durations[mode] += self.t_max - since
        return dict(durations)

    def top_talkers(self, limit: int = 5) -> List[Tuple[Hashable, int, int]]:
        """Nodes ranked by control frames sent: (node, probes, replies)."""
        totals = Counter(self.probes)
        totals.update(self.replies)
        return [
            (node, self.probes.get(node, 0), self.replies.get(node, 0))
            for node, _ in totals.most_common(limit)
        ]

    def fault_recoveries(self) -> List[Tuple[float, Optional[float]]]:
        """Empirical §3 replacement delay per fault strike.

        For each ``fault_fire`` instant, the delay until *any* node next
        enters Working — the trace-level counterpart of the analytical
        replacement-delay bound (``None``: no working start followed).
        """
        if not self.fault_fires:
            return []
        working_starts = sorted(
            t
            for transitions in self.transitions.values()
            for t, _src, dst, _cause in transitions
            if dst == "working"
        )
        recoveries: List[Tuple[float, Optional[float]]] = []
        for t0, _fid, _kind, _victims in self.fault_fires:
            delay = next((t - t0 for t in working_starts if t > t0), None)
            recoveries.append((t0, delay))
        return recoveries


def summarize_trace(events: Iterable[Dict[str, Any]]) -> TraceSummary:
    """Single-pass fold of decoded events into a :class:`TraceSummary`."""
    summary = TraceSummary()
    by_type: Counter[str] = Counter()
    for event in events:
        summary.n_events += 1
        t = event.get("t", 0.0)
        if summary.t_min is None or t < summary.t_min:
            summary.t_min = t
        if summary.t_max is None or t > summary.t_max:
            summary.t_max = t
        ev_type = event.get("ev")
        by_type[ev_type] += 1
        node = event.get("node")
        if ev_type == ev.STATE:
            summary.transitions.setdefault(node, []).append(
                (t, event["from"], event["to"], event.get("cause"))
            )
        elif ev_type == ev.PROBE_TX:
            summary.probes[node] = summary.probes.get(node, 0) + 1
        elif ev_type == ev.REPLY_TX:
            summary.replies[node] = summary.replies.get(node, 0) + 1
        elif ev_type == ev.LAMBDA_HAT:
            summary.lambda_series.append((t, event["lam"]))
        elif ev_type == ev.RATE:
            summary.rate_series.append((t, event["new_hz"]))
        elif ev_type == ev.ENERGY and not isinstance(node, str):
            # Anchors (str ids) are externally powered: their charges are
            # traced but, as in ``RunResult.energy_by_category``, not summed.
            cat = event["cat"]
            summary.energy_by_cat[cat] = summary.energy_by_cat.get(cat, 0.0) + event["j"]
        elif ev_type == ev.COLLISION:
            summary.collisions += event.get("frames", 1)
        elif ev_type == ev.DROP:
            why = event["why"]
            summary.drops[why] = summary.drops.get(why, 0) + 1
        elif ev_type == ev.FAIL:
            summary.failures.append((t, node))
        elif ev_type == ev.FAULT_ARM:
            summary.fault_arms[node] = event["kind"]
        elif ev_type == ev.FAULT_FIRE:
            summary.fault_fires.append(
                (t, node, event["kind"], event["victims"])
            )
        elif ev_type == ev.FAULT_CLEAR:
            summary.fault_clears += 1
    summary.by_type = dict(by_type)
    return summary


def summarize_trace_file(path: Union[str, Path]) -> TraceSummary:
    """Summarize an NDJSON trace file without holding it in memory."""
    return summarize_trace(iter_trace_file(path))


def _timeline_line(
    summary: TraceSummary, node: Hashable, max_hops: int = 8
) -> str:
    """One node's compact state timeline: mode budget + transition hops."""
    durations = summary.mode_durations(node)
    budget = " ".join(
        f"{_MODE_TAGS[mode]}:{durations[mode]:.0f}s"
        for mode in ("sleeping", "probing", "working", "stunned", "dead")
        if durations.get(mode, 0.0) > 0.0
    )
    transitions = summary.transitions.get(node, [])
    hops: List[str] = []
    shown = transitions if len(transitions) <= max_hops else transitions[-max_hops:]
    if len(transitions) > max_hops:
        hops.append(f"... {len(transitions) - max_hops} earlier ...")
    for t, src, dst, cause in shown:
        hop = f"{_MODE_TAGS[src]}>{_MODE_TAGS[dst]}@{t:.0f}"
        if cause:
            hop += f"({cause})"
        hops.append(hop)
    return f"  node {node!s:>8}  [{budget}]  {' '.join(hops) or '(no transitions)'}"


def render_summary(
    summary: TraceSummary, max_nodes: int = 20, width: int = 60
) -> str:
    """The full ``peas-repro inspect`` report as a string."""
    lines: List[str] = []
    span = (
        f"{summary.t_min:.1f}s .. {summary.t_max:.1f}s"
        if summary.n_events
        else "(empty)"
    )
    lines.append(f"trace: {summary.n_events} events over {span}")
    if summary.by_type:
        counts = "  ".join(f"{k}={v}" for k, v in sorted(summary.by_type.items()))
        lines.append(f"  {counts}")
    if summary.collisions or summary.drops:
        drops = "  ".join(f"{k}={v}" for k, v in sorted(summary.drops.items()))
        lines.append(f"  collisions={summary.collisions}  drops: {drops or 'none'}")
    if summary.failures:
        first = summary.failures[0]
        lines.append(
            f"  failures injected: {len(summary.failures)} "
            f"(first: node {first[1]} @ {first[0]:.0f}s)"
        )

    if summary.fault_arms or summary.fault_fires:
        lines.append("")
        lines.append("fault plan:")
        for fault_id in sorted(summary.fault_arms):
            lines.append(f"  {fault_id}: {summary.fault_arms[fault_id]} armed")
        recoveries = summary.fault_recoveries()
        max_fires = 12
        shown_fires = summary.fault_fires[:max_fires]
        for (t, fault_id, kind, victims), (_t0, delay) in zip(
            shown_fires, recoveries
        ):
            recovered = (
                f"next working start +{delay:.1f}s"
                if delay is not None
                else "no working start after"
            )
            lines.append(
                f"  {fault_id} fired @ {t:.0f}s ({kind}, victims={victims}; "
                f"{recovered})"
            )
        if len(summary.fault_fires) > max_fires:
            lines.append(
                f"  ... {len(summary.fault_fires) - max_fires} more fires "
                f"elided ..."
            )
        if summary.fault_clears:
            lines.append(f"  fault clears (restores): {summary.fault_clears}")

    talkers = summary.top_talkers()
    if talkers:
        lines.append("")
        lines.append("top talkers (control frames):")
        for node, probes, replies in talkers:
            lines.append(
                f"  node {node!s:>8}  probes={probes:<6d} replies={replies:<6d} "
                f"total={probes + replies}"
            )

    # Lazy import: repro.experiments imports the runner (which imports this
    # package), so pulling the chart helpers in at module scope would cycle.
    from ..experiments.report import timeline_chart

    if summary.lambda_series:
        lines.append("")
        lines.append(
            timeline_chart(
                summary.lambda_series,
                "lambda-hat convergence (completed worker windows, Hz)",
                width=width,
                value_format=".4f",
            )
        )
    if summary.rate_series:
        lines.append("")
        lines.append(
            timeline_chart(
                summary.rate_series,
                "sleeper wakeup rates after eq. (2) adaptation (Hz)",
                width=width,
                value_format=".4f",
            )
        )

    if summary.energy_by_cat:
        lines.append("")
        lines.append("energy by category:")
        total = sum(summary.energy_by_cat.values())
        for cat, joules in sorted(
            summary.energy_by_cat.items(), key=lambda item: -item[1]
        ):
            share = (joules / total * 100.0) if total > 0 else 0.0
            lines.append(f"  {cat:>12}  {joules:12.4f} J  ({share:5.1f}%)")

    nodes = summary.nodes
    if nodes:
        lines.append("")
        shown = nodes[:max_nodes]
        lines.append(
            f"per-node state timelines ({len(shown)} of {len(nodes)} nodes):"
        )
        for node in shown:
            lines.append(_timeline_line(summary, node))
        if len(nodes) > max_nodes:
            lines.append(f"  ... {len(nodes) - max_nodes} more nodes elided ...")
    return "\n".join(lines)
