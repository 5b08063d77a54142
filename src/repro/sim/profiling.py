"""Engine profiling: per-event-type dispatch counts and wall-time stats.

An :class:`EngineProfiler` attaches to a :class:`~repro.sim.engine.Simulator`
(usually via ``with sim.profiled() as prof:``) and records, per event label:

* dispatch count and total/min/max wall time,
* a log2-bucketed wall-time histogram (microsecond resolution),

plus engine gauges sampled periodically: heap size, live events, tombstone
count.  The instrumented run loop is a *separate* code path — when no
profiler is attached the engine's fast loops are untouched.

Events are keyed by their ``label`` (every scheduling site in the tree
labels its events); unlabeled events fall back to the callback's qualified
name.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["EngineProfiler", "LabelStats", "sparkline"]

#: histogram buckets: [<1us, <2us, <4us, ... <~0.5s, rest]
_HIST_BUCKETS = 30
#: gauge sampling period, in executed events
_GAUGE_PERIOD = 256
#: gauge time-series cap: when reached, every other sample is dropped and
#: the keep-stride doubles, so memory stays bounded while the series keeps
#: covering the whole run at halving resolution
_GAUGE_SERIES_CAP = 2048
#: sparkline levels, lowest to highest
_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line character chart of a value series.

    Values are resampled to ``width`` buckets (bucket mean) and mapped onto
    a 10-level character ramp between the series min and max.  A flat
    series renders at the top level, or blank when it is flat at zero (a
    run that never left a tombstone).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not values:
        return ""
    buckets: List[float] = []
    per_bucket = max(1, len(values) // width)
    for start in range(0, len(values), per_bucket):
        chunk = values[start : start + per_bucket]
        buckets.append(sum(chunk) / len(chunk))
        if len(buckets) == width:
            break
    low = min(buckets)
    high = max(buckets)
    if high <= low:
        return _SPARK_LEVELS[-1 if high else 0] * len(buckets)
    scale = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[int(round((value - low) / (high - low) * scale))]
        for value in buckets
    )


class LabelStats:
    """Wall-time accounting for one event label."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.hist = [0] * _HIST_BUCKETS

    def record(self, dt: float) -> None:
        self.count += 1
        self.total_s += dt
        if dt < self.min_s:
            self.min_s = dt
        if dt > self.max_s:
            self.max_s = dt
        micros = int(dt * 1e6)
        bucket = micros.bit_length()  # 0us -> 0, 1us -> 1, 2-3us -> 2, ...
        self.hist[bucket if bucket < _HIST_BUCKETS else _HIST_BUCKETS - 1] += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_ms": round(self.total_s * 1e3, 3),
            "mean_us": round(self.total_s / self.count * 1e6, 2) if self.count else 0.0,
            "min_us": round(self.min_s * 1e6, 2) if self.count else 0.0,
            "max_us": round(self.max_s * 1e6, 2),
            # Trailing empty buckets are elided; bucket i covers
            # [2^(i-1), 2^i) microseconds (bucket 0: sub-microsecond).
            "hist_log2_us": self.hist[: _last_nonzero(self.hist) + 1],
        }


def _last_nonzero(buckets: List[int]) -> int:
    for i in range(len(buckets) - 1, -1, -1):
        if buckets[i]:
            return i
    return 0


class EngineProfiler:
    """Collects per-label dispatch stats and engine gauges for one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.labels: Dict[str, LabelStats] = {}
        self.events = 0
        self.wall_s = 0.0
        self.max_heap = 0
        self.max_live = 0
        self.max_tombstones = 0
        #: decimated ``(sim_time, heap_size, live)`` samples across the run
        self.gauge_series: List[Tuple[float, int, int]] = []
        self._gauge_stride = 1
        self._gauge_skip = 0

    # ------------------------------------------------------------ recording
    def record(self, label: str, dt: float) -> None:
        stats = self.labels.get(label)
        if stats is None:
            stats = self.labels[label] = LabelStats()
        stats.record(dt)
        self.events += 1
        self.wall_s += dt

    def sample_gauges(
        self, heap_size: int, live: int, now: Optional[float] = None
    ) -> None:
        """Record queue occupancy; called by the engine every
        ``_GAUGE_PERIOD`` events and at attach/detach.  When the engine
        passes its clock, the sample also extends :attr:`gauge_series`
        (decimated: past ``_GAUGE_SERIES_CAP`` points, every other sample
        is dropped and the keep-stride doubles)."""
        if heap_size > self.max_heap:
            self.max_heap = heap_size
        if live > self.max_live:
            self.max_live = live
        tombstones = heap_size - live
        if tombstones > self.max_tombstones:
            self.max_tombstones = tombstones
        if now is not None:
            if self._gauge_skip > 0:
                self._gauge_skip -= 1
            else:
                series = self.gauge_series
                series.append((now, heap_size, live))
                if len(series) >= _GAUGE_SERIES_CAP:
                    del series[1::2]
                    self._gauge_stride *= 2
                self._gauge_skip = self._gauge_stride - 1

    # ------------------------------------------------------------ reporting
    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible breakdown, labels sorted by total self-time."""
        ordered = sorted(
            self.labels.items(), key=lambda item: -item[1].total_s
        )
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 4),
            "gauges": {
                "max_heap": self.max_heap,
                "max_live": self.max_live,
                "max_tombstones": self.max_tombstones,
                # [sim_time, heap_size, live] triples; JSON has no tuples
                "series": [
                    [round(t, 6), heap, live]
                    for t, heap, live in self.gauge_series
                ],
            },
            "by_label": {label: stats.as_dict() for label, stats in ordered},
        }

    def report(self, limit: Optional[int] = None) -> str:
        """A terminal-friendly self-time breakdown table."""
        return self.render(self.as_dict(), limit=limit)

    @staticmethod
    def render_gauges(profile: Dict[str, Any]) -> str:
        """The "gauges" section: queue occupancy over simulated time.

        Three sparklines (heap size, live events, tombstone ratio) over the
        decimated gauge series, or just the high-water summary for profiles
        recorded before the series existed."""
        gauges = profile.get("gauges", {})
        lines = [
            f"gauges: max heap {gauges.get('max_heap', 0)}, "
            f"max live {gauges.get('max_live', 0)}, "
            f"max tombstones {gauges.get('max_tombstones', 0)}",
        ]
        series = gauges.get("series") or []
        if series:
            heaps = [float(s[1]) for s in series]
            lives = [float(s[2]) for s in series]
            ratios = [
                (heap - live) / heap if heap else 0.0
                for heap, live in zip(heaps, lives)
            ]
            span = f"t=[{series[0][0]:.0f}s..{series[-1][0]:.0f}s]"
            lines.append(
                f"  heap size  |{sparkline(heaps)}| peak {int(max(heaps))} {span}"
            )
            lines.append(
                f"  live evts  |{sparkline(lives)}| peak {int(max(lives))}"
            )
            lines.append(
                f"  tombstone% |{sparkline(ratios)}| peak {max(ratios) * 100:.0f}%"
            )
        return "\n".join(lines)

    @staticmethod
    def render(profile: Dict[str, Any], limit: Optional[int] = None) -> str:
        """Render an :meth:`as_dict` payload (e.g. ``RunResult.profile``)."""
        wall_ms = profile.get("wall_s", 0.0) * 1e3
        total_ms = wall_ms or 1e-9
        lines = [
            f"engine profile: {profile.get('events', 0)} events, "
            f"{wall_ms:.1f} ms event self-time",
        ]
        lines.extend(
            "  " + line for line in EngineProfiler.render_gauges(profile).splitlines()
        )
        lines.append(
            f"  {'label':<22} {'count':>9} {'total ms':>10} {'mean us':>9} "
            f"{'max us':>9} {'share':>7}"
        )
        by_label = list(profile.get("by_label", {}).items())
        if limit is not None:
            by_label = by_label[:limit]
        for label, stats in by_label:
            lines.append(
                f"  {label:<22} {stats['count']:>9d} {stats['total_ms']:>10.2f} "
                f"{stats['mean_us']:>9.2f} {stats['max_us']:>9.1f} "
                f"{stats['total_ms'] / total_ms * 100:>6.1f}%"
            )
        return "\n".join(lines)
