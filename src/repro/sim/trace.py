"""Lightweight tracing and statistics collection for simulation runs.

Two collectors cover everything the experiments need:

* :class:`CounterSet` — named monotonically increasing counters
  (wakeups, probes sent, replies heard, collisions, reports delivered...).
* :class:`SeriesRecorder` — (time, value) samples for plotting/asserting on
  trajectories such as K-coverage over time or measured λ̂.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["CounterSet", "SeriesRecorder"]


class CounterSet:
    """A bag of named integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterSet({dict(self._counts)!r})"


class SeriesRecorder:
    """Records (time, value) samples of named series."""

    def __init__(self) -> None:
        self._series: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def record(self, name: str, time: float, value: float) -> None:
        self._series[name].append((time, value))

    def samples(self, name: str) -> List[Tuple[float, float]]:
        return list(self._series.get(name, []))

    def last(self, name: str) -> Optional[Tuple[float, float]]:
        series = self._series.get(name)
        return series[-1] if series else None

    def names(self) -> List[str]:
        return sorted(self._series)

    def first_time_below(self, name: str, threshold: float) -> Optional[float]:
        """First sample time at which the series drops below ``threshold``.

        This is exactly how the paper defines *lifetimes*: the time at which
        K-coverage (or data success ratio) first falls under the 90 %
        threshold (§5.1).
        """
        for time, value in self._series.get(name, []):
            if value < threshold:
                return time
        return None
