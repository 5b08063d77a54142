"""Coverage lifetime tracking over a running PEAS network.

Couples a :class:`~repro.coverage.grid.CoverageGrid` to the protocol's
working-set observer stream and samples K-coverage fractions periodically.
The *lifetime of K-coverage* follows §5.1: the time from the beginning until
K-coverage drops below the threshold (90 % in the paper) — measured after
the boot-up ramp has first reached the threshold, since the network starts
with zero working nodes and acquires them during the boot phase (§2.1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..sim import PeriodicProcess, SeriesRecorder, Simulator
from .grid import CoverageGrid

__all__ = ["CoverageTracker", "lifetime_from_series"]


def lifetime_from_series(
    samples: Sequence, threshold: float
) -> Optional[float]:
    """First time the series drops below ``threshold`` after having reached it.

    Returns ``None`` when the threshold was never reached (the network never
    booted to the required coverage) and the last sample time when coverage
    never dropped (censored observation).
    """
    achieved = False
    last_time = None
    for time, value in samples:
        last_time = time
        if not achieved:
            if value >= threshold:
                achieved = True
            continue
        if value < threshold:
            return time
    if not achieved:
        return None
    return last_time


class CoverageTracker:
    """Samples K-coverage of the working set over time.

    Usage: construct, then ``network.working_observers.append(tracker.on_working_change)``
    and ``tracker.start()``; after the run query :meth:`lifetime`.
    """

    def __init__(
        self,
        sim: Simulator,
        grid: CoverageGrid,
        ks: Sequence[int] = (3, 4, 5),
        sample_interval_s: float = 10.0,
        threshold: float = 0.90,
    ) -> None:
        if not ks:
            raise ValueError("ks must be non-empty")
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.sim = sim
        self.grid = grid
        self.ks = tuple(ks)
        self.threshold = threshold
        self.series = SeriesRecorder()
        self._sampler = PeriodicProcess(
            sim, sample_interval_s, self._sample, label="coverage-sample"
        )
        self.working_count = 0

    # ------------------------------------------------------------- plumbing
    def on_working_change(self, time: float, node, started: bool) -> None:
        """Observer for :class:`~repro.core.protocol.PEASNetwork`."""
        if started:
            self.grid.add_node(node.position)
            self.working_count += 1
        else:
            self.grid.remove_node(node.position)
            self.working_count -= 1

    def start(self) -> None:
        self._sample()  # t = 0 baseline
        self._sampler.start()

    def stop(self) -> None:
        self._sampler.stop()

    # -------------------------------------------------------------- queries
    def current_fractions(self) -> Dict[int, float]:
        return self.grid.fractions(self.ks)

    def lifetime(self, k: int) -> Optional[float]:
        """K-coverage lifetime at this tracker's threshold (§5.1)."""
        return lifetime_from_series(
            self.series.samples(self._series_name(k)), self.threshold
        )

    def lifetimes(self) -> Dict[int, Optional[float]]:
        return {k: self.lifetime(k) for k in self.ks}

    # ------------------------------------------------------------ internals
    @staticmethod
    def _series_name(k: int) -> str:
        return f"coverage_{k}"

    def _sample(self) -> None:
        now = self.sim.now
        for k in self.ks:
            self.series.record(self._series_name(k), now, self.grid.fraction(k))
        self.series.record("working_count", now, float(self.working_count))
