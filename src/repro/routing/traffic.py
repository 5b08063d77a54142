"""Report traffic and the data-delivery-lifetime metric (§5.1, §5.2).

"The source generates a data report every 10 seconds ... The data success
ratio at any time is the ratio of the number of reports successfully
received at the sink to the total number of reports generated by the source
up to that time.  Data delivery lifetime is defined as the time when the
data success ratio drops below a threshold [90 %]."
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional

from ..sim import PeriodicProcess, SeriesRecorder, Simulator
from .grab import GrabRouter

__all__ = ["ReportTraffic"]

#: called with the gradient path used by a report (for data-plane energy
#: charging); invoked whenever a path existed, delivered or not.
PathHook = Callable[[List[Hashable]], None]


class ReportTraffic:
    """Periodic source reports scored through a :class:`GrabRouter`."""

    def __init__(
        self,
        sim: Simulator,
        router: GrabRouter,
        interval_s: float = 10.0,
        threshold: float = 0.90,
        path_hook: Optional[PathHook] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.sim = sim
        self.router = router
        self.interval_s = float(interval_s)
        self.threshold = threshold
        self.generated = 0
        self.delivered = 0
        self.path_hook = path_hook
        self.series = SeriesRecorder()
        self._process = PeriodicProcess(sim, interval_s, self._report, label="report")

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    # -------------------------------------------------------------- metrics
    def success_ratio(self) -> float:
        """Cumulative data success ratio at the current time."""
        if self.generated == 0:
            return 1.0
        return self.delivered / self.generated

    def delivery_lifetime(self) -> Optional[float]:
        """§5.1 data delivery lifetime.

        Scans the sampled ratio series for the first drop below the
        threshold after the boot ramp has reached it.  If the run ended
        before the cumulative ratio decayed through the threshold (delivery
        was still fine when everything died), the crossing is extrapolated:
        after the last delivery at time T_last with D reports delivered, the
        ratio at time t is D/(t/interval), which crosses the threshold at
        ``t* = D * interval / threshold``.
        """
        achieved = False
        for time, value in self.series.samples("success_ratio"):
            if not achieved:
                if value >= self.threshold:
                    achieved = True
                continue
            if value < self.threshold:
                return time
        if not achieved:
            return None
        return self.delivered * self.interval_s / self.threshold

    # ------------------------------------------------------------ internals
    def _report(self) -> None:
        self.generated += 1
        outcome = self.router.deliver()
        if outcome.delivered:
            self.delivered += 1
        if outcome.path is not None and self.path_hook is not None:
            self.path_hook(outcome.path)
        ratio = self.success_ratio()
        self.series.record("success_ratio", self.sim.now, ratio)
        if outcome.hops is not None:
            self.series.record("path_hops", self.sim.now, float(outcome.hops))
