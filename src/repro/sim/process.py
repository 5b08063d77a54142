"""Process-style helpers layered on the event engine.

The engine itself is callback-based; these helpers add the two higher-level
idioms the model code uses:

* :class:`Timer` — a restartable one-shot timer (sleep timers, probe-window
  timeouts, REPLY backoffs);
* :class:`PeriodicProcess` — a fixed-interval repeating activity (traffic
  generation, metric sampling).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Simulator
from .events import Event

__all__ = ["Timer", "PeriodicProcess"]


class Timer:
    """A restartable one-shot timer bound to a simulator.

    ``start`` (re)arms the timer; starting a running timer cancels the prior
    arming first.  The callback fires at most once per arming.
    """

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[..., Any],
        label: Optional[str] = None,
    ) -> None:
        self._sim = sim
        self._fn = fn
        self._label = label
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        event = self._event
        return event is not None and not event._cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute fire time if armed, else ``None``."""
        return self._event.time if self.armed else None

    def start(self, delay: float, *args: Any) -> None:
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
        self._event = self._sim.schedule(delay, self._fire, *args, label=self._label)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, *args: Any) -> None:
        self._event = None
        self._fn(*args)


class PeriodicProcess:
    """Repeats ``fn()`` every ``interval`` seconds until stopped.

    The first invocation happens ``first_delay`` seconds after :meth:`start`
    (defaulting to one full interval).  ``fn`` may call :meth:`stop` to end
    the repetition from within.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[[], Any],
        label: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = float(interval)
        self._fn = fn
        self._label = label
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self, first_delay: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = self.interval if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._tick, label=self._label)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._event = self._sim.schedule(self.interval, self._tick, label=self._label)
        self._fn()
