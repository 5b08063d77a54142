"""Process-style helpers layered on the event engine.

The engine itself is callback-based; these helpers add the two higher-level
idioms the model code uses:

* :class:`Timer` — a restartable one-shot timer (sleep timers, probe-window
  timeouts, REPLY backoffs);
* :class:`PeriodicProcess` — a fixed-interval repeating activity (traffic
  generation, metric sampling).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from .engine import Simulator
from .events import Event

__all__ = ["Timer", "PeriodicProcess"]


class Timer:
    """A restartable one-shot timer bound to a simulator.

    ``start`` (re)arms the timer; starting a running timer cancels the prior
    arming first.  The callback fires at most once per arming.

    ``handler`` is the optional plain-data ``(kind, args)`` descriptor the
    timer attaches to the events it schedules so its arming survives a
    snapshot; the registered resolver re-adopts the restored event via
    :meth:`adopt`.  Descriptor-carrying timers must be armed without extra
    ``start`` arguments (the descriptor's args are fixed at construction).
    """

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[..., Any],
        label: Optional[str] = None,
        handler: Optional[Tuple[str, Tuple[Any, ...]]] = None,
    ) -> None:
        self._sim = sim
        self._fn = fn
        self._label = label
        self._handler = handler
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
        if self._handler is not None and args:
            raise ValueError(
                "a snapshot-serializable Timer must be armed without extra "
                "start() arguments; bake them into the handler descriptor"
            )
        self._event = self._sim.schedule(
            delay, self._fire, *args, label=self._label, handler=self._handler
        )

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def adopt(self, event: Event) -> None:
        """Re-own a restored event: bind its callable and track its arming
        (called by handler resolvers during snapshot restore)."""
        event.fn = self._fire
        event.args = ()
        self._event = event

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
        handler: Optional[Tuple[str, Tuple[Any, ...]]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = float(interval)
        self._fn = fn
        self._label = label
        self._handler = handler
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
        self._event = self._sim.schedule(
            delay, self._tick, label=self._label, handler=self._handler
        )

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def adopt(self, event: Event) -> None:
        """Re-own a restored tick event and mark the process running
        (called by handler resolvers during snapshot restore)."""
        event.fn = self._tick
        event.args = ()
        self._event = event
        self._running = True

    def _tick(self) -> None:
        if not self._running:
            return
        self._event = self._sim.schedule(
            self.interval, self._tick, label=self._label, handler=self._handler
        )
        self._fn()

