"""Event primitives for the discrete-event simulation kernel.

The kernel (see :mod:`repro.sim.engine`) executes :class:`Event` objects in
nondecreasing timestamp order.  Ties are broken first by an explicit integer
``priority`` (lower runs first) and then by insertion order, which makes every
simulation run fully deterministic for a given seed.

Events support O(1) cancellation: cancelling marks the event dead and the
engine discards it when it is popped from the queue (the standard "lazy
deletion" heap idiom).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Tuple

__all__ = ["Event", "EventQueueEmpty", "PRIORITY_DEFAULT", "PRIORITY_HIGH", "PRIORITY_LOW"]

#: Priority for events that must run before ordinary events at the same time
#: (e.g. channel bookkeeping that other events observe).
PRIORITY_HIGH = 0
#: Default priority for protocol events.
PRIORITY_DEFAULT = 10
#: Priority for observers (metrics sampling) that should see the post-state
#: of every same-timestamp protocol event.
PRIORITY_LOW = 20

_sequence = itertools.count()


class EventQueueEmpty(Exception):
    """Raised when the engine is asked to step an exhausted event queue."""


class Event:
    """A single scheduled callback.

    Parameters
    ----------
    time:
        Absolute simulation time at which the callback fires.
    fn:
        Callable invoked as ``fn(*args)`` when the event fires.
    args:
        Positional arguments stored with the event.
    priority:
        Tie-break priority among events with equal ``time``; lower fires first.
    label:
        Optional human-readable tag used by tracing.
    seq:
        Explicit insertion-order key; ``None`` (the default) draws from the
        module-global counter.  The engine passes per-simulator sequence
        numbers, so tie-breaks depend only on that simulator's history.
    """

    __slots__ = (
        "time",
        "fn",
        "args",
        "priority",
        "seq",
        "label",
        "_cancelled",
        "_on_cancel",
    )

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = PRIORITY_DEFAULT,
        label: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> None:
        if time != time:  # NaN guard: a NaN timestamp would corrupt heap order.
            raise ValueError("event time must not be NaN")
        self.time = float(time)
        self.fn = fn
        self.args = args
        self.priority = priority
        self.seq = next(_sequence) if seq is None else seq
        self.label = label
        self._cancelled = False
        #: set by the engine when scheduled, so cancellation can be reaped
        #: out of the queue's slot table immediately (amortized compaction).
        self._on_cancel: Optional[Callable[["Event"], None]] = None

    # Heap ordering ---------------------------------------------------------
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    # Lifecycle -------------------------------------------------------------
    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._on_cancel is not None:
            self._on_cancel(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def fire(self) -> None:
        self.fn(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} p={self.priority} {name} [{state}]>"
