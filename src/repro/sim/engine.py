"""The discrete-event simulation engine.

This is the reproduction's substitute for the PARSEC simulation language the
paper used (§5.1).  PARSEC is a C-based parallel simulator; PEAS's evaluation
only needs a deterministic sequential event executor, which this module
provides:

* a binary-heap event queue with deterministic tie-breaking,
* O(1) event cancellation with amortized queue compaction,
* simulation-time bookkeeping (``now``),
* run-until-time / run-until-empty / single-step execution,
* hook points used by tracing and metrics.

Performance model: the heap holds bare ``(time, priority, seq)`` tuples —
compared element-wise in C, never through ``Event.__lt__`` — and a slot
table maps ``seq`` to the live :class:`Event`.  Cancelling removes the slot
immediately (the heap entry becomes a tombstone popped lazily); when
tombstones outnumber live entries the queue is compacted in one pass, so
reaping cost is amortized O(1) per cancellation instead of a rescan per
``peek``.  The entries stay bare on purpose.  A variant that also stored
the ``Event`` in each tuple ran the duty-cycle benchmark about 15 % slower:
a tuple holding an object stays tracked by the cyclic garbage collector,
cancelled events stay alive until their tombstones are popped, and the
collector ran about four times as often.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(2.0, fired.append, "b")
>>> _ = sim.schedule(1.0, fired.append, "a")
>>> sim.run()
>>> fired
['a', 'b']
>>> sim.now
2.0
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .events import Event, EventQueueEmpty, PRIORITY_DEFAULT
from .profiling import _GAUGE_PERIOD, EngineProfiler

__all__ = ["Simulator", "SimulationError"]

#: Allocates an :class:`Event` without running ``__init__`` (see
#: :meth:`Simulator.schedule`).
_new_event = Event.__new__

#: Compaction threshold: never compact below this many tombstones (the
#: rebuild is O(n); tiny queues are cheaper to drain lazily).
_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """A sequential discrete-event simulator.

    The simulator owns the virtual clock.  All model components (radio
    channel, PEAS nodes, failure injector, traffic generators) schedule
    events against a single shared instance so that their interleavings are
    globally ordered.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulation time in seconds.  A plain attribute, not a
        #: property: model code reads it on every event, and only the
        #: engine's own loops write it.
        self.now = float(start_time)
        #: heap of (time, priority, seq); seq is the key into ``_slots``
        self._queue: List[Tuple[float, int, int]] = []
        #: seq -> live Event; entries vanish on cancellation or execution
        self._slots: Dict[int, Event] = {}
        self._running = False
        self._stopped = False
        self._executed = 0
        #: per-simulator insertion-order counter: the heap key's tie-break
        self._next_seq = 0
        #: Observers called as ``fn(event)`` just before each event fires.
        self.pre_event_hooks: List[Callable[[Event], None]] = []
        #: When set, :meth:`run` dispatches through the instrumented loop
        #: (per-label wall-time + gauges); the fast loops are untouched
        #: while this is ``None``.  Attach via :meth:`profiled`.
        self.profiler: Optional[EngineProfiler] = None
        #: the cancellation hook every event carries, bound once
        self._on_cancel = self._discard

    # ------------------------------------------------------------------ time
    @property
    def events_executed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Events still queued, including cancelled-but-unreaped ones."""
        return len(self._queue)

    @property
    def live_events(self) -> int:
        """Events still queued and not cancelled."""
        return len(self._slots)

    @property
    def tombstones(self) -> int:
        """Cancelled-but-unreaped heap entries (observability gauge)."""
        return len(self._queue) - len(self._slots)

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also catches NaN, which would corrupt heap order
            if delay != delay:
                raise ValueError("event time must not be NaN")
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # ``float`` matters: ``now`` is an int after ``run(until=<int>)``
        # and event times flow into trace bytes.
        time = float(self.now + delay)
        seq = self._next_seq
        self._next_seq = seq + 1
        # Built slot by slot rather than through the keyword ``__init__``:
        # this runs once per event and the direct build is ~3x cheaper.
        # Keep it in step with ``Event.__slots__`` (a test checks each one).
        event = _new_event(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.priority = priority
        event.seq = seq
        event.label = label
        event._cancelled = False
        event._on_cancel = self._on_cancel
        self._slots[seq] = event
        heapq.heappush(self._queue, (time, priority, seq))
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``fn(*args)`` at the absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, fn, args, priority=priority, label=label, seq=seq)
        event._on_cancel = self._on_cancel
        self._slots[seq] = event
        heapq.heappush(self._queue, (event.time, event.priority, seq))
        return event

    # -------------------------------------------------------------- execution
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        slots = self._slots
        while queue and queue[0][2] not in slots:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> Event:
        """Fire exactly one event and return it."""
        queue = self._queue
        slots = self._slots
        event: Optional[Event] = None
        while queue:
            time, _priority, seq = heapq.heappop(queue)
            event = slots.pop(seq, None)
            if event is not None:
                break
        if event is None:
            raise EventQueueEmpty("no pending events")
        self.now = event.time
        if self.pre_event_hooks:
            for hook in self.pre_event_hooks:
                hook(event)
        event.fire()
        self._executed += 1
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time; the
            clock is advanced to ``until``.  ``None`` runs until the queue
            drains or :meth:`stop` is called.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            events (guards against accidental event storms in tests).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if self.profiler is not None:
            return self._run_profiled(until, max_events)
        self._running = True
        self._stopped = False
        fired = 0
        # The queue list is mutated in place (never rebound — see _discard),
        # so hoisting these lookups out of the hot loop is safe even across
        # compactions and events that schedule more events.
        queue = self._queue
        slots = self._slots
        heappop = heapq.heappop
        hooks = self.pre_event_hooks
        try:
            if until is None and max_events is None:
                # Run-to-exhaustion fast path: no bound checks per event.
                while not self._stopped:
                    while queue and queue[0][2] not in slots:
                        heappop(queue)
                    if not queue:
                        break
                    event = slots.pop(heappop(queue)[2])
                    self.now = event.time
                    if hooks:
                        for hook in hooks:
                            hook(event)
                    event.fn(*event.args)
                    self._executed += 1
                return
            while not self._stopped:
                while queue and queue[0][2] not in slots:
                    heappop(queue)
                if not queue:
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                event = slots.pop(heappop(queue)[2])
                self.now = event.time
                if hooks:
                    for hook in hooks:
                        hook(event)
                event.fn(*event.args)
                self._executed += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False

    def _run_profiled(
        self, until: Optional[float], max_events: Optional[int]
    ) -> None:
        """The instrumented twin of :meth:`run`: identical semantics, plus
        per-label wall-time accounting and periodic queue gauges."""
        profiler = self.profiler
        assert profiler is not None
        self._running = True
        self._stopped = False
        fired = 0
        queue = self._queue
        slots = self._slots
        heappop = heapq.heappop
        hooks = self.pre_event_hooks
        clock = profiler.clock
        gauge_countdown = 0
        try:
            while not self._stopped:
                while queue and queue[0][2] not in slots:
                    heappop(queue)
                if not queue:
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                event = slots.pop(heappop(queue)[2])
                self.now = event.time
                if hooks:
                    for hook in hooks:
                        hook(event)
                label = event.label
                if label is None:
                    label = getattr(event.fn, "__qualname__", "unlabeled")
                start = clock()
                event.fn(*event.args)
                profiler.record(label, clock() - start)
                self._executed += 1
                fired += 1
                if gauge_countdown <= 0:
                    profiler.sample_gauges(len(queue), len(slots), self.now)
                    gauge_countdown = _GAUGE_PERIOD
                gauge_countdown -= 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            profiler.sample_gauges(len(queue), len(slots), self.now)
            self._running = False

    @contextmanager
    def profiled(
        self, profiler: Optional[EngineProfiler] = None
    ) -> Iterator[EngineProfiler]:
        """Attach a profiler for the duration of a ``with`` block.

        >>> sim = Simulator()
        >>> _ = sim.schedule(1.0, lambda: None, label="tick")
        >>> with sim.profiled() as prof:
        ...     sim.run()
        >>> prof.labels["tick"].count
        1
        """
        active = profiler if profiler is not None else EngineProfiler()
        if self.profiler is not None:
            raise SimulationError("a profiler is already attached")
        self.profiler = active
        try:
            yield active
        finally:
            self.profiler = None

    def stop(self) -> None:
        """Request the current :meth:`run` to return after the active event."""
        self._stopped = True

    # -------------------------------------------------------------- internals
    def _discard(self, event: Event) -> None:
        """Cancellation hook: free the slot now, compact the heap when the
        tombstone fraction passes one half (amortized O(1) per cancel)."""
        if self._slots.pop(event.seq, None) is None:
            return
        queue = self._queue
        dead = len(queue) - len(self._slots)
        if dead > _MIN_TOMBSTONES and dead * 2 > len(queue):
            slots = self._slots
            # In-place so aliases held by a running event loop stay valid.
            queue[:] = [entry for entry in queue if entry[2] in slots]
            heapq.heapify(queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f} pending={len(self._queue)}>"
