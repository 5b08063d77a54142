"""Discrete-event simulation kernel (the reproduction's PARSEC substitute).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop and virtual clock.
* :class:`~repro.sim.events.Event` — a scheduled, cancellable callback.
* :class:`~repro.sim.rng.RngRegistry` — named deterministic RNG streams.
* :class:`~repro.sim.process.Timer` / :class:`~repro.sim.process.PeriodicProcess`
  — process-style helpers.
* :class:`~repro.sim.trace.CounterSet` and friends — run statistics.
* :class:`~repro.sim.sanitizer.SimSanitizer` — toggleable runtime invariant
  checks (``peas-repro run --sanitize``), off by default and bit-identical
  when off.
* :mod:`~repro.sim.handlers` — the handler-descriptor registry that makes
  the event queue serializable (``peas-snapshot/1`` support).
"""

from .engine import SimulationError, Simulator
from .handlers import (
    HANDLER_KINDS,
    RestoreContext,
    SnapshotError,
    handler_registered,
    register_handler,
)
from .profiling import EngineProfiler
from .sanitizer import InvariantViolation, SimSanitizer
from .events import (
    PRIORITY_DEFAULT,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    Event,
    EventQueueEmpty,
)
from .process import PeriodicProcess, Timer
from .rng import RngRegistry, UndeclaredStreamError, derive_seed
from .streams import STREAM_NAMES, stream_declared
from .trace import CounterSet, SeriesRecorder

__all__ = [
    "Simulator",
    "SimulationError",
    "EngineProfiler",
    "SimSanitizer",
    "InvariantViolation",
    "Event",
    "EventQueueEmpty",
    "SnapshotError",
    "RestoreContext",
    "HANDLER_KINDS",
    "register_handler",
    "handler_registered",
    "PRIORITY_HIGH",
    "PRIORITY_DEFAULT",
    "PRIORITY_LOW",
    "Timer",
    "PeriodicProcess",
    "RngRegistry",
    "UndeclaredStreamError",
    "derive_seed",
    "STREAM_NAMES",
    "stream_declared",
    "CounterSet",
    "SeriesRecorder",
]
