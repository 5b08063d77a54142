"""Random node-failure injection (§5.1, §5.3).

"To evaluate the robustness of PEAS protocol, we artificially inject node
failures which are randomly distributed over time in the simulation.  The
failure rate denotes the average number of failures per unit time. ...
Note that failures are deaths not incurred by energy depletions."

Model: a Poisson process with the configured rate; at each arrival a victim
is drawn uniformly from the currently *alive* nodes and killed outright.
An arrival that finds no targets is a no-op, but the process re-arms —
the alive set can *repopulate* (transient-outage faults restore stunned
nodes), so an empty instant must not terminate injection for good.  The
paper expresses rates as "failures per 5000 seconds"; :func:`per_5000s`
converts.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterable, List, Optional

from ..obs.events import FAIL
from ..obs.tracer import Tracer
from ..sim import Simulator

__all__ = ["FailureInjector", "per_5000s"]


def per_5000s(failures: float) -> float:
    """Convert the paper's "failures per 5000 seconds" unit to a rate in Hz."""
    if failures < 0:
        raise ValueError("failure count must be nonnegative")
    return failures / 5000.0


class FailureInjector:
    """Poisson failure process over a population of killable nodes.

    Parameters
    ----------
    sim:
        Simulation engine.
    rate_hz:
        Mean failures per second (0 disables injection).
    alive_provider:
        Zero-arg callable returning the ids of currently alive nodes.
    kill:
        Callable invoked with a node id to destroy it immediately.
    rng:
        Stream for inter-arrival times and victim choice.
    tracer:
        Optional :class:`repro.obs.Tracer` receiving a ``fail`` event per
        injected failure.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_hz: float,
        alive_provider: Callable[[], Iterable[Hashable]],
        kill: Callable[[Hashable], None],
        rng: random.Random,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if rate_hz < 0:
            raise ValueError("failure rate must be nonnegative")
        self.sim = sim
        self.rate_hz = rate_hz
        self.alive_provider = alive_provider
        self.kill = kill
        self.rng = rng
        self._tracer = tracer
        self.failures_injected = 0
        self.failure_times: List[float] = []
        self._started = False

    def start(self) -> None:
        """Begin injecting; idempotent."""
        if self._started or self.rate_hz <= 0:
            return
        self._started = True
        self._schedule_next()

    def failure_fraction(self, population: int) -> float:
        """Fraction of the deployed population killed by injection (§5.3's
        "failure percentage")."""
        if population <= 0:
            raise ValueError("population must be positive")
        return self.failures_injected / population

    # ------------------------------------------------------------ internals
    def _schedule_next(self) -> None:
        delay = self.rng.expovariate(self.rate_hz)
        self.sim.schedule(delay, self._fire, label="failure")

    def _fire(self) -> None:
        # Canonical victim ordering: the alive set's iteration order depends
        # on its mutation history, so the draw must not depend on it.
        victims = sorted(self.alive_provider())
        if victims:
            victim = victims[self.rng.randrange(len(victims))]
            # Kill first, record after: the ``fail`` event marks a death
            # that actually happened, and follows the victim's own
            # ``state -> dead`` event in the trace.
            self.kill(victim)
            self.failures_injected += 1
            self.failure_times.append(self.sim.now)
            if self._tracer is not None:
                self._tracer.emit(FAIL, self.sim.now, victim)
        self._schedule_next()
