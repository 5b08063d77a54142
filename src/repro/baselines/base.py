"""Shared plumbing for baseline (non-PEAS) sleep-scheduling protocols.

The related schemes the paper positions against (§6: GAF, SPAN, AFECA,
ASCENT) coordinate sleeping at the *schedule* level — which node is up and
when — rather than through PEAS's probe/reply control plane.  The baselines
here therefore model node modes, batteries and failure deaths with the same
substrates as PEAS (energy model, coverage tracker, routing, failure
injector all plug in through the identical observer interface), while their
coordination logic runs directly on the simulator instead of over radio
frames.  Coordination costs are charged as explicit per-event energy fees.

This keeps lifetime/robustness comparisons apples-to-apples: identical
batteries, identical power draws per mode, identical metrics — only the
turn-off policy differs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from ..energy import (
    MOTE_PROFILE,
    EnergyReport,
    NodeBattery,
    PowerProfile,
    RadioMode,
    draw_initial_energy,
    summarize_energy,
)
from ..net import Field, Point
from ..sim import CounterSet, Simulator, Timer

__all__ = ["BaselineNode", "BaselineNetwork"]

WorkingObserver = Callable[[float, "BaselineNode", bool], None]


class BaselineNode:
    """A sensor under baseline control: position, battery, up/down state."""

    def __init__(
        self,
        node_id: Hashable,
        position: Point,
        sim: Simulator,
        battery: NodeBattery,
        on_working_change: Callable[["BaselineNode", bool], None],
        on_death: Callable[["BaselineNode"], None],
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.sim = sim
        self.battery = battery
        self.working = False
        self.alive = True
        self._on_working_change = on_working_change
        self._on_death = on_death
        self._death_timer = Timer(sim, self.die, label="baseline-depletion")

    # ------------------------------------------------------------- control
    def set_working(self, working: bool, until: Optional[float] = None) -> None:
        """Switch between Working (idle draw) and Sleeping (sleep draw).

        ``until`` is the exact time of the caller's next toggle of this
        node, if it has one; a depletion deadline after it is left out of
        the event heap, since that toggle recomputes it.
        """
        if not self.alive or working == self.working:
            return
        self.working = working
        remaining = self.battery.set_mode(
            self.sim.now, RadioMode.IDLE if working else RadioMode.SLEEP
        )
        self._reschedule_death(remaining, until)
        self._on_working_change(self, working)

    def charge(self, joules: float, category: str) -> None:
        """Charge a coordination cost (election message, beacon, ...)."""
        if not self.alive:
            return
        remaining = self.battery.charge(self.sim.now, joules, category)
        if remaining <= 0.0:
            self.die()
        else:
            self._reschedule_death(remaining)

    def die(self) -> None:
        if not self.alive:
            return
        was_working = self.working
        self.alive = False
        self.working = False
        self.battery.set_mode(self.sim.now, RadioMode.OFF)
        self._death_timer.cancel()
        if was_working:
            self._on_working_change(self, False)
        self._on_death(self)

    def start_sleeping(self, until: Optional[float] = None) -> None:
        """Enter the start-up sleep; ``until`` is as in :meth:`set_working`."""
        self._reschedule_death(
            self.battery.set_mode(self.sim.now, RadioMode.SLEEP), until
        )

    def remaining_energy(self) -> float:
        return self.battery.remaining(self.sim.now)

    # ------------------------------------------------------------ internals
    def _reschedule_death(
        self, remaining: float, until: Optional[float] = None
    ) -> None:
        """Re-arm the depletion deadline from the ``remaining`` joules the
        battery just settled at ``now``, at the current mode's draw (the
        deadline ``NodeBattery.time_to_depletion`` would give, without a
        second settle).

        The deadline is armed before the caller schedules its toggle, so
        on a tie the deadline fires first: it stays armed at ``until``.
        """
        power = self.battery._power_w
        if power <= 0:
            self._death_timer.cancel()
            return
        ttd = remaining / power
        if until is not None and self.sim.now + ttd > until:
            self._death_timer.cancel()
        else:
            self._death_timer.start(ttd)


class BaselineNetwork:
    """Population container exposing the same observer surface as
    :class:`~repro.core.protocol.PEASNetwork`, so coverage, routing and
    failure injection plug in unchanged.

    Subclass-free: a concrete baseline protocol receives the network,
    starts it from its own ``start()`` and drives
    :meth:`BaselineNode.set_working` from its own scheduling logic.
    """

    def __init__(
        self,
        sim: Simulator,
        field: Field,
        positions: Sequence[Point],
        profile: PowerProfile = MOTE_PROFILE,
        battery_rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.field = field
        self.profile = profile
        self.counters = CounterSet()
        self.working_observers: List[WorkingObserver] = []
        self.nodes: Dict[Hashable, BaselineNode] = {}
        self._alive: set = set()
        self._working: set = set()
        rng = battery_rng if battery_rng is not None else random.Random(0)
        for index, position in enumerate(positions):
            if not field.contains(position):
                raise ValueError(f"node {index} at {position} outside the field")
            battery = NodeBattery(profile, draw_initial_energy(profile, rng), sim.now)
            self.nodes[index] = BaselineNode(
                index,
                position,
                sim,
                battery,
                on_working_change=self._working_changed,
                on_death=self._node_died,
            )
            self._alive.add(index)

    # -------------------------------------------------- PEASNetwork surface
    def start(self, first_toggle: Optional[Mapping[Hashable, float]] = None) -> None:
        """Put every node to sleep and arm its depletion deadline.

        ``first_toggle`` maps node ids to the exact time of the protocol's
        first toggle of that node, when the protocol knows it: a deadline
        after it is not armed (see :meth:`BaselineNode.set_working`).
        """
        for node_id, node in self.nodes.items():
            node.start_sleeping(None if first_toggle is None else first_toggle[node_id])

    def kill(self, node_id: Hashable) -> None:
        self.nodes[node_id].die()

    def alive_ids(self) -> frozenset:
        return frozenset(self._alive)

    def working_ids(self) -> frozenset:
        return frozenset(self._working)

    @property
    def all_dead(self) -> bool:
        return not self._alive

    @property
    def population(self) -> int:
        return len(self.nodes)

    def energy_report(self) -> EnergyReport:
        return summarize_energy(
            (node.battery for node in self.nodes.values()), self.sim.now
        )

    # ------------------------------------------------------------ internals
    def _working_changed(self, node: BaselineNode, working: bool) -> None:
        if working:
            self._working.add(node.node_id)
        else:
            self._working.discard(node.node_id)
        for observer in self.working_observers:
            observer(self.sim.now, node, working)

    def _node_died(self, node: BaselineNode) -> None:
        self._alive.discard(node.node_id)
