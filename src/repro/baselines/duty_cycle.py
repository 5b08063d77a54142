"""Randomized Independent Sleeping (RIS) baseline.

Each node independently alternates awake/asleep periods so that it is up a
fraction ``duty`` of the time, with a random initial phase.  There is no
coordination whatsoever: redundancy is purely statistical, so maintaining
K-coverage with high probability requires a much higher duty cycle (hence
energy) than PEAS's location-aware rule — the comparison the §2.1.1
"location-dependent working nodes" rationale implies.
"""

from __future__ import annotations

import random

from ..sim import Simulator, register_handler
from ..sim.handlers import RestoreContext
from .base import BaselineNetwork, BaselineNode

__all__ = ["DutyCycleProtocol"]


class DutyCycleProtocol:
    """Independent on/off cycling with duty fraction ``duty``.

    Parameters
    ----------
    network:
        The baseline population.
    duty:
        Fraction of time each node is awake, in (0, 1].
    period_s:
        Length of one on+off cycle.
    rng:
        Stream for initial phases (cycling itself is deterministic).
    """

    name = "duty_cycle"

    def __init__(
        self,
        network: BaselineNetwork,
        duty: float = 0.5,
        period_s: float = 100.0,
        rng: random.Random = None,
    ) -> None:
        if not 0 < duty <= 1:
            raise ValueError("duty must be in (0, 1]")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.network = network
        self.duty = duty
        self.period_s = period_s
        self.rng = rng if rng is not None else random.Random(0)

    def start(self) -> None:
        sim = self.network.sim
        on_time = self.duty * self.period_s
        for node in self.network.nodes.values():
            phase = self.rng.uniform(0.0, self.period_s)
            sim.schedule(
                phase, self._turn_on, node, on_time, label="ris-on",
                handler=("duty.on", (node.node_id, on_time)),
            )

    # ------------------------------------------------------------ internals
    # Each toggle passes the exact time of the next one (the float
    # ``schedule`` computes) so the node arms no deadline that toggle
    # would cancel.
    def _turn_on(self, node: BaselineNode, on_time: float) -> None:
        if not node.alive:
            return
        sim = self.network.sim
        if self.duty >= 1.0:
            node.set_working(True)
            return
        node.set_working(True, until=float(sim.now + on_time))
        sim.schedule(
            on_time, self._turn_off, node, label="ris-off",
            handler=("duty.off", (node.node_id,)),
        )

    def _turn_off(self, node: BaselineNode) -> None:
        if not node.alive:
            return
        off_time = self.period_s - self.duty * self.period_s
        on_time = self.duty * self.period_s
        node.set_working(False, until=float(self.network.sim.now + off_time))
        self.network.sim.schedule(
            off_time, self._turn_on, node, on_time, label="ris-on",
            handler=("duty.on", (node.node_id, on_time)),
        )


@register_handler("duty.on")
def _resolve_duty_on(ctx: RestoreContext, event) -> None:
    run = ctx.component("protocol")
    node_id, on_time = event.handler[1]
    event.fn = run.protocol._turn_on
    event.args = (run.network.nodes[node_id], float(on_time))


@register_handler("duty.off")
def _resolve_duty_off(ctx: RestoreContext, event) -> None:
    run = ctx.component("protocol")
    event.fn = run.protocol._turn_off
    event.args = (run.network.nodes[event.handler[1][0]],)
