"""AFECA-like baseline: sleep time scaled by the neighbor count.

§6: "In AFECA, each node maintains a list of neighbor identifiers in order
to keep track of the number of neighbors, based on which it decides the
sleeping period."  The idea: the denser the neighborhood, the longer a
node may sleep, because the expected number of simultaneously awake
neighbors stays constant.

Model: node i alternates awake periods ``T_on`` with sleeping periods drawn
uniformly from ``[1, N_i] * T_base`` where ``N_i`` is its (alive) neighbor
count — AFECA's published rule.  The neighbor list is maintained for free
here (stationary nodes), but unlike PEAS the redundancy is only
statistical: nothing guarantees someone is awake in any given area at any
given moment.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List

from ..net import build_neighbor_lists
from .base import BaselineNetwork, BaselineNode

__all__ = ["AfecaLikeProtocol"]


class AfecaLikeProtocol:
    """Neighbor-count-scaled randomized sleeping."""

    name = "afeca"

    def __init__(
        self,
        network: BaselineNetwork,
        radio_range_m: float = 10.0,
        awake_s: float = 50.0,
        base_sleep_s: float = 50.0,
        rng: random.Random = None,
    ) -> None:
        if radio_range_m <= 0 or awake_s <= 0 or base_sleep_s <= 0:
            raise ValueError("radio range and periods must be positive")
        self.network = network
        self.awake_s = awake_s
        self.base_sleep_s = base_sleep_s
        self.rng = rng if rng is not None else random.Random(0)
        # Static sorted-by-distance neighbor lists (nodes are stationary).
        self._neighbors: Dict[Hashable, List[Hashable]] = build_neighbor_lists(
            {node.node_id: node.position for node in network.nodes.values()},
            radio_range_m,
        )

    def alive_neighbor_count(self, node: BaselineNode) -> int:
        return sum(
            1
            for other in self._neighbors[node.node_id]
            if self.network.nodes[other].alive
        )

    # -------------------------------------------------------------- control
    def start(self) -> None:
        for node in self.network.nodes.values():
            # Random initial phase within one awake+sleep cycle.
            delay = self.rng.uniform(0.0, self.awake_s)
            self.network.sim.schedule(delay, self._wake, node, label="afeca-on")

    # ------------------------------------------------------------ internals
    def _wake(self, node: BaselineNode) -> None:
        if not node.alive:
            return
        node.set_working(True)
        self.network.sim.schedule(self.awake_s, self._sleep, node,
                                  label="afeca-off")

    def _sleep(self, node: BaselineNode) -> None:
        if not node.alive:
            return
        node.set_working(False)
        neighbor_count = max(1, self.alive_neighbor_count(node))
        sleep = self.rng.uniform(1.0, float(neighbor_count)) * self.base_sleep_s
        self.network.sim.schedule(sleep, self._wake, node, label="afeca-on")
