"""SPAN-like baseline: coordinator election from 2-hop neighborhood state.

§6: "SPAN lets each node keep a list of all its working neighbors and
exchange this list with its neighbor nodes.  As a result, all nodes learn
the connectivity within their 2-hop neighborhood to decide which nodes to
turn off.  The sleeping nodes wake up at a scheduled time interval to
re-elect working ones."

Model (coordination-level, like the other baselines): a node volunteers as
a *coordinator* (worker) iff two of its radio neighbors cannot reach each
other either directly or through at most two existing coordinators — the
SPAN eligibility rule.  All nodes re-evaluate at synchronized election
rounds with a small randomized slot order (SPAN's backoff), and each
election round costs every participant a HELLO-exchange energy fee — the
per-neighbor state the paper criticizes has a recurring price.

This is exactly the class of scheme PEAS §2.1.1 contrasts itself with:
per-neighbor state plus scheduled wakeups.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Set

from ..net import build_neighbor_lists
from ..net.field import distance
from .base import BaselineNetwork, BaselineNode

__all__ = ["SpanLikeProtocol"]


class SpanLikeProtocol:
    """Round-based SPAN-style coordinator election."""

    name = "span"

    def __init__(
        self,
        network: BaselineNetwork,
        radio_range_m: float = 10.0,
        round_period_s: float = 100.0,
        hello_cost_j: float = 0.0005,
        rng: random.Random = None,
    ) -> None:
        if radio_range_m <= 0 or round_period_s <= 0:
            raise ValueError("radio range and round period must be positive")
        self.network = network
        self.radio_range_m = radio_range_m
        self.round_period_s = round_period_s
        self.hello_cost_j = hello_cost_j
        self.rng = rng if rng is not None else random.Random(0)
        self.rounds = 0
        # Static sorted-by-distance neighbor lists (nodes are stationary).
        self._neighbors: Dict[Hashable, List[Hashable]] = build_neighbor_lists(
            {node.node_id: node.position for node in network.nodes.values()},
            radio_range_m,
        )

    # -------------------------------------------------------------- control
    def start(self) -> None:
        self.network.start()
        self._round()

    def _round(self) -> None:
        """One synchronized election round over all alive nodes."""
        self.rounds += 1
        alive = [n for n in self.network.nodes.values() if n.alive]
        if not alive:
            return
        # HELLO exchange: maintaining per-neighbor state costs everyone.
        for node in alive:
            node.charge(self.hello_cost_j * max(1, len(self._neighbors[node.node_id])),
                        "election")
        alive = [n for n in alive if n.alive]

        coordinators: Set[Hashable] = set()
        # Randomized volunteering order (SPAN's announcement backoff favors
        # high-utility nodes; we approximate with energy-descending order
        # plus jitter).
        order = sorted(
            alive,
            key=lambda n: (-n.remaining_energy(), self.rng.random()),
        )
        for node in order:
            if self._eligible(node, coordinators):
                coordinators.add(node.node_id)
        for node in alive:
            node.set_working(node.node_id in coordinators)
        self.network.sim.schedule(self.round_period_s, self._round,
                                  label="span-round")

    # ------------------------------------------------------------ internals
    def _eligible(self, node: BaselineNode, coordinators: Set[Hashable]) -> bool:
        """SPAN rule: volunteer iff some pair of neighbors is not connected
        directly or via one or two coordinators."""
        neighbor_ids = [
            other
            for other in self._neighbors[node.node_id]
            if self.network.nodes[other].alive
        ]
        if not neighbor_ids:
            return True  # isolated: nobody else can cover its area
        if len(neighbor_ids) == 1:
            # No pair to bridge; stay up only if no coordinator nearby.
            return not (coordinators & set(neighbor_ids))
        coordinator_set = coordinators
        for i in range(len(neighbor_ids)):
            for j in range(i + 1, len(neighbor_ids)):
                a, b = neighbor_ids[i], neighbor_ids[j]
                if self._pair_connected(a, b, coordinator_set):
                    continue
                return True
        return False

    def _pair_connected(self, a: Hashable, b: Hashable,
                        coordinators: Set[Hashable]) -> bool:
        """Are neighbors a, b connected directly or via <=2 coordinators?"""
        pos_a = self.network.nodes[a].position
        pos_b = self.network.nodes[b].position
        if distance(pos_a, pos_b) <= self.radio_range_m:
            return True
        # One intermediate coordinator.
        common = (
            set(self._neighbors[a]) & set(self._neighbors[b]) & coordinators
        )
        if common:
            return True
        # Two intermediate coordinators: c1 in N(a), c2 in N(b), c1-c2 linked.
        a_coords = set(self._neighbors[a]) & coordinators
        b_coords = set(self._neighbors[b]) & coordinators
        for c1 in a_coords:
            neighbors_c1 = set(self._neighbors[c1])
            if neighbors_c1 & b_coords:
                return True
        return False
