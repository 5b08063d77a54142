"""GAF-like baseline: geographic grid leader election (§6's GAF [10]).

GAF divides the field into virtual grid cells small enough that any node in
one cell can talk to any node in the adjacent cells (cell edge
``r / sqrt(5)`` for radio range ``r``); within a cell one node stays up and
the rest sleep, with sleep durations derived from the leader's *remaining
energy* (the predicted-lifetime coordination PEAS's §2.1.1 argues against).

Model: per cell, the alive node with the most remaining energy leads.
Sleepers set their wakeup to the moment the current leader's energy is
predicted to run out; an unexpected leader failure therefore leaves the
cell dark until that scheduled wakeup — exactly the "big gap" failure mode
of Figure 4.  A small election cost is charged per hand-off.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..net import Field
from .base import BaselineNetwork, BaselineNode

__all__ = ["GafLikeProtocol"]


class GafLikeProtocol:
    """Grid-cell leader rotation driven by predicted leader lifetime."""

    name = "gaf"

    def __init__(
        self,
        network: BaselineNetwork,
        radio_range_m: float = 10.0,
        election_cost_j: float = 0.001,
        safety_margin_s: float = 1.0,
    ) -> None:
        if radio_range_m <= 0:
            raise ValueError("radio_range_m must be positive")
        self.network = network
        self.cell_size = radio_range_m / math.sqrt(5.0)
        self.election_cost_j = election_cost_j
        self.safety_margin_s = safety_margin_s
        self._cells: Dict[Tuple[int, int], List[BaselineNode]] = defaultdict(list)
        for node in network.nodes.values():
            self._cells[self._cell_of(node)].append(node)
        self.elections = 0

    def _cell_of(self, node: BaselineNode) -> Tuple[int, int]:
        return (
            int(node.position[0] // self.cell_size),
            int(node.position[1] // self.cell_size),
        )

    # -------------------------------------------------------------- control
    def start(self) -> None:
        self.network.start()
        for cell in self._cells:
            self._elect(cell)

    def _elect(self, cell: Tuple[int, int]) -> None:
        """Pick the max-energy alive member as leader; everyone sleeps until
        the leader's predicted depletion time."""
        members = [n for n in self._cells[cell] if n.alive]
        if not members:
            return
        self.elections += 1
        leader = max(members, key=lambda n: n.remaining_energy())
        for node in members:
            node.charge(self.election_cost_j, "election")
        # Re-check liveness: the election cost may have finished someone off.
        if not leader.alive:
            self._elect(cell)
            return
        leader.set_working(True)
        for node in members:
            if node is not leader and node.alive:
                node.set_working(False)
        predicted = leader.battery.time_to_depletion(self.network.sim.now)
        if predicted is None:
            return
        self.network.sim.schedule(
            predicted + self.safety_margin_s, self._elect, cell, label="gaf-elect"
        )

    def leader_of(self, cell: Tuple[int, int]) -> Optional[BaselineNode]:
        for node in self._cells.get(cell, ()):
            if node.alive and node.working:
                return node
        return None
