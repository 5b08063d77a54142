"""Synchronized sleeping baseline — the Figure 4/5 strawman.

§2.1.1: related schemes "typically take the deterministic approach of
synchronized sleeping and waking-up: all sleeping nodes (in a local
neighborhood) doze for the same predicted period of time, which is normally
their working neighbors' active time.  Then they all wake up almost
simultaneously to re-elect new working nodes."  When the working node fails
*before* its predicted lifespan, "there come large gaps in the system
during which no working node is available" (Figure 4).  PEAS's randomized
wakeups shorten those gaps (Figure 5).

Model: the field is partitioned into neighborhoods (cells of the probing
range R_p).  At each round a neighborhood elects one worker; every other
member sleeps for exactly the worker's *predicted* active period T_work.
All members wake at the round boundary and re-elect.  A worker death inside
a round is only discovered at the round boundary — producing the gap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from .base import BaselineNetwork, BaselineNode

__all__ = ["SynchronizedSleepProtocol"]


class SynchronizedSleepProtocol:
    """Round-based synchronized duty rotation per R_p neighborhood."""

    name = "synchronized"

    def __init__(
        self,
        network: BaselineNetwork,
        cell_size_m: float = 3.0,
        round_period_s: float = 500.0,
        election_cost_j: float = 0.001,
    ) -> None:
        if cell_size_m <= 0 or round_period_s <= 0:
            raise ValueError("cell size and round period must be positive")
        self.network = network
        self.cell_size_m = cell_size_m
        self.round_period_s = round_period_s
        self.election_cost_j = election_cost_j
        self._cells: Dict[Tuple[int, int], List[BaselineNode]] = defaultdict(list)
        for node in network.nodes.values():
            self._cells[self._cell_of(node)].append(node)
        self.rounds = 0

    def _cell_of(self, node: BaselineNode) -> Tuple[int, int]:
        return (
            int(node.position[0] // self.cell_size_m),
            int(node.position[1] // self.cell_size_m),
        )

    def start(self) -> None:
        self.network.start()
        self._round()

    # ------------------------------------------------------------ internals
    def _round(self) -> None:
        """Global round boundary: every neighborhood re-elects in lockstep
        (the synchronized wakeup the paper's Figure 3/4 criticizes)."""
        self.rounds += 1
        any_alive = False
        for members in self._cells.values():
            alive = [n for n in members if n.alive]
            if not alive:
                continue
            any_alive = True
            for node in alive:
                node.charge(self.election_cost_j, "election")
            alive = [n for n in alive if n.alive]
            if not alive:
                continue
            leader = max(alive, key=lambda n: n.remaining_energy())
            leader.set_working(True)
            for node in alive:
                if node is not leader:
                    node.set_working(False)
        if any_alive:
            self.network.sim.schedule(
                self.round_period_s, self._round, label="sync-round"
            )
