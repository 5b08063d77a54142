"""AlwaysOn baseline: no energy conservation at all.

Every node works from deployment until its battery empties (or it fails).
This is the degenerate comparator the paper's premise implies: without
turning redundant nodes off, the whole population lives exactly one battery
lifetime (~4500-5000 s at idle draw, §5.1), regardless of how many nodes
are deployed — the flat line that PEAS's linear scaling is measured against.
"""

from __future__ import annotations

from .base import BaselineNetwork

__all__ = ["AlwaysOnProtocol"]


class AlwaysOnProtocol:
    """Turn everything on at t = 0 and never turn anything off."""

    name = "always_on"

    def __init__(self, network: BaselineNetwork) -> None:
        self.network = network

    def start(self) -> None:
        self.network.start()
        for node in self.network.nodes.values():
            node.set_working(True)
