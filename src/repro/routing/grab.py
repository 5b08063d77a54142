"""GRAB-style report delivery over the working topology.

GRAB [11] forwards each report down the sink's cost field inside a
*forwarding mesh* whose width is controlled by a credit: intermediate nodes
with smaller cost than the custodian rebroadcast, so a report survives
individual link losses as long as the mesh stays connected.

Substitution note (see DESIGN.md): we do not bit-simulate the mesh.  A
report is delivered iff (a) a gradient path exists from one of the source's
attachment nodes to the sink's attachment ring, and (b) an independent
per-hop Bernoulli survival test — with the mesh width amplifying each hop's
success probability to ``1 - loss^width`` — passes along the minimum-cost
path.  With the default lossless links this reduces to path existence, which
is exactly what the paper's delivery-lifetime metric measures: whether PEAS
maintains a routable working set between the corners (§5.2).
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Tuple  # noqa: F401 (Hashable in hints)

from ..net.field import Point
from .costfield import CostField, WorkingTopology

__all__ = ["GrabRouter", "DeliveryOutcome"]


class DeliveryOutcome:
    """Result of one report's delivery attempt (diagnostic detail)."""

    __slots__ = ("delivered", "hops", "reason", "path")

    def __init__(
        self,
        delivered: bool,
        hops: Optional[int],
        reason: str,
        path: Optional[List[Hashable]] = None,
    ) -> None:
        self.delivered = delivered
        self.hops = hops
        self.reason = reason
        #: node ids of the gradient path actually used (entry -> sink ring),
        #: present when a path existed; used for data-plane energy charging.
        self.path = path

    def __bool__(self) -> bool:
        return self.delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeliveryOutcome {self.reason} hops={self.hops}>"


class _Names(Dict[Hashable, str]):
    """node id -> ``str(node id)``, each built on first use."""

    def __missing__(self, node_id: Hashable) -> str:
        name = self[node_id] = str(node_id)
        return name


class GrabRouter:
    """Delivers reports from a source station to a sink station.

    Parameters
    ----------
    topology:
        The live working-node graph.
    source / sink:
        Station positions (the paper places them in opposite corners).
    attach_radius:
        Radius within which stations reach working nodes (R_t).
    link_loss:
        Per-hop, per-report loss probability before mesh amplification.
    mesh_width:
        GRAB credit expressed as the number of parallel custodians per hop.
    rng:
        Stream for the per-hop survival draws.
    """

    def __init__(
        self,
        topology: WorkingTopology,
        source: Point,
        sink: Point,
        attach_radius: float,
        link_loss: float = 0.0,
        mesh_width: int = 2,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= link_loss < 1.0:
            raise ValueError("link_loss must be in [0, 1)")
        if mesh_width < 1:
            raise ValueError("mesh_width must be >= 1")
        self.topology = topology
        self.source = source
        self.sink = sink
        self.attach_radius = float(attach_radius)
        self.link_loss = link_loss
        self.mesh_width = mesh_width
        self.rng = rng if rng is not None else random.Random(0)
        self.cost_field = CostField(topology, sink, attach_radius)
        #: gradient_path's last result and the topology version it is for
        self._path: Optional[Tuple[Hashable, ...]] = None
        self._path_version = -1
        #: canonical tie-break key per node for the gradient descent
        self._names = _Names()

    # -------------------------------------------------------------- queries
    def source_attachments(self) -> List[Hashable]:
        return self.topology.working_within(self.source, self.attach_radius)

    def best_entry(self) -> Optional[Hashable]:
        """The source attachment node with the lowest cost to the sink."""
        costs = self.cost_field.costs()
        reachable = [n for n in self.source_attachments() if n in costs]
        if not reachable:
            return None
        return min(reachable, key=lambda n: costs[n])

    def path_hops(self) -> Optional[int]:
        """Minimum gradient path length source->sink, or ``None``."""
        entry = self.best_entry()
        if entry is None:
            return None
        return self.cost_field.costs()[entry] + 1  # +1 for the entry hop

    def gradient_path(self) -> Optional[List[Hashable]]:
        """One minimum-cost gradient path from the entry node to the sink
        attachment ring (greedy descent over the cost field).

        The descent is reused while the topology version is unchanged (the
        cost field is keyed the same way); each caller gets its own list.
        The version also moves when a working node leaves or re-enters the
        grid, which changes the station attachments on its own.
        """
        version = self.topology.version
        if version != self._path_version:
            self._path = self._descend()
            self._path_version = version
        return None if self._path is None else list(self._path)

    def _descend(self) -> Optional[Tuple[Hashable, ...]]:
        entry = self.best_entry()
        if entry is None:
            return None
        costs = self.cost_field.costs()
        neighbors = self.topology.neighbors
        name = self._names.__getitem__
        path = [entry]
        current = entry
        cost = costs[current]
        while cost > 0:
            # The field is a BFS over this very topology, so neighbor costs
            # differ by at most one and the cheapest neighbors cost exactly
            # one less.  Tie-break on a canonical id key: neighbors() is a
            # set whose iteration order depends on its mutation history,
            # so the hop must not depend on that order.
            cost -= 1
            next_hop = min(
                (n for n in neighbors(current) if costs.get(n) == cost),
                key=name,
                default=None,
            )
            if next_hop is None:
                return None  # cost field stale relative to topology: no path
            path.append(next_hop)
            current = next_hop
        return tuple(path)

    # ------------------------------------------------------------- delivery
    def deliver(self) -> DeliveryOutcome:
        """Attempt to deliver one report right now."""
        path = self.gradient_path()
        if path is None:
            if not self.source_attachments():
                return DeliveryOutcome(False, None, "no working node near source")
            return DeliveryOutcome(False, None, "source disconnected from sink")
        hops = len(path)
        if self.link_loss > 0.0:
            hop_success = 1.0 - self.link_loss**self.mesh_width
            for _ in range(hops):
                if self.rng.random() >= hop_success:
                    return DeliveryOutcome(False, hops, "lost in forwarding mesh",
                                           path=path)
        return DeliveryOutcome(True, hops, "delivered", path=path)
