"""Working-node topology and GRAB-style cost field.

The paper delivers data reports with GRAB [11], a gradient ("cost field")
forwarding protocol: the sink floods a cost field over the network; each
node remembers its cumulative cost to the sink, and reports flow down the
gradient.  PEAS's evaluation only needs the substrate's end-to-end outcome
— whether the current *working* topology sustains delivery — so this module
maintains:

* :class:`WorkingTopology` — the graph of working nodes with edges between
  pairs within communication range, updated incrementally from the
  protocol's working-set observer stream;
* :class:`CostField` — hop-count costs to the sink, recomputed lazily
  (breadth-first from the sink's attachment nodes) whenever the topology
  changed since the last query.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..net.field import Point, distance_sq
from ..net.neighbors import NeighborCache
from ..net.spatial import SpatialGrid

__all__ = ["WorkingTopology", "CostField"]


class WorkingTopology:
    """Incremental graph over the currently working nodes.

    Parameters
    ----------
    grid:
        Spatial index over *alive* node positions (shared with the channel);
        used to find communication-range neighbor candidates.
    comm_range:
        Maximum transmission range R_t (paper: 10 m).
    neighbors:
        Optional shared :class:`NeighborCache` over ``grid`` (the channel's
        memo).  With it, each node's R_t reach is queried once, uncached, on
        its first ``add_working`` and kept as store rows, instead of a fresh
        range query per working-set change; the cache gains no entries.
    """

    def __init__(
        self,
        grid: SpatialGrid,
        comm_range: float,
        neighbors: Optional[NeighborCache] = None,
    ) -> None:
        if comm_range <= 0:
            raise ValueError("comm_range must be positive")
        self.grid = grid
        self.comm_range = float(comm_range)
        self.neighbor_cache = neighbors
        self._positions: Dict[Hashable, Point] = {}
        self._adjacency: Dict[Hashable, Set[Hashable]] = {}
        #: bumped on every change, including a working node leaving or
        #: entering the grid; cost fields and gradient paths compare against it
        self.version = 0
        #: (x, y, radius) -> grid.within result, one entry per station point
        #: (source and sink).  Nodes never move, so an entry stays exact
        #: while the grid only loses members; see _on_grid_change.
        self._candidates: Dict[Tuple[float, float, float], List[Hashable]] = {}
        #: node -> int32 store rows within R_t of it, nearest first, from its
        #: first add_working (only with a neighbor cache).  Nodes never move
        #: and never come back from death, so intersected with the working
        #: set it equals a fresh query while the grid only loses members;
        #: see _on_grid_change.
        self._reach: Dict[Hashable, np.ndarray] = {}
        grid.add_listener(self._on_grid_change)

    # ------------------------------------------------------------- mutation
    def add_working(self, node_id: Hashable, position: Point) -> None:
        if node_id in self._positions:
            raise KeyError(f"{node_id!r} is already in the working topology")
        self._positions[node_id] = position
        neighbors: Set[Hashable] = set()
        for candidate in self._reach_of(node_id, position):
            if candidate != node_id and candidate in self._positions:
                neighbors.add(candidate)
                self._adjacency[candidate].add(node_id)
        self._adjacency[node_id] = neighbors
        self.version += 1

    def _reach_of(self, node_id: Hashable, position: Point) -> List[Hashable]:
        """Candidate neighbors of ``node_id``: the ids within R_t of it."""
        cache = self.neighbor_cache
        if cache is None:
            return self.grid.within(position, self.comm_range)
        store = cache.grid.store
        reach = self._reach.get(node_id)
        if reach is None:
            row_of = store.row_of
            found = cache.neighbors_at(position, self.comm_range, exclude=node_id)
            reach = self._reach[node_id] = np.array(
                [row_of[item] for item, _ in found], dtype=np.int32
            )
        ids = store.ids
        return [ids[row] for row in reach.tolist()]

    def remove_working(self, node_id: Hashable) -> None:
        neighbors = self._adjacency.pop(node_id)
        del self._positions[node_id]
        for neighbor in neighbors:
            self._adjacency[neighbor].discard(node_id)
        self.version += 1

    # ------------------------------------------------------------- snapshot
    def state_dict(self) -> dict:
        """Membership *in insertion order* plus the version counter; edges
        and positions are derived (recomputed by replaying ``add_working``
        against the restored grid)."""
        return {"order": list(self._positions), "version": self.version}

    def load_state(self, state: dict, positions: Mapping[Hashable, Point]) -> None:
        """Rebuild the graph into a freshly constructed topology by
        re-adding members in their original insertion order (dict order is
        behavior: ``connected_components`` and the gradient walk read it)."""
        if self._positions:
            raise ValueError("load_state requires an empty topology")
        for node_id in state["order"]:
            self.add_working(node_id, positions[node_id])
        self.version = int(state["version"])

    # -------------------------------------------------------------- queries
    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def nodes(self) -> List[Hashable]:
        return list(self._positions)

    def position(self, node_id: Hashable) -> Point:
        return self._positions[node_id]

    def neighbors(self, node_id: Hashable) -> Set[Hashable]:
        return self._adjacency[node_id]

    def working_within(self, point: Point, radius: float) -> List[Hashable]:
        """Working nodes within ``radius`` of an arbitrary point (used to
        attach the source and sink stations to the network)."""
        key = (point[0], point[1], radius)
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = self._candidates[key] = self.grid.within(point, radius)
        positions = self._positions
        r_sq = radius * radius
        return [
            node_id
            for node_id in candidates
            if node_id in positions
            and distance_sq(positions[node_id], point) <= r_sq
        ]

    def _on_grid_change(self, kind: str, item: Hashable, _position: Point) -> None:
        """Keep the cached candidates equal to a fresh ``grid.within``: a
        removed node leaves every list it is in; an insert may add a
        candidate anywhere, so it drops them all, and every kept reach.

        A working node that leaves or re-enters the grid changes the
        station attachments without a working-set change, so it bumps the
        version too (a death detaches the node before it stops working)."""
        if item in self._positions:
            self.version += 1
        if kind == "insert":
            self._candidates.clear()
            self._reach.clear()
            return
        for candidates in self._candidates.values():
            if item in candidates:
                candidates.remove(item)

    def connected_components(self) -> List[Set[Hashable]]:
        """All connected components (used by the §3 connectivity analysis)."""
        seen: Set[Hashable] = set()
        components: List[Set[Hashable]] = []
        for start in self._positions:
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            while queue:
                current = queue.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in component:
                        component.add(neighbor)
                        queue.append(neighbor)
            seen |= component
            components.append(component)
        return components


class CostField:
    """Hop-count gradient to the sink over the working topology.

    The sink is a station at a fixed point; every working node within its
    attachment radius is a zero-cost field origin (GRAB's sink broadcast).
    The field is rebuilt lazily when the topology version moved.
    """

    def __init__(self, topology: WorkingTopology, sink: Point, attach_radius: float):
        if attach_radius <= 0:
            raise ValueError("attach_radius must be positive")
        self.topology = topology
        self.sink = sink
        self.attach_radius = float(attach_radius)
        self._costs: Dict[Hashable, int] = {}
        self._built_version = -1
        self.rebuild_count = 0

    def costs(self) -> Dict[Hashable, int]:
        """Current cost table (hops to the sink attachment ring)."""
        if self._built_version != self.topology.version:
            self._rebuild()
        return self._costs

    def cost(self, node_id: Hashable) -> Optional[int]:
        """Hop cost of a node, or ``None`` if it cannot reach the sink."""
        return self.costs().get(node_id)

    def _rebuild(self) -> None:
        origins = self.topology.working_within(self.sink, self.attach_radius)
        costs: Dict[Hashable, int] = {node_id: 0 for node_id in origins}
        queue = deque(origins)
        while queue:
            current = queue.popleft()
            next_cost = costs[current] + 1
            for neighbor in self.topology.neighbors(current):
                if neighbor not in costs:
                    costs[neighbor] = next_cost
                    queue.append(neighbor)
        self._costs = costs
        self._built_version = self.topology.version
        self.rebuild_count += 1
