"""Spatial index for range queries over stationary nodes.

Sensor nodes in the paper are stationary once deployed (§5.2), so the index
is built once and queried many times: the radio channel asks "who is within
transmission range r of point p" on every PROBE/REPLY, the routing layer
asks for communication-range neighborhoods, and a region kill asks for the
nodes inside its disk.

:class:`SpatialGrid` keeps the positions in a
:class:`~repro.net.columnar.ColumnarNodeStore` and answers a range query as
one ``searchsorted`` slice of an x-sorted row view (the closed window
``cx - r <= x <= cx + r``) filtered by the exact squared-distance mask
``dx*dx + dy*dy <= r*r`` and the store's alive mask.  The window is part
of the predicate, not only a pruning step: a point whose x lies outside it
is never returned, even where its squared distance underflows to within
``r*r``.

Order is canonical and depends only on the insertion history, never on hash
values or removal patterns: :meth:`SpatialGrid.query_rows` sorts by
``(dist_sq, insertion index)`` and :meth:`SpatialGrid.within` by insertion
index.  Store rows are append-only, so a row *is* the insertion index.

The index also supports *mutation listeners* — callbacks invoked after every
``insert``/``remove`` — which :class:`repro.net.neighbors.NeighborCache`
uses to invalidate memoized neighborhoods when a node dies.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from .columnar import ColumnarNodeStore
from .field import Point

__all__ = ["SpatialGrid"]

#: listener signature: (kind, item, position) with kind in {"insert", "remove"}
MutationListener = Callable[[str, Hashable, Point], None]


class SpatialGrid:
    """Index mapping ids to fixed positions, backed by a columnar store.

    Mutations are rare (deployment setup plus node deaths): an insert
    appends a store row and drops the x-sorted view, which the next query
    rebuilds; a remove only tombstones the row, so the view stays valid and
    dead rows are masked out per query.
    """

    def __init__(self) -> None:
        self.store = ColumnarNodeStore()
        #: live item -> position: membership and position stay one dict
        #: lookup (the channel asks ``sender in grid`` on every frame)
        self._positions: Dict[Hashable, Point] = {}
        self._listeners: List[MutationListener] = []
        #: row indices sorted by x (tombstones included) + their x values
        self._sorted_rows: Optional[np.ndarray] = None
        self._sorted_xs: Optional[np.ndarray] = None

    # ------------------------------------------------------------- mutation
    def insert(self, item: Hashable, position: Point) -> None:
        if item in self._positions:
            raise KeyError(f"item {item!r} already indexed")
        self._positions[item] = position
        self.store.append(item, float(position[0]), float(position[1]))
        self._sorted_rows = None
        self._sorted_xs = None
        for listener in self._listeners:
            listener("insert", item, position)

    def remove(self, item: Hashable) -> None:
        position = self._positions.pop(item)
        self.store.kill(item)
        for listener in self._listeners:
            listener("remove", item, position)

    def add_listener(self, listener: MutationListener) -> None:
        """Register a callback invoked after every insert/remove."""
        self._listeners.append(listener)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._positions

    def position(self, item: Hashable) -> Point:
        return self._positions[item]

    def items(self) -> Iterable[Tuple[Hashable, Point]]:
        return self._positions.items()

    def row_index(self, item: Hashable) -> int:
        """The store row of ``item`` (valid even after removal)."""
        return self.store.row_of[item]

    def _sorted_view(self) -> Tuple[np.ndarray, np.ndarray]:
        rows = self._sorted_rows
        if rows is None:
            size = self.store.size
            xs = self.store.xs[:size]
            rows = np.argsort(xs, kind="stable").astype(np.intp)
            self._sorted_rows = rows
            self._sorted_xs = xs[rows].copy()
        assert self._sorted_xs is not None
        return rows, self._sorted_xs

    def query_rows(
        self, center: Point, radius: float, exclude_row: int = -1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows within ``radius`` of ``center`` plus squared distances.

        Rows come back sorted by ``(dist_sq, insertion index)`` — the
        canonical neighbor-list order.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        cx, cy = center
        sorted_rows, sorted_xs = self._sorted_view()
        lo = int(np.searchsorted(sorted_xs, cx - radius, side="left"))
        hi = int(np.searchsorted(sorted_xs, cx + radius, side="right"))
        empty = np.empty(0, dtype=np.intp)
        if lo >= hi:
            return empty, np.empty(0, dtype=np.float64)
        candidates = sorted_rows[lo:hi]
        store = self.store
        dx = store.xs[candidates] - cx
        dy = store.ys[candidates] - cy
        d_sq = dx * dx + dy * dy
        mask = (d_sq <= radius * radius) & store.alive[candidates]
        if exclude_row >= 0:
            mask &= candidates != exclude_row
        rows = candidates[mask]
        if rows.size == 0:
            return empty, np.empty(0, dtype=np.float64)
        dists = d_sq[mask]
        # Primary key: squared distance; tie-break: insertion index (= row).
        chosen = np.lexsort((rows, dists))
        return rows[chosen], dists[chosen]

    def within(self, center: Point, radius: float) -> List[Hashable]:
        """Indexed items within ``radius`` of ``center`` (inclusive),
        sorted by insertion index."""
        rows, _ = self.query_rows(center, radius)
        ids = self.store.ids
        return [ids[row] for row in np.sort(rows).tolist()]
