"""Columnar (struct-of-arrays) backing store for per-node state.

The object-graph substrate keeps node state spread across Python objects —
per-node positions inside bucket dicts, listening state behind a method
call, half-duplex deadlines in a dict — which is exactly the layout the
simulator-survey literature blames for the 10k-node wall: every range query
and every broadcast fan-out walks pointers one node at a time.

:class:`ColumnarNodeStore` holds the same state as parallel arrays
(positions, alive mask, listening flag, half-duplex deadline), and
:class:`ColumnarSpatialGrid` answers range queries as a bounding-box slice
over an x-sorted view plus a squared-distance mask — identical arithmetic
to the scalar bucket scan of :class:`~repro.net.spatial.SpatialGrid`, so
both return the same ids in the same canonical order.

:class:`ColumnarSpatialGrid` is the spatial index every simulation runs on
(the PEAS network, the baselines' routing topology, the neighbor cache and
the broadcast channel).  The scalar grid stays as the oracle the property
tests check it against and as the index of the analysis helpers.

Rows are append-only: node death marks ``alive[row] = False`` but never
reuses the row, so a row index doubles as the node's grid insertion index
and id→row mappings stay valid for the whole run (the channel still needs
the row of a node whose death raced its own in-flight frame).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from .field import Field, Point
from .spatial import SpatialGrid

__all__ = ["ColumnarNodeStore", "ColumnarSpatialGrid"]


class ColumnarNodeStore:
    """Parallel per-node state arrays, grown by doubling, rows append-only.

    Columns
    -------
    ``xs`` / ``ys``
        Positions (float64), exactly the floats handed to ``insert``.
    ``alive``
        False once the node left the index (death); dead rows are
        tombstones excluded by every query mask.
    ``listening``
        Radio-on flag published by every attached endpoint via
        :meth:`repro.net.channel.BroadcastChannel.note_listening`; lets the
        broadcast fan-out drop the sleepers of a large neighborhood with
        one mask instead of one check per candidate.
    ``listening_py`` / ``tx_until_py``
        Plain lists: the listening flag again, and the absolute time the
        node's own transmission ends (half duplex, maintained by the
        channel).  The channel's per-candidate loop reads them, and a list
        index is several times cheaper than a numpy scalar read.
    """

    __slots__ = (
        "xs", "ys", "alive", "listening",
        "listening_py", "tx_until_py",
        "ids", "row_of", "size", "death_epoch", "_capacity",
    )

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(int(capacity), 8)
        self.xs = np.zeros(capacity, dtype=np.float64)
        self.ys = np.zeros(capacity, dtype=np.float64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.listening = np.zeros(capacity, dtype=bool)
        self.listening_py: List[bool] = []
        self.tx_until_py: List[float] = []
        #: row -> id (rows of removed nodes keep their id; rows never recycle)
        self.ids: List[Hashable] = []
        #: id -> row, kept across removal (see module docstring)
        self.row_of: Dict[Hashable, int] = {}
        self.size = 0
        #: bumped on every kill; consumers cache it to answer "has anything
        #: died since I computed this?" with one int compare
        self.death_epoch = 0
        self._capacity = capacity

    def append(self, item: Hashable, x: float, y: float) -> int:
        """Add a live row for ``item`` and return its index."""
        row = self.size
        if row == self._capacity:
            self._grow()
        self.xs[row] = x
        self.ys[row] = y
        self.alive[row] = True
        self.listening[row] = False
        self.listening_py.append(False)
        self.tx_until_py.append(0.0)
        self.ids.append(item)
        self.row_of[item] = row
        self.size = row + 1
        return row

    def kill(self, item: Hashable) -> None:
        """Tombstone ``item``'s row (removal from the index)."""
        row = self.row_of[item]
        self.alive[row] = False
        self.listening[row] = False
        self.listening_py[row] = False
        self.death_epoch += 1

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        for name in ("xs", "ys", "alive", "listening"):
            old = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        self._capacity = new_capacity


class ColumnarSpatialGrid(SpatialGrid):
    """Drop-in :class:`SpatialGrid` with vectorized range queries.

    Mutations delegate to the scalar superclass (keeping the bucket grid,
    position map and insertion order authoritative — mutations are rare:
    deployment setup plus node deaths) and mirror into the columnar store;
    the query methods are overridden with numpy implementations over the
    store's position columns.

    Query strategy: an x-sorted row index (built lazily, invalidated by
    insert) turns the bounding box ``|x - cx| <= r`` into one
    ``searchsorted`` slice; the slice is then filtered by the exact
    squared-distance mask ``dx*dx + dy*dy <= r*r`` — the same float
    arithmetic as the scalar bucket scan, so membership is bit-identical.
    """

    def __init__(self, field: Field, cell_size: float) -> None:
        super().__init__(field, cell_size)
        self.store = ColumnarNodeStore()
        #: row indices sorted by x (tombstones included) + their x values
        self._sorted_rows: Optional[np.ndarray] = None
        self._sorted_xs: Optional[np.ndarray] = None

    # ------------------------------------------------------------- mutation
    def insert(self, item: Hashable, position: Point) -> None:
        super().insert(item, position)
        self.store.append(item, float(position[0]), float(position[1]))
        self._sorted_rows = None
        self._sorted_xs = None

    def remove(self, item: Hashable) -> None:
        super().remove(item)
        # Tombstone only: the sorted-by-x view stays valid, dead rows are
        # masked out per query.
        self.store.kill(item)

    # -------------------------------------------------------------- queries
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
        canonical neighbor-list order (a columnar row index *is* the grid
        insertion index, rows being append-only).
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

    def row_index(self, item: Hashable) -> int:
        """The store row of ``item`` (valid even after removal)."""
        return self.store.row_of[item]

    def within(self, center: Point, radius: float) -> List[Hashable]:
        rows, _ = self.query_rows(center, radius)
        if rows.size == 0:
            return []
        ids = self.store.ids
        # Canonical ``within`` order is insertion order (documented in
        # :class:`SpatialGrid`); rows are insertion-ordered by construction.
        return [ids[row] for row in np.sort(rows).tolist()]

    def within_annotated(
        self, center: Point, radius: float
    ) -> List[Tuple[float, int, Hashable]]:
        rows, d_sq = self.query_rows(center, radius)
        ids = self.store.ids
        return [
            (dist, row, ids[row])
            for dist, row in zip(d_sq.tolist(), rows.tolist())
        ]

    def nearest(self, center: Point) -> Hashable:
        if not self._positions:
            raise ValueError("index is empty")
        store = self.store
        size = store.size
        cx, cy = center
        dx = store.xs[:size] - cx
        dy = store.ys[:size] - cy
        d_sq = dx * dx + dy * dy
        d_sq[~store.alive[:size]] = np.inf
        # argmin's first-minimum rule == lowest row == earliest insertion,
        # a deterministic stand-in for the scalar path's "arbitrary" ties.
        return store.ids[int(np.argmin(d_sq))]
