"""Uniform-grid spatial index for range queries over stationary nodes.

Sensor nodes in the paper are stationary once deployed (§5.2), so the index
is built once and queried many times: the radio channel asks "who is within
transmission range r of point p" on every PROBE/REPLY, and the routing layer
asks for communication-range neighborhoods.

A uniform bucket grid gives O(1) expected query time for the short ranges the
protocol uses (probing range 3 m, radio range 10 m in a 50 x 50 m field).

Buckets are insertion-ordered dicts, so membership deletion is O(1) (node
death must not scan a bucket) and iteration order is reproducible:
:meth:`SpatialGrid.within` returns its results **sorted by insertion
index** — a canonical order that depends only on the insertion history,
never on hash values, removal patterns or bucket geometry, and that the
columnar subclass (:mod:`repro.net.columnar`) that simulations run on
reproduces exactly; this grid is its test oracle.  Bucket
values carry the position and the item's insertion index inline, so range
scans never do a secondary id->position lookup.

The index also supports *mutation listeners* — callbacks invoked on every
``insert``/``remove`` — which :class:`repro.net.neighbors.NeighborCache`
uses to invalidate memoized neighborhoods when a node dies.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from .field import Field, Point

__all__ = ["SpatialGrid"]

#: listener signature: (kind, item, position) with kind in {"insert", "remove"}
MutationListener = Callable[[str, Hashable, Point], None]


class SpatialGrid:
    """Bucket-grid index mapping ids to fixed positions.

    Parameters
    ----------
    field:
        The deployment field (defines the indexed extent).
    cell_size:
        Bucket edge length.  A good choice is the most common query radius;
        queries then touch at most 9 buckets.
    """

    def __init__(self, field: Field, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.field = field
        self.cell_size = float(cell_size)
        #: ix -> iy -> {item: (x, y, insertion index, item)}.  Two-level
        #: int-keyed dicts avoid allocating an (ix, iy) tuple per bucket probe
        #: on the query hot path; insertion-ordered buckets give O(1) delete
        #: and reproducible scan order.  The item id is repeated inside the
        #: value so hot scans can iterate ``.values()`` alone (no per-entry
        #: key/value pair construction).
        self._cells: Dict[
            int, Dict[int, Dict[Hashable, Tuple[float, float, int, Hashable]]]
        ] = {}
        self._positions: Dict[Hashable, Point] = {}
        #: item -> monotonically increasing insertion index (deterministic
        #: tie-break for sorted neighbor lists over heterogeneous id types)
        self._order: Dict[Hashable, int] = {}
        self._next_order = 0
        self._listeners: List[MutationListener] = []

    # ------------------------------------------------------------- mutation
    def insert(self, item: Hashable, position: Point) -> None:
        if item in self._positions:
            raise KeyError(f"item {item!r} already indexed")
        self._positions[item] = position
        order = self._next_order
        self._next_order = order + 1
        self._order[item] = order
        x, y = position
        ix, iy = self._cell_of(position)
        self._cells.setdefault(ix, {}).setdefault(iy, {})[item] = (x, y, order, item)
        for listener in self._listeners:
            listener("insert", item, position)

    def remove(self, item: Hashable) -> None:
        position = self._positions.pop(item)
        del self._order[item]
        ix, iy = self._cell_of(position)
        column = self._cells[ix]
        bucket = column[iy]
        del bucket[item]
        if not bucket:
            del column[iy]
            if not column:
                del self._cells[ix]
        for listener in self._listeners:
            listener("remove", item, position)

    def bulk_insert(self, items: Iterable[Tuple[Hashable, Point]]) -> None:
        for item, position in items:
            self.insert(item, position)

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

    def insertion_index(self, item: Hashable) -> int:
        """Deterministic per-item tie-break key (insertion sequence)."""
        return self._order[item]

    def within(self, center: Point, radius: float) -> List[Hashable]:
        """Indexed items within ``radius`` of ``center`` (inclusive),
        sorted by insertion index (the canonical reproducible order shared
        with the columnar grid)."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        r_sq = radius * radius
        cx, cy = center
        # Closed x-window |px - cx| <= radius, checked on the *coordinates*:
        # squared distances underflow to 0.0 for pathologically close
        # points, and the columnar grid's searchsorted x-slice (the same
        # closed window) would exclude what the underflowed d_sq admits.
        win_lo = cx - radius
        win_hi = cx + radius
        cell = self.cell_size
        span = int(math.ceil(radius / cell))
        icx = int(cx // cell)
        icy = int(cy // cell)
        found: List[Hashable] = []
        cells = self._cells
        if span <= 1:
            # <= 9 buckets: per-item checks beat bucket-level pruning.
            for ix in range(icx - span, icx + span + 1):
                column = cells.get(ix)
                if column is None:
                    continue
                for iy in range(icy - span, icy + span + 1):
                    bucket = column.get(iy)
                    if not bucket:
                        continue
                    for px, py, _order, item in bucket.values():
                        dx = px - cx
                        dy = py - cy
                        if dx * dx + dy * dy <= r_sq and win_lo <= px <= win_hi:
                            found.append(item)
            found.sort(key=self._order.__getitem__)
            return found
        # Row geometry (near/far edge distances to the center's y) is shared
        # by every column: precompute it once per query, keeping only rows
        # that can intersect the disk at all.
        rows: List[Tuple[int, float, float]] = []
        for iy in range(icy - span, icy + span + 1):
            y_lo = iy * cell - cy
            y_hi = y_lo + cell
            if y_lo > 0.0:
                near_dy, far_dy = y_lo, y_hi
            elif y_hi < 0.0:
                near_dy, far_dy = y_hi, y_lo
            else:
                near_dy, far_dy = 0.0, (y_hi if y_hi > -y_lo else -y_lo)
            near_dy_sq = near_dy * near_dy
            if near_dy_sq <= r_sq:
                rows.append((iy, near_dy_sq, far_dy * far_dy))
        for ix in range(icx - span, icx + span + 1):
            column = cells.get(ix)
            if column is None:
                continue
            # Signed distance from center to the bucket column's near/far edges.
            x_lo = ix * cell - cx
            x_hi = x_lo + cell
            if x_lo > 0.0:
                near_dx, far_dx = x_lo, x_hi
            elif x_hi < 0.0:
                near_dx, far_dx = x_hi, x_lo
            else:
                near_dx, far_dx = 0.0, (x_hi if x_hi > -x_lo else -x_lo)
            near_dx_sq = near_dx * near_dx
            if near_dx_sq > r_sq:
                continue
            far_dx_sq = far_dx * far_dx
            column_get = column.get
            for iy, near_dy_sq, far_dy_sq in rows:
                if near_dx_sq + near_dy_sq > r_sq:
                    continue  # bucket entirely outside the disk
                bucket = column_get(iy)
                if not bucket:
                    continue
                if far_dx_sq + far_dy_sq <= r_sq:
                    # Bucket entirely inside the disk: take everyone.
                    found.extend(bucket)
                    continue
                for px, py, _order, item in bucket.values():
                    dx = px - cx
                    dy = py - cy
                    if dx * dx + dy * dy <= r_sq and win_lo <= px <= win_hi:
                        found.append(item)
        found.sort(key=self._order.__getitem__)
        return found

    def within_annotated(
        self, center: Point, radius: float
    ) -> List[Tuple[float, int, Hashable]]:
        """Items within ``radius`` as sortable ``(dist_sq, order, item)``.

        Single-pass variant feeding :class:`~repro.net.neighbors.NeighborCache`:
        the squared distance and the deterministic insertion index come out of
        the bucket scan itself, so building a sorted-by-distance neighbor list
        needs no per-item position lookups afterwards.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        r_sq = radius * radius
        cx, cy = center
        # Same closed x-window as `within` (and the columnar searchsorted
        # slice): keeps underflowed d_sq from admitting out-of-window items.
        win_lo = cx - radius
        win_hi = cx + radius
        cell = self.cell_size
        span = int(math.ceil(radius / cell))
        icx = int(cx // cell)
        icy = int(cy // cell)
        found: List[Tuple[float, int, Hashable]] = []
        cells = self._cells
        append = found.append
        for ix in range(icx - span, icx + span + 1):
            column = cells.get(ix)
            if column is None:
                continue
            for iy in range(icy - span, icy + span + 1):
                bucket = column.get(iy)
                if not bucket:
                    continue
                for px, py, order, item in bucket.values():
                    dx = px - cx
                    dy = py - cy
                    d_sq = dx * dx + dy * dy
                    if d_sq <= r_sq and win_lo <= px <= win_hi:
                        append((d_sq, order, item))
        return found

    def nearest(self, center: Point) -> Hashable:
        """The indexed item closest to ``center`` (ties broken arbitrarily).

        Expanding-shell search: buckets are visited in increasing Chebyshev
        ring order, each ring exactly once (inner rings are never re-scanned).
        The search stops as soon as no unvisited ring can contain a closer
        point than the best candidate found so far.
        """
        if not self._positions:
            raise ValueError("index is empty")
        cell = self.cell_size
        cx, cy = center
        icx = int(cx // cell)
        icy = int(cy // cell)
        cells = self._cells
        best: Optional[Hashable] = None
        best_d = math.inf
        # Rings beyond this cannot exist for an in-field index.
        max_ring = (
            int(math.ceil((self.field.width + self.field.height) / cell)) + 2
        )

        def scan(ix: int, iy: int) -> None:
            nonlocal best, best_d
            column = cells.get(ix)
            if column is None:
                return
            bucket = column.get(iy)
            if not bucket:
                return
            for px, py, _order, item in bucket.values():
                dx = px - cx
                dy = py - cy
                d = dx * dx + dy * dy
                if d < best_d:
                    best_d = d
                    best = item

        ring = 0
        while ring <= max_ring:
            if ring == 0:
                scan(icx, icy)
            else:
                for ix in range(icx - ring, icx + ring + 1):
                    scan(ix, icy - ring)
                    scan(ix, icy + ring)
                for iy in range(icy - ring + 1, icy + ring):
                    scan(icx - ring, iy)
                    scan(icx + ring, iy)
            # Any bucket on ring k+1 is at least k*cell away from a center
            # inside bucket (icx, icy); stop once that cannot beat the best.
            if best is not None and (ring * cell) * (ring * cell) >= best_d:
                return best
            ring += 1
        # Only reachable with items indexed outside the declared field.
        if best is not None:
            return best
        return min(
            self._positions,
            key=lambda it: (
                (self._positions[it][0] - cx) ** 2
                + (self._positions[it][1] - cy) ** 2
            ),
        )

    def items(self) -> Iterable[Tuple[Hashable, Point]]:
        return self._positions.items()

    # ------------------------------------------------------------ internals
    def _cell_of(self, position: Point) -> Tuple[int, int]:
        return (
            int(position[0] // self.cell_size),
            int(position[1] // self.cell_size),
        )
