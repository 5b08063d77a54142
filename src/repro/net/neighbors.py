"""Memoized neighborhoods over a stationary-topology spatial index.

PEAS nodes never move once deployed (§5.2), yet the seed substrate re-ran a
bucket-grid range query for every PROBE/REPLY broadcast and every routing
update.  :class:`NeighborCache` exploits immobility: the answer to "who is
within radius r of node x" can only change when a node *leaves* the index
(death) or a new one is attached, so it is safe to memoize per
``(node_id, radius)`` with invalidation hooked into grid mutations.

Neighborhoods are **sorted by distance** (ties broken by grid insertion
order, which is deterministic), carry the precomputed Euclidean distance,
and exclude the center node itself.  Every consumer — the broadcast
channel, the working-topology/cost-field routing layer, and the
GAF/Span/AFECA baselines — reads the same canonical ordering, which is what
makes runs bit-identical whether the cache is enabled or bypassed: the
brute-force path runs the exact same computation, just without memoizing.

The cache reads the grid's store rows and its
:meth:`~repro.net.spatial.SpatialGrid.query_rows`.  It can be disabled
(for golden-seed determinism tests and A/B benchmarking) via
``enabled=False`` or the ``REPRO_NEIGHBOR_CACHE=0`` environment variable.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from .field import Point
from .spatial import SpatialGrid

__all__ = ["NeighborCache", "build_neighbor_lists"]

#: a neighbor entry: (node_id, euclidean distance from the center node)
Neighbor = Tuple[Hashable, float]

_ENV_FLAG = "REPRO_NEIGHBOR_CACHE"

#: Neighborhoods at or below this size additionally memoize plain python
#: lists of their store rows and distances, which the broadcast channel
#: iterates directly.  Larger audiences are first masked by the store's
#: numpy ``listening`` column, whose fixed per-call overhead only pays off
#: above a few hundred candidates; skipping the boxed lists there also
#: saves memory (at 50 k nodes x ~500-row neighborhoods they would run to
#: hundreds of MB).
_SCALAR_AUDIENCE_MAX = 256

#: Populations at or below this size use exact eager invalidation (a
#: row -> cache-keys reverse index), making a cache hit one dict lookup
#: with no numpy at all.  Above it the reverse index would cost
#: O(nodes x neighborhood) memory — tens of millions of set entries at
#: 50k nodes — so entries carry the store's death epoch instead and
#: revalidate lazily against the alive mask when a death has occurred.
_EXACT_INVALIDATION_MAX = 4096


def cache_enabled_default() -> bool:
    """Default enablement: on unless ``REPRO_NEIGHBOR_CACHE=0``."""
    return os.environ.get(_ENV_FLAG, "1").lower() not in ("0", "false", "off")


class NeighborCache:
    """Per-``(node_id, radius)`` memo of sorted-by-distance neighborhoods.

    Parameters
    ----------
    grid:
        The :class:`~repro.net.spatial.SpatialGrid` to memoize over.  The
        cache registers itself as a mutation listener: an ``insert`` flushes
        everything (new nodes only appear during setup), a ``remove`` drops
        the entries whose neighborhoods contained — or were centered on —
        the removed node.
    enabled:
        ``False`` turns the memo off; queries then recompute from the grid
        every time through the *same* code path (identical results, used to
        prove determinism).  ``None`` reads ``REPRO_NEIGHBOR_CACHE``.
    """

    def __init__(
        self, grid: SpatialGrid, enabled: Optional[bool] = None
    ) -> None:
        self.grid = grid
        self.enabled = cache_enabled_default() if enabled is None else bool(enabled)
        self._store = grid.store
        #: (id, radius) -> mutable entry ``[rows, epoch, row list or None,
        #: distance list or None]`` (see :meth:`columnar_entry`)
        self._entries: Dict[Tuple[Hashable, float], list] = {}
        #: exact mode: store row -> keys of entries containing or centered
        #: on it
        self._row_keys: Dict[int, Set[Tuple[Hashable, float]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        grid.add_listener(self._on_grid_change)

    # -------------------------------------------------------------- queries
    def neighbors(self, item: Hashable, radius: float) -> List[Hashable]:
        """Neighbor ids of ``item`` within ``radius``, closest first."""
        return [node_id for node_id, _ in self.neighbors_with_distance(item, radius)]

    def neighbors_with_distance(self, item: Hashable, radius: float) -> List[Neighbor]:
        """``(neighbor_id, distance)`` pairs, sorted by distance.

        ``item`` itself is excluded.  Built fresh from the cached entry on
        every call.
        """
        entry = self.columnar_entry(item, radius)
        rows, dists = entry[2], entry[3]
        if rows is None:
            rows, dists = self.row_distances(self.grid.position(item), entry[0])
        ids = self._store.ids
        return [(ids[row], dist) for row, dist in zip(rows, dists)]

    def columnar_entry(self, item: Hashable, radius: float) -> list:
        """The cache entry for the neighborhood of ``item``.

        Returns the mutable 4-slot entry ``[rows, epoch, row_list,
        dists_list]``: ``rows`` is the canonical ``(dist, insertion
        index)``-sorted store row array; ``row_list`` / ``dists_list``
        are plain python lists of the rows and their distances for
        neighborhoods of at most ``_SCALAR_AUDIENCE_MAX`` nodes, ``None``
        above that (consumers then batch against the store).  Small
        populations evict eagerly through a row reverse index (a hit is
        then one dict lookup, no numpy); large ones tag entries with the
        store's death epoch and revalidate against the alive mask only
        when a death has happened since.
        """
        key = (item, radius)
        store = self._store
        if self.enabled:
            entry = self._entries.get(key)
            if entry is not None:
                epoch = entry[1]
                if epoch is None or epoch == store.death_epoch:
                    self.hits += 1
                    return entry
                if store.alive[store.row_of[item]] and np.all(store.alive[entry[0]]):
                    entry[1] = store.death_epoch
                    self.hits += 1
                    return entry
                self.invalidations += 1
                del self._entries[key]
        self.misses += 1
        grid = self.grid
        position = grid.position(item)
        center = grid.row_index(item)
        rows, d_sq = grid.query_rows(position, radius, exclude_row=center)
        entry = [rows.astype(np.int32), store.death_epoch, None, None]
        if rows.shape[0] <= _SCALAR_AUDIENCE_MAX:
            entry[2] = rows.tolist()
            entry[3] = np.sqrt(d_sq).tolist()
        if self.enabled:
            self._entries[key] = entry
            if store.size <= _EXACT_INVALIDATION_MAX:
                entry[1] = None
                row_keys = self._row_keys
                for row in rows.tolist() + [center]:
                    members = row_keys.get(row)
                    if members is None:
                        row_keys[row] = {key}
                    else:
                        members.add(key)
        return entry

    def row_distances(
        self, position: Point, rows: np.ndarray
    ) -> Tuple[List[int], List[float]]:
        """``rows`` and their distances from ``position``, as plain lists.

        Runs the same subtraction/square/sqrt sequence as the grid query
        behind :meth:`columnar_entry`, so the floats are bit-identical to a
        memoized ``dists_list``.
        """
        store = self._store
        cx, cy = position
        dx = store.xs[rows] - cx
        dy = store.ys[rows] - cy
        return rows.tolist(), np.sqrt(dx * dx + dy * dy).tolist()

    def neighbors_at(
        self, position: Point, radius: float, exclude: Optional[Hashable] = None
    ) -> List[Neighbor]:
        """Uncached ``(id, distance)`` pairs around an arbitrary position.

        Cold path for queries not centered on a live grid member (e.g. a
        frame sent by a node whose death raced its own pending transmission).
        Ordering matches :meth:`neighbors_with_distance` exactly.
        """
        store = self._store
        rows, d_sq = self.grid.query_rows(
            position, radius, exclude_row=store.row_of.get(exclude, -1)
        )
        ids = store.ids
        sqrt = math.sqrt
        return [(ids[row], sqrt(d)) for row, d in zip(rows.tolist(), d_sq.tolist())]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self),
        }

    # ------------------------------------------------------------ internals
    def _on_grid_change(self, kind: str, item: Hashable, position: Point) -> None:
        entries = self._entries
        if kind == "insert":
            # Inserts only happen during deployment setup; a blanket flush is
            # both correct and cheap there.
            if entries:
                self.invalidations += len(entries)
                entries.clear()
                self._row_keys.clear()
            return
        # Removal (node death), exact mode: evict every entry whose rows
        # contain the removed node or that is centered on it.  Epoch-tagged
        # entries are not reverse-indexed; their next lookup revalidates.
        keys = self._row_keys.pop(self._store.row_of[item], None)
        if keys:
            for key in keys:
                if entries.pop(key, None) is not None:
                    self.invalidations += 1


def build_neighbor_lists(
    positions: Dict[Hashable, Point], radius: float
) -> Dict[Hashable, List[Hashable]]:
    """One-shot sorted-by-distance neighbor lists for a static population.

    Convenience for the coordination-level baselines (GAF/Span/AFECA) that
    need the full ``id -> [neighbor ids]`` map once at construction: builds
    a throwaway grid + cache and returns plain lists (closest first).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    grid = SpatialGrid()
    for node_id, position in positions.items():
        grid.insert(node_id, position)
    cache = NeighborCache(grid, enabled=True)
    return {node_id: cache.neighbors(node_id, radius) for node_id in positions}
