"""Lazy K-coverage computation on a sampling lattice.

§5.1 of the paper: "The sensing coverage is defined as the percentage of the
field monitored by working nodes.  An application may require that each
point in the field be monitored by at least K working nodes ... We define
K-coverage as the percentage of the field size monitored by at least K
working nodes."

The field is sampled on a regular lattice (default 1 m).  Each sample point
keeps the count of working nodes whose sensing disk covers it.  Nodes are
stationary, so each position's disk is computed once as an array of flat
lattice indices.  The working set changes far more often than coverage is
read (every toggle vs. every 10 s sample), so adding or removing a working
node only queues its disk.  The first read after a change folds the queue
into the counts (one ``bincount`` per 32 queued disks), then rebuilds the
``points with count >= K`` counters from one ``bincount`` of the lattice.
Counts are integer sums, so the result does not depend on the order of the
changes, and ``fraction`` stays an O(1) read.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..net.field import Field, Point

__all__ = ["CoverageGrid"]

#: Queued disks folded per ``bincount``.  This bounds the concatenated
#: index array (about 80 KB for a 10 m disk on a 1 m lattice), so many
#: changes between two reads do not raise the process's peak memory.
_FOLD_CHUNK = 32


class CoverageGrid:
    """Exact K-coverage over lattice sample points.

    Parameters
    ----------
    field:
        The deployment area.
    sensing_range:
        Radius of each working node's sensing disk (paper: 10 m).
    resolution:
        Lattice spacing in meters (1 m default; 2500+ points on the paper's
        50 x 50 field).
    max_k:
        Largest K for which the ``fraction`` query is O(1).
    """

    def __init__(
        self,
        field: Field,
        sensing_range: float = 10.0,
        resolution: float = 1.0,
        max_k: int = 6,
    ) -> None:
        if sensing_range <= 0:
            raise ValueError("sensing_range must be positive")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if max_k < 1:
            raise ValueError("max_k must be >= 1")
        self.field = field
        self.sensing_range = float(sensing_range)
        self.resolution = float(resolution)
        self.max_k = max_k

        nx = int(np.floor(field.width / resolution)) + 1
        ny = int(np.floor(field.height / resolution)) + 1
        self._xs = np.arange(nx, dtype=np.float64) * resolution
        self._ys = np.arange(ny, dtype=np.float64) * resolution
        self._counts = np.zeros((nx, ny), dtype=np.int32)
        #: row-major view over the same buffer; disk index arrays address it
        self._counts_flat = self._counts.reshape(-1)
        self.num_points = nx * ny
        #: number of sample points covered by at least K nodes, K = 0..max_k
        self._num_ge = np.zeros(max_k + 1, dtype=np.int64)
        self._num_ge[0] = self.num_points
        #: position -> flat lattice indices of its sensing disk, computed
        #: once per position (nodes are stationary).
        self._disk_index: Dict[Point, np.ndarray] = {}
        #: position -> number of working nodes there, so a removal with no
        #: matching add fails at the call, not at the deferred fold.
        self._working: Dict[Point, int] = {}
        #: disks added / removed since the last fold
        self._pending_add: List[np.ndarray] = []
        self._pending_remove: List[np.ndarray] = []

    # -------------------------------------------------------------- queries
    def fraction(self, k: int) -> float:
        """Fraction of the field covered by at least ``k`` working nodes."""
        if k <= 0:
            return 1.0
        if self._pending_add or self._pending_remove:
            self._fold()
        if k > self.max_k:
            # Rare path (beyond the maintained counters): compute directly.
            return float(np.count_nonzero(self._counts >= k)) / self.num_points
        return self._num_ge[k] / self.num_points

    def fractions(self, ks: Tuple[int, ...]) -> Dict[int, float]:
        return {k: self.fraction(k) for k in ks}

    def count_at(self, point: Point) -> int:
        """Coverage count at the lattice point nearest ``point``."""
        if self._pending_add or self._pending_remove:
            self._fold()
        ix = int(round(point[0] / self.resolution))
        iy = int(round(point[1] / self.resolution))
        ix = min(max(ix, 0), self._counts.shape[0] - 1)
        iy = min(max(iy, 0), self._counts.shape[1] - 1)
        return int(self._counts[ix, iy])

    # ------------------------------------------------------------- mutation
    def add_node(self, position: Point) -> None:
        """A node at ``position`` started working: cover its sensing disk."""
        self._pending_add.append(self._disk_flat_index(position))
        self._working[position] = self._working.get(position, 0) + 1

    def remove_node(self, position: Point) -> None:
        """A node at ``position`` stopped working: uncover its disk."""
        held = self._working.get(position, 0)
        if held <= 0:
            raise ValueError(f"no working node at {position} to remove")
        self._working[position] = held - 1
        self._pending_remove.append(self._disk_flat_index(position))

    # ------------------------------------------------------------ internals
    def _disk_slice(self, position: Point):
        px, py = position
        r = self.sensing_range
        res = self.resolution
        x_lo = max(0, int(np.ceil((px - r) / res)))
        x_hi = min(len(self._xs) - 1, int(np.floor((px + r) / res)))
        y_lo = max(0, int(np.ceil((py - r) / res)))
        y_hi = min(len(self._ys) - 1, int(np.floor((py + r) / res)))
        if x_lo > x_hi or y_lo > y_hi:
            return None
        dx = self._xs[x_lo : x_hi + 1, None] - px
        dy = self._ys[None, y_lo : y_hi + 1] - py
        mask = dx * dx + dy * dy <= r * r
        return (slice(x_lo, x_hi + 1), slice(y_lo, y_hi + 1)), mask

    def _disk_flat_index(self, position: Point) -> np.ndarray:
        """Flat (row-major) lattice indices inside ``position``'s disk."""
        index = self._disk_index.get(position)
        if index is None:
            located = self._disk_slice(position)
            if located is None:
                index = np.empty(0, dtype=np.int64)
            else:
                (x_win, y_win), mask = located
                xi, yi = np.nonzero(mask)
                ny = len(self._ys)
                index = (xi + x_win.start) * ny + (yi + y_win.start)
            self._disk_index[position] = index
        return index

    def _fold(self) -> None:
        """Apply every queued add/remove to the counts and K counters."""
        counts = self._counts_flat
        for pending, apply in (
            (self._pending_add, np.add),
            (self._pending_remove, np.subtract),
        ):
            for start in range(0, len(pending), _FOLD_CHUNK):
                disks = np.concatenate(pending[start : start + _FOLD_CHUNK])
                folded = np.bincount(disks, minlength=self.num_points)
                apply(counts, folded, out=counts)
            pending.clear()
        # bins[c] = points with count c; _num_ge[k] = sum of bins[k:].
        bins = np.bincount(counts, minlength=self.max_k + 1)
        self._num_ge[:] = np.cumsum(bins[::-1])[::-1][: self.max_k + 1]
