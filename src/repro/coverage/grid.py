"""Lazy K-coverage computation on a sampling lattice.

§5.1 of the paper: "The sensing coverage is defined as the percentage of the
field monitored by working nodes.  An application may require that each
point in the field be monitored by at least K working nodes ... We define
K-coverage as the percentage of the field size monitored by at least K
working nodes."

The field is sampled on a regular ``nx x ny`` lattice (default 1 m).  Each
sample point keeps the count of working nodes whose sensing disk covers it.
A disk meets each lattice row in one contiguous run of points, so it is
stored as signed run ends on an ``nx x (ny + 1)`` difference lattice: the
run ``[a, b)`` is a +1 at ``a`` and a -1 at ``b``, and a row-wise cumulative
sum turns the run ends back into counts.  Nodes are stationary, so each
position's run ends are computed once, as one int32 array of at most two
cells per row, the -1 cells offset by the difference lattice's size.

The working set changes far more often than coverage is read (every toggle
vs. every 10 s sample), so adding or removing a working node only queues
that array.  The first read after a change folds the whole queue with one
``bincount`` over the doubled difference lattice (a removal moves each of
its cells to the other half, which swaps its signs), subtracts the -1 half
from the +1 half and takes a row-wise ``cumsum``; it then rebuilds the
``points with count >= K`` counters from one ``bincount`` of the lattice.
Counts are integer sums, so the result does not depend on the order of the
changes, and ``fraction`` stays an O(1) read.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..net.field import Field, Point

__all__ = ["CoverageGrid"]


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
        self.num_points = nx * ny
        #: cells of the nx x (ny + 1) difference lattice (see module docstring)
        self._diff_size = nx * (ny + 1)
        #: number of sample points covered by at least K nodes, K = 0..max_k
        self._num_ge = np.zeros(max_k + 1, dtype=np.int64)
        self._num_ge[0] = self.num_points
        #: position -> [run cells of its disk, working nodes there].  The
        #: cells are computed once per position (nodes are stationary); the
        #: count makes a removal with no matching add fail at the call, not
        #: at the deferred fold.
        self._disks: Dict[Point, list] = {}
        #: run cells of the disks added / removed since the last fold
        self._added: List[np.ndarray] = []
        self._removed: List[np.ndarray] = []

    # -------------------------------------------------------------- queries
    def fraction(self, k: int) -> float:
        """Fraction of the field covered by at least ``k`` working nodes."""
        if k <= 0:
            return 1.0
        if self._added or self._removed:
            self._fold()
        if k > self.max_k:
            # Rare path (beyond the maintained counters): compute directly.
            return float(np.count_nonzero(self._counts >= k)) / self.num_points
        return self._num_ge[k] / self.num_points

    def fractions(self, ks: Tuple[int, ...]) -> Dict[int, float]:
        return {k: self.fraction(k) for k in ks}

    def count_at(self, point: Point) -> int:
        """Coverage count at the lattice point nearest ``point``."""
        if self._added or self._removed:
            self._fold()
        ix = int(round(point[0] / self.resolution))
        iy = int(round(point[1] / self.resolution))
        ix = min(max(ix, 0), self._counts.shape[0] - 1)
        iy = min(max(iy, 0), self._counts.shape[1] - 1)
        return int(self._counts[ix, iy])

    # ------------------------------------------------------------- mutation
    def add_node(self, position: Point) -> None:
        """A node at ``position`` started working: cover its sensing disk."""
        record = self._disks.get(position)
        if record is None:
            record = self._disks[position] = [self._disk_cells(position), 0]
        record[1] += 1
        self._added.append(record[0])

    def remove_node(self, position: Point) -> None:
        """A node at ``position`` stopped working: uncover its disk."""
        record = self._disks.get(position)
        if record is None or record[1] <= 0:
            raise ValueError(f"no working node at {position} to remove")
        record[1] -= 1
        self._removed.append(record[0])

    # ------------------------------------------------------------ internals
    def _disk_cells(self, position: Point) -> np.ndarray:
        """Run cells of ``position``'s disk: one +1 cell per lattice row it
        meets, then one -1 cell per row offset by the difference lattice's
        size."""
        px, py = position
        r = self.sensing_range
        res = self.resolution
        nx, ny = self._counts.shape
        # The window reaches one point past the rounded quotients: they can
        # land just inside an edge point that the distance test keeps.
        x_lo = max(0, int(np.ceil((px - r) / res)) - 1)
        x_hi = min(nx - 1, int(np.floor((px + r) / res)) + 1)
        y_lo = max(0, int(np.ceil((py - r) / res)) - 1)
        y_hi = min(ny - 1, int(np.floor((py + r) / res)) + 1)
        if x_lo > x_hi or y_lo > y_hi:
            return np.empty(0, dtype=np.int32)
        dx = self._xs[x_lo : x_hi + 1, None] - px
        dy = self._ys[None, y_lo : y_hi + 1] - py
        inside = dx * dx + dy * dy <= r * r
        rows = np.flatnonzero(inside.any(axis=1))
        inside = inside[rows]
        # |dy| only grows away from py, so a row's inside points are one
        # run: from its first True to its last.
        first = inside.argmax(axis=1)
        end = inside.shape[1] - inside[:, ::-1].argmax(axis=1)
        row_start = (rows + x_lo) * (ny + 1) + y_lo
        return np.concatenate(
            (row_start + first, row_start + end + self._diff_size)
        ).astype(np.int32)

    def _fold(self) -> None:
        """Apply every queued add/remove to the counts and K counters."""
        size = self._diff_size
        removed = self._removed
        cells = np.concatenate(removed + self._added)
        if removed:
            # Moving a cell to the other half of the doubled lattice swaps
            # its sign, so a removal subtracts the runs an add would add.
            swapped = cells[: sum(map(len, removed))]
            swapped += size
            swapped %= 2 * size
        removed.clear()
        self._added.clear()
        ends = np.bincount(cells, minlength=2 * size)
        delta = (ends[:size] - ends[size:]).reshape(self._counts.shape[0], -1)
        np.cumsum(delta, axis=1, out=delta)
        self._counts += delta[:, :-1]
        # bins[c] = points with count c; _num_ge[k] = sum of bins[k:].
        bins = np.bincount(self._counts.reshape(-1), minlength=self.max_k + 1)
        self._num_ge[:] = np.cumsum(bins[::-1])[::-1][: self.max_k + 1]
