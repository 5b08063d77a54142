"""Monitoring of local sensing/serving gaps (Figures 4/5).

The paper's core robustness argument is about *gaps*: intervals during
which some locality has no working node because its worker died and no
replacement has taken over yet (Figure 4).  PEAS's randomized wakeups bound
the expected gap by ~1/lambda_d (§2.2: "if an animal-tracking sensor
network allows for monitoring interruptions up to 5 minutes, lambda_d can
be set at 1 per 300 seconds").

:class:`CellGapMonitor` samples the field on a lattice and, for each sample
point, records every interval during which **no working node lies within
the serving radius** (the probing range R_p by default) — after the point
has been served at least once.  Terminal outages (the point never regains a
worker before the run ends) are excluded; they measure network death, not
replacement latency.

The monitor subscribes to the same working-set observer stream as the
coverage tracker, so it works identically for PEAS and every baseline.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..net import Field
from ..sim import Simulator

__all__ = ["CellGapMonitor"]


class CellGapMonitor:
    """Records serving-gap durations at lattice sample points.

    Parameters
    ----------
    sim:
        The simulation engine (supplies the clock).
    field:
        The deployment area.
    cell_size_m:
        Lattice spacing of the sample points *and* the default serving
        radius (the probing range R_p in paper scenarios).
    radius_m:
        Serving radius override; a point is "served" while at least one
        working node is within this distance.
    """

    def __init__(
        self,
        sim: Simulator,
        field: Field,
        cell_size_m: float = 3.0,
        radius_m: float = None,
    ) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.sim = sim
        self.field = field
        self.spacing = float(cell_size_m)
        self.radius = float(radius_m) if radius_m is not None else float(cell_size_m)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        nx = int(math.floor(field.width / self.spacing)) + 1
        ny = int(math.floor(field.height / self.spacing)) + 1
        self._shape = (nx, ny)
        #: per sample point: number of working nodes within the radius
        self._count: Dict[Tuple[int, int], int] = {}
        self._gap_start: Dict[Tuple[int, int], float] = {}
        self._served: Dict[Tuple[int, int], bool] = {}
        self.gaps: List[float] = []

    # ------------------------------------------------------------ internals
    def _points_near(self, position: Tuple[float, float]) -> List[Tuple[int, int]]:
        px, py = position
        r = self.radius
        s = self.spacing
        x_lo = max(0, int(math.ceil((px - r) / s)))
        x_hi = min(self._shape[0] - 1, int(math.floor((px + r) / s)))
        y_lo = max(0, int(math.ceil((py - r) / s)))
        y_hi = min(self._shape[1] - 1, int(math.floor((py + r) / s)))
        r_sq = r * r
        points = []
        for ix in range(x_lo, x_hi + 1):
            dx = ix * s - px
            for iy in range(y_lo, y_hi + 1):
                dy = iy * s - py
                if dx * dx + dy * dy <= r_sq:
                    points.append((ix, iy))
        return points

    # ------------------------------------------------------------- plumbing
    def on_working_change(self, time: float, node, started: bool) -> None:
        """Observer compatible with PEAS and baseline networks alike."""
        for point in self._points_near(node.position):
            count = self._count.get(point, 0)
            if started:
                if count == 0 and point in self._gap_start:
                    self.gaps.append(time - self._gap_start.pop(point))
                self._count[point] = count + 1
                self._served[point] = True
            else:
                if count <= 0:
                    raise ValueError(f"working count underflow at point {point}")
                self._count[point] = count - 1
                if self._count[point] == 0 and self._served.get(point):
                    self._gap_start[point] = time

    # -------------------------------------------------------------- queries
    def gap_count(self) -> int:
        return len(self.gaps)

    def mean_gap(self) -> float:
        return sum(self.gaps) / len(self.gaps) if self.gaps else 0.0

    def max_gap(self) -> float:
        return max(self.gaps) if self.gaps else 0.0

    def percentile_gap(self, q: float) -> float:
        """q-quantile of closed gap durations (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.gaps:
            return 0.0
        ordered = sorted(self.gaps)
        index = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(index, 0)]
