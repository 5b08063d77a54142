"""Geometric helpers for the §3 "peas model" analysis.

The paper models each working node as a round pea of radius R_p/2: the
probing rule guarantees any two working nodes are at least R_p apart, so
working-node placement is a hard-core (non-overlapping pea) packing.  This
module provides the packing diagnostics the analysis benches assert on and
an abstract random-sequential-adsorption (RSA) simulation of the probing
rule, useful for predicting the steady-state working density without
running the full protocol.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from ..net import Point, SpatialGrid, distance

__all__ = [
    "min_pairwise_distance",
    "min_neighbor_distances",
    "rsa_working_set",
    "THEOREM_RANGE_FACTOR",
]

#: Theorem 3.1's transmission-range condition: R_t >= (1 + sqrt(5)) R_p.
THEOREM_RANGE_FACTOR = 1.0 + math.sqrt(5.0)


def min_pairwise_distance(points: Sequence[Point]) -> float:
    """Smallest pairwise distance (inf for < 2 points).

    Used to verify the pea-packing property: PEAS working sets should have
    min pairwise distance >= R_p (up to control-plane races; see tests).
    """
    if len(points) < 2:
        return float("inf")
    # Indexed first pass: compare only pairs within two cell widths.
    best = float("inf")
    field_w = max(p[0] for p in points) + 1.0
    field_h = max(p[1] for p in points) + 1.0
    cell = max(min(field_w, field_h) / max(int(math.sqrt(len(points))), 1), 1e-6)
    grid = SpatialGrid()
    for index, point in enumerate(points):
        grid.insert(index, point)
    for index, point in enumerate(points):
        for other in grid.within(point, 2.0 * cell):
            if other != index:
                best = min(best, distance(point, points[other]))
    if best == float("inf"):
        # Sparse relative to the cell size: fall back to exhaustive search.
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                best = min(best, distance(points[i], points[j]))
    return best


def min_neighbor_distances(points: Sequence[Point]) -> List[float]:
    """For each point, the distance to its nearest other point.

    Lemma 3.2 bounds these: asymptotically every working node has a working
    neighbor within (1 + sqrt(5)) R_p.
    """
    if len(points) < 2:
        return []
    distances: List[float] = []
    for i, point in enumerate(points):
        best = float("inf")
        for j, other in enumerate(points):
            if i != j:
                best = min(best, distance(point, other))
        distances.append(best)
    return distances


def rsa_working_set(
    candidates: Sequence[Point], probe_range: float, rng: random.Random
) -> List[Point]:
    """The probing rule as an abstract random-order packing.

    Visit deployed candidates in random wake order; a candidate becomes a
    worker iff no existing worker is within the probing range.  This is the
    protocol's steady state with an instantaneous, lossless control plane —
    the geometric object §3 reasons about.
    """
    if probe_range <= 0:
        raise ValueError("probe_range must be positive")
    order = list(range(len(candidates)))
    rng.shuffle(order)
    grid = SpatialGrid()
    workers: List[Point] = []
    for index in order:
        point = candidates[index]
        if not grid.within(point, probe_range):
            grid.insert(index, point)
            workers.append(point)
    return workers
