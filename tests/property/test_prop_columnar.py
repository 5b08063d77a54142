"""Columnar index against the scalar bucket grid, element for element.

:class:`ColumnarSpatialGrid` is the spatial index every run uses; the
scalar :class:`SpatialGrid` it subclasses is the oracle.  For any
insert/remove history and any query both must return the *same ids in the
same canonical order*, and a :class:`NeighborCache` over the columnar grid
must return what a sorted ``SpatialGrid.within_annotated`` scan gives, with
bit-equal distances.  These properties drive both through arbitrary
mutation/query interleavings.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Field, SpatialGrid
from repro.net.columnar import ColumnarSpatialGrid
from repro.net.neighbors import NeighborCache

coords = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords)
radii = st.floats(
    min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False
)

#: an op is ("remove", index-into-live) | ("query", center, radius)
#: | ("neighbors", index-into-live, radius)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=59)),
        st.tuples(st.just("query"), points, radii),
        st.tuples(
            st.just("neighbors"),
            st.integers(min_value=0, max_value=59),
            radii,
        ),
    ),
    max_size=40,
)


def oracle_neighbors(grid, item, radius):
    """Canonical ``(id, distance)`` neighborhood by a sorted bucket scan."""
    annotated = sorted(grid.within_annotated(grid.position(item), radius))
    return [
        (node_id, math.sqrt(d_sq)) for d_sq, _, node_id in annotated if node_id != item
    ]


def _build_pair(positions):
    field = Field(50.0, 50.0)
    scalar = SpatialGrid(field, cell_size=3.0)
    columnar = ColumnarSpatialGrid(field, cell_size=3.0)
    for node_id, position in enumerate(positions):
        scalar.insert(node_id, position)
        columnar.insert(node_id, position)
    return scalar, columnar


class TestGridEquivalence:
    @given(positions=st.lists(points, min_size=1, max_size=40), ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_queries_agree_across_mutation_histories(self, positions, ops):
        scalar, columnar = _build_pair(positions)
        cache = NeighborCache(columnar, enabled=True)
        live = list(range(len(positions)))

        for op in ops:
            if op[0] == "remove":
                if not live:
                    continue
                item = live.pop(op[1] % len(live))
                scalar.remove(item)
                columnar.remove(item)
            elif op[0] == "query":
                _, center, radius = op
                assert columnar.within(center, radius) == scalar.within(
                    center, radius
                )
                # within_annotated has no ordering contract; membership and
                # the exact (dist_sq, insertion index, id) triples must match.
                assert sorted(columnar.within_annotated(center, radius)) == sorted(
                    scalar.within_annotated(center, radius)
                )
            else:
                if not live:
                    continue
                _, index, radius = op
                item = live[index % len(live)]
                # Exact equality: same ids, same distance-sorted order, and
                # bit-equal floats (both run the identical subtract/square/
                # sqrt arithmetic).
                assert cache.neighbors_with_distance(item, radius) == (
                    oracle_neighbors(scalar, item, radius)
                )

    @given(positions=st.lists(points, min_size=1, max_size=30), center=points)
    @settings(max_examples=60, deadline=None)
    def test_nearest_distance_agrees(self, positions, center):
        scalar, columnar = _build_pair(positions)

        def dist(grid, item):
            x, y = grid.position(item)
            dx, dy = x - center[0], y - center[1]
            # dx*dx + dy*dy, not hypot: both grids *select* by this
            # quantity, and hypot would distinguish ties that the selection
            # metric (which underflows for pathologically close points)
            # cannot.
            return dx * dx + dy * dy

        # Ties are broken arbitrarily by the scalar grid (documented),
        # deterministically by the columnar one — the distance is the
        # comparable quantity.
        assert dist(columnar, columnar.nearest(center)) == dist(
            scalar, scalar.nearest(center)
        )
