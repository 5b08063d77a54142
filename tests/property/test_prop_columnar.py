"""The spatial index against a brute-force list scan, element for element.

:class:`SpatialGrid` is the one spatial index every run uses.  Its oracle
here shares no code with it: a plain list of ``(insertion index, id, x, y,
alive)`` entries, scanned in full with the documented predicate
``dx*dx + dy*dy <= r*r and cx - r <= x <= cx + r`` and sorted by
``(d², insertion index)``.  For any insert/remove/query history the grid's
``query_rows`` and ``within``, and a :class:`NeighborCache`'s
``neighbors_with_distance`` and ``neighbors_at``, must return exactly the
scan's ids in the scan's order, with bit-equal squared distances and
``math.sqrt`` distances.

Coordinates and radii are drawn partly from small integers, so exact
distance ties (the insertion-index tie-break) and points exactly on the
disk's rim or the x-window's edge (the closed bounds) come up often.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NeighborCache, SpatialGrid

coords = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=12).map(float),
)
points = st.tuples(coords, coords)
radii = st.one_of(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=6).map(float),
)
slots = st.integers(min_value=0, max_value=59)

#: ("insert", point, slot) adds a new id, or re-adds a removed one when the
#: slot picks one; ("remove", slot); ("query", center, radius);
#: ("neighbors", slot, radius) centres on a live member; ("edge", slot,
#: radius) centres ``radius`` to the left of one, on its row.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), points, slots),
        st.tuples(st.just("remove"), slots),
        st.tuples(st.just("query"), points, radii),
        st.tuples(st.just("neighbors"), slots, radii),
        st.tuples(st.just("edge"), slots, radii),
    ),
    max_size=40,
)


class BruteForce:
    """Every entry ever inserted, scanned in full on each query."""

    def __init__(self):
        self.entries = []

    def insert(self, item, position):
        x, y = position
        self.entries.append([len(self.entries), item, float(x), float(y), True])

    def remove(self, item):
        for entry in self.entries:
            if entry[1] == item and entry[4]:
                entry[4] = False
                return
        raise KeyError(item)

    def position(self, item):
        for _index, other, x, y, alive in self.entries:
            if other == item and alive:
                return x, y
        raise KeyError(item)

    def scan(self, center, radius, exclude=None):
        """``(d², insertion index, id)`` of every live hit, sorted."""
        cx, cy = center
        r_sq = radius * radius
        hits = []
        for index, item, x, y, alive in self.entries:
            if not alive or item == exclude:
                continue
            dx = x - cx
            dy = y - cy
            d_sq = dx * dx + dy * dy
            if d_sq <= r_sq and cx - radius <= x <= cx + radius:
                hits.append((d_sq, index, item))
        hits.sort()
        return hits


def check_query(grid, oracle, center, radius):
    hits = oracle.scan(center, radius)
    rows, d_sq = grid.query_rows(center, radius)
    assert rows.tolist() == [index for _d, index, _item in hits]
    assert d_sq.tolist() == [d for d, _index, _item in hits]
    assert grid.within(center, radius) == [
        item for _index, item in sorted((index, item) for _d, index, item in hits)
    ]


def expected_neighbors(oracle, center, radius, exclude):
    return [
        (item, math.sqrt(d_sq))
        for d_sq, _index, item in oracle.scan(center, radius, exclude)
    ]


class TestGridEquivalence:
    @given(positions=st.lists(points, min_size=1, max_size=40), ops=operations)
    @settings(max_examples=150, deadline=None)
    def test_queries_agree_across_mutation_histories(self, positions, ops):
        grid = SpatialGrid()
        oracle = BruteForce()
        cache = NeighborCache(grid, enabled=True)
        live = []
        removed = []
        for node_id, position in enumerate(positions):
            grid.insert(node_id, position)
            oracle.insert(node_id, position)
            live.append(node_id)
        next_id = len(positions)

        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, position, slot = op
                if removed and slot % 2:
                    item = removed.pop(slot % len(removed))
                else:
                    item, next_id = next_id, next_id + 1
                grid.insert(item, position)
                oracle.insert(item, position)
                live.append(item)
                continue
            if kind == "query":
                _, center, radius = op
                check_query(grid, oracle, center, radius)
                continue
            if not live:
                continue
            item = live[op[1] % len(live)]
            if kind == "remove":
                live.remove(item)
                removed.append(item)
                grid.remove(item)
                oracle.remove(item)
            elif kind == "neighbors":
                radius = op[2]
                center = oracle.position(item)
                assert grid.position(item) == center
                expected = expected_neighbors(oracle, center, radius, item)
                assert cache.neighbors_with_distance(item, radius) == expected
                assert cache.neighbors_at(center, radius, exclude=item) == expected
            else:
                radius = op[2]
                x, y = oracle.position(item)
                center = (x - radius, y)
                check_query(grid, oracle, center, radius)
                assert cache.neighbors_at(center, radius) == (
                    expected_neighbors(oracle, center, radius, None)
                )


class TestPredicate:
    def test_x_window_excludes_an_underflowed_distance(self):
        # dx*dx underflows to 0.0 <= r*r, but x lies outside cx + r.
        grid = SpatialGrid()
        grid.insert("a", (3e-200, 0.0))
        oracle = BruteForce()
        oracle.insert("a", (3e-200, 0.0))
        assert oracle.scan((0.0, 0.0), 1e-200) == []
        check_query(grid, oracle, (0.0, 0.0), 1e-200)

    def test_rim_and_window_edge_are_inclusive(self):
        grid = SpatialGrid()
        oracle = BruteForce()
        for item, position in (("east", (13.0, 10.0)), ("north", (10.0, 13.0))):
            grid.insert(item, position)
            oracle.insert(item, position)
        assert grid.within((10.0, 10.0), 3.0) == ["east", "north"]
        check_query(grid, oracle, (10.0, 10.0), 3.0)
