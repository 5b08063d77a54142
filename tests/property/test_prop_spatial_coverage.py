"""Property-based tests: coverage grid vs brute force.

The spatial index's brute-force oracle is ``test_prop_columnar.py``."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import CoverageGrid
from repro.net import Field, distance_sq

coords = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
points = st.tuples(coords, coords)


def _recount(active, radius, spacing, side):
    """Brute-force coverage count at every lattice index ``(ix, iy)``."""
    return {
        (ix, iy): sum(
            1
            for node in active
            if distance_sq(node, (ix * spacing, iy * spacing)) <= radius * radius
        )
        for ix in range(side)
        for iy in range(side)
    }


def _lattice_recount(active, radius, spacing, width, height):
    """Brute-force count at every lattice index of a ``width x height``
    field sampled every ``spacing`` meters from the origin."""
    return {
        (ix, iy): sum(
            1
            for node in active
            if distance_sq(node, (ix * spacing, iy * spacing)) <= radius * radius
        )
        for ix in range(math.floor(width / spacing) + 1)
        for iy in range(math.floor(height / spacing) + 1)
    }


@st.composite
def lattice_geometries(draw):
    """``(width, height, spacing, radius)``: sides rarely a multiple of the
    spacing, spacings of 0.5-3 m, radii below and above the spacing (some
    an exact multiple of it, so points land on the disk's edge)."""
    spacing = draw(st.floats(min_value=0.5, max_value=3.0))
    width = draw(st.floats(min_value=2.0, max_value=18.0))
    height = draw(st.floats(min_value=2.0, max_value=18.0))
    radius = draw(
        st.one_of(
            st.floats(min_value=0.2, max_value=8.0),
            st.integers(min_value=1, max_value=4).map(lambda m: m * spacing),
        )
    )
    return width, height, spacing, radius


def _coordinates(side, spacing, radius):
    """Coordinates on an edge, on a lattice line, inside, or past an edge
    (far enough for the disk to miss the field)."""
    return st.one_of(
        st.sampled_from([0.0, side]),
        st.integers(min_value=0, max_value=math.floor(side / spacing)).map(
            lambda i: i * spacing
        ),
        st.floats(min_value=-radius - spacing, max_value=side + radius + spacing),
    )


class TestCoverageGridProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(points, min_size=0, max_size=20),
        st.data(),
    )
    def test_counts_match_recount_after_random_ops(self, nodes, data):
        """After any interleaving of adds and removes, every maintained
        K-fraction equals a from-scratch recount."""
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        active = []
        operations = data.draw(
            st.lists(st.booleans(), min_size=0, max_size=len(nodes) * 2)
        )
        pending = list(nodes)
        for is_add in operations:
            if is_add and pending:
                node = pending.pop()
                grid.add_node(node)
                active.append(node)
            elif not is_add and active:
                node = active.pop()
                grid.remove_node(node)
        counts = _recount(active, radius=6.0, spacing=2.0, side=16)
        for k in (1, 2, 3):
            covered = sum(1 for count in counts.values() if count >= k)
            assert grid.fraction(k) * grid.num_points == covered

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(points, min_size=1, max_size=12),
        st.lists(points, min_size=1, max_size=4),
        st.data(),
    )
    def test_interleaved_reads_match_recount(self, nodes, probes, data):
        """Updates are folded in lazily at the next read: every read in an
        interleaving of adds, removes and reads (including ``k > max_k``
        and ``count_at``) equals a from-scratch recount."""
        max_k = 3
        grid = CoverageGrid(
            Field(30.0, 30.0), sensing_range=6.0, resolution=2.0, max_k=max_k
        )
        active = []
        operations = data.draw(
            st.lists(st.sampled_from(("add", "remove", "read")), max_size=40)
        )
        for operation in operations + ["read"]:
            if operation == "add":
                # Drawn with replacement: a position may be working twice.
                node = data.draw(st.sampled_from(nodes))
                grid.add_node(node)
                active.append(node)
            elif operation == "remove" and active:
                node = active.pop(data.draw(st.integers(0, len(active) - 1)))
                grid.remove_node(node)
            elif operation == "read":
                counts = _recount(active, radius=6.0, spacing=2.0, side=16)
                for k in range(1, max_k + 3):
                    covered = sum(1 for count in counts.values() if count >= k)
                    assert grid.fraction(k) == covered / grid.num_points
                for x, y in probes:
                    nearest = (round(x / 2.0), round(y / 2.0))
                    assert grid.count_at((x, y)) == counts[nearest]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points, min_size=1, max_size=15))
    def test_add_remove_all_restores_empty(self, nodes):
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        for node in nodes:
            grid.add_node(node)
        for node in nodes:
            grid.remove_node(node)
        assert grid.fraction(1) == 0.0
        assert all(
            grid.count_at((2.0 * ix, 2.0 * iy)) == 0
            for ix in range(16)
            for iy in range(16)
        )
        assert grid._counts.sum() == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(points, min_size=0, max_size=15))
    def test_monotone_in_k(self, nodes):
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=6.0, resolution=2.0)
        for node in nodes:
            grid.add_node(node)
        fractions = [grid.fraction(k) for k in range(1, 6)]
        assert fractions == sorted(fractions, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(lattice_geometries(), st.integers(min_value=1, max_value=4), st.data())
    def test_random_lattice_geometries_match_recount(self, geometry, max_k, data):
        """On any lattice geometry, with disks clipped by the field edge or
        missing it, ``count_at`` at every lattice point and ``fraction(k)``
        for k up to ``max_k + 2`` equal a from-scratch recount while adds,
        removes and reads interleave."""
        width, height, spacing, radius = geometry
        grid = CoverageGrid(
            Field(width, height), sensing_range=radius, resolution=spacing, max_k=max_k
        )
        positions = data.draw(
            st.lists(
                st.tuples(
                    _coordinates(width, spacing, radius),
                    _coordinates(height, spacing, radius),
                ),
                min_size=1,
                max_size=8,
            )
        )
        operations = data.draw(
            st.lists(st.sampled_from(("add", "add", "remove", "read")), max_size=24)
        )
        active = []
        for operation in operations + ["read"]:
            if operation == "add":
                node = data.draw(st.sampled_from(positions))
                grid.add_node(node)
                active.append(node)
            elif operation == "remove" and active:
                grid.remove_node(active.pop(data.draw(st.integers(0, len(active) - 1))))
            elif operation == "read":
                counts = _lattice_recount(active, radius, spacing, width, height)
                assert grid.num_points == len(counts)
                for (ix, iy), count in counts.items():
                    assert grid.count_at((ix * spacing, iy * spacing)) == count
                for k in range(max_k + 3):
                    covered = sum(1 for count in counts.values() if count >= k)
                    assert grid.fraction(k) == covered / grid.num_points
