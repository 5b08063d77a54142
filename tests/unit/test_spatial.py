"""Unit tests for repro.net.spatial.SpatialGrid."""

import pytest

from repro.net import SpatialGrid


@pytest.fixture
def grid():
    return SpatialGrid()


class TestBasics:
    def test_insert_and_contains(self, grid):
        grid.insert("a", (1.0, 1.0))
        assert "a" in grid
        assert len(grid) == 1

    def test_duplicate_insert_rejected(self, grid):
        grid.insert("a", (1.0, 1.0))
        with pytest.raises(KeyError):
            grid.insert("a", (2.0, 2.0))

    def test_remove(self, grid):
        grid.insert("a", (1.0, 1.0))
        grid.remove("a")
        assert "a" not in grid
        assert len(grid) == 0

    def test_remove_missing_raises(self, grid):
        with pytest.raises(KeyError):
            grid.remove("ghost")

    def test_position_lookup(self, grid):
        grid.insert("a", (4.0, 5.0))
        assert grid.position("a") == (4.0, 5.0)

    def test_items_iteration(self, grid):
        grid.insert("a", (1.0, 2.0))
        assert dict(grid.items()) == {"a": (1.0, 2.0)}

    def test_row_index_is_insertion_order_and_survives_removal(self, grid):
        grid.insert("a", (1.0, 1.0))
        grid.insert("b", (2.0, 2.0))
        grid.remove("a")
        grid.insert("c", (3.0, 3.0))
        assert [grid.row_index(item) for item in "abc"] == [0, 1, 2]

    def test_listeners_run_after_each_mutation(self, grid):
        seen = []
        grid.add_listener(
            lambda kind, item, position: seen.append(
                (kind, item, position, item in grid)
            )
        )
        grid.insert("a", (1.0, 1.0))
        grid.remove("a")
        assert seen == [
            ("insert", "a", (1.0, 1.0), True),
            ("remove", "a", (1.0, 1.0), False),
        ]


class TestWithin:
    def test_finds_points_in_radius(self, grid):
        grid.insert("near", (10.0, 10.0))
        grid.insert("far", (30.0, 30.0))
        assert grid.within((11.0, 10.0), 2.0) == ["near"]

    def test_radius_boundary_inclusive(self, grid):
        grid.insert("edge", (13.0, 10.0))
        assert grid.within((10.0, 10.0), 3.0) == ["edge"]

    def test_empty_result(self, grid):
        grid.insert("a", (0.0, 0.0))
        assert grid.within((49.0, 49.0), 5.0) == []

    def test_negative_radius_rejected(self, grid):
        with pytest.raises(ValueError):
            grid.within((0.0, 0.0), -1.0)

    def test_sorted_by_insertion_index(self, grid):
        grid.insert("far", (14.0, 10.0))
        grid.insert("near", (11.0, 10.0))
        grid.insert("mid", (12.0, 10.0))
        assert grid.within((10.0, 10.0), 5.0) == ["far", "near", "mid"]

    def test_removed_items_are_not_returned(self, grid):
        grid.insert("a", (10.0, 10.0))
        grid.insert("b", (11.0, 10.0))
        grid.remove("a")
        assert grid.within((10.0, 10.0), 5.0) == ["b"]

    def test_radius_spanning_many_cells(self, grid):
        for i in range(10):
            grid.insert(i, (i * 5.0, 25.0))
        found = grid.within((25.0, 25.0), 12.0)
        expected = [i for i in range(10) if abs(i * 5.0 - 25.0) <= 12.0]
        assert sorted(found) == expected


class TestQueryRows:
    def test_sorted_by_distance_then_insertion_index(self, grid):
        grid.insert("east", (12.0, 10.0))
        grid.insert("close", (10.5, 10.0))
        grid.insert("west", (8.0, 10.0))
        rows, d_sq = grid.query_rows((10.0, 10.0), 3.0)
        assert rows.tolist() == [1, 0, 2]
        assert d_sq.tolist() == [0.25, 4.0, 4.0]

    def test_exclude_row(self, grid):
        grid.insert("a", (10.0, 10.0))
        grid.insert("b", (11.0, 10.0))
        rows, _ = grid.query_rows((10.0, 10.0), 3.0, exclude_row=0)
        assert rows.tolist() == [1]

    def test_empty_grid(self, grid):
        rows, d_sq = grid.query_rows((10.0, 10.0), 3.0)
        assert rows.size == 0 and d_sq.size == 0
