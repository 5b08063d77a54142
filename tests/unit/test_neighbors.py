"""Unit tests for repro.net.neighbors.NeighborCache."""

import math

import pytest

from repro.net import NeighborCache, SpatialGrid, build_neighbor_lists
from repro.net.neighbors import _EXACT_INVALIDATION_MAX, cache_enabled_default


def make_grid(points):
    grid = SpatialGrid()
    for node_id, position in points.items():
        grid.insert(node_id, position)
    return grid


CLUSTER = {
    "a": (10.0, 10.0),
    "b": (12.0, 10.0),  # 2 m from a
    "c": (10.0, 13.0),  # 3 m from a
    "d": (20.0, 20.0),  # far away
}


class TestQueries:
    def test_sorted_by_distance_excluding_self(self):
        cache = NeighborCache(make_grid(CLUSTER), enabled=True)
        got = cache.neighbors_with_distance("a", 5.0)
        assert [node_id for node_id, _ in got] == ["b", "c"]
        assert got[0][1] == pytest.approx(2.0)
        assert got[1][1] == pytest.approx(3.0)

    def test_neighbors_returns_ids_only(self):
        cache = NeighborCache(make_grid(CLUSTER), enabled=True)
        assert cache.neighbors("a", 5.0) == ["b", "c"]

    def test_radius_is_inclusive(self):
        cache = NeighborCache(make_grid(CLUSTER), enabled=True)
        assert cache.neighbors("a", 2.0) == ["b"]

    def test_distance_tie_broken_by_insertion_order(self):
        grid = SpatialGrid()
        grid.insert("center", (10.0, 10.0))
        grid.insert("west", (8.0, 10.0))
        grid.insert("east", (12.0, 10.0))  # same distance, inserted later
        cache = NeighborCache(grid, enabled=True)
        assert cache.neighbors("center", 3.0) == ["west", "east"]

    def test_heterogeneous_ids(self):
        """Int node ids and string anchor ids coexist (no cross-type <)."""
        grid = SpatialGrid()
        grid.insert(1, (10.0, 10.0))
        grid.insert("anchor0", (11.0, 10.0))
        grid.insert(2, (12.0, 10.0))
        cache = NeighborCache(grid, enabled=True)
        assert cache.neighbors(1, 4.0) == ["anchor0", 2]

    def test_neighbors_at_matches_member_query_ordering(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        member = cache.neighbors_with_distance("a", 5.0)
        at = cache.neighbors_at((10.0, 10.0), 5.0, exclude="a")
        assert member == at


class TestMemoization:
    def test_hit_returns_same_list(self):
        cache = NeighborCache(make_grid(CLUSTER), enabled=True)
        first = cache.neighbors_with_distance("a", 5.0)
        second = cache.neighbors_with_distance("a", 5.0)
        assert first == second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_radius_is_distinct_entry(self):
        cache = NeighborCache(make_grid(CLUSTER), enabled=True)
        cache.neighbors("a", 5.0)
        cache.neighbors("a", 2.0)
        assert cache.stats()["entries"] == 2

    def test_disabled_cache_recomputes_with_identical_results(self):
        grid = make_grid(CLUSTER)
        on = NeighborCache(grid, enabled=True)
        off = NeighborCache(grid, enabled=False)
        for node_id in CLUSTER:
            assert on.neighbors_with_distance(node_id, 5.0) == (
                off.neighbors_with_distance(node_id, 5.0)
            )
        assert len(off) == 0  # nothing memoized when disabled


class TestInvalidation:
    def test_dead_node_disappears_from_cached_neighborhoods(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        assert cache.neighbors("a", 5.0) == ["b", "c"]
        grid.remove("b")
        assert cache.neighbors("a", 5.0) == ["c"]

    def test_removed_center_entry_is_dropped(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        cache.neighbors("b", 5.0)
        grid.remove("b")
        assert cache.stats()["entries"] == 0
        with pytest.raises(KeyError):
            cache.neighbors("b", 5.0)

    def test_removed_center_entry_is_dropped_in_a_large_population(self):
        # Above the exact-invalidation size entries revalidate lazily, on
        # their next lookup; the center's own death must fail that check.
        grid = SpatialGrid()
        for i in range(_EXACT_INVALIDATION_MAX + 904):
            grid.insert(i, (float(i % 100), float(i // 100) * 2.0))
        grid.insert("a", (50.5, 50.5))
        grid.insert("b", (52.5, 50.5))
        cache = NeighborCache(grid, enabled=True)
        assert "a" in cache.neighbors("b", 5.0)
        grid.remove("b")
        with pytest.raises(KeyError):
            cache.neighbors("b", 5.0)
        assert cache.stats()["entries"] == 0

    def test_unrelated_entries_survive_removal(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        kept = cache.neighbors_with_distance("d", 1.0)
        cache.neighbors("a", 5.0)
        grid.remove("b")  # not in d's neighborhood
        misses = cache.stats()["misses"]
        assert cache.neighbors_with_distance("d", 1.0) == kept
        assert cache.stats()["misses"] == misses
        assert cache.stats()["entries"] == 1

    def test_insert_flushes_everything(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        cache.neighbors("a", 5.0)
        grid.insert("e", (11.0, 11.0))
        assert cache.stats()["entries"] == 0
        assert "e" in cache.neighbors("a", 5.0)

    def test_removal_then_requery_matches_brute_force(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        brute = NeighborCache(grid, enabled=False)
        for node_id in CLUSTER:
            cache.neighbors(node_id, 6.0)
        grid.remove("c")
        for node_id in ("a", "b", "d"):
            assert cache.neighbors_with_distance(node_id, 6.0) == (
                brute.neighbors_with_distance(node_id, 6.0)
            )


class TestEnvDefault:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_NEIGHBOR_CACHE", raising=False)
        assert cache_enabled_default() is True

    @pytest.mark.parametrize("value", ["0", "false", "OFF"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NEIGHBOR_CACHE", value)
        assert cache_enabled_default() is False

    def test_constructor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NEIGHBOR_CACHE", "0")
        cache = NeighborCache(make_grid(CLUSTER))
        assert cache.enabled is False


class TestBuildNeighborLists:
    def test_full_map_sorted_nearest_first(self):
        lists = build_neighbor_lists(CLUSTER, radius=5.0)
        assert lists["a"] == ["b", "c"]
        assert lists["d"] == []

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_neighbor_lists(CLUSTER, radius=0.0)

    def test_distances_match_euclidean(self):
        grid = make_grid(CLUSTER)
        cache = NeighborCache(grid, enabled=True)
        for node_id, dist in cache.neighbors_with_distance("a", 30.0):
            px, py = CLUSTER[node_id]
            assert dist == pytest.approx(math.hypot(px - 10.0, py - 10.0))
