"""Property-based tests: working topology maintenance and §3 geometry."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import min_pairwise_distance, rsa_working_set
from repro.net import SpatialGrid, distance
from repro.routing import WorkingTopology

coords = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
points = st.tuples(coords, coords)


class TestWorkingTopologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(points, min_size=1, max_size=30, unique=True),
        st.data(),
    )
    def test_adjacency_matches_brute_force_under_churn(self, positions, data):
        """After any add/remove interleaving, adjacency equals ground truth."""
        grid = SpatialGrid()
        for index, position in enumerate(positions):
            grid.insert(index, position)
        topology = WorkingTopology(grid, comm_range=10.0)
        active = {}
        script = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(positions) - 1), st.booleans()),
                max_size=60,
            )
        )
        for index, should_add in script:
            if should_add and index not in active:
                topology.add_working(index, positions[index])
                active[index] = positions[index]
            elif not should_add and index in active:
                topology.remove_working(index)
                del active[index]
        for node, position in active.items():
            expected = {
                other
                for other, other_position in active.items()
                if other != node and distance(position, other_position) <= 10.0
            }
            assert topology.neighbors(node) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(points, min_size=1, max_size=25, unique=True))
    def test_components_partition_nodes(self, positions):
        grid = SpatialGrid()
        topology = WorkingTopology(grid, comm_range=8.0)
        for index, position in enumerate(positions):
            grid.insert(index, position)
            topology.add_working(index, position)
        components = topology.connected_components()
        union = set()
        total = 0
        for component in components:
            assert not (component & union)  # disjoint
            union |= component
            total += len(component)
        assert union == set(range(len(positions)))
        assert total == len(positions)


class TestRsaProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(points, min_size=1, max_size=80, unique=True),
        st.floats(min_value=1.0, max_value=8.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_separation_and_maximality(self, candidates, probe_range, seed):
        rng = random.Random(seed)
        workers = rsa_working_set(candidates, probe_range, rng)
        # Separation: no two workers within the probing range.
        assert min_pairwise_distance(workers) >= probe_range - 1e-9
        # Maximality: every candidate is a worker or has one within range.
        worker_set = set(workers)
        for candidate in candidates:
            if candidate not in worker_set:
                assert any(
                    math.dist(candidate, worker) <= probe_range
                    for worker in workers
                )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(points, min_size=1, max_size=50, unique=True))
    def test_workers_subset_of_candidates(self, candidates):
        workers = rsa_working_set(candidates, 3.0, random.Random(1))
        assert set(workers) <= set(candidates)
