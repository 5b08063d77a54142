"""Unit tests for the coverage grid and tracker."""

import math
import random

import numpy as np
import pytest

from repro.coverage import CoverageGrid, CoverageTracker, lifetime_from_series
from repro.net import Field, distance
from repro.sim import Simulator


class TestCoverageGrid:
    def test_empty_grid_uncovered(self):
        grid = CoverageGrid(Field(50.0, 50.0))
        assert grid.fraction(1) == 0.0

    def test_k_zero_always_full(self):
        grid = CoverageGrid(Field(50.0, 50.0))
        assert grid.fraction(0) == 1.0

    def test_single_central_node_covers_disk(self):
        field = Field(50.0, 50.0)
        grid = CoverageGrid(field, sensing_range=10.0, resolution=1.0)
        grid.add_node((25.0, 25.0))
        expected = math.pi * 100.0 / field.area
        assert grid.fraction(1) == pytest.approx(expected, rel=0.05)

    def test_count_at_points(self):
        grid = CoverageGrid(Field(50.0, 50.0), sensing_range=10.0)
        grid.add_node((25.0, 25.0))
        assert grid.count_at((25.0, 25.0)) == 1
        assert grid.count_at((30.0, 25.0)) == 1
        assert grid.count_at((45.0, 45.0)) == 0

    def test_add_remove_roundtrip(self):
        grid = CoverageGrid(Field(50.0, 50.0))
        grid.add_node((10.0, 10.0))
        grid.add_node((30.0, 30.0))
        grid.remove_node((10.0, 10.0))
        grid.remove_node((30.0, 30.0))
        assert grid.fraction(1) == 0.0
        assert all(
            grid.count_at((float(x), float(y))) == 0
            for x in range(51)
            for y in range(51)
        )

    def test_k_coverage_monotone_in_k(self):
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=10.0)
        rng = random.Random(3)
        for _ in range(12):
            grid.add_node((rng.uniform(0, 30), rng.uniform(0, 30)))
        fractions = [grid.fraction(k) for k in range(1, 7)]
        assert fractions == sorted(fractions, reverse=True)

    def test_matches_brute_force(self):
        self._check_against_brute_force(num_nodes=15, num_removed=0)

    def test_matches_brute_force_across_fold_chunks(self):
        # Many queued adds and removes folded by one read.
        self._check_against_brute_force(num_nodes=80, num_removed=40)

    @staticmethod
    def _check_against_brute_force(num_nodes, num_removed):
        field = Field(25.0, 25.0)
        grid = CoverageGrid(field, sensing_range=6.0, resolution=1.0)
        rng = random.Random(9)
        nodes = [(rng.uniform(0, 25), rng.uniform(0, 25)) for _ in range(num_nodes)]
        for node in nodes:
            grid.add_node(node)
        for node in nodes[:num_removed]:
            grid.remove_node(node)
        nodes = nodes[num_removed:]
        for k in (1, 2, 3, 4):
            covered = 0
            total = 0
            for ix in range(26):
                for iy in range(26):
                    point = (float(ix), float(iy))
                    total += 1
                    count = sum(1 for n in nodes if distance(n, point) <= 6.0)
                    if count >= k:
                        covered += 1
            assert grid.fraction(k) == pytest.approx(covered / total)

    def test_fraction_beyond_max_k_computed_directly(self):
        grid = CoverageGrid(Field(20.0, 20.0), sensing_range=10.0, max_k=2)
        for _ in range(4):
            grid.add_node((10.0, 10.0))
        assert grid.fraction(4) > 0.0

    def test_remove_unknown_node_rejected(self):
        grid = CoverageGrid(Field(20.0, 20.0))
        with pytest.raises(ValueError):
            grid.remove_node((10.0, 10.0))

    def test_double_removal_rejected_when_neighbours_cover_the_disk(self):
        grid = CoverageGrid(Field(50.0, 50.0), sensing_range=10.0)
        centre = (25.0, 25.0)
        grid.add_node(centre)
        for neighbour in ((24.5, 25.0), (25.5, 25.0), (25.0, 24.5), (25.0, 25.5)):
            grid.add_node(neighbour)
        grid.remove_node(centre)
        with pytest.raises(ValueError):
            grid.remove_node(centre)
        # The rejected call left no trace: the neighbours' coverage stands.
        assert grid.count_at(centre) == 4

    def test_node_outside_lattice_bounds_is_noop(self):
        grid = CoverageGrid(Field(20.0, 20.0), sensing_range=1.0)
        # Disk fully outside the lattice cannot happen for in-field nodes;
        # the clipped window still behaves.
        grid.add_node((0.0, 0.0))
        assert grid.fraction(1) > 0.0

    def test_point_on_the_rounded_window_edge_is_covered(self):
        # (4.0 + r) / 0.1 rounds to 42.99..., yet the point at 43 * 0.1 m
        # lies 0.2999... m from the node, inside its 0.3000...04 m disk.
        grid = CoverageGrid(
            Field(10.0, 7.0), sensing_range=0.30000000000000004, resolution=0.1
        )
        grid.add_node((0.0, 4.0))
        assert grid.count_at((0.0, 43 * 0.1)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageGrid(Field(10.0, 10.0), sensing_range=0.0)
        with pytest.raises(ValueError):
            CoverageGrid(Field(10.0, 10.0), resolution=0.0)
        with pytest.raises(ValueError):
            CoverageGrid(Field(10.0, 10.0), max_k=0)

    def test_disk_storage_per_position_stays_small(self):
        """The memoized disks of 2,000 positions on the paper's lattice
        (50 x 50 m, 1 m spacing, 10 m sensing range) hold at most 256 B of
        array data per position, counted over every dict the grid keeps."""
        grid = CoverageGrid(Field(50.0, 50.0), sensing_range=10.0, resolution=1.0)
        rng = random.Random(11)
        positions = 2000
        for _ in range(positions):
            grid.add_node((rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)))
        grid.fraction(1)  # fold: nothing stays queued

        def array_bytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                return sum(array_bytes(item) for item in value)
            return 0

        stored = sum(
            array_bytes(value) for value in vars(grid).values() if isinstance(value, dict)
        )
        assert stored / positions <= 256

    def test_fractions_dict(self):
        grid = CoverageGrid(Field(20.0, 20.0))
        grid.add_node((10.0, 10.0))
        result = grid.fractions((1, 2))
        assert set(result) == {1, 2}


class TestLifetimeFromSeries:
    def test_basic_crossing_after_boot(self):
        samples = [(0, 0.0), (10, 0.5), (20, 0.95), (30, 0.97), (40, 0.85)]
        assert lifetime_from_series(samples, 0.9) == 40

    def test_boot_ramp_not_counted(self):
        """Low coverage during boot must not terminate the lifetime at t=0."""
        samples = [(0, 0.0), (10, 0.3), (20, 0.95), (30, 0.96)]
        assert lifetime_from_series(samples, 0.9) == 30  # censored at end

    def test_never_achieved_returns_none(self):
        samples = [(0, 0.1), (10, 0.5)]
        assert lifetime_from_series(samples, 0.9) is None

    def test_empty_series(self):
        assert lifetime_from_series([], 0.9) is None

    def test_first_crossing_wins(self):
        samples = [(0, 0.95), (10, 0.85), (20, 0.95), (30, 0.5)]
        assert lifetime_from_series(samples, 0.9) == 10


class TestCoverageTracker:
    class FakeNode:
        def __init__(self, position):
            self.position = position

    def test_tracks_working_changes(self):
        sim = Simulator()
        grid = CoverageGrid(Field(30.0, 30.0), sensing_range=10.0)
        tracker = CoverageTracker(sim, grid, ks=(1,), sample_interval_s=5.0)
        tracker.start()
        node = self.FakeNode((15.0, 15.0))
        tracker.on_working_change(0.0, node, True)
        sim.run(until=10.0)
        tracker.on_working_change(10.0, node, False)
        sim.run(until=20.0)
        samples = tracker.series.samples("coverage_1")
        assert samples[0] == (0.0, 0.0)
        assert samples[1][1] > 0.0  # covered while working
        assert samples[-1][1] == 0.0  # uncovered after stop

    def test_working_count_series(self):
        sim = Simulator()
        grid = CoverageGrid(Field(30.0, 30.0))
        tracker = CoverageTracker(sim, grid, ks=(1,), sample_interval_s=5.0)
        tracker.start()
        tracker.on_working_change(0.0, self.FakeNode((5.0, 5.0)), True)
        tracker.on_working_change(0.0, self.FakeNode((25.0, 25.0)), True)
        sim.run(until=5.0)
        assert tracker.series.last("working_count")[1] == 2.0

    def test_validation(self):
        sim = Simulator()
        grid = CoverageGrid(Field(30.0, 30.0))
        with pytest.raises(ValueError):
            CoverageTracker(sim, grid, ks=())
        with pytest.raises(ValueError):
            CoverageTracker(sim, grid, threshold=0.0)

    def test_stop_ends_sampling(self):
        sim = Simulator()
        grid = CoverageGrid(Field(30.0, 30.0))
        tracker = CoverageTracker(sim, grid, ks=(1,), sample_interval_s=5.0)
        tracker.start()
        sim.run(until=10.0)
        tracker.stop()
        count = len(tracker.series.samples("coverage_1"))
        sim.run(until=50.0)
        assert len(tracker.series.samples("coverage_1")) == count
