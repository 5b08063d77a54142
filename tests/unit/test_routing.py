"""Unit tests for the GRAB-like routing substrate."""

import random

import pytest

from repro.net import Field, SpatialGrid
from repro.routing import (
    CostField,
    GrabRouter,
    ReportTraffic,
    WorkingTopology,
)
from repro.sim import Simulator


def make_topology(comm_range=10.0, field=50.0):
    grid = SpatialGrid(Field(field, field), cell_size=3.0)
    return WorkingTopology(grid, comm_range=comm_range), grid


class TestWorkingTopology:
    def test_add_creates_edges_within_range(self):
        topo, grid = make_topology()
        grid.insert(0, (10.0, 10.0))
        grid.insert(1, (15.0, 10.0))
        grid.insert(2, (30.0, 30.0))
        topo.add_working(0, (10.0, 10.0))
        topo.add_working(1, (15.0, 10.0))
        topo.add_working(2, (30.0, 30.0))
        assert topo.neighbors(0) == {1}
        assert topo.neighbors(2) == set()

    def test_remove_cleans_edges(self):
        topo, grid = make_topology()
        for i, p in enumerate([(10.0, 10.0), (15.0, 10.0)]):
            grid.insert(i, p)
            topo.add_working(i, p)
        topo.remove_working(1)
        assert topo.neighbors(0) == set()
        assert 1 not in topo

    def test_duplicate_add_rejected(self):
        topo, grid = make_topology()
        grid.insert(0, (10.0, 10.0))
        topo.add_working(0, (10.0, 10.0))
        with pytest.raises(KeyError):
            topo.add_working(0, (10.0, 10.0))

    def test_version_bumps_on_change(self):
        topo, grid = make_topology()
        grid.insert(0, (10.0, 10.0))
        v0 = topo.version
        topo.add_working(0, (10.0, 10.0))
        assert topo.version > v0

    def test_only_working_nodes_are_neighbors(self):
        """Sleeping nodes in the spatial grid must not appear as edges."""
        topo, grid = make_topology()
        grid.insert(0, (10.0, 10.0))
        grid.insert(1, (12.0, 10.0))  # in grid but not working
        topo.add_working(0, (10.0, 10.0))
        assert topo.neighbors(0) == set()

    def test_working_within(self):
        topo, grid = make_topology()
        grid.insert(0, (2.0, 2.0))
        grid.insert(1, (40.0, 40.0))
        topo.add_working(0, (2.0, 2.0))
        topo.add_working(1, (40.0, 40.0))
        assert topo.working_within((0.0, 0.0), 5.0) == [0]

    def test_working_within_follows_grid_changes(self):
        """Cached station candidates track removals and re-inserts exactly."""
        topo, grid = make_topology()
        for i, p in enumerate([(2.0, 2.0), (3.0, 3.0)]):
            grid.insert(i, p)
            topo.add_working(i, p)
        assert topo.working_within((0.0, 0.0), 5.0) == [0, 1]
        grid.remove(0)  # left the medium, still in the working set
        assert topo.working_within((0.0, 0.0), 5.0) == [1]
        grid.insert(2, (1.0, 1.0))
        topo.add_working(2, (1.0, 1.0))
        assert topo.working_within((0.0, 0.0), 5.0) == [1, 2]
        grid.insert(0, (2.0, 2.0))  # re-inserted: last in canonical order
        assert topo.working_within((0.0, 0.0), 5.0) == [1, 2, 0]

    def test_connected_components(self):
        topo, grid = make_topology()
        positions = {0: (0.0, 0.0), 1: (5.0, 0.0), 2: (40.0, 40.0)}
        for i, p in positions.items():
            grid.insert(i, p)
            topo.add_working(i, p)
        components = sorted(topo.connected_components(), key=len, reverse=True)
        assert {0, 1} in components
        assert {2} in components

    def test_invalid_range(self):
        grid = SpatialGrid(Field(10.0, 10.0), cell_size=3.0)
        with pytest.raises(ValueError):
            WorkingTopology(grid, comm_range=0.0)


class TestCostField:
    def test_hop_costs_from_sink(self):
        topo, grid = make_topology()
        chain = {0: (45.0, 45.0), 1: (36.0, 45.0), 2: (27.0, 45.0)}
        for i, p in chain.items():
            grid.insert(i, p)
            topo.add_working(i, p)
        field = CostField(topo, sink=(50.0, 50.0), attach_radius=10.0)
        assert field.cost(0) == 0
        assert field.cost(1) == 1
        assert field.cost(2) == 2

    def test_unreachable_node_has_no_cost(self):
        topo, grid = make_topology()
        grid.insert(0, (45.0, 45.0))
        grid.insert(1, (5.0, 5.0))
        topo.add_working(0, (45.0, 45.0))
        topo.add_working(1, (5.0, 5.0))
        field = CostField(topo, sink=(50.0, 50.0), attach_radius=10.0)
        assert field.cost(1) is None

    def test_lazy_rebuild(self):
        topo, grid = make_topology()
        grid.insert(0, (45.0, 45.0))
        topo.add_working(0, (45.0, 45.0))
        field = CostField(topo, sink=(50.0, 50.0), attach_radius=10.0)
        field.costs()
        field.costs()
        assert field.rebuild_count == 1
        grid.insert(1, (36.0, 45.0))
        topo.add_working(1, (36.0, 45.0))
        field.costs()
        assert field.rebuild_count == 2

    def test_invalid_radius(self):
        topo, _ = make_topology()
        with pytest.raises(ValueError):
            CostField(topo, (0.0, 0.0), attach_radius=0.0)


def build_corridor():
    """A working chain from near (0,0) to near (50,50)."""
    topo, grid = make_topology()
    positions = [(5.0 * i, 5.0 * i) for i in range(11)]  # diagonal, 7.07m apart
    for i, p in enumerate(positions):
        grid.insert(i, p)
        topo.add_working(i, p)
    return topo, grid


class TestGrabRouter:
    def test_delivers_over_connected_chain(self):
        topo, _ = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        outcome = router.deliver()
        assert outcome.delivered
        assert outcome.hops >= 1

    def test_no_source_attachment(self):
        topo, grid = make_topology()
        grid.insert(0, (45.0, 45.0))
        topo.add_working(0, (45.0, 45.0))
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        outcome = router.deliver()
        assert not outcome.delivered
        assert "source" in outcome.reason

    def test_disconnected_reports_failure(self):
        topo, grid = make_topology()
        for i, p in [(0, (3.0, 3.0)), (1, (47.0, 47.0))]:
            grid.insert(i, p)
            topo.add_working(i, p)
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        outcome = router.deliver()
        assert not outcome.delivered
        assert "disconnected" in outcome.reason

    def test_delivery_reacts_to_topology_change(self):
        topo, _ = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        assert router.deliver().delivered
        topo.remove_working(5)  # cut the chain
        assert not router.deliver().delivered

    def test_lossy_links_drop_some_reports(self):
        topo, _ = build_corridor()
        router = GrabRouter(
            topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0,
            link_loss=0.4, mesh_width=1, rng=random.Random(5),
        )
        outcomes = [router.deliver().delivered for _ in range(300)]
        ratio = sum(outcomes) / len(outcomes)
        assert 0.0 < ratio < 0.5

    def test_mesh_width_improves_delivery(self):
        topo, _ = build_corridor()
        def ratio(width, seed):
            router = GrabRouter(
                topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0,
                link_loss=0.4, mesh_width=width, rng=random.Random(seed),
            )
            return sum(router.deliver().delivered for _ in range(300)) / 300
        assert ratio(3, 1) > ratio(1, 1)

    def test_validation(self):
        topo, _ = make_topology()
        with pytest.raises(ValueError):
            GrabRouter(topo, (0, 0), (1, 1), 10.0, link_loss=1.0)
        with pytest.raises(ValueError):
            GrabRouter(topo, (0, 0), (1, 1), 10.0, mesh_width=0)


class TestReportTraffic:
    def test_counts_generated_and_delivered(self):
        topo, _ = build_corridor()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        traffic = ReportTraffic(sim, router, interval_s=10.0)
        traffic.start()
        sim.run(until=100.0)
        assert traffic.generated == 10
        assert traffic.delivered == 10
        assert traffic.success_ratio() == 1.0

    def test_ratio_declines_after_cut(self):
        topo, _ = build_corridor()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        traffic = ReportTraffic(sim, router, interval_s=10.0)
        traffic.start()
        sim.run(until=100.0)
        topo.remove_working(5)
        sim.run(until=200.0)
        assert traffic.delivered == 10
        assert traffic.success_ratio() == pytest.approx(0.5)

    def test_delivery_lifetime_crossing(self):
        topo, _ = build_corridor()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        traffic = ReportTraffic(sim, router, interval_s=10.0, threshold=0.9)
        traffic.start()
        sim.schedule(105.0, topo.remove_working, 5)
        sim.run(until=300.0)
        lifetime = traffic.delivery_lifetime()
        # 10 delivered of 12 generated crosses 90% at t=120.
        assert lifetime == pytest.approx(120.0)

    def test_delivery_lifetime_extrapolated_when_censored(self):
        topo, _ = build_corridor()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        traffic = ReportTraffic(sim, router, interval_s=10.0, threshold=0.9)
        traffic.start()
        sim.run(until=100.0)
        traffic.stop()
        # 10/10 delivered; ratio would cross 0.9 at 10 * 10 / 0.9.
        assert traffic.delivery_lifetime() == pytest.approx(10 * 10.0 / 0.9)

    def test_never_achieved_returns_none(self):
        topo, grid = make_topology()  # empty: nothing ever delivers
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        traffic = ReportTraffic(sim, router, interval_s=10.0)
        traffic.start()
        sim.run(until=100.0)
        assert traffic.delivery_lifetime() is None

    def test_validation(self):
        topo, _ = make_topology()
        sim = Simulator()
        router = GrabRouter(topo, (0, 0), (1, 1), 10.0)
        with pytest.raises(ValueError):
            ReportTraffic(sim, router, interval_s=0.0)
        with pytest.raises(ValueError):
            ReportTraffic(sim, router, threshold=1.5)


class TestGradientPath:
    def test_path_descends_cost_field(self):
        topo, _ = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        path = router.gradient_path()
        assert path is not None
        costs = router.cost_field.costs()
        values = [costs[node] for node in path]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 0  # ends on the sink attachment ring

    def test_path_edges_within_comm_range(self):
        from repro.net import distance
        topo, _ = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        path = router.gradient_path()
        for a, b in zip(path, path[1:]):
            assert distance(topo.position(a), topo.position(b)) <= 10.0

    def test_no_path_returns_none(self):
        topo, grid = make_topology()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        assert router.gradient_path() is None

    def test_path_is_reused_until_the_topology_changes(self):
        topo, grid = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        path = router.gradient_path()
        path.append("corrupt")  # callers own the returned list
        again = router.gradient_path()
        assert again == path[:-1]
        topo.remove_working(again[1])
        assert router.gradient_path() != again

    def test_path_follows_a_working_node_leaving_the_grid(self):
        """A death detaches the node before it stops working; a query in
        between must already see the sink attachments without it."""
        topo, grid = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        assert router.gradient_path()[-1] == 9
        grid.remove(9)
        fresh = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        assert router.gradient_path() == fresh.gradient_path()
        assert router.gradient_path()[-1] == 10

    def test_outcome_carries_path(self):
        topo, _ = build_corridor()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        outcome = router.deliver()
        assert outcome.path is not None
        assert len(outcome.path) == outcome.hops


class TestPathHook:
    def test_hook_called_with_path(self):
        topo, _ = build_corridor()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        seen = []
        traffic = ReportTraffic(sim, router, interval_s=10.0,
                                path_hook=seen.append)
        traffic.start()
        sim.run(until=30.0)
        assert len(seen) == 3
        assert all(isinstance(path, list) and path for path in seen)

    def test_hook_not_called_without_path(self):
        topo, grid = make_topology()
        sim = Simulator()
        router = GrabRouter(topo, (0.0, 0.0), (50.0, 50.0), attach_radius=10.0)
        seen = []
        traffic = ReportTraffic(sim, router, interval_s=10.0,
                                path_hook=seen.append)
        traffic.start()
        sim.run(until=30.0)
        assert seen == []
