"""Property-based oracle: GRAB's cached queries equal a fresh rebuild.

:class:`GrabRouter` reuses its gradient path while the topology version is
unchanged, and :class:`WorkingTopology` reuses each station point's grid
candidates while the grid only loses members.  Both are pure
optimizations, so after any sequence of working-set churn, node deaths
(grid removals) and grid inserts, the long-lived router must answer
exactly as a topology and router built from scratch over the same state.
A death is also queried half-way, after the node left the grid but before
it left the working set; there the router must match a new router over
the same topology, and the station attachments a brute-force scan.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Field, NeighborCache, make_spatial_grid
from repro.net.field import distance_sq
from repro.routing import GrabRouter, WorkingTopology

SIDE = 20.0
COMM_RANGE = 6.0
#: stations inset from the corners so small random deployments still
#: reach both of them and gradient paths usually exist
SOURCE = (4.0, 4.0)
SINK = (SIDE - 4.0, SIDE - 4.0)

offsets = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
#: inserted nodes land next to a station, where they change its attachments
near_station = st.builds(
    lambda station, dx, dy: (station[0] + dx, station[1] + dy),
    st.sampled_from([SOURCE, SINK]),
    offsets,
    offsets,
)
#: uniform deployments (hypothesis floats cluster on edge values, which
#: leaves the stations disconnected and the path cache untested)
deployments = st.builds(
    lambda seed, count: [
        (rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE))
        for rng in [random.Random(seed)]
        for _ in range(count)
    ],
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=8, max_value=40),
)
#: (op, node index) steps; an "insert" index past the deployment adds a new
#: node, a dead one's revives it (re-inserted ids get a new canonical order)
steps = st.tuples(
    st.sampled_from(["add", "add", "remove", "kill", "kill", "detach", "insert"]),
    st.integers(min_value=0, max_value=200),
)


def build_router_over(topology):
    """A new router (cold cost field and path) over an existing topology."""
    return GrabRouter(topology, source=SOURCE, sink=SINK, attach_radius=COMM_RANGE)


def build_router(grid, neighbors=None):
    topology = WorkingTopology(grid, comm_range=COMM_RANGE, neighbors=neighbors)
    return topology, build_router_over(topology)


def fresh_answers(backend, grid, topology):
    """The three queries from a topology + router rebuilt from scratch:
    same grid members in the same canonical order, same working members in
    the same insertion order."""
    members = sorted(
        (grid.insertion_index(item), item, position)
        for item, position in grid.items()
    )
    fresh_grid = make_spatial_grid(Field(SIDE, SIDE), cell_size=3.0, backend=backend)
    for _order, item, position in members:
        fresh_grid.insert(item, position)
    fresh_topology, fresh_router = build_router(fresh_grid)
    for node_id in topology.nodes():
        fresh_topology.add_working(node_id, topology.position(node_id))
    return answers(fresh_router)


def attached(topology):
    """Working nodes attached to either station (source first)."""
    return topology.working_within(SOURCE, COMM_RANGE) + topology.working_within(
        SINK, COMM_RANGE
    )


def answers(router):
    return router.gradient_path(), router.best_entry(), router.source_attachments()


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(["columnar", "scalar"]),
    positions=deployments,
    script=st.lists(steps, min_size=1, max_size=60),
    insert_at=st.integers(min_value=0, max_value=59),
    insert_point=near_station,
)
def test_cached_queries_match_fresh_rebuild(
    backend, positions, script, insert_at, insert_point
):
    grid = make_spatial_grid(Field(SIDE, SIDE), cell_size=3.0, backend=backend)
    for index, position in enumerate(positions):
        grid.insert(index, position)
    topology, router = build_router(grid, NeighborCache(grid))
    # Start fully working so that gradient paths usually exist.
    for index, position in enumerate(positions):
        topology.add_working(index, position)
    # At least one grid insert lands after the first query.
    script = list(script)
    script.insert(min(insert_at, len(script)), ("insert", len(positions)))

    assert answers(router) == fresh_answers(backend, grid, topology)
    for op, index in script:
        if op == "insert":
            if index < len(positions) and index in grid:
                continue
            if index >= len(positions):
                positions.append(insert_point)
                index = len(positions) - 1
            # A node joins the medium and starts working.
            grid.insert(index, positions[index])
            topology.add_working(index, positions[index])
        else:
            index %= len(positions)
            if op == "add" and index in grid and index not in topology:
                topology.add_working(index, positions[index])
            elif op == "remove" and index in topology:
                topology.remove_working(index)
            elif op == "detach" and attached(topology):
                # A death queried half-way: a station-attached node has left
                # the medium but not yet the working set.
                victim = attached(topology)[index % len(attached(topology))]
                grid.remove(victim)
                assert answers(router) == answers(build_router_over(topology))
                for station in (SOURCE, SINK):
                    assert topology.working_within(station, COMM_RANGE) == [
                        item
                        for item in grid.within(station, COMM_RANGE)
                        if item in topology
                        and distance_sq(topology.position(item), station)
                        <= COMM_RANGE * COMM_RANGE
                    ]
                topology.remove_working(victim)
            elif op == "kill" and index in grid:
                # A death: the node leaves the medium, then the working set.
                grid.remove(index)
                if index in topology:
                    topology.remove_working(index)
        cached = answers(router)
        assert cached == fresh_answers(backend, grid, topology)
        # Callers own their path: mutating it must not corrupt the cache.
        if cached[0] is not None:
            cached[0].append("corrupt")
            assert router.gradient_path() == fresh_answers(backend, grid, topology)[0]
