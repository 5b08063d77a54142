"""SimSanitizer: every invariant trips on deliberately corrupted state, the
wiring costs nothing when off, and check accounting is truthful.
"""

import pytest

from repro.core.states import NodeMode
from repro.net import Packet
from repro.sim import InvariantViolation, SimSanitizer, Simulator
from repro.sim.sanitizer import DEFAULT_SWEEP_PERIOD

from tests.helpers import make_network


def sanitized_network(**kwargs):
    """A started network with the sanitizer fully wired, run for a while."""
    sim, network = make_network(**kwargs)
    sanitizer = SimSanitizer()
    sanitizer.install(sim)
    sanitizer.attach_network(network)
    network.start()
    sim.run(until=200.0)
    return sim, network, sanitizer


# ----------------------------------------------------------------- clean runs
def test_clean_run_passes_and_counts_checks():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    sanitizer.sweep(sim.now)
    report = sanitizer.report()
    assert report["events_checked"] > 0
    assert report["transmissions_checked"] > 0
    assert report["sweeps"] > 0
    assert report["node_checks"] >= len(network.nodes)
    assert sanitizer.total_checks == (
        report["events_checked"]
        + report["transmissions_checked"]
        + report["node_checks"]
    )


def test_off_means_nothing_installed():
    sim, network = make_network(num_nodes=10)
    assert sim.pre_event_hooks == []
    assert network.channel.sanitizer is None
    network.start()
    sim.run(until=50.0)  # no checks, no errors


def test_install_is_exclusive_and_uninstall_detaches():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.install(sim)
    with pytest.raises(RuntimeError):
        sanitizer.install(sim)
    assert sim.pre_event_hooks == [sanitizer._on_event]
    sanitizer.uninstall()
    assert sim.pre_event_hooks == []


def test_sweep_period_validation():
    with pytest.raises(ValueError):
        SimSanitizer(sweep_period=0)
    assert SimSanitizer().sweep_period == DEFAULT_SWEEP_PERIOD


# ------------------------------------------------------------------ invariants
def test_monotonic_time_violation_trips():
    sim = Simulator()
    sanitizer = SimSanitizer()
    sanitizer.install(sim)
    sim.schedule(1.0, lambda: None)
    sanitizer._last_time = 10.0  # simulate an earlier event far in the future
    with pytest.raises(InvariantViolation, match="backwards"):
        sim.run()


def test_negative_battery_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=10)
    node = next(iter(network.nodes.values()))
    node.battery._remaining = -1.0
    with pytest.raises(InvariantViolation, match="negative"):
        sanitizer.sweep(sim.now)


def test_battery_clock_ahead_of_sim_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=10)
    node = next(iter(network.nodes.values()))
    node.battery._last_update = sim.now + 1e6
    with pytest.raises(InvariantViolation, match="ran ahead"):
        sanitizer.sweep(sim.now)


def test_dead_without_cause_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=10)
    node_id = next(iter(network.nodes))
    network.kill(node_id)
    node = network.nodes[node_id]
    assert node.mode is NodeMode.DEAD
    node.death_cause = None
    with pytest.raises(InvariantViolation, match="without a death cause"):
        sanitizer.sweep(sim.now)


def test_corrupt_estimator_window_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    workers = [n for n in network.nodes.values()
               if n.mode is NodeMode.WORKING and n.estimator is not None]
    assert workers, "a 25-node network must have working nodes by t=200"
    workers[0].estimator._count = workers[0].estimator.k + 1
    with pytest.raises(InvariantViolation, match="window count"):
        sanitizer.sweep(sim.now)


def test_transmit_while_not_listening_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    sleeper = next(
        (n for n in network.nodes.values()
         if n.alive and not n.is_listening()),
        None,
    )
    assert sleeper is not None, "a 25-node network must have sleepers by t=200"
    packet = Packet(kind="PROBE", sender=sleeper.node_id)
    with pytest.raises(InvariantViolation, match="not radio-active"):
        network.channel.transmit(
            sleeper.node_id, packet, network.config.probe_range_m
        )


def test_periodic_sweep_catches_corruption_mid_run():
    # Corrupt a battery from inside the simulation: the next periodic sweep
    # (every DEFAULT_SWEEP_PERIOD events) must trip without an explicit call.
    sim, network = make_network(num_nodes=25)
    sanitizer = SimSanitizer(sweep_period=16)
    sanitizer.install(sim)
    sanitizer.attach_network(network)
    network.start()

    def corrupt():
        node = next(iter(network.nodes.values()))
        node.battery._remaining = -5.0

    sim.schedule(100.0, corrupt)
    with pytest.raises(InvariantViolation, match="negative"):
        sim.run(until=400.0)


def test_unpublished_listening_change_trips():
    # The channel decides audiences and mid-frame aborts from the flag each
    # endpoint publishes; an endpoint that flips its radio without
    # note_listening must be named by the next sweep.
    from types import SimpleNamespace

    from tests.unit.test_channel import attach, make_channel

    sim, channel = make_channel()
    attach(channel, "steady", (5.0, 5.0))
    flipper = attach(channel, "flipper", (6.0, 5.0))
    sanitizer = SimSanitizer()
    sanitizer.attach_network(SimpleNamespace(nodes={}, channel=channel))
    flipper.listening = False  # published: the flag follows
    sanitizer.sweep(sim.now)
    flipper._listening = True  # radio back on, never published
    with pytest.raises(InvariantViolation, match="'flipper'.*note_listening"):
        sanitizer.sweep(sim.now)


def test_peas_nodes_keep_their_published_flag_in_step():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    network.kill(next(iter(network.nodes)))
    sanitizer.sweep(sim.now)
    node = next(n for n in network.nodes.values() if n.is_listening())
    node.mode = NodeMode.SLEEPING  # a transition that skipped note_listening
    with pytest.raises(InvariantViolation, match=rf"^node {node.node_id!r} published"):
        sanitizer.sweep(sim.now)


def test_sleepers_keep_their_deadline_out_of_the_heap_cleanly():
    # A sleeper whose deadline comes after its wake timer has no depletion
    # event; the sweep accepts that.
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    sleepers = [n for n in network.nodes.values() if n.mode is NodeMode.SLEEPING]
    assert sleepers and all(not n._death_timer.armed for n in sleepers)
    assert all(n._death_at > n._sleep_timer.expiry for n in sleepers)
    sanitizer.sweep(sim.now)


def test_deadline_before_own_timer_without_an_event_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    sleeper = next(n for n in network.nodes.values() if n.mode is NodeMode.SLEEPING)
    sleeper._death_at = sleeper._sleep_timer.expiry - 1.0  # never armed
    with pytest.raises(
        InvariantViolation, match=rf"^node {sleeper.node_id!r} \(sleeping\).*no depletion event"
    ):
        sanitizer.sweep(sim.now)


def test_working_node_without_a_depletion_event_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    worker = next(n for n in network.nodes.values() if n.mode is NodeMode.WORKING)
    worker._death_timer.cancel()  # no own timer: the deadline must be armed
    with pytest.raises(InvariantViolation, match=r"before its own next timer \(none\)"):
        sanitizer.sweep(sim.now)


def test_depletion_event_off_the_deadline_trips():
    sim, network, sanitizer = sanitized_network(num_nodes=25)
    worker = next(n for n in network.nodes.values() if n.mode is NodeMode.WORKING)
    worker._death_at += 1.0
    with pytest.raises(InvariantViolation, match="depletion event at"):
        sanitizer.sweep(sim.now)
