"""Brute-force oracle for the per-frame energy charge.

``PEASNetwork._energy_hook`` charges every frame in one pass: a memoized
``(category, joules)`` pair, then :meth:`PEASNode.charge_frame`, which runs
:meth:`NodeBattery.charge_frame` (integrating the mode draw inline) and the
depletion check.  The reference below is the same charge spelled out in
primitives, calling none of that code — ``frame_category`` →
``profile.frame_energy`` → ``_integrate`` → subtract and floor →
``attribute`` → the ``_DEATH_SLACK_S`` rule — on a twin network.  Random
interleavings of mode changes, time advances and tx/rx frames (including
frames that empty the battery) must leave both twins bit-identical:
remaining charge, battery clock, the per-category totals and their key
order, the death timer's expiry, the kept depletion deadline and the
node's fate.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DeathCause, NodeMode, PEASConfig, PEASNetwork
from repro.core.node import _DEATH_SLACK_S
from repro.energy import MOTE_PROFILE, NodeBattery, RadioMode, frame_category
from repro.net import PACKET_SIZE_BYTES, Field, Packet, RadioModel
from repro.sim import RngRegistry, Simulator

AIRTIMES = (RadioModel().airtime(PACKET_SIZE_BYTES), 0.0, 0.004, 0.05)
MODES = (RadioMode.SLEEP, RadioMode.IDLE, RadioMode.OFF)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=2.0)),
        st.tuples(st.just("mode"), st.sampled_from(MODES)),
        st.tuples(
            st.just("frame"),
            st.sampled_from(("PROBE", "REPLY", "DATA")),
            st.sampled_from(("tx", "rx")),
            st.sampled_from(AIRTIMES),
        ),
    ),
    max_size=40,
)


def _twin(initial_j):
    sim = Simulator()
    network = PEASNetwork(
        sim, Field(10.0, 10.0), [(5.0, 5.0)], PEASConfig(), RngRegistry(seed=1)
    )
    node = network.nodes[0]
    node.battery = NodeBattery(MOTE_PROFILE, initial_j, sim.now)
    node._reschedule_death()
    return sim, network, node


def _reference_charge(network, node, direction, airtime, packet):
    battery = node.battery
    now = network.sim.now
    category = frame_category(packet.kind, direction)
    joules = battery.profile.frame_energy(direction, airtime)
    battery._integrate(now)
    remaining = battery._remaining - joules
    if remaining < 0.0:
        remaining = 0.0
    battery._remaining = remaining
    battery.attribute(category, joules)
    if node.mode is NodeMode.DEAD:
        return
    if remaining <= 0.0:
        node._die(DeathCause.ENERGY)
        return
    power = battery._power_w
    if power <= 0.0:
        return
    ttd = remaining / power
    if node._death_at > now + ttd + _DEATH_SLACK_S:
        node._arm_death(ttd)


def _state(sim, node):
    battery = node.battery
    event = node._death_timer._event
    return (
        repr(sim.now),
        repr(battery._remaining),
        repr(battery._last_update),
        [(category, repr(joules)) for category, joules in battery.by_category.items()],
        None if event is None or event._cancelled else repr(event.time),
        repr(node._death_at),
        node.mode,
        node.death_cause,
    )


@settings(max_examples=150, deadline=None)
@given(initial_j=st.floats(min_value=1e-4, max_value=0.05), script=ops)
@example(initial_j=1e-4, script=[("frame", "PROBE", "tx", 0.05), ("advance", 1.0)])
@example(
    initial_j=0.01,
    script=[("mode", RadioMode.IDLE), ("advance", 0.5), ("frame", "REPLY", "rx", 0.004),
            ("advance", 2.0), ("frame", "DATA", "tx", 0.05)],
)
def test_fused_frame_charge_matches_the_stepwise_reference(initial_j, script):
    fused = _twin(initial_j)
    reference = _twin(initial_j)
    for op in script:
        for (sim, network, node), fused_side in ((fused, True), (reference, False)):
            if op[0] == "advance":
                sim.run(until=sim.now + op[1])
            elif op[0] == "mode":
                if node.alive:
                    node.battery.set_mode(sim.now, op[1])
                    node._reschedule_death()
            else:
                _, kind, direction, airtime = op
                packet = Packet(kind, node.node_id)
                if fused_side:
                    network._energy_hook(node.node_id, direction, airtime, packet)
                else:
                    _reference_charge(network, node, direction, airtime, packet)
        assert _state(fused[0], fused[2]) == _state(reference[0], reference[2])
