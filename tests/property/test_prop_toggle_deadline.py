"""Brute-force twin for the baseline depletion deadline.

``BaselineNode.set_working``, ``charge`` and ``start_sleeping`` settle the
battery once and derive the deadline from the charge that settle returns.
The reference below is the sequence they replaced, kept only here: settle
(``set_mode`` / ``charge``), then settle again through ``depleted`` /
``time_to_depletion``.  Random batteries, power draws, times, charges and
``until`` values (exact ties included) must leave both nodes with the same
battery floats and the same armed or cancelled deadline.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import BaselineNode
from repro.energy import NodeBattery, PowerProfile, RadioMode
from repro.sim import Simulator


def _reference_reschedule(node, until=None):
    ttd = node.battery.time_to_depletion(node.sim.now)
    if ttd is None or (until is not None and node.sim.now + ttd > until):
        node._death_timer.cancel()
    else:
        node._death_timer.start(ttd)


def reference_set_working(node, working, until=None):
    if not node.alive or working == node.working:
        return
    node.working = working
    node.battery.set_mode(
        node.sim.now, RadioMode.IDLE if working else RadioMode.SLEEP
    )
    _reference_reschedule(node, until)
    node._on_working_change(node, working)


def reference_charge(node, joules, category):
    if not node.alive:
        return
    node.battery.charge(node.sim.now, joules, category)
    if node.battery.depleted(node.sim.now):
        node.die()
    else:
        _reference_reschedule(node)


def reference_start_sleeping(node, until=None):
    node.battery.set_mode(node.sim.now, RadioMode.SLEEP)
    _reference_reschedule(node, until)


def _node(profile, initial_j):
    sim = Simulator()
    battery = NodeBattery(profile, initial_j, sim.now)
    return BaselineNode(
        0, (1.0, 1.0), sim, battery,
        on_working_change=lambda node, working: None,
        on_death=lambda node: None,
    )


def _state(node):
    battery = node.battery
    return (
        battery._remaining,
        battery._last_update,
        battery._mode,
        dict(battery.by_category),
        node.alive,
        node.working,
        node._death_timer.armed,
        node._death_timer.expiry,
    )


def _until(node, working, kind):
    """An ``until`` placed against the deadline the reference would arm:
    ``None``, exactly on it, one ulp either side, or far away."""
    if kind == "none":
        return None
    probe = NodeBattery(node.battery.profile, node.battery.initial_j)
    probe._remaining = node.battery._remaining
    probe._last_update = node.battery._last_update
    probe._power_w = node.battery._power_w
    probe.set_mode(node.sim.now, RadioMode.IDLE if working else RadioMode.SLEEP)
    ttd = probe.time_to_depletion(node.sim.now)
    if ttd is None:
        return node.sim.now + 1.0
    at = float(node.sim.now + ttd)
    return {
        "tie": at,
        "below": math.nextafter(at, -math.inf),
        "above": math.nextafter(at, math.inf),
        "early": node.sim.now + ttd / 3.0,
        "late": at * 2.0 + 1.0,
    }[kind]


powers = st.floats(min_value=1e-6, max_value=0.5, allow_nan=False)
steps = st.lists(
    st.tuples(
        st.sampled_from(["toggle", "charge"]),
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        st.sampled_from(["none", "tie", "below", "above", "early", "late"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    idle_w=powers,
    sleep_w=powers,
    initial_j=st.floats(min_value=1e-3, max_value=60.0, allow_nan=False),
    first=st.sampled_from(["none", "tie", "below", "above", "early", "late"]),
    ops=steps,
)
def test_one_settle_matches_the_two_settle_reference(
    idle_w, sleep_w, initial_j, first, ops
):
    profile = PowerProfile(idle_w=idle_w, sleep_w=sleep_w)
    fast, slow = _node(profile, initial_j), _node(profile, initial_j)
    until = _until(slow, False, first)
    fast.start_sleeping(until)
    reference_start_sleeping(slow, until)
    assert _state(fast) == _state(slow)
    for op, dt, kind, joules in ops:
        now = fast.sim.now + dt
        fast.sim.now = slow.sim.now = now
        if op == "toggle":
            working = not slow.working
            until = _until(slow, working, kind)
            fast.set_working(working, until)
            reference_set_working(slow, working, until)
        else:
            fast.charge(joules, "election")
            reference_charge(slow, joules, "election")
        assert _state(fast) == _state(slow)
