"""Depletion deadlines armed only when they can fire first.

A PEAS node keeps its exact depletion deadline in ``_death_at`` and puts it
in the event heap only while it would fire before the node's own next
mode-changing timer (the wake timer while Sleeping, the window timer while
Probing); that timer's handler recomputes the deadline, so an armed
deadline behind it could only ever be cancelled.  The duty-cycle baseline
does the same against its next on/off toggle.

The reference here is the eager rule this replaced: arm the deadline on
every mode change.  Both rules must fire the same events in the same order,
so every ``RunResult`` is identical, including at exact ties between a
deadline and the timer it races.
"""

import pytest

from repro.baselines.base import BaselineNetwork, BaselineNode
from repro.baselines.duty_cycle import DutyCycleProtocol
from repro.core import PEASConfig, PEASNetwork
from repro.core.node import PEASNode
from repro.core.states import DeathCause, NodeMode
from repro.energy import MOTE_PROFILE, NodeBattery, PowerProfile
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.harness import LiveRun
from repro.net import Field
from repro.sim import RngRegistry, Simulator

from .test_perf_invariants import DUTY_CYCLE, GOLDEN, result_fingerprint

#: Batteries under 2 J and a sleep draw close to the idle draw: the
#: population dies within a few hundred seconds, about half of it asleep
#: and two nodes inside a probing window.
SMALL_BATTERY = Scenario(
    num_nodes=60,
    field_size=(15.0, 15.0),
    seed=7,
    failure_per_5000s=5.0,
    profile=PowerProfile(
        sleep_w=0.01, initial_energy_min_j=0.3, initial_energy_max_j=2.0
    ),
)


def _eager_arm_death(self, ttd):
    self._death_at = float(self.sim.now + ttd)
    self._death_timer.start(ttd)


def _eager_baseline_reschedule(self, remaining, until=None):
    ttd = self.battery.time_to_depletion(self.sim.now)
    if ttd is None:
        self._death_timer.cancel()
    else:
        self._death_timer.start(ttd)


@pytest.fixture
def eager(monkeypatch):
    """Switch both node types to the eager rule for the test's duration."""

    def apply():
        monkeypatch.setattr(PEASNode, "_arm_death", _eager_arm_death)
        monkeypatch.setattr(
            BaselineNode, "_reschedule_death", _eager_baseline_reschedule
        )

    return apply


class TestAgainstTheEagerRule:
    @pytest.mark.parametrize(
        "scenario",
        [GOLDEN, DUTY_CYCLE, SMALL_BATTERY],
        ids=["golden", "duty_cycle", "small_battery"],
    )
    def test_results_are_identical(self, scenario, eager):
        lazy = result_fingerprint(run_scenario(scenario))
        eager()
        assert result_fingerprint(run_scenario(scenario)) == lazy

    def test_small_battery_deaths_hit_sleep_and_window(self, eager, monkeypatch):
        """Non-vacuity for the scenario above: energy deaths happen both
        mid-sleep and mid-window, and the lazy rule schedules fewer
        depletion events than the eager one for the same run."""
        modes = []
        die = PEASNode._die

        def census(self, cause=DeathCause.ENERGY):
            if self.mode is not NodeMode.DEAD and cause is DeathCause.ENERGY:
                modes.append(self.mode)
            die(self, cause)

        armed = []
        schedule = Simulator.schedule

        def count(self, delay, fn, *args, **kwargs):
            if kwargs.get("label") == "depletion":
                armed[-1] += 1
            return schedule(self, delay, fn, *args, **kwargs)

        monkeypatch.setattr(PEASNode, "_die", census)
        monkeypatch.setattr(Simulator, "schedule", count)
        armed.append(0)
        run_scenario(SMALL_BATTERY)
        assert modes.count(NodeMode.SLEEPING) >= 20
        assert modes.count(NodeMode.PROBING) >= 2
        eager()
        armed.append(0)
        run_scenario(SMALL_BATTERY)
        assert armed[0] < armed[1]


def _fired_log(sim):
    log = []
    sim.pre_event_hooks.append(lambda event: log.append((event.time, event.label)))
    return log


def _peas_node(initial_j):
    sim = Simulator()
    network = PEASNetwork(
        sim, Field(10.0, 10.0), [(5.0, 5.0)], PEASConfig(), RngRegistry(seed=1)
    )
    node = network.nodes[0]
    node.battery = NodeBattery(MOTE_PROFILE, initial_j, sim.now)
    return sim, node


class TestExactTies:
    """A deadline equal to the expiry of the timer it races: both rules
    must replay the eager rule's ``seq`` order."""

    def _sleeping_tie(self):
        sim, node = _peas_node(0.0003)
        ttd = node.battery.time_to_depletion(sim.now)
        node._sleep_timer.start(ttd)  # armed first, as _go_to_sleep does
        node._reschedule_death()
        assert node._death_at == node._sleep_timer.expiry
        armed = node._death_timer.armed
        log = _fired_log(sim)
        sim.run()
        return node, log, ttd, armed

    def _probing_tie(self):
        # 1 s of idle draw: the three PROBEs pull the true deadline 0.15 s
        # earlier, within _DEATH_SLACK_S, so the kept deadline stays tied.
        sim, node = _peas_node(0.012)
        node._wake()
        ttd = node.battery.time_to_depletion(sim.now)
        node._window_timer.start(ttd)  # armed first, as _wake does
        node._reschedule_death()
        assert node._death_at == node._window_timer.expiry
        armed = node._death_timer.armed
        log = _fired_log(sim)
        sim.run()
        return node, log, ttd, armed

    def test_peas_sleeping_tie_wakes_before_dying(self, eager):
        node, log, ttd, armed = self._sleeping_tie()
        assert not armed  # the wake timer wins the tie: nothing to arm
        assert log[0] == (ttd, "wake")
        assert node.wakeup_count == 1
        assert node.death_cause is DeathCause.ENERGY
        eager()
        assert self._sleeping_tie()[1] == log

    def test_peas_probing_tie_starts_working_before_dying(self, eager):
        node, log, ttd, armed = self._probing_tie()
        assert not armed  # the window timer wins the tie: nothing to arm
        at_tie = [label for time, label in log if time == ttd]
        assert at_tie == ["probe-window", "depletion"]
        assert node.work_started_at == ttd
        assert node.death_cause is DeathCause.ENERGY
        eager()
        assert self._probing_tie()[1] == log

    def _duty_tie(self):
        sim = Simulator()
        network = BaselineNetwork(sim, Field(10.0, 10.0), [(5.0, 5.0)])
        node = network.nodes[0]
        # The time to depletion at idle draw, computed as the battery will
        # compute it on turn-on; duty 0.5 of a 2 * on_time period is
        # exactly on_time again (scaling by powers of 2 is exact).
        on_time = node.battery.remaining(sim.now) / MOTE_PROFILE.idle_w
        protocol = DutyCycleProtocol(network, duty=0.5, period_s=2.0 * on_time)
        network.start()
        protocol._turn_on(node, protocol.duty * protocol.period_s)
        log = _fired_log(sim)
        sim.run()
        return node, log, on_time

    def test_duty_cycle_tie_dies_before_its_toggle(self, eager):
        node, log, on_time = self._duty_tie()
        assert log == [(on_time, "baseline-depletion"), (on_time, "ris-off")]
        assert not node.alive
        eager()
        assert self._duty_tie()[1] == log


#: No traffic (no anchors) and no failures: the one drained node below is
#: the only one that dies before the horizon.
DRAINED_SCENARIO = Scenario(
    num_nodes=12,
    field_size=(15.0, 15.0),
    seed=3,
    with_traffic=False,
    failure_per_5000s=0.0,
    max_time_s=600.0,
)


def _drained_prober():
    """A run paused mid-window, after some node's next-to-last PROBE, with
    that node's battery cut so its deadline lands 0.04 s after its window
    closes: out of the heap.  The last 10 ms PROBE pulls the true deadline
    0.05 s earlier, inside the window but within ``_DEATH_SLACK_S``, so the
    kept deadline must not move and the node dies at its window end."""
    live = LiveRun(DRAINED_SCENARIO)
    live.start()
    last = DRAINED_SCENARIO.config.num_probes - 1
    node = None
    while True:
        event = live.sim.step()
        if node is None and event.label == "wake":
            woke = event.fn.__self__._fn.__self__  # Timer._fire -> PEASNode._wake
            if woke.mode is NodeMode.PROBING:
                node = woke
        elif node is not None and event.label == "probe-tx":
            if event.fn.__self__ is node and event.args == (last - 1,):
                break
    battery = node.battery
    window_end = node._window_timer.expiry
    now = live.sim.now
    battery._integrate(now)
    battery._remaining = battery.profile.idle_w * (window_end + 0.04 - now)
    node._reschedule_death()
    assert not node._death_timer.armed
    assert node._death_at >= window_end
    return live, node, window_end


class TestSlackRule:
    def test_drained_prober_dies_at_its_window_end(self):
        live, node, window_end = _drained_prober()
        while node.alive:
            live.sim.step()
        # The kept deadline was never pulled in: the node lived to its
        # window end and died there, not mid-window.
        assert live.sim.now == window_end
        assert node.death_cause is DeathCause.ENERGY


class TestStartUpDeadlines:
    def test_duty_cycle_start_arms_no_deadline_its_first_toggle_cancels(self):
        """Every node's first ris-on comes within one period, long before
        its battery could empty asleep: ``start()`` queues no deadline."""
        live = LiveRun(DUTY_CYCLE)
        live.start()
        nodes = live.network.nodes.values()
        assert len(nodes) == DUTY_CYCLE.num_nodes
        assert not any(node._death_timer.armed for node in nodes)
        queued = [event.label for event in live.sim._slots.values()]
        assert "baseline-depletion" not in queued
        assert queued.count("ris-on") == DUTY_CYCLE.num_nodes
