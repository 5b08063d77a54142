"""Unit tests for repro.sim.engine.Simulator."""

import pytest

from repro.sim import EventQueueEmpty, SimulationError, Simulator
from repro.sim.events import Event


class TestScheduling:
    def test_schedule_relative_delay(self, sim):
        event = sim.schedule(5.0, lambda: None)
        assert event.time == 5.0

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule_at(7.0, lambda: None)
        assert sim.peek_time() == 7.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_pending_events_counts_queue(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_schedule_sets_every_event_slot(self, sim):
        """``schedule`` builds events without ``Event.__init__``; a slot it
        forgot would only fail when read."""
        event = sim.schedule(1.0, print, "x", label="tag")
        built = Event(1.0, print, ("x",), label="tag", seq=event.seq)
        built._on_cancel = sim._discard
        for name in Event.__slots__:
            assert getattr(event, name) == getattr(built, name), name

    def test_nan_and_negative_delays_queue_nothing(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert (sim.pending_events, sim.live_events) == (1, 1)

    def test_times_stay_float_after_int_until(self, sim):
        sim.run(until=5)
        event = sim.schedule(3, lambda: None)
        assert type(event.time) is float and event.time == 8.0
        at = sim.schedule_at(9, lambda: None)
        assert type(at.time) is float
        sim.run()
        assert type(sim.now) is float and sim.now == 9.0


class TestExecutionOrder:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_among_equal_times(self, sim):
        fired = []
        for tag in "abc":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_priority_overrides_fifo(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "late", priority=20)
        sim.schedule(1.0, fired.append, "early", priority=0)
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_events_scheduled_during_run_execute(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_with_empty_queue(self, sim):
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_resume_after_until(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]

    def test_until_with_cancelled_head_events(self, sim):
        """Tombstoned heap heads must not stall or mis-advance the clock."""
        fired = []
        doomed = [sim.schedule(t, fired.append, f"dead@{t}") for t in (1.0, 2.0)]
        sim.schedule(3.0, fired.append, "live")
        for event in doomed:
            event.cancel()
        sim.run(until=5.0)
        assert fired == ["live"]
        assert sim.now == 5.0

    def test_until_before_cancelled_tail(self, sim):
        """Clock lands exactly on ``until`` even when later events are dead."""
        fired = []
        sim.schedule(1.0, fired.append, "early")
        late = sim.schedule(10.0, fired.append, "late")
        late.cancel()
        sim.run(until=4.0)
        assert fired == ["early"]
        assert sim.now == 4.0
        sim.run()  # drain: only the tombstone remains
        assert fired == ["early"]

    def test_live_events_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.live_events == 1
        assert sim.pending_events >= sim.live_events

    def test_mass_cancellation_compacts_queue(self, sim):
        """Tombstone reaping keeps the heap from growing without bound."""
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(500)]
        for event in events[:400]:
            event.cancel()
        assert sim.live_events == 100
        assert sim.pending_events < 500  # compaction reaped dead entries
        sim.run()
        assert sim.events_executed == 100
        assert sim.now == 500.0


class TestControl:
    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append("first"), sim.stop()))
        sim.schedule(2.0, fired.append, "second")
        sim.run()
        assert fired == ["first"]

    def test_max_events_guard(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=10)

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.step()
        assert fired == ["a"]

    def test_step_empty_queue_raises(self, sim):
        with pytest.raises(EventQueueEmpty):
            sim.step()

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled_head(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_events_executed_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        sim.run()
        assert sim.events_executed == 1

    def test_cancelling_a_fired_event_leaves_tombstones_alone(self, sim):
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None).cancel()  # tombstone behind a live event
        sim.run(until=1.5)
        assert sim.tombstones == 1
        fired.cancel()
        assert (sim.tombstones, sim.live_events) == (1, 1)


class TestHooks:
    def test_pre_event_hook_sees_each_event(self, sim):
        seen = []
        sim.pre_event_hooks.append(lambda event: seen.append(event.time))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [1.0, 2.0]
