"""Unit tests for repro.sim.process (Timer, PeriodicProcess)."""

import pytest

from repro.sim import PeriodicProcess, Timer


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_passes_args(self, sim):
        fired = []
        timer = Timer(sim, lambda a, b: fired.append((a, b)))
        timer.start(1.0, "x", 2)
        sim.run()
        assert fired == [("x", 2)]

    def test_restart_cancels_previous(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, fired.append)
        timer.start(1.0, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_and_expiry(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.expiry is None
        timer.start(4.0)
        assert timer.armed
        assert timer.expiry == 4.0
        sim.run()
        assert not timer.armed

    def test_rearm_after_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]


class TestPeriodicProcess:
    def test_repeats_at_interval(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 2.0, lambda: ticks.append(sim.now))
        process.start()
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_custom_first_delay(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 5.0, lambda: ticks.append(sim.now))
        process.start(first_delay=1.0)
        sim.run(until=11.0)
        assert ticks == [1.0, 6.0, 11.0]

    def test_stop_ends_repetition(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        process.start()
        sim.schedule(2.5, process.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_within_callback(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                process.stop()

        process = PeriodicProcess(sim, 1.0, tick)
        process.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_double_start_is_noop(self, sim):
        ticks = []
        process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        process.start()
        process.start()
        sim.run(until=2.0)
        assert ticks == [1.0, 2.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)

    def test_running_property(self, sim):
        process = PeriodicProcess(sim, 1.0, lambda: None)
        assert not process.running
        process.start()
        assert process.running
        process.stop()
        assert not process.running

