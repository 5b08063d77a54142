"""Unit tests for repro.failures.FailureInjector."""

import random

import pytest

from repro.failures import FailureInjector, per_5000s
from repro.sim import Simulator


class TestPer5000s:
    def test_paper_unit_conversion(self):
        assert per_5000s(10.66) == pytest.approx(10.66 / 5000.0)

    def test_zero(self):
        assert per_5000s(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            per_5000s(-1.0)


def make_injector(rate_hz, population=20, seed=1):
    sim = Simulator()
    alive = set(range(population))
    killed = []

    def kill(node_id):
        alive.discard(node_id)
        killed.append(node_id)

    injector = FailureInjector(sim, rate_hz, lambda: alive, kill, random.Random(seed))
    return sim, injector, alive, killed


class TestInjection:
    def test_zero_rate_never_fires(self):
        sim, injector, alive, killed = make_injector(0.0)
        injector.start()
        sim.run(until=100000.0)
        assert killed == []

    def test_kills_accumulate_at_rate(self):
        sim, injector, alive, killed = make_injector(0.01, population=2000, seed=3)
        injector.start()
        sim.run(until=50000.0)
        # Expect ~500 failures (Poisson, sd ~22).
        assert 400 < len(killed) < 600
        assert injector.failures_injected == len(killed)

    def test_victims_are_alive_nodes(self):
        sim, injector, alive, killed = make_injector(0.05, population=30)
        injector.start()
        sim.run(until=2000.0)
        assert len(killed) == len(set(killed))  # never kills twice

    def test_rearms_when_population_empty(self):
        sim, injector, alive, killed = make_injector(1.0, population=5)
        injector.start()
        sim.run(until=100.0)
        assert len(killed) == 5
        # An empty arrival is a no-op, not a terminator: the process stays
        # armed because transient outages can repopulate the alive set.
        assert sim.pending_events == 1

    def test_kills_resume_after_repopulation(self):
        sim, injector, alive, killed = make_injector(1.0, population=5)
        injector.start()
        sim.run(until=100.0)
        assert len(killed) == 5
        alive.add(99)  # a restored node rejoins the population
        sim.run(until=200.0)
        assert 99 in killed
        assert injector.failures_injected == 6

    def test_failure_times_recorded(self):
        sim, injector, alive, killed = make_injector(0.1, population=50)
        injector.start()
        sim.run(until=200.0)
        assert len(injector.failure_times) == len(killed)
        assert injector.failure_times == sorted(injector.failure_times)

    def test_start_idempotent(self):
        sim, injector, alive, killed = make_injector(0.5, population=1000, seed=5)
        injector.start()
        injector.start()
        sim.run(until=100.0)
        # One process, not two: ~50 failures, not ~100.
        assert len(killed) < 80

    def test_failure_fraction(self):
        sim, injector, alive, killed = make_injector(0.1, population=50)
        injector.start()
        sim.run(until=100.0)
        assert injector.failure_fraction(50) == pytest.approx(len(killed) / 50)

    def test_failure_fraction_invalid_population(self):
        sim, injector, _, _ = make_injector(0.1)
        with pytest.raises(ValueError):
            injector.failure_fraction(0)

    def test_negative_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FailureInjector(sim, -0.1, lambda: [], lambda x: None, random.Random(1))

    def test_exponential_interarrivals(self):
        """Mean inter-failure time should approximate 1/rate."""
        sim, injector, alive, killed = make_injector(0.02, population=10000, seed=9)
        injector.start()
        sim.run(until=100000.0)
        times = injector.failure_times
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(50.0, rel=0.15)

    def test_victim_choice_ignores_the_alive_set_iteration_order(self):
        """A frozenset of int ids stops iterating in sorted order once
        enough ids are removed (127 alive nodes of 482 in a fig9 run), so
        the victim must be drawn from a canonical order, never from the
        provider's: equal seeds kill the same nodes whatever order the
        alive ids come back in."""

        def victims(order):
            sim = Simulator()
            alive = set(range(40))
            killed = []

            def kill(node_id):
                alive.discard(node_id)
                killed.append(node_id)

            injector = FailureInjector(
                sim, 0.1, lambda: order(alive), kill, random.Random(7)
            )
            injector.start()
            sim.run(until=300.0)
            return killed

        ascending = victims(sorted)
        descending = victims(lambda ids: sorted(ids, reverse=True))
        assert len(ascending) >= 10
        assert descending == ascending
