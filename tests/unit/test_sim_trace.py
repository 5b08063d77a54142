"""Unit tests for repro.sim.trace collectors."""

import pytest

from repro.sim import CounterSet, SeriesRecorder, TimeWeightedValue


class TestCounterSet:
    def test_starts_at_zero(self):
        assert CounterSet().get("anything") == 0

    def test_incr_default_one(self):
        counters = CounterSet()
        counters.incr("a")
        counters.incr("a")
        assert counters.get("a") == 2

    def test_incr_amount(self):
        counters = CounterSet()
        counters.incr("a", 5)
        assert counters.get("a") == 5

    def test_as_dict_snapshot(self):
        counters = CounterSet()
        counters.incr("x")
        snapshot = counters.as_dict()
        counters.incr("x")
        assert snapshot == {"x": 1}


class TestTimeWeightedValue:
    def test_constant_signal_mean(self):
        twv = TimeWeightedValue(initial=3.0)
        assert twv.mean(10.0) == pytest.approx(3.0)

    def test_step_change_mean(self):
        twv = TimeWeightedValue(initial=0.0)
        twv.update(10.0, 5.0)
        assert twv.mean(20.0) == pytest.approx(2.5)

    def test_integral(self):
        twv = TimeWeightedValue(initial=2.0)
        twv.update(5.0, 4.0)
        assert twv.integral(10.0) == pytest.approx(2.0 * 5 + 4.0 * 5)

    def test_add_delta(self):
        twv = TimeWeightedValue(initial=1.0)
        twv.add(5.0, 2.0)
        assert twv.value == 3.0

    def test_time_backwards_rejected(self):
        twv = TimeWeightedValue()
        twv.update(5.0, 1.0)
        with pytest.raises(ValueError):
            twv.update(4.0, 2.0)

    def test_nonzero_start_time(self):
        twv = TimeWeightedValue(initial=2.0, start_time=10.0)
        assert twv.mean(20.0) == pytest.approx(2.0)

    def test_zero_span_mean_is_current_value(self):
        # At now == start_time nothing has been integrated; the mean is
        # defined as the only value the signal has ever held, not 0/0.
        twv = TimeWeightedValue(initial=7.5, start_time=10.0)
        assert twv.mean(10.0) == 7.5

    def test_zero_span_mean_after_zero_dt_update(self):
        twv = TimeWeightedValue(initial=1.0, start_time=3.0)
        twv.update(3.0, 9.0)  # zero-duration step at the start instant
        assert twv.mean(3.0) == 9.0

    def test_backwards_mean_window_rejected(self):
        twv = TimeWeightedValue(initial=1.0, start_time=10.0)
        with pytest.raises(ValueError, match="before it starts"):
            twv.mean(9.0)


class TestSeriesRecorder:
    def test_record_and_read(self):
        series = SeriesRecorder()
        series.record("s", 1.0, 0.5)
        series.record("s", 2.0, 0.7)
        assert series.samples("s") == [(1.0, 0.5), (2.0, 0.7)]

    def test_missing_series_empty(self):
        assert SeriesRecorder().samples("nope") == []

    def test_last(self):
        series = SeriesRecorder()
        assert series.last("s") is None
        series.record("s", 1.0, 9.0)
        assert series.last("s") == (1.0, 9.0)

    def test_names_sorted(self):
        series = SeriesRecorder()
        series.record("b", 0.0, 0.0)
        series.record("a", 0.0, 0.0)
        assert series.names() == ["a", "b"]

    def test_first_time_below(self):
        series = SeriesRecorder()
        for t, v in [(0, 1.0), (10, 0.95), (20, 0.85), (30, 0.5)]:
            series.record("cov", t, v)
        assert series.first_time_below("cov", 0.9) == 20

    def test_first_time_below_never(self):
        series = SeriesRecorder()
        series.record("cov", 0, 1.0)
        assert series.first_time_below("cov", 0.9) is None

