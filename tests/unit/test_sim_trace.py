"""Unit tests for repro.sim.trace collectors."""

from repro.sim import CounterSet, SeriesRecorder


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

