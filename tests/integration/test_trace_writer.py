"""The writer process behind ``NdjsonSink``.

A sink hands full batches of records to a writer process when its process
may use a second CPU, and encodes them in place otherwise.  Both paths
must write the same files, and no path may leave a process behind: after
``close()``, after a run that raises, after a writer that was killed or
could not encode a field.  The CPU probe is patched so each test takes
the path it names on any host.
"""

import os
import signal

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario
from repro.harness import LiveRun, RunOptions, run
from repro.obs import NdjsonSink, TraceWriterError, Tracer, events, sinks

BATCH = sinks.BATCH_RECORDS

#: about six batches of records, and many rotations at 1 KiB
TINY = Scenario(
    num_nodes=10,
    field_size=(12.0, 12.0),
    seed=3,
    failure_per_5000s=2.0,
    with_traffic=False,
    max_time_s=4_000.0,
)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(sinks, "_usable_cpus", lambda: count)


@pytest.fixture
def spawned(monkeypatch):
    """Every writer process the test starts."""
    writers = []
    spawn = NdjsonSink._spawn

    def recording(self):
        writer = spawn(self)
        writers.append(writer)
        return writer

    monkeypatch.setattr(NdjsonSink, "_spawn", recording)
    return writers


def _records(count, start=0):
    return [(events.FAIL, float(i), i) for i in range(start, start + count)]


def _emit(sink, records):
    for record in records:
        sink.emit(record)


def _traced_run(directory, monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    directory.mkdir()
    sink = NdjsonSink(directory / "trace.ndjson", rotate_bytes=1024)
    tracer = Tracer(sink)
    try:
        result = run_scenario(TINY, tracer=tracer)
    finally:
        tracer.close()
    return sink, result


def test_writer_and_in_place_paths_write_the_same_files(tmp_path, monkeypatch, spawned):
    written, result = _traced_run(tmp_path / "writer", monkeypatch, cpus=2)
    assert len(spawned) == 1
    in_place, _ = _traced_run(tmp_path / "in_place", monkeypatch, cpus=1)
    assert len(spawned) == 1  # the one-CPU run encoded in place

    assert written.emitted > 3 * BATCH
    assert written.emitted == in_place.emitted
    assert written.rotations == in_place.rotations > 1
    chunks = written.chunk_paths()
    assert [c.name for c in chunks] == [c.name for c in in_place.chunk_paths()]
    for ours, theirs in zip(chunks, in_place.chunk_paths()):
        assert ours.read_bytes() == theirs.read_bytes()
    lines = sum(chunk.read_bytes().count(b"\n") for chunk in chunks)
    assert result.manifest["trace"]["emitted"] == lines == written.emitted


def test_a_trace_that_never_fills_a_batch_starts_no_writer(tmp_path, monkeypatch, spawned):
    _cpus(monkeypatch, 2)
    sink = NdjsonSink(tmp_path / "short.ndjson")
    _emit(sink, _records(BATCH - 1))
    sink.close()
    assert spawned == []
    assert sink.path.read_bytes().count(b"\n") == sink.emitted == BATCH - 1


def test_close_reaps_the_writer_and_is_idempotent(tmp_path, monkeypatch, spawned):
    _cpus(monkeypatch, 2)
    sink = NdjsonSink(tmp_path / "t.ndjson")
    _emit(sink, _records(2 * BATCH + 7))
    (writer,) = spawned
    sink.close()
    assert writer.poll() is not None
    sink.close()
    lines = sink.path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == sink.emitted == 2 * BATCH + 7
    assert lines[-1] == events.encode_event(events.fail(2 * BATCH + 6.0, 2 * BATCH + 6))


def _kill(writer):
    os.kill(writer.pid, signal.SIGKILL)
    writer.wait()


def test_a_killed_writer_fails_the_next_batch(tmp_path, monkeypatch, spawned):
    _cpus(monkeypatch, 2)
    sink = NdjsonSink(tmp_path / "t.ndjson")
    _emit(sink, _records(BATCH))
    (writer,) = spawned
    _kill(writer)
    with pytest.raises(TraceWriterError, match=r"t\.ndjson exited with status -9"):
        _emit(sink, _records(BATCH, start=BATCH))
    assert writer.poll() is not None
    sink.close()  # the failure closed the sink: nothing left to raise


def test_a_killed_writer_fails_close(tmp_path, monkeypatch, spawned):
    _cpus(monkeypatch, 2)
    sink = NdjsonSink(tmp_path / "t.ndjson")
    _emit(sink, _records(BATCH + 3))
    (writer,) = spawned
    _kill(writer)
    with pytest.raises(TraceWriterError, match="status -9"):
        sink.close()
    assert writer.poll() is not None
    sink.close()


@pytest.mark.parametrize("cpus", [2, 1], ids=["writer", "in_place"])
def test_an_unencodable_field_fails_the_trace(tmp_path, monkeypatch, spawned, cpus):
    _cpus(monkeypatch, cpus)
    sink = NdjsonSink(tmp_path / "t.ndjson")
    records = _records(BATCH)
    records[5] = (events.FAIL, 5.0, object())
    with pytest.raises(TraceWriterError, match="TypeError: Object of type object"):
        _emit(sink, records)
        sink.close()
    assert all(writer.poll() is not None for writer in spawned)
    assert len(spawned) == (1 if cpus == 2 else 0)
    sink.close()


def test_no_writer_outlives_a_run_that_raises(tmp_path, monkeypatch, spawned):
    _cpus(monkeypatch, 2)

    def broken_collect(self):
        raise RuntimeError("collect failed")

    monkeypatch.setattr(LiveRun, "collect", broken_collect)
    with pytest.raises(RuntimeError, match="collect failed"):
        run(TINY, RunOptions(trace_path=str(tmp_path / "t.ndjson")))
    assert len(spawned) == 1
    assert spawned[0].poll() is not None
