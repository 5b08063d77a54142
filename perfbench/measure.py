"""Simulations of one workload, timed phase by phase and chunk by chunk.

Run as a script, this is the fresh process `perfbench/run.py` starts for
each measurement::

    python3 perfbench/measure.py --workload dense-boot --seed 0 --mode plain --seconds 30

``--mode plain`` first runs one untimed warm-up simulation and then reads
the process's peak resident memory.  With ``--seconds`` above 0 it builds
the host gauge (``perfbench/gauge.py``), times fifteen set-ups, and
runs the seed's simulation again and again until the next one would
overrun ``--seconds`` (at least once).  It reads the gauge around every
set-up, every ``run_loop()`` chunk and ``collect()``.  ``--mode span``
runs one span simulation.

The last line of output is one JSON object.  It holds the warm-up
simulation, the timed ones, the set-up samples and the peak memory.  Each
simulation has its phase times, engine events and output digest.  Timed ones add their times at the gauge's reference speed, and
the span run adds per-layer metrics.  A simulation that raises is recorded
with its error and ends the measurement.  Exit code 3 means the simulator
could not be imported at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402
from perfbench.gauge import HostGauge, at_reference  # noqa: E402
from perfbench.spans import SpanRecorder, layer_metrics  # noqa: E402

#: exit code: the checkout holds no importable simulator
NO_SIMULATOR = 3
#: timed set-ups before the repeated simulations, so ``setup_s`` is a
#: median of many
SETUPS = 15


def output_digest(result: Any, events: int, trace_sha256: Optional[str]) -> str:
    """sha256 over the simulated outputs a correct run must reproduce."""
    document = {
        "end_time": result.end_time,
        "coverage_lifetimes": {str(k): v for k, v in result.coverage_lifetimes.items()},
        "delivery_lifetime": result.delivery_lifetime,
        "wakeups": result.total_wakeups,
        "events": events,
        "failures": result.failures_injected,
        "counters": result.counters,
        "channel_counters": result.channel_counters,
        "energy_by_category": result.energy_by_category,
        "trace_sha256": trace_sha256,
    }
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def output_summary(result: Any, events: int) -> Dict[str, Any]:
    """The human-readable headline of the digested outputs."""
    return {
        "end_s": result.end_time,
        "coverage_lifetimes_s": {str(k): v for k, v in sorted(result.coverage_lifetimes.items())},
        "delivery_lifetime_s": result.delivery_lifetime,
        "wakeups": result.total_wakeups,
        "events": events,
        "failures": result.failures_injected,
    }


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _open_tracer(workload: workloads.Workload, tmp_dir: Path) -> Any:
    """The NDJSON tracer a traced workload streams into (``None`` otherwise)."""
    if not workload.traced:
        return None
    from repro.obs import NdjsonSink, Tracer

    path = tmp_dir / f"{workload.name}-{workload.scenario.seed}-{os.getpid()}.ndjson"
    return Tracer(NdjsonSink(path))


def time_setup(workload: workloads.Workload, tmp_dir: Path, gauge: HostGauge) -> float:
    """Seconds at the gauge's reference speed for ``LiveRun(...)`` plus ``start()``."""
    from repro.harness import LiveRun

    before = gauge()
    start = time.perf_counter()
    tracer = _open_tracer(workload, tmp_dir)
    try:
        live = LiveRun(workload.scenario, tracer=tracer)
        live.start()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close()
            tracer.sink.path.unlink()
    after = gauge()
    del live
    gc.collect()
    return at_reference(elapsed, before, after)


def _no_gauge() -> float:
    return 0.0


def simulate(
    workload: workloads.Workload,
    tmp_dir: Path,
    recorder: Optional[SpanRecorder] = None,
    gauge: Optional[HostGauge] = None,
) -> Dict[str, Any]:
    """Run one simulation from ``Scenario`` to ``RunResult``, timing each phase.

    ``loop_s`` sums the host seconds of the ``Simulator.run`` calls that
    ``run_loop()`` makes, one per ``Scenario.run_chunk_s`` of simulated
    time.  Phase times leave out the gauge's own time.  With a ``gauge``,
    each chunk is scaled on its own and ``reference`` holds the set-up,
    loop, collect and whole-run seconds at the gauge's reference speed.  With a ``recorder`` the run is a span
    run: the recorder's wrappers are installed for exactly its duration and
    per-layer metrics are added.
    """
    from repro.harness import LiveRun, RunOptions

    clock = time.perf_counter
    read: Callable[[], float] = gauge if gauge is not None else _no_gauge
    options = RunOptions(profile=recorder is not None)
    if recorder is not None:
        recorder.install()
    tracer = None
    try:
        # Gauge readings: before set-up, before each chunk, after the last
        # chunk and after collect().
        readings = [read()]
        t0 = clock()
        tracer = _open_tracer(workload, tmp_dir)
        live = LiveRun(workload.scenario, options, tracer=tracer)
        t1 = clock()
        live.start()
        t2 = clock()
        chunk_s = _time_chunks(live.sim, read, readings)
        live.run_loop()
        readings.append(read())
        t3 = clock()
        result = live.collect()
        if tracer is not None:
            tracer.close()
        t4 = clock()
        readings.append(read())
    finally:
        if recorder is not None:
            recorder.restore()
        if tracer is not None:
            tracer.close()
    events = live.sim.events_executed
    trace_sha256 = None
    trace_bytes = 0
    if tracer is not None:
        path = tracer.sink.path
        trace_bytes = path.stat().st_size
        trace_sha256 = _file_sha256(path)
        path.unlink()
    loop_s = sum(chunk_s)
    outcome: Dict[str, Any] = {
        "run_s": (t2 - t0) + loop_s + (t4 - t3),
        "setup_s": t2 - t0,
        "build_s": t1 - t0,
        "start_s": t2 - t1,
        "loop_s": loop_s,
        "collect_s": t4 - t3,
        "events": events,
        "events_per_s": events / loop_s,
        "trace_bytes": trace_bytes,
        "digest": output_digest(result, events, trace_sha256),
        "summary": output_summary(result, events),
    }
    if gauge is not None:
        last = len(chunk_s) + 1
        reference = {
            "setup_s": at_reference(t2 - t0, readings[0], readings[1]),
            "loop_s": sum(
                at_reference(seconds, readings[index + 1], readings[index + 2])
                for index, seconds in enumerate(chunk_s)
            ),
            "collect_s": at_reference(t4 - t3, readings[last], readings[last + 1]),
        }
        reference["run_s"] = reference["setup_s"] + reference["loop_s"] + reference["collect_s"]
        outcome["reference"] = reference
    if recorder is not None:
        layers = layer_metrics(recorder, live, result)
        layers["obs.trace_bytes"] = (float(trace_bytes), "bytes")
        outcome["layers"] = layers
    return outcome


def _time_chunks(sim: Any, read: Callable[[], float], readings: List[float]) -> List[float]:
    """Record the host seconds of every later ``sim.run`` call in a list.

    The gauge is read into ``readings`` before each call.  The wrapper is an
    attribute of this one engine instance, so it lives and dies with the run
    and other engines are untouched.
    """
    chunks: List[float] = []
    engine_run = sim.run
    clock = time.perf_counter

    def run(*args: Any, **kwargs: Any) -> Any:
        readings.append(read())
        start = clock()
        try:
            return engine_run(*args, **kwargs)
        finally:
            chunks.append(clock() - start)

    sim.run = run
    return chunks


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def measure(workload: workloads.Workload, tmp_dir: Path, seconds: float) -> Dict[str, Any]:
    """A warm-up simulation, then gauged simulations for about ``seconds``."""
    start = time.perf_counter()
    document: Dict[str, Any] = {"runs": [], "setup_samples": [], "peak_rss_mb": 0.0}
    try:
        document["warmup"] = simulate(workload, tmp_dir)
    except Exception:  # recorded as a failed simulation, not a crash
        document["warmup"] = {"error": traceback.format_exc(limit=3)}
        return document
    # Read before the gauge exists, so the figure is one simulation's.
    document["peak_rss_mb"] = peak_rss_mb()
    if seconds <= 0:
        return document
    gauge = HostGauge()
    samples = [time_setup(workload, tmp_dir, gauge) for _ in range(SETUPS)]
    runs: List[Dict[str, Any]] = document["runs"]
    last = 0.0
    while not runs or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        try:
            outcome = simulate(workload, tmp_dir, gauge=gauge)
        except Exception:
            runs.append({"error": traceback.format_exc(limit=3)})
            break
        runs.append(outcome)
        samples.append(outcome["reference"]["setup_s"])
        del outcome
        gc.collect()
        last = time.perf_counter() - began
    document["setup_samples"] = samples
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "span"), default="plain")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="plain mode: keep simulating for about this long")
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--tmp", type=Path, required=True,
                        help="directory for the trace file of traced workloads")
    args = parser.parse_args(argv)
    try:
        workload = workloads.build(args.workload, args.seed, args.scale)
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {workloads.SRC}: {exc}",
              file=sys.stderr)
        return NO_SIMULATOR
    if args.mode == "plain":
        document = measure(workload, args.tmp, args.seconds)
    else:
        document = simulate(workload, args.tmp, SpanRecorder())
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
