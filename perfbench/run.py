"""Benchmark entry point: end-to-end metrics, or per-layer metrics from a span run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-lifetime --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Simulations run one at a time in a fresh process (``perfbench/measure.py``).
``--trace 0`` starts one process that runs a warm-up simulation and then
repeats the seed's simulation for about ``--seconds``; the end-to-end
metrics are medians over those repeats, timed at the host gauge's
reference speed (``perfbench/gauge.py``).  ``--trace 1``
runs one plain simulation and one span run, each in its own process, and
reports the per-layer metrics plus the span run's overhead.  Every
simulation's output digest must equal the reference in
``perfbench/references.json`` when the seed has one, and otherwise the
first simulation's digest.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import workloads  # noqa: E402
from perfbench.measure import NO_SIMULATOR  # noqa: E402

REFERENCES = HERE / "references.json"

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def time_limit_s(seconds: float) -> float:
    """Wall-clock limit of one invocation; past it the running child is killed."""
    return 2.0 * seconds + 60.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure anything in this checkout."""


def load_references(path: Path = REFERENCES) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(
    name: str, seed: int, mode: str, scale: str, tmp: Path, seconds: float, timeout: float
) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run ``measure.py`` in a fresh process: (its document or None, error)."""
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", name, "--seed", str(seed), "--mode", mode, "--scale", scale,
        "--tmp", str(tmp), "--seconds", str(seconds),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=max(timeout, 1.0),
            cwd=str(workloads.ROOT),
        )
    except subprocess.TimeoutExpired:
        return None, f"measurement exceeded {timeout:.0f} s"
    if proc.returncode == NO_SIMULATOR:
        raise BenchmarkError(proc.stderr.strip())
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"exit {proc.returncode}: {tail}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def _expected_digest(references: Dict[str, Any], name: str, seed: int) -> Optional[str]:
    return references.get(name, {}).get(str(seed), {}).get("digest")


def _describe(name: str, seed: int, outcome: Dict[str, Any], verdict: str) -> str:
    summary = outcome["summary"]
    reference = outcome.get("reference")
    at_speed = f" ({reference['run_s']:.3f} s at reference speed)" if reference else ""
    return (
        f"{name} seed {seed}: run {outcome['run_s']:.3f} s{at_speed}, setup "
        f"{outcome['setup_s']:.4f} s, {outcome['events']} events "
        f"({outcome['events_per_s']:.0f}/s), "
        f"end {summary['end_s']} s, wakeups {summary['wakeups']}, "
        f"digest {outcome['digest'][:12]} {verdict}"
    )


class Checker:
    """Compares each simulation's output digest with the expected one."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, outcome: Optional[Dict[str, Any]]) -> bool:
        self.attempted += 1
        if outcome is None:
            self.failed += 1
            return False
        if self.expected is None:
            self.expected = outcome["digest"]
        if outcome["digest"] != self.expected:
            self.failed += 1
            return False
        return True


def plain_run(
    name: str, seed: int, seconds: float, scale: str, references: Dict[str, Any]
) -> Dict[str, Any]:
    """End-to-end metrics of one workload over about ``seconds`` of host time.

    Times are medians over the timed simulations, each at the host gauge's
    reference speed (``perfbench/gauge.py``).  The warm-up simulation is
    checked like the others but not timed.
    """
    checker = Checker(_expected_digest(references, name, seed))
    with _scratch_dir() as tmp:
        # The child's clock starts after its imports; leave it a second.
        document, error = run_child(
            name, seed, "plain", scale, tmp, max(seconds - 1.0, 0.1), time_limit_s(seconds)
        )
    if document is None:
        raise BenchmarkError(f"{name}: measurement failed: {error}")
    # Timings come from every simulation that finished; a wrong digest shows
    # in ``correct``, ``failed`` and ``pass_ratio``, not as a missing time.
    finished: List[Dict[str, Any]] = []
    for label, outcome in [("warm-up", document["warmup"])] + [
        ("timed", outcome) for outcome in document["runs"]
    ]:
        if "error" in outcome:
            checker.check(None)
            print(f"{name} seed {seed}: FAILED ({label})\n{outcome['error']}")
            continue
        ok = checker.check(outcome)
        print(_describe(name, seed, outcome, ("ok" if ok else "MISMATCH") + f" ({label})"))
        if label == "timed":
            finished.append(outcome)
    if not finished:
        raise BenchmarkError(f"{name}: no timed simulation finished")
    reference = [outcome["reference"] for outcome in finished]
    setups = document["setup_samples"]
    values = {
        "run_s": statistics.median(entry["run_s"] for entry in reference),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(
            outcome["events"] / entry["loop_s"] for outcome, entry in zip(finished, reference)
        ),
        "peak_rss_mb": document["peak_rss_mb"],
        "pass_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    host_run_s = statistics.median(outcome["run_s"] for outcome in finished)
    print(
        f"{name}: run_s median over {len(finished)} timed simulations at reference speed "
        f"(host seconds {host_run_s:.3f}), setup_s median over {len(setups)} set-ups, "
        f"fail_ratio {checker.failed}/{checker.attempted}"
    )
    return _result(checker, {key: (value, END_TO_END_UNITS[key]) for key, value in values.items()})


def span_run(
    name: str, seed: int, seconds: float, scale: str, references: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-layer metrics: one plain simulation, then one span run of the same seed."""
    checker = Checker(_expected_digest(references, name, seed))
    deadline = time.perf_counter() + time_limit_s(seconds)
    outcomes = {}
    with _scratch_dir() as tmp:
        for mode in ("plain", "span"):
            document, error = run_child(
                name, seed, mode, scale, tmp, 0.0, deadline - time.perf_counter()
            )
            if document is not None and mode == "plain":
                document = document["warmup"]
                if "error" in document:
                    document, error = None, document["error"]
            ok = checker.check(document)
            if document is None:
                raise BenchmarkError(f"{name} {mode} simulation failed: {error}")
            print(_describe(name, seed, document, ("ok" if ok else "MISMATCH") + f" ({mode})"))
            outcomes[mode] = document
    plain, span = outcomes["plain"], outcomes["span"]
    metrics = {key: tuple(value) for key, value in span["layers"].items()}
    metrics["harness.build_s"] = (plain["build_s"], "s")
    metrics["harness.start_s"] = (plain["start_s"], "s")
    metrics["harness.collect_s"] = (plain["collect_s"], "s")
    metrics["span.overhead"] = (span["run_s"] / plain["run_s"], "ratio")
    print(f"{name}: span run {span['run_s']:.3f} s vs plain {plain['run_s']:.3f} s "
          f"(overhead {metrics['span.overhead'][0]:.2f}x)")
    return _result(checker, metrics)


def _result(checker: Checker, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }


@contextmanager
def _scratch_dir() -> Iterator[Path]:
    """A temporary directory inside the checkout, removed afterwards.

    It lives in the checkout, not under the system temporary directory,
    because the benchmark reads and writes only inside its checkout.
    """
    base = workloads.ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another invocation still uses it
            pass


def run_workload(
    name: str, seed: int, seconds: float, trace: int, scale: str = "full",
    references: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Measure one workload and return the result object the benchmark prints."""
    if references is not None:
        refs = references
    else:
        # The recorded references are for the full-size scenarios only.
        refs = load_references() if scale == "full" else {}
    if trace:
        return span_run(name, seed, seconds, scale, refs)
    return plain_run(name, seed, seconds, scale, refs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so ``subprocess.run`` kills and reaps the
    # running simulation before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (workloads.SRC / "repro" / "harness" / "runner.py").is_file():
        print(f"perfbench: no simulator source under {workloads.SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    _print_table(results)
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{key}": metric
            for name, result in results.items()
            for key, metric in result["metrics"].items()
        },
    }))
    return 0


def _print_table(results: Dict[str, Dict[str, Any]]) -> None:
    keys = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':<20}" + "".join(f"{key:>22}" for key in keys))
    for name, result in results.items():
        cells = "".join(
            f"{result['metrics'][key]['value']:>14.4g} {result['metrics'][key]['unit']:<7}"
            for key in keys
        )
        print(f"{name:<20}{cells}")


if __name__ == "__main__":
    sys.exit(main())
