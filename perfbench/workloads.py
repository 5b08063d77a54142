"""The four workloads, each one scenario built from a seed.

``BENCHMARK.json`` lists three of them; ``dense-boot`` is runnable by name
for its per-layer picture but is not a benchmark workload (README).

Every workload runs one simulation at a time in a single process.  Why
each one exists, and which layers it loads, is written down in
``perfbench/README.md``.  ``scale="tiny"`` shrinks every workload to a
second or two of host time for the benchmark's own self-tests; the
benchmark command always runs ``"full"``.

The benchmark times each ``run_loop()`` chunk (``Scenario.run_chunk_s``
of simulated time) on its own.  ``fig9-lifetime`` keeps the default 500 s
chunk, about fifty of them: the run stops at the first chunk boundary
after the network dies, so its chunk length is part of its outputs.  The
fixed-horizon workloads are cut into ten chunks, which leaves every
simulated output (the output digest) as it is with one chunk.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NAMES = ("fig9-lifetime", "dense-boot", "duty-cycle", "fig9-trace-export")
SCALES = ("full", "tiny")


def use_repo_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (nothing installed)."""
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario, and whether it streams a trace."""

    name: str
    scenario: Any
    traced: bool = False


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The scenario for workload ``name`` with deployment seed ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {list(NAMES)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {list(SCALES)}")
    use_repo_source()
    from repro.core import PEASConfig
    from repro.experiments import Scenario

    tiny = scale == "tiny"
    if name == "fig9-lifetime":
        # §5.2 defaults (480 nodes, 50x50 m, R_p = 3 m, 10.66 failures per
        # 5000 s, a GRAB report every 10 s), run until the network dies.
        if tiny:
            return Workload(name, Scenario(num_nodes=60, seed=seed, max_time_s=1500.0))
        return Workload(name, Scenario(num_nodes=480, seed=seed))
    if name == "dense-boot":
        # §4 fixed-power mode: the start-up probe storm at 2400 nodes.  Its
        # event rate is flat over the first 40 s, so 10 s show the same mix
        # in a quarter of the host time (more simulations per measurement).
        nodes, horizon = (300, 5.0) if tiny else (2400, 10.0)
        return Workload(
            name,
            Scenario(
                num_nodes=nodes,
                seed=seed,
                config=PEASConfig(fixed_power=True),
                with_traffic=False,
                failure_per_5000s=0.0,
                max_time_s=horizon,
                run_chunk_s=horizon / 10,
            ),
        )
    if name == "duty-cycle":
        # Randomized independent sleeping: no radio channel, no PEAS logic.
        nodes, horizon = (200, 1000.0) if tiny else (2000, 2000.0)
        return Workload(
            name,
            Scenario(
                num_nodes=nodes,
                seed=seed,
                protocol="duty_cycle",
                with_traffic=False,
                max_time_s=horizon,
                run_chunk_s=horizon / 10,
            ),
        )
    # fig9-trace-export: the fig9 scenario cut short, streaming peas-trace/1.
    nodes, horizon = (60, 1000.0) if tiny else (480, 2000.0)
    return Workload(
        name,
        Scenario(num_nodes=nodes, seed=seed, max_time_s=horizon, run_chunk_s=horizon / 10),
        traced=True,
    )
