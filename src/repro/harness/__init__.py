"""One run harness for every protocol (PEAS, baselines, sweeps).

:func:`~repro.harness.runner.run` composes the shared simulation substrate
and capability stack around whichever registered protocol a scenario
names; :class:`~repro.harness.options.RunOptions` is the picklable bundle
of capability switches that pooled sweeps ship to workers.
:mod:`repro.harness.snapshot` adds ``peas-snapshot/1`` checkpointing:
:func:`~repro.harness.snapshot.resume` continues a saved run, and
:class:`~repro.harness.runner.LiveRun` exposes the phased lifecycle both
paths share.
"""

from .options import RunOptions
from .runner import LiveRun, run
from .snapshot import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    resume,
    save_snapshot,
)

__all__ = [
    "RunOptions",
    "run",
    "LiveRun",
    "SNAPSHOT_SCHEMA",
    "load_snapshot",
    "save_snapshot",
    "resume",
]
