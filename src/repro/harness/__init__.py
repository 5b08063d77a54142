"""One run harness for every protocol (PEAS, baselines, sweeps).

:func:`~repro.harness.runner.run` composes the shared simulation substrate
and capability stack around whichever registered protocol a scenario
names; :class:`~repro.harness.options.RunOptions` is the picklable bundle
of capability switches that pooled sweeps ship to workers, and
:class:`~repro.harness.runner.LiveRun` exposes the run's phases
(construct, ``start``, ``run_loop``, ``collect``) one by one.
"""

from .options import RunOptions
from .runner import LiveRun, run, sidecar_path

__all__ = ["RunOptions", "run", "LiveRun", "sidecar_path"]
