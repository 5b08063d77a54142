"""Run one scenario end-to-end (thin wrapper over :mod:`repro.harness`).

Historically this module assembled the whole substrate itself; that logic
now lives in :func:`repro.harness.runner.run`, shared verbatim with the
baseline runner and the sweep pool, so every protocol executes under one
harness.  :func:`run_scenario` keeps the stable public signature, and
honors ``scenario.protocol`` — by default PEAS, but any registered
protocol runs through the same call.

``build_network`` moved to :mod:`repro.protocols.peas`; it is re-exported
here for backwards compatibility.
"""

from __future__ import annotations

from typing import Optional

from ..obs.tracer import Tracer
from ..protocols.peas import build_network
from .metrics import RunResult
from .scenario import Scenario

__all__ = ["run_scenario", "build_network"]


def run_scenario(
    scenario: Scenario,
    *,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
    sanitize: bool = False,
) -> RunResult:
    """Run one scenario to completion and collect the §5 metrics.

    Parameters
    ----------
    scenario:
        What to simulate; ``scenario.protocol`` picks the registered
        protocol (default PEAS).
    tracer:
        Optional :class:`repro.obs.Tracer`; when given every subsystem
        emits structured trace events through it.
        The caller owns the sink (closing it, choosing the path).
    profile:
        Attach an :class:`~repro.sim.EngineProfiler` for the whole run and
        store its breakdown on ``result.profile``.
    sanitize:
        Attach a :class:`~repro.sim.SimSanitizer`: cheap invariant
        assertions (monotonic event time, legal transmissions, battery and
        estimator well-formedness) that raise
        :class:`~repro.sim.sanitizer.InvariantViolation` on the first
        failure.  Off by default; results are bit-identical either way —
        the checks are read-only.
    """
    from ..harness import RunOptions, run

    return run(
        scenario,
        RunOptions(profile=profile, sanitize=sanitize),
        tracer=tracer,
    )
