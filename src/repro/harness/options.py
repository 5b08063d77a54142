"""Per-run capability options, picklable for process-pool sweeps.

:class:`RunOptions` carries everything about *how* to execute a run that is
not part of the scenario itself: the observability and checking stack.
Unlike a live :class:`~repro.obs.tracer.Tracer` (which owns an open sink),
``RunOptions`` is a frozen value object of primitives, so ``run_sweep`` can
ship one to pool workers and every pooled run gets the same capability
stack as a local one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.scenario import Scenario

__all__ = ["RunOptions"]

#: Placeholders substituted into ``trace_path`` / ``snapshot_path``
#: templates, and the scenario attribute each one reads.
_PATH_FIELDS = {"seed": "seed", "nodes": "num_nodes", "protocol": "protocol"}


def _format_path(template: str, scenario: "Scenario", what: str) -> str:
    """Substitute the supported per-scenario placeholders into ``template``.

    Unknown placeholders raise ``ValueError`` naming the offender and
    listing what is supported — a sweep that fans a bad template out to
    pool workers should fail loudly before any run starts.
    """
    values = {name: getattr(scenario, attr) for name, attr in _PATH_FIELDS.items()}
    try:
        return template.format(**values)
    except KeyError as exc:
        supported = ", ".join("{%s}" % name for name in _PATH_FIELDS)
        raise ValueError(
            f"unknown placeholder {{{exc.args[0]}}} in {what} template "
            f"{template!r}; supported placeholders: {supported}"
        ) from None
    except IndexError:
        raise ValueError(
            f"positional placeholder {{}} in {what} template {template!r} "
            "is not supported; use named placeholders: "
            + ", ".join("{%s}" % name for name in _PATH_FIELDS)
        ) from None


@dataclass(frozen=True)
class RunOptions:
    """How to run a scenario: the capability stack, as a picklable value.

    Parameters
    ----------
    profile:
        Attach an :class:`~repro.sim.EngineProfiler` and store its
        breakdown on ``result.profile``.
    sanitize:
        Attach a :class:`~repro.sim.SimSanitizer` (read-only invariant
        checks; results are bit-identical either way).
    trace_path:
        When set (and no live tracer is passed), the harness opens an
        NDJSON sink at this path, streams ``peas-trace/1`` events to it,
        closes it at the end of the run, and writes a ``peas-manifest/1``
        file next to it.  ``{seed}``, ``{nodes}`` and ``{protocol}``
        placeholders are substituted per scenario, so one template fans
        out to distinct files across a sweep.
    metrics:
        Collect a :class:`~repro.obs.metrics.RunMetrics` snapshot
        (labeled counters/gauges/histograms) onto ``result.metrics``.
        Collection happens entirely outside the event loop, so results
        and traces are bit-identical either way.
    snapshot_path:
        When set, the harness writes a ``peas-snapshot/1`` file here: at
        every ``checkpoint_every_s`` chunk boundary when that is set,
        otherwise once when the event loop stops.  Supports the same
        ``{seed}``/``{nodes}``/``{protocol}`` placeholders as
        ``trace_path``.
    checkpoint_every_s:
        Checkpoint cadence in simulated seconds.  Snapshots land on the
        run's chunk grid (the first chunk boundary at or past each
        multiple), so a restored run replays the identical chunk
        sequence.  Requires ``snapshot_path``.
    stop_after_s:
        Stop the event loop at the first chunk boundary at or past this
        simulated time, as if ``max_time_s`` were reached.  With
        ``snapshot_path`` this yields a resumable prefix run whose trace
        is byte-for-byte a prefix of the uninterrupted run's trace.
    store_dir:
        Attach a :class:`repro.store.ResultStore` rooted here to a sweep.
        The sweep executor reads it (a verified ``peas-result/1`` record
        for this ``(scenario, options)`` replays instantly) and persists
        each computed result the moment the run finishes, so pooled
        workers publish durably and concurrently; :func:`repro.harness.run`
        does not read it.  Runs with side-effect outputs (``trace_path``,
        ``snapshot_path``, ``stop_after_s``) bypass the store entirely
        (see :func:`repro.store.store_eligible`).
    """

    profile: bool = False
    sanitize: bool = False
    trace_path: Optional[str] = None
    metrics: bool = False
    snapshot_path: Optional[str] = None
    checkpoint_every_s: Optional[float] = None
    stop_after_s: Optional[float] = None
    store_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_s is not None:
            if self.checkpoint_every_s <= 0:
                raise ValueError("checkpoint_every_s must be positive")
            if self.snapshot_path is None:
                raise ValueError("checkpoint_every_s requires snapshot_path")
        if self.stop_after_s is not None and self.stop_after_s <= 0:
            raise ValueError("stop_after_s must be positive")

    def with_(self, **changes: Any) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def resolved_trace_path(self, scenario: "Scenario") -> Optional[str]:
        """The per-scenario trace file for this run (``None``: no tracing)."""
        if self.trace_path is None:
            return None
        return _format_path(self.trace_path, scenario, "trace_path")

    def resolved_snapshot_path(self, scenario: "Scenario") -> Optional[str]:
        """The per-scenario snapshot file (``None``: no snapshotting)."""
        if self.snapshot_path is None:
            return None
        return _format_path(self.snapshot_path, scenario, "snapshot_path")
