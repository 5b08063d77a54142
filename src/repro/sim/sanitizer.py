"""Runtime invariant sanitizer: cheap, toggleable protocol/engine checks.

``SimSanitizer`` is the dynamic counterpart of :mod:`repro.lint` (as is
:meth:`~repro.sim.rng.RngRegistry.stream`, which refuses stream names the
catalogue does not declare): instead of reading the source it watches a
*running* simulation and raises :class:`InvariantViolation` the moment
reality diverges from the protocol's contracts:

* **monotonic time** — event timestamps never go backwards;
* **legal transmission** — sleeping/dead nodes never put frames on the air
  (checked by the channel per transmit);
* **published radio state** — each attached endpoint's listening flag in
  the channel's store equals its ``is_listening()`` (the channel decides
  audiences and mid-frame aborts from the flag);
* **energy sanity** — battery charge stays within ``[0, initial]`` and the
  battery's lazy-integration clock never runs ahead of the simulation;
* **depletion deadline** — a live PEAS node's depletion deadline is in
  the event heap at exactly its time whenever it precedes the node's own
  next timer, and an armed depletion event never disagrees with it;
* **estimator well-formedness** — the λ̂ k-interval window keeps
  ``0 <= count < k`` and a window start in the past, and node mode state
  stays coherent (a Working node has a start time and an estimator, a Dead
  node has a cause).

Wiring reuses the engine's existing observer mechanisms — a
``pre_event_hooks`` entry for the per-event checks (the same hook point the
profiled loop uses) and an optional ``channel.sanitizer`` attribute guarded
by one ``is not None`` test, mirroring the tracer normalization idiom.  With
the sanitizer off nothing is installed, so runs are bit-identical to an
unsanitized tree; on, every check is read-only, so results are *also*
bit-identical — only wall time changes.

Usage::

    sanitizer = SimSanitizer()
    sanitizer.install(sim)            # engine-level checks
    sanitizer.attach_network(network) # node/battery/estimator sweeps
    ...run...
    sanitizer.report()                # {"events": ..., "checks": ...}

or simply ``run_scenario(scenario, sanitize=True)`` /
``peas-repro run --sanitize``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .engine import Simulator
from .events import Event

__all__ = ["InvariantViolation", "SimSanitizer", "DEFAULT_SWEEP_PERIOD"]

#: events between full node-state sweeps (same order as the profiler's
#: gauge period: frequent enough to localize a corruption, cheap enough
#: to leave the run usable)
DEFAULT_SWEEP_PERIOD = 256

#: slack for float comparisons (mode integration accumulates rounding)
_EPS = 1e-9


class InvariantViolation(AssertionError):
    """A simulation invariant failed during a sanitized run.

    Subclasses ``AssertionError`` because these are assertions about the
    simulator's own state machine — a violation is a bug in the model (or a
    deliberately corrupted test fixture), never a user input error.
    """


class SimSanitizer:
    """Watches a simulation for invariant violations.

    Parameters
    ----------
    sweep_period:
        Events between full node-state sweeps; the per-event monotonic-time
        check always runs.
    """

    def __init__(self, sweep_period: int = DEFAULT_SWEEP_PERIOD) -> None:
        if sweep_period < 1:
            raise ValueError("sweep_period must be >= 1")
        self.sweep_period = sweep_period
        self.events_checked = 0
        self.transmissions_checked = 0
        self.sweeps = 0
        self.node_checks = 0
        self._last_time = float("-inf")
        self._countdown = sweep_period
        self._sim: Simulator | None = None
        self._networks: List[Any] = []

    # -------------------------------------------------------------- wiring
    def install(self, sim: Simulator) -> None:
        """Register the per-event checks on ``sim``'s pre-event hooks."""
        if self._sim is not None:
            raise RuntimeError("sanitizer is already installed")
        self._sim = sim
        sim.pre_event_hooks.append(self._on_event)

    def uninstall(self) -> None:
        """Remove the hook (used by tests to re-use an engine)."""
        if self._sim is not None:
            try:
                self._sim.pre_event_hooks.remove(self._on_event)
            except ValueError:
                pass
            self._sim = None

    def attach_network(self, network: Any) -> None:
        """Sweep ``network``'s nodes and police its channel's transmissions.

        ``network`` is duck-typed: anything exposing ``nodes`` (mapping of
        node objects with ``assert_invariants``) and optionally ``channel``
        works, so baseline protocols can opt in too.
        """
        self._networks.append(network)
        channel = getattr(network, "channel", None)
        if channel is not None:
            channel.sanitizer = self

    # -------------------------------------------------------------- checks
    def _on_event(self, event: Event) -> None:
        time = event.time
        if time < self._last_time - _EPS:
            raise InvariantViolation(
                f"event timestamps went backwards: {event!r} fires at "
                f"t={time!r} after an event at t={self._last_time!r}"
            )
        self._last_time = time
        self.events_checked += 1
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.sweep_period
            self.sweep(time)

    def on_transmit(self, endpoint: Any, now: float) -> None:
        """Called by the channel for every frame put on the air."""
        self.transmissions_checked += 1
        if not endpoint.is_listening():
            mode = getattr(endpoint, "mode", None)
            mode_name = getattr(mode, "value", mode)
            raise InvariantViolation(
                f"node {endpoint.node_id!r} transmitted at t={now:.6f} while "
                f"not radio-active (mode={mode_name!r}); sleeping/dead nodes "
                "must never put frames on the air"
            )

    def sweep(self, now: float) -> None:
        """Run the full node-state sweep immediately (also used at teardown)."""
        self.sweeps += 1
        for network in self._networks:
            channel = getattr(network, "channel", None)
            if channel is not None:
                channel.assert_invariants(now)
            nodes = getattr(network, "nodes", None)
            if not nodes:
                continue
            for node in nodes.values():
                check = getattr(node, "assert_invariants", None)
                if check is not None:
                    check(now)
                    self.node_checks += 1

    # ------------------------------------------------------------ reporting
    def report(self) -> Dict[str, int]:
        """Counts of checks performed (all of which passed)."""
        return {
            "events_checked": self.events_checked,
            "transmissions_checked": self.transmissions_checked,
            "sweeps": self.sweeps,
            "node_checks": self.node_checks,
        }

    @property
    def total_checks(self) -> int:
        return self.events_checked + self.transmissions_checked + self.node_checks
