"""Per-node battery: mode integration, frame charges, depletion prediction.

A :class:`NodeBattery` integrates the continuous mode draw lazily (on every
interaction) and supports exact depletion-time prediction so the owning node
can schedule its own death event — the mechanism that produces the paper's
4500~5000 s idle lifetimes and the staggered first-generation die-off.
"""

from __future__ import annotations

from typing import Dict, Optional

from .model import PowerProfile, RadioMode

__all__ = ["NodeBattery"]


class NodeBattery:
    """Energy store of one node.

    Parameters
    ----------
    profile:
        The power model.
    initial_j:
        Starting charge in joules.
    start_time:
        Simulation time at which accounting begins.
    """

    def __init__(self, profile: PowerProfile, initial_j: float, start_time: float = 0.0):
        if initial_j <= 0:
            raise ValueError("initial energy must be positive")
        self.profile = profile
        self.initial_j = float(initial_j)
        self._remaining = float(initial_j)
        self._mode = RadioMode.SLEEP
        self._last_update = float(start_time)
        #: continuous draw of the current mode, cached so the per-event
        #: integration fast path skips the profile's mode dispatch
        self._power_w = profile.mode_power(RadioMode.SLEEP)
        #: accumulated joules by accounting category (e.g. "probe_tx")
        self.by_category: Dict[str, float] = {}

    # ----------------------------------------------------------- inspection
    @property
    def mode(self) -> RadioMode:
        return self._mode

    def remaining(self, now: float) -> float:
        """Joules left at time ``now`` (>= last interaction), floored at 0."""
        self._integrate(now)
        return self._remaining

    def consumed(self, now: float) -> float:
        return self.initial_j - self.remaining(now)

    def depleted(self, now: float) -> bool:
        return self.remaining(now) <= 0.0

    def time_to_depletion(self, now: float) -> Optional[float]:
        """Seconds from ``now`` until the battery empties at the current
        mode draw, or ``None`` if the draw is zero (OFF mode)."""
        remaining = self.remaining(now)
        power = self._power_w
        if power <= 0:
            return None
        return remaining / power

    # ------------------------------------------------------------- mutation
    def set_mode(self, now: float, mode: RadioMode) -> float:
        """Switch the continuous draw; past consumption is settled first.

        Returns the remaining charge just settled, so a caller can derive
        the new depletion deadline without a second integration pass.
        """
        self._integrate(now)
        self._mode = mode
        self._power_w = self.profile.mode_power(mode)
        return self._remaining

    def charge_frame(self, now: float, joules: float, category: str) -> float:
        """Charge one frame's ``joules`` (its
        :meth:`~repro.energy.model.PowerProfile.frame_energy`, resolved once
        by the caller) and attribute them to ``category``.

        Returns the remaining charge so callers can react to depletion
        without a second integration pass.  The per-frame entry point: it
        runs :meth:`_integrate` inline, same floats.
        """
        last = self._last_update
        if now < last:
            self._integrate(now)  # raises: battery time went backwards
        remaining = self._remaining
        power = self._power_w
        if power > 0:
            remaining = remaining - power * (now - last)
            if not remaining > 0.0:
                remaining = 0.0
        self._last_update = now
        remaining -= joules
        if remaining < 0.0:
            remaining = 0.0
        self._remaining = remaining
        by_category = self.by_category
        by_category[category] = by_category.get(category, 0.0) + joules
        return remaining

    def attribute(self, category: str, joules: float) -> None:
        """Attribute already-consumed energy to an accounting category
        without charging it again (used for the probing idle window, whose
        draw the continuous IDLE integration has already taken)."""
        if joules < 0:
            raise ValueError("attributed energy must be nonnegative")
        self.by_category[category] = self.by_category.get(category, 0.0) + joules

    def charge(self, now: float, joules: float, category: str) -> float:
        """Charge an arbitrary extra cost (used by baseline protocols);
        returns the remaining charge, as :meth:`charge_frame` does."""
        if joules < 0:
            raise ValueError("charge must be nonnegative")
        self._integrate(now)
        self._remaining = max(0.0, self._remaining - joules)
        self.by_category[category] = self.by_category.get(category, 0.0) + joules
        return self._remaining

    # ----------------------------------------------------------- invariants
    def assert_invariants(self, now: float) -> None:
        """Sanitizer entry point: raise if the battery state is corrupt.

        Read-only — does **not** integrate pending draw, so a sanitized run
        consumes exactly the same energy trajectory as an unsanitized one.
        """
        from ..sim.sanitizer import InvariantViolation

        if self._remaining < -1e-9:
            raise InvariantViolation(
                f"battery energy went negative: {self._remaining!r} J "
                f"(initial {self.initial_j} J)"
            )
        if self._remaining > self.initial_j + 1e-9:
            raise InvariantViolation(
                f"battery energy exceeds its initial charge: "
                f"{self._remaining!r} J > {self.initial_j} J"
            )
        if self._last_update > now + 1e-9:
            raise InvariantViolation(
                f"battery clock ran ahead of the simulation: last update at "
                f"t={self._last_update!r} but now={now!r}"
            )
        for category, joules in self.by_category.items():
            if joules < 0:
                raise InvariantViolation(
                    f"energy category {category!r} accumulated a negative "
                    f"total ({joules!r} J)"
                )

    # ------------------------------------------------------------ internals
    def _integrate(self, now: float) -> None:
        if now < self._last_update:
            raise ValueError(
                f"battery time went backwards: {now} < {self._last_update}"
            )
        power = self._power_w
        if power > 0:
            remaining = self._remaining - power * (now - self._last_update)
            self._remaining = remaining if remaining > 0.0 else 0.0
        self._last_update = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeBattery {self._remaining:.3f}/{self.initial_j:.3f}J "
            f"mode={self._mode.value}>"
        )
