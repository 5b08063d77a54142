"""Correlated (bursty) channel loss: a Gilbert–Elliott two-state process.

The channel's stock loss model is i.i.d. per delivery (§4's loss
experiments).  Real interference is *bursty*: losses cluster in time.  The
classic Gilbert–Elliott model captures that with a two-state Markov chain —
a **good** state with low loss probability and a **bad** state with high
loss — whose sojourn times here are exponential (a continuous-time chain,
matching the event-driven simulator: frames sample the state at their
delivery instants).

The long-run average loss rate is the sojourn-weighted mix of the two
per-state probabilities::

    p_avg = (good_mean_s * good_loss + bad_mean_s * bad_loss)
            / (good_mean_s + bad_mean_s)

State is advanced *lazily*: a frame delivery at time ``t`` fast-forwards
the chain to ``t`` and then draws one Bernoulli in the current state.  The
process owns its RNG stream, so layering it onto a channel never perturbs
the channel's own draw sequence — runs with and without bursty loss stay
draw-for-draw comparable everywhere else.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["GilbertElliottLoss"]


class GilbertElliottLoss:
    """Two-state Markov loss process sampled at frame-delivery times.

    Parameters
    ----------
    good_mean_s / bad_mean_s:
        Mean sojourn time (seconds) in the good / bad state; both must be
        positive.  Sojourns are exponential.
    good_loss / bad_loss:
        Per-frame loss probability while in each state, in [0, 1).
    rng:
        Dedicated random stream (state flips and loss draws).
    start_s / end_s:
        Active window; outside it :meth:`drop` always returns ``False``
        and the chain does not advance.  ``end_s=None`` means "until the
        end of the run".
    """

    def __init__(
        self,
        good_mean_s: float,
        bad_mean_s: float,
        good_loss: float,
        bad_loss: float,
        rng: random.Random,
        start_s: float = 0.0,
        end_s: Optional[float] = None,
    ) -> None:
        if good_mean_s <= 0 or bad_mean_s <= 0:
            raise ValueError("state sojourn means must be positive")
        for name, p in (("good_loss", good_loss), ("bad_loss", bad_loss)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if start_s < 0:
            raise ValueError("start_s must be nonnegative")
        if end_s is not None and end_s <= start_s:
            raise ValueError("end_s must be after start_s")
        self.good_mean_s = good_mean_s
        self.bad_mean_s = bad_mean_s
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.rng = rng
        self.start_s = start_s
        self.end_s = end_s
        self.drops = 0
        #: chain state: the process arms in the good state at ``start_s``
        self._bad = False
        self._until = start_s + rng.expovariate(1.0 / good_mean_s)

    def average_loss(self) -> float:
        """The stationary per-frame loss probability of the chain."""
        total = self.good_mean_s + self.bad_mean_s
        return (
            self.good_mean_s * self.good_loss + self.bad_mean_s * self.bad_loss
        ) / total

    def drop(self, now: float) -> bool:
        """Should a frame delivered at ``now`` be lost to burst interference?

        Advances the chain to ``now`` and draws once in the current state.
        Outside the active window this is a pure ``False`` with no RNG
        consumption.
        """
        if now < self.start_s:
            return False
        if self.end_s is not None and now >= self.end_s:
            return False
        rng = self.rng
        while self._until <= now:
            if self._bad:
                self._bad = False
                self._until += rng.expovariate(1.0 / self.good_mean_s)
            else:
                self._bad = True
                self._until += rng.expovariate(1.0 / self.bad_mean_s)
        p = self.bad_loss if self._bad else self.good_loss
        if p > 0.0 and rng.random() < p:
            self.drops += 1
            return True
        return False
