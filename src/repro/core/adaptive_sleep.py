"""Adaptive Sleeping: aggregate-rate measurement and per-node rate updates.

§2.2 of the paper.  The pieces:

* **Working side** (:class:`RateEstimator`): a working node counts PROBE
  arrivals; every ``k`` inter-arrivals it computes the aggregate rate
  lambda-hat = k / (t - t0), exploiting the fact that the superposition of
  its sleeping neighbors' independent exponential wakeups is a Poisson
  process whose rate is the sum of theirs (eq. 3).  k = 32 gives a <~1 %
  relative error with >99 % confidence by the CLT (§2.2.1).

* **Sleeping side** (:func:`updated_rate`): on hearing a REPLY carrying
  lambda-hat and lambda_d, a prober rescales its own rate
  ``lambda <- lambda * lambda_d / lambda-hat`` (eq. 2), so the aggregate
  converges to lambda_d.

* :func:`select_feedback` implements the §4 rule for probers with several
  working neighbors: adapt to the *largest* measurement, i.e. the lowest
  resulting rate.

* :func:`sleep_duration` draws the exponential sleeping time (the PDF
  ``f(ts) = lambda * exp(-lambda * ts)`` of §2.1).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterable, Optional, Tuple

__all__ = ["RateEstimator", "updated_rate", "select_feedback", "sleep_duration"]


class RateEstimator:
    """k-interval estimator of the aggregate probing rate at a working node.

    The counting machinery matches §2.2 exactly: the first PROBE initializes
    ``(N=0, t0=t)``; each later PROBE increments ``N``; when ``N`` reaches
    ``k`` a full-window measurement ``lambda-hat = k / (t - t0)`` is recorded
    and the window restarts at the current time.

    Two feedback modes control what :meth:`estimate` reports in REPLYs:

    * ``"windowed"`` — the paper's literal rule: always the *last completed*
      window's lambda-hat.  With k = 32 and a converged aggregate rate of
      lambda_d = 0.02/s a window spans ~1600 s, so after the boot burst every
      REPLY keeps echoing the stale boot-time measurement; each sleeper then
      divides its rate by the same large factor on *every* wakeup and the
      population spirals to the rate floor — replacement stops.  (Our
      reproduction surfaces this; see the adaptive-sleeping ablation and
      EXPERIMENTS.md.)

    * ``"running"`` (default) — the stabilized interpretation of "its
      current probing rate measurement": report the in-progress window's
      rate ``(n + 1/2) / elapsed`` once the window is at least
      ``min_horizon_s`` old, where ``elapsed`` counts from the window start
      (initially: from when the node started working).  Two properties make
      the feedback loop converge where the windowed rule cannot:

      - **freshness** — the estimate reflects the current window, so a rate
        change is seen within ~one horizon instead of ~one k-window;
      - **silence is evidence** — a worker that hears *no* probes reports a
        rate decaying as ``0.5 / elapsed``, producing the upward correction
        that revives an over-suppressed neighborhood.  (The windowed rule
        needs k arrivals before it can say anything, which at suppressed
        rates never happens — feedback starves and the suppressed state
        becomes a frozen equilibrium.)

      The ``+ 1/2`` continuity correction keeps few-arrival estimates
      finite and roughly median-unbiased in log space, which is the space
      the multiplicative eq. (2) update effectively averages in.

    Repeated PROBEs from the same wakeup (§4 sends several) are counted
    once, using a small constant-size memory of recent wakeup identities —
    deliberately *not* per-neighbor state.
    """

    def __init__(
        self,
        k: int,
        dedupe_window: int = 16,
        mode: str = "running",
        min_horizon_s: float = 50.0,
        start_time: float = 0.0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if mode not in ("running", "windowed"):
            raise ValueError(f"unknown estimator mode {mode!r}")
        if min_horizon_s <= 0:
            raise ValueError("min_horizon_s must be positive")
        self.k = k
        self.mode = mode
        self.min_horizon_s = min_horizon_s
        # Window state.  Running mode counts from the worker's start so that
        # a probe-less window still ages; windowed mode follows the paper
        # exactly (the first PROBE initializes the window).
        if mode == "running":
            self._count: Optional[int] = 0
            self._t0 = float(start_time)
        else:
            self._count = None
            self._t0 = 0.0
        self._measured: Optional[float] = None
        self._recent: Deque[Tuple] = deque(maxlen=dedupe_window)
        self.windows_completed = 0

    @property
    def measured_rate(self) -> Optional[float]:
        """Last *completed-window* lambda-hat (``None`` before the first)."""
        return self._measured

    @property
    def pending_count(self) -> Optional[int]:
        """PROBEs counted in the current window (``None`` before the first)."""
        return self._count

    def estimate(self, now: float) -> Optional[float]:
        """The lambda-hat a REPLY sent at ``now`` should carry (mode-aware)."""
        if self.mode == "windowed":
            return self._measured
        elapsed = now - self._t0
        if elapsed < self.min_horizon_s:
            return self._measured
        return (self._count + 0.5) / elapsed

    def assert_well_formed(self, now: float) -> None:
        """Sanitizer entry point: raise if the measurement window is corrupt."""
        from ..sim.sanitizer import InvariantViolation

        if self._count is not None and not 0 <= self._count < self.k:
            raise InvariantViolation(
                f"estimator window count {self._count!r} outside [0, "
                f"{self.k}) — on_probe must restart the window at k arrivals"
            )
        if self._t0 > now + 1e-9:
            raise InvariantViolation(
                f"estimator window starts in the future: t0={self._t0!r} "
                f"but now={now!r}"
            )
        if self._measured is not None and not self._measured > 0:
            raise InvariantViolation(
                f"completed-window lambda-hat must be positive, got "
                f"{self._measured!r}"
            )

    def on_probe(self, now: float, wakeup_key: Tuple) -> Optional[float]:
        """Register a PROBE arrival; returns a fresh full-window measurement
        when the window completes, else ``None``.

        ``wakeup_key`` identifies the originating wakeup so that the
        repeated frames of one wakeup are a single arrival.
        """
        if wakeup_key in self._recent:
            return None
        self._recent.append(wakeup_key)

        if self._count is None:
            # Windowed mode: the first PROBE initializes (N=0, t0=t), §2.2.
            self._count = 0
            self._t0 = now
            return None
        self._count += 1
        if self._count < self.k:
            return None
        elapsed = now - self._t0
        if elapsed <= 0:
            # k arrivals at one instant cannot yield a rate; restart window.
            self._count = 0
            self._t0 = now
            return None
        self._measured = self.k / elapsed
        self.windows_completed += 1
        self._count = 0
        self._t0 = now
        return self._measured


def updated_rate(
    current_rate: float,
    measured_rate: float,
    desired_rate: float,
    min_rate: float,
    max_rate: float,
    max_adjust_factor: Optional[float] = None,
) -> float:
    """Equation (2): ``lambda_new = lambda * lambda_d / lambda-hat``, clamped.

    If every sleeping neighbor applies this against an accurate lambda-hat,
    the new aggregate is ``sum_i lambda_i * lambda_d / lambda = lambda_d``.

    ``max_adjust_factor`` bounds the multiplicative step to
    ``[1/f, f]`` per update.  The raw rule trusts one measurement with an
    unbounded step: during the boot-up probing storm lambda-hat can exceed
    lambda_d by 20-50x, and a single uncapped division leaves a sleeper
    waking so rarely that the (equally multiplicative) upward correction
    almost never fires — the rate population collapses.  A capped step
    converges to the same fixed point over a few wakeups while tracking
    fresh measurements on the way down.  (See the adaptive-sleeping
    ablation benches for the uncapped behaviour.)
    """
    if current_rate <= 0 or measured_rate <= 0 or desired_rate <= 0:
        raise ValueError("rates must be positive")
    if max_adjust_factor is not None and max_adjust_factor < 1.0:
        raise ValueError("max_adjust_factor must be >= 1")
    ratio = desired_rate / measured_rate
    if max_adjust_factor is not None:
        ratio = min(max(ratio, 1.0 / max_adjust_factor), max_adjust_factor)
    new_rate = current_rate * ratio
    return min(max(new_rate, min_rate), max_rate)


def select_feedback(measurements: Iterable[float], largest: bool = True) -> Optional[float]:
    """Choose which lambda-hat to adapt to among several REPLYs (§4).

    With ``largest=True`` (the paper's rule) the prober adapts to the largest
    measurement, "resulting in the lowest probing rate"; otherwise the first
    is used (the naive alternative exercised by ablations).
    """
    values = [m for m in measurements if m is not None]
    if not values:
        return None
    return max(values) if largest else values[0]


def sleep_duration(rng: random.Random, rate: float) -> float:
    """Draw the next sleeping time t_s ~ Exp(rate) (§2.1)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return rng.expovariate(rate)
