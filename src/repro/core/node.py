"""The PEAS node: a state machine over Sleeping / Probing / Working (§2).

Lifecycle (Figure 1 of the paper, plus §4 extensions):

1. A node starts **Sleeping** with rate ``lambda = lambda_0``; it draws an
   exponential sleeping time and turns its radio off (0.03 mW).
2. On waking it enters **Probing**: it broadcasts ``num_probes`` PROBEs
   spread over the listening window while idling (12 mW) to hear REPLYs.
3. At the end of the window:
   * if any REPLY was heard, a working node exists within the probing range
     — the node adapts its rate from the REPLY's lambda-hat feedback
     (eq. 2) and goes back to Sleeping;
   * otherwise it enters **Working** and stays up until it dies (battery or
     injected failure) or is turned off by §4 overlap resolution.
4. A **Working** node answers each PROBE with a REPLY after a random backoff,
   maintains the k-interval aggregate-rate estimator, and (if enabled)
   yields to longer-working peers whose REPLYs it overhears.

Energy: mode transitions drive the battery's continuous draw; the channel's
energy hook charges per-frame tx/rx costs; the prober's listening window is
attributed to the ``probe_idle`` overhead category (Table 1 accounting).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, List, NamedTuple, Optional, Tuple

from ..energy import NodeBattery, RadioMode
from ..net import Packet
from ..obs.events import ENERGY, LAMBDA_HAT, PROBE_TX, RATE, REPLY_TX, STATE
from ..obs.tracer import Tracer
from ..net.mac import probe_arrival_offset, probe_offsets, reply_phase
from ..net.channel import BroadcastChannel
from ..net.field import Point
from ..sim import CounterSet, Event, Simulator, Timer
from .adaptive_sleep import RateEstimator, sleep_duration, updated_rate
from .config import PEASConfig
from .extensions import ReceptionFilter, overlap_should_sleep
from .messages import PROBE_KIND, REPLY_KIND, ProbeMessage, ReplyMessage
from .states import DeathCause, NodeMode, check_transition

__all__ = ["PEASNode", "NodeHooks", "MacTiming"]

#: How far past true battery depletion a node may linger before it dies.
#: Every mode change recomputes the exact depletion deadline; per-frame
#: charges only pull the true deadline *earlier*, so instead of a fresh
#: deadline per frame (~400k per paper-scale run) it is recomputed only
#: once the kept deadline overshoots the true one by more than this slack.
#: Deaths are thus never early and at most this late — ~0.005 % of the
#: ~4700 s lifetimes the paper's figures are built from.
_DEATH_SLACK_S = 0.25

_INF = float("inf")

# Modes the per-frame guards test, bound once (an enum class attribute read
# costs several global reads).
_SLEEPING = NodeMode.SLEEPING
_PROBING = NodeMode.PROBING
_WORKING = NodeMode.WORKING
_DEAD = NodeMode.DEAD


class MacTiming(NamedTuple):
    """The control-plane timing of one listening window, for every node.

    Config and airtime never change during a run, so
    :class:`~repro.core.protocol.PEASNetwork` computes this once and hands
    it to each node: the per-wakeup burst offsets, the reply phase and the
    per-index probe arrival offsets, off the hot paths.  The floats are
    exactly those of the :mod:`repro.net.mac` helpers.
    """

    airtime: float
    probe_offsets: Tuple[float, ...]
    reply_phase: Tuple[float, float]
    probe_arrivals: Tuple[float, ...]

    @classmethod
    def of(cls, config: PEASConfig, airtime: float) -> "MacTiming":
        gap = config.probe_gap_s
        return cls(
            airtime,
            tuple(probe_offsets(config.num_probes, airtime, gap)),
            reply_phase(
                config.num_probes, airtime, gap,
                config.probe_window_s, config.reply_guard_s,
            ),
            tuple(
                probe_arrival_offset(i, airtime, gap) for i in range(config.num_probes)
            ),
        )


@dataclass
class NodeHooks:
    """Observer callbacks the orchestrator wires into each node."""

    on_working_start: Callable[["PEASNode"], None]
    on_working_stop: Callable[["PEASNode", str], None]
    on_death: Callable[["PEASNode", DeathCause], None]

    @staticmethod
    def noop() -> "NodeHooks":
        return NodeHooks(
            on_working_start=lambda node: None,
            on_working_stop=lambda node, reason: None,
            on_death=lambda node, cause: None,
        )


class PEASNode:
    """One sensor running PEAS.  See module docstring for the lifecycle."""

    def __init__(
        self,
        node_id: Hashable,
        position: Point,
        sim: Simulator,
        channel: BroadcastChannel,
        config: PEASConfig,
        battery: NodeBattery,
        rng: random.Random,
        reception_filter: ReceptionFilter,
        timing: MacTiming,
        hooks: Optional[NodeHooks] = None,
        counters: Optional[CounterSet] = None,
        anchor: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._node_id = node_id
        self._position = position
        self.sim = sim
        self.channel = channel
        self.config = config
        self.battery = battery
        self.rng = rng
        self.filter = reception_filter
        #: variable-power mode accepts every received frame (§2), so
        #: :meth:`on_packet` consults the filter only in fixed-power mode
        self._fixed_power = reception_filter.fixed_power
        self.hooks = hooks if hooks is not None else NodeHooks.noop()
        self.counters = counters if counters is not None else CounterSet()
        #: normalized trace handle: None unless tracing is really on
        self._tracer = tracer.active() if tracer is not None else None

        #: Anchored nodes model the externally powered source/sink stations:
        #: they start working immediately, never sleep, never yield to
        #: overlap resolution and are not valid failure-injection targets.
        self.anchor = anchor
        self.mode = NodeMode.SLEEPING
        self.rate_hz = config.initial_rate_hz
        #: Multiplicative skew applied to this node's locally-timed protocol
        #: delays — sleep durations, probe offsets, the listening window —
        #: modelling an imperfect oscillator (fault injection's clock-drift
        #: model).  Exactly 1.0 is a perfect clock, and because ``x * 1.0``
        #: is bit-exact for IEEE floats the default costs nothing and keeps
        #: skewless runs byte-identical.
        self.clock_skew = 1.0
        self.death_cause: Optional[DeathCause] = None
        self.work_started_at: Optional[float] = None
        self.wakeup_count = 0
        self._wakeup_seq = -1
        self.estimator: Optional[RateEstimator] = None
        self._pending_replies: List[ReplyMessage] = []
        self._reply_busy_until = -1.0

        self._sleep_timer = Timer(sim, self._wake, label="wake")
        self._window_timer = Timer(sim, self._end_probe_window, label="probe-window")
        self._death_timer = Timer(sim, self._die, label="depletion")
        #: exact battery depletion deadline (+inf when not draining); in
        #: the heap only while it can fire first (see :meth:`_arm_death`)
        self._death_at = _INF
        self._probe_airtime = timing.airtime
        #: bound once: radio-state publication to the channel, which picks
        #: broadcast audiences by the published flag
        self._note_listening = channel.note_listening
        self._probe_offsets = timing.probe_offsets
        self._reply_phase = timing.reply_phase
        self._probe_arrivals = timing.probe_arrivals

    # ----------------------------------------------------- channel endpoint
    @property
    def node_id(self) -> Hashable:
        return self._node_id

    @property
    def position(self) -> Point:
        return self._position

    def is_listening(self) -> bool:
        return self.mode in (_PROBING, _WORKING)

    # ------------------------------------------------------------ lifecycle
    @property
    def alive(self) -> bool:
        return self.mode is not _DEAD

    @property
    def working_duration(self) -> float:
        """T_w of §4: how long this node has been working (0 if not working)."""
        if self.mode is not _WORKING or self.work_started_at is None:
            return 0.0
        return self.sim.now - self.work_started_at

    def start(self) -> None:
        """Begin operation: ordinary nodes sleep with their initial rate
        lambda_0; anchored stations go straight to Working."""
        if self.anchor:
            self.battery.set_mode(self.sim.now, RadioMode.IDLE)
            check_transition(self.mode, NodeMode.PROBING)
            self.mode = NodeMode.PROBING  # transient hop to satisfy Figure 1
            self._note_listening(self._node_id, True)
            if self._tracer is not None:
                self._tracer.emit(
                    STATE, self.sim.now, self._node_id, "sleeping", "probing", "anchor",
                )
            self._start_working()
            return
        remaining = self.battery.set_mode(self.sim.now, RadioMode.SLEEP)
        self._schedule_sleep()
        self._reschedule_death(remaining)

    def fail(self) -> None:
        """Kill the node by injected failure (§5.3)."""
        if self.anchor:
            raise ValueError("anchored stations cannot be failure targets")
        self._die(DeathCause.FAILURE)

    def stun(self) -> bool:
        """Transient outage (fault injection): go deaf until :meth:`restore`.

        The node leaves whatever live mode it was in, turns its radio to
        the sleep draw, cancels every pending protocol timer and stops
        answering or hearing frames.  A stunned *working* node vacates its
        working slot — exactly the §3 situation where a sleeper's probe
        goes unanswered and a replacement wakes into the hole.  Battery
        depletion (and injected failures) still apply while down.

        Returns ``True`` if the node was stunned, ``False`` when it was
        not a valid target (anchor, already stunned, or dead).
        """
        if self.anchor or self.mode in (NodeMode.STUNNED, NodeMode.DEAD):
            return False
        was_working = self.mode is NodeMode.WORKING
        previous = self.mode
        check_transition(self.mode, NodeMode.STUNNED)
        self.mode = NodeMode.STUNNED
        self._note_listening(self._node_id, False)
        if self._tracer is not None:
            self._tracer.emit(
                STATE, self.sim.now, self._node_id, previous.value, "stunned", "outage",
            )
        remaining = self.battery.set_mode(self.sim.now, RadioMode.SLEEP)
        self._sleep_timer.cancel()
        self._window_timer.cancel()
        self._pending_replies = []
        self._reply_busy_until = -1.0
        self.counters.incr("outages")
        if was_working:
            self.work_started_at = None
            self.estimator = None
            self.hooks.on_working_stop(self, "outage")
        self._reschedule_death(remaining)
        return True

    def restore(self) -> bool:
        """End a transient outage: rejoin as an ordinary sleeper.

        The node keeps its adapted wakeup rate (its lambda memory survives
        the outage) and draws a fresh sleep interval — re-adoption into
        the PEAS population is then entirely probe-driven.  Returns
        ``False`` when there is nothing to restore (the node died while
        down, or was never stunned).
        """
        if self.mode is not NodeMode.STUNNED:
            return False
        check_transition(self.mode, NodeMode.SLEEPING)
        self.mode = NodeMode.SLEEPING
        if self._tracer is not None:
            self._tracer.emit(
                STATE,
                self.sim.now, self._node_id, "stunned", "sleeping",
                "restored", self.rate_hz,
            )
        remaining = self.battery.set_mode(self.sim.now, RadioMode.SLEEP)
        self.counters.incr("restores")
        self._schedule_sleep()
        self._reschedule_death(remaining)
        return True

    # --------------------------------------------------------------- wakeup
    def _schedule_sleep(self) -> None:
        self._sleep_timer.start(
            sleep_duration(self.rng, self.rate_hz) * self.clock_skew
        )

    def _wake(self) -> None:
        if self.mode is not _SLEEPING:
            return
        check_transition(self.mode, NodeMode.PROBING)
        self.mode = NodeMode.PROBING
        self._note_listening(self._node_id, True)
        if self._tracer is not None:
            self._tracer.emit(
                STATE, self.sim.now, self._node_id, "sleeping", "probing"
            )
        remaining = self.battery.set_mode(self.sim.now, RadioMode.IDLE)
        self.wakeup_count += 1
        self._wakeup_seq += 1
        self.counters.incr("wakeups")
        self._pending_replies = []
        offsets = self._probe_offsets
        skew = self.clock_skew
        for index, offset in enumerate(offsets):
            self.sim.schedule(offset * skew, self._send_probe, index, label="probe-tx")
        self._window_timer.start(self.config.probe_window_s * skew)
        self._reschedule_death(remaining)

    def _send_probe(self, index: int) -> None:
        if self.mode is not _PROBING:
            return
        node_id = self._node_id
        seq = self._wakeup_seq
        packet = Packet(PROBE_KIND, node_id, ProbeMessage(node_id, seq, index))
        self.channel.transmit(node_id, packet, self.filter.tx_range)
        self.counters.incr("probes_sent")
        if self._tracer is not None:
            self._tracer.emit(PROBE_TX, self.sim.now, node_id, seq, index)

    def _end_probe_window(self) -> None:
        if self.mode is not _PROBING:
            return
        # Attribute the listening window's idle draw to protocol overhead
        # (already consumed via the IDLE mode; attribution only, Table 1).
        idle_j = self.battery.profile.idle_w * self.config.probe_window_s * self.clock_skew
        self.battery.attribute("probe_idle", idle_j)
        if self._tracer is not None:
            self._tracer.emit(
                ENERGY, self.sim.now, self._node_id, "probe_idle", idle_j
            )
        if self._pending_replies:
            self._adapt_rate(self._pending_replies)
            self.counters.incr("sleeps_after_reply")
            self._go_to_sleep(cause="reply_heard")
        else:
            self._start_working()

    def _adapt_rate(self, replies: List[ReplyMessage]) -> None:
        """Apply eq. 2 using the REPLY feedback; §4's rule picks the largest
        lambda-hat when several working neighbors answered."""
        informative = [r for r in replies if r.measured_rate is not None]
        if not informative:
            return  # no measurement yet anywhere: keep the current rate
        if self.config.adapt_to_largest:
            chosen = max(informative, key=lambda r: r.measured_rate)
        else:
            chosen = informative[0]
        old_rate = self.rate_hz
        self.rate_hz = updated_rate(
            self.rate_hz,
            chosen.measured_rate,
            chosen.desired_rate,
            self.config.min_rate_hz,
            self.config.max_rate_hz,
            self.config.max_adjust_factor,
        )
        self.counters.incr("rate_adaptations")
        if self._tracer is not None:
            self._tracer.emit(
                RATE,
                self.sim.now,
                self._node_id,
                old_rate,
                self.rate_hz,
                chosen.measured_rate,
            )

    def _go_to_sleep(self, cause: Optional[str] = None) -> None:
        previous = self.mode
        check_transition(self.mode, NodeMode.SLEEPING)
        self.mode = NodeMode.SLEEPING
        self._note_listening(self._node_id, False)
        remaining = self.battery.set_mode(self.sim.now, RadioMode.SLEEP)
        if self._tracer is not None:
            self._tracer.emit(
                STATE,
                self.sim.now,
                self._node_id,
                previous.value,
                "sleeping",
                cause,
                self.rate_hz,
            )
        self._schedule_sleep()
        self._reschedule_death(remaining)

    # -------------------------------------------------------------- working
    def _start_working(self) -> None:
        check_transition(self.mode, NodeMode.WORKING)
        self.mode = NodeMode.WORKING
        # Normally redundant (PROBING already published True), but keeps the
        # published listening state correct even when a test or harness
        # forces a node into WORKING without walking through _wake.
        self._note_listening(self._node_id, True)
        if self._tracer is not None:
            self._tracer.emit(
                STATE, self.sim.now, self._node_id, "probing", "working"
            )
        self.work_started_at = self.sim.now
        self.estimator = RateEstimator(
            self.config.measurement_window_k,
            self.config.probe_dedupe_window,
            mode=self.config.measurement_mode,
            min_horizon_s=self.config.effective_horizon_s(),
            start_time=self.sim.now,
        )
        self.counters.incr("work_starts")
        self._reschedule_death()
        self.hooks.on_working_start(self)

    def _overlap_turnoff(self) -> None:
        """§4: yield to a longer-working peer and go back to sleep."""
        self.counters.incr("overlap_turnoffs")
        self.hooks.on_working_stop(self, "overlap")
        self.work_started_at = None
        self.estimator = None
        self._go_to_sleep(cause="overlap")

    def _send_reply(
        self, answering: tuple, feedback: Optional[float], deadline: float
    ) -> None:
        if self.mode is not _WORKING:
            return
        # CSMA: defer while the medium is locally busy; give up (rather than
        # transmit uselessly) once the prober's listening window has closed.
        now = self.sim.now
        busy = self.channel.busy_until(self._node_id)
        if busy > now:
            retry = busy + self.rng.uniform(0.0, 2.0 * self.config.probe_gap_s)
            if retry + self._probe_airtime > deadline:
                self.counters.incr("replies_suppressed")
                return
            self._reply_busy_until = max(self._reply_busy_until, retry + self._probe_airtime)
            self.sim.schedule(
                retry - now, self._send_reply, answering, feedback, deadline,
                label="reply-tx",
            )
            return
        node_id = self._node_id
        started = self.work_started_at  # inlined working_duration (mode is WORKING)
        working_duration = 0.0 if started is None else now - started
        message = ReplyMessage(
            node_id, feedback, self.config.desired_rate_hz, working_duration, answering
        )
        packet = Packet(REPLY_KIND, node_id, message)
        self.channel.transmit(node_id, packet, self.filter.tx_range)
        self.counters.incr("replies_sent")
        if self._tracer is not None:
            self._tracer.emit(
                REPLY_TX, now, node_id, feedback, working_duration
            )

    # ------------------------------------------------------------ reception
    def on_packet(self, packet: Packet, rssi: float, dist: float) -> None:
        if self._fixed_power and not self.filter.accepts(rssi):
            return  # fixed-power mode: sender is beyond the probing range
        kind = packet.kind
        if kind == PROBE_KIND:
            self._on_probe(packet.payload)
        elif kind == REPLY_KIND:
            self._on_reply(packet.payload)

    def _on_probe(self, message: ProbeMessage) -> None:
        if self.mode is not _WORKING:
            return  # only working nodes answer PROBEs
        estimator = self.estimator
        assert estimator is not None
        now = self.sim.now
        wakeup_key = message.wakeup_key
        # Snapshot the estimate BEFORE counting this arrival: by PASTA the
        # arriving probe sees the time-average window state, whereas an
        # estimate that included itself would be biased high by ~1/age —
        # dominant for young workers and amplified by the §4 max rule.
        feedback = estimator.estimate(now)
        completed = estimator.on_probe(now, wakeup_key)
        if completed is not None and self._tracer is not None:
            self._tracer.emit(
                LAMBDA_HAT, now, self._node_id, completed, estimator.windows_completed,
            )
        # Place the REPLY uniformly in the prober's reply phase, keeping
        # this node's own repeated REPLYs separated (half-duplex radio) and
        # never transmitting past the prober's listening window.
        phase_lo, phase_hi = self._reply_phase
        est_wakeup = now - self._probe_arrivals[message.probe_index]
        target = est_wakeup + self.rng.uniform(phase_lo, phase_hi)
        target = max(target, now, self._reply_busy_until + self.config.probe_gap_s)
        deadline = est_wakeup + phase_hi
        if target > deadline:
            self.counters.incr("replies_suppressed")
            return
        self._reply_busy_until = target + self._probe_airtime
        self.sim.schedule(
            target - now, self._send_reply, wakeup_key, feedback, deadline,
            label="reply-tx",
        )

    def _on_reply(self, message: ReplyMessage) -> None:
        if self.mode is _PROBING:
            self._pending_replies.append(message)
        elif self.mode is _WORKING and self.config.overlap_resolution:
            if self.anchor:
                return
            if overlap_should_sleep(self.working_duration, message.working_duration):
                self._overlap_turnoff()

    # ------------------------------------------------------------ sanitizer
    def assert_invariants(self, now: float) -> None:
        """Raise :class:`~repro.sim.sanitizer.InvariantViolation` on corrupt
        node state.  Read-only; called by the sanitizer's periodic sweep."""
        from ..sim.sanitizer import InvariantViolation

        self.battery.assert_invariants(now)
        mode = self.mode
        if mode is NodeMode.DEAD:
            if self.death_cause is None:
                raise InvariantViolation(
                    f"node {self._node_id!r} is dead without a death cause"
                )
        elif self.rate_hz <= 0:
            raise InvariantViolation(
                f"node {self._node_id!r} has a non-positive wakeup rate "
                f"({self.rate_hz!r} Hz); eq. (2) clamps to [min_rate, max_rate]"
            )
        if mode is NodeMode.STUNNED:
            if self.work_started_at is not None:
                raise InvariantViolation(
                    f"stunned node {self._node_id!r} retains a work start time"
                )
            if self.estimator is not None:
                raise InvariantViolation(
                    f"stunned node {self._node_id!r} retains a rate estimator"
                )
        if mode is NodeMode.WORKING:
            if self.work_started_at is None:
                raise InvariantViolation(
                    f"working node {self._node_id!r} has no work start time"
                )
            if self.work_started_at > now + 1e-9:
                raise InvariantViolation(
                    f"node {self._node_id!r} started working in the future "
                    f"(t={self.work_started_at!r}, now={now!r})"
                )
            if self.estimator is None:
                raise InvariantViolation(
                    f"working node {self._node_id!r} lost its rate estimator"
                )
        if self.estimator is not None:
            self.estimator.assert_well_formed(now)
        death_at = self._death_at
        event = self._death_timer._event
        armed = event is not None and not event._cancelled
        if armed and event.time != death_at:
            raise InvariantViolation(
                f"node {self._node_id!r} has a depletion event at "
                f"t={event.time!r} but its deadline is {death_at!r}"
            )
        if mode is not NodeMode.DEAD and death_at != _INF and not armed:
            own = self._own_timer_event()
            if own is None or death_at < own.time:
                raise InvariantViolation(
                    f"node {self._node_id!r} ({mode.value}) has its depletion "
                    f"deadline t={death_at!r} before its own next timer "
                    f"({'none' if own is None else repr(own.time)}) but no "
                    "depletion event in the heap"
                )

    # ---------------------------------------------------------------- death
    def charge_frame(self, now: float, category: str, joules: float) -> None:
        """Charge one frame's ``joules`` to ``category`` at time ``now``.

        The one per-frame charge: the battery's :meth:`NodeBattery.charge_frame`,
        then the ``energy`` trace event, then the depletion check.  The
        deadline is computed *exactly* at every mode change
        (:meth:`_reschedule_death`); frame charges between mode changes only
        pull the true depletion time earlier.  Rather than recomputing it
        per frame, the deadline moves only once it overshoots the true
        depletion time by more than ``_DEATH_SLACK_S`` — a node therefore
        never dies early, and at most that much late.
        """
        battery = self.battery
        remaining = battery.charge_frame(now, joules, category)
        if self._tracer is not None:
            self._tracer.emit(ENERGY, now, self._node_id, category, joules)
        if self.mode is _DEAD:
            return
        if remaining <= 0.0:
            self._die(DeathCause.ENERGY)
            return
        power = battery._power_w
        if power <= 0.0:
            return
        ttd = remaining / power
        if self._death_at > now + ttd + _DEATH_SLACK_S:
            self._arm_death(ttd)

    def _reschedule_death(self, remaining: Optional[float] = None) -> None:
        """Recompute the exact depletion deadline at the current draw.

        A mode change passes the ``remaining`` joules its ``set_mode`` just
        settled, so the battery is not settled a second time at the same
        instant (same floats as ``time_to_depletion``); without it the
        battery is settled here.
        """
        if remaining is None:
            ttd = self.battery.time_to_depletion(self.sim.now)
        else:
            power = self.battery._power_w
            ttd = remaining / power if power > 0 else None
        if ttd is None:
            self._death_at = _INF
            self._death_timer.cancel()
        else:
            self._arm_death(ttd)

    def _own_timer_event(self) -> Optional[Event]:
        """The node's own next mode-changing event: the wake timer while
        Sleeping, the window timer while Probing, else ``None``."""
        mode = self.mode
        if mode is _SLEEPING:
            event = self._sleep_timer._event
        elif mode is _PROBING:
            event = self._window_timer._event
        else:
            return None
        return None if event is None or event._cancelled else event

    def _arm_death(self, ttd: float) -> None:
        """Set the deadline ``ttd`` from now; put it in the heap only if it
        fires before the node's own timer.  Otherwise that timer's handler
        changes mode and recomputes the deadline, so it could never fire.
        On a tie the own timer, armed first, fires first: hence ``<``."""
        at = float(self.sim.now + ttd)  # the float ``schedule`` computes
        self._death_at = at
        own = self._own_timer_event()
        if own is None or at < own.time:
            self._death_timer.start(ttd)
        else:
            self._death_timer.cancel()

    def _die(self, cause: DeathCause = DeathCause.ENERGY) -> None:
        if self.mode is NodeMode.DEAD:
            return
        was_working = self.mode is NodeMode.WORKING
        previous = self.mode
        check_transition(self.mode, NodeMode.DEAD)
        self.mode = NodeMode.DEAD
        self._note_listening(self._node_id, False)
        if self._tracer is not None:
            self._tracer.emit(
                STATE, self.sim.now, self._node_id, previous.value, "dead", cause.value,
            )
        self.death_cause = cause
        self.battery.set_mode(self.sim.now, RadioMode.OFF)
        self._sleep_timer.cancel()
        self._window_timer.cancel()
        self._death_at = _INF
        self._death_timer.cancel()
        self.channel.detach(self._node_id)
        self.counters.incr(
            "deaths_energy" if cause is DeathCause.ENERGY else "deaths_failure"
        )
        if was_working:
            self.hooks.on_working_stop(self, "death")
        self.hooks.on_death(self, cause)
