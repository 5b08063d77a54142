"""The fault-plan runtime: executes a :class:`FaultPlan` against a live run.

One engine per run, built by the harness next to the coverage tracker and
traffic generator.  It owns:

* the **ambient crash process** — ``Scenario.failure_per_5000s`` executed
  through the same :class:`CrashFault` code path as explicit plan entries,
  on the legacy ``"failures"`` RNG stream, so the Fig 12–14 failure sweeps
  route through the plan's crash model and stay bit-identical to the
  pre-plan harness;
* one **runtime per plan entry**, each drawing exclusively from its own
  ``faults.<index>.<kind>`` stream.

Two-phase startup mirrors the harness composition order:

1. :meth:`prepare` (before ``protocol.start()``) applies *passive*
   overlays — per-node clock skews (they must be in place before nodes
   draw their first sleep intervals) and the bursty-loss channel overlay;
2. :meth:`start` (where the failure injector has always started) arms the
   *active* processes and emits one ``fault_arm`` per explicit entry.

The empty plan emits no fault events and schedules nothing beyond the
ambient process: byte-identical to the pre-plan harness.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..failures import FailureInjector, per_5000s
from ..net.field import distance_sq
from ..net.loss import GilbertElliottLoss
from ..obs.events import FAIL, FAULT_ARM, FAULT_CLEAR, FAULT_FIRE
from ..obs.tracer import Tracer
from ..sim import RngRegistry, Simulator
from .plan import (
    BurstyLossFault,
    ClockDriftFault,
    CrashFault,
    FaultPlan,
    RegionKillFault,
    TransientOutageFault,
)

__all__ = ["FaultEngine"]



class FaultEngine:
    """Deterministic executor for one run's fault plan.

    Parameters
    ----------
    sim / network:
        The run's engine and population container (anything exposing the
        :class:`~repro.core.protocol.PEASNetwork` observer surface).
    plan:
        The declarative fault plan (empty = ambient crashes only).
    rngs:
        The run's stream registry; every entry draws from its own named
        stream, the ambient process from the legacy ``"failures"`` one.
    ambient_crash_per_5000s:
        ``Scenario.failure_per_5000s`` — the §5.3 background process.
    field_size:
        Deployment field dimensions, for drawing region-kill centers.
    capabilities:
        Fault kinds the protocol under test supports (see
        :meth:`~repro.protocols.base.ProtocolRun.fault_capabilities`);
        ``None`` skips the check.  Unsupported entries raise at
        construction, not mid-run.
    tracer:
        Optional tracer receiving fault lifecycle (and ``fail``) events.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Any,
        plan: FaultPlan,
        rngs: RngRegistry,
        *,
        ambient_crash_per_5000s: float = 0.0,
        field_size: Tuple[float, float] = (50.0, 50.0),
        capabilities: Optional[FrozenSet[str]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if capabilities is not None:
            for entry in plan.entries:
                if entry.kind not in capabilities:
                    raise ValueError(
                        f"fault model {entry.kind!r} is not supported by "
                        f"this protocol (supports: {sorted(capabilities)})"
                    )
        self.sim = sim
        self.network = network
        self.plan = plan
        self.field_size = field_size
        self._tracer = tracer

        #: §5.3 background process, expressed as an implicit crash entry on
        #: the stream the pre-plan harness always used.
        self.ambient_injector = self._build_crash(
            CrashFault(rate_per_5000s=ambient_crash_per_5000s),
            rngs.stream("failures"),
        )
        self.region_kills = 0
        self.outages = 0
        self.restores = 0
        self.nodes_skewed = 0
        self.loss_process: Optional[GilbertElliottLoss] = None
        #: fire instants of the instantaneous plan models (region kills,
        #: outage strikes); explicit crash deaths merge in lazily
        self._instant_fires: List[float] = []
        self._plan_crash_injectors: List[FailureInjector] = []
        self._runtimes: List[Tuple[str, Any, random.Random]] = []
        for index, entry in enumerate(plan.entries):
            fault_id = f"fault{index}"
            rng = rngs.stream(f"faults.{index}.{entry.kind}")
            self._runtimes.append((fault_id, entry, rng))
            if isinstance(entry, CrashFault):
                self._plan_crash_injectors.append(self._build_crash(entry, rng))

    # ------------------------------------------------------------ lifecycle
    def prepare(self) -> None:
        """Apply passive overlays; call *before* ``protocol.start()``."""
        for _fault_id, entry, rng in self._runtimes:
            if isinstance(entry, ClockDriftFault):
                self._apply_drift(entry, rng)
            elif isinstance(entry, BurstyLossFault):
                self._attach_bursty(entry, rng)

    def start(self) -> None:
        """Arm every fault process (the pre-plan injector start point)."""
        self.ambient_injector.start()
        tracer = self._tracer
        now = self.sim.now
        crash_iter = iter(self._plan_crash_injectors)
        for fault_id, entry, rng in self._runtimes:
            if tracer is not None:
                tracer.emit(FAULT_ARM, now, fault_id, entry.kind)
            if isinstance(entry, CrashFault):
                next(crash_iter).start()
            elif isinstance(entry, RegionKillFault):
                self.sim.schedule(
                    max(0.0, entry.at_s - now),
                    self._fire_region, fault_id, entry, rng,
                    label="fault-region",
                )
            elif isinstance(entry, TransientOutageFault):
                self._arm_outage(fault_id, entry, rng)
            elif isinstance(entry, BurstyLossFault):
                self._announce_bursty(fault_id, entry)
            elif isinstance(entry, ClockDriftFault):
                if tracer is not None:
                    tracer.emit(
                        FAULT_FIRE, now, fault_id, entry.kind, self.nodes_skewed,
                    )

    # ------------------------------------------------------------ reporting
    @property
    def failures_injected(self) -> int:
        """Total §5.3-style deaths: ambient + explicit crashes + region
        kills (transient outages are not deaths)."""
        total = self.ambient_injector.failures_injected + self.region_kills
        for injector in self._plan_crash_injectors:
            total += injector.failures_injected
        return total

    @property
    def fire_times(self) -> List[float]:
        """When each *plan* fault struck (ambient crashes excluded),
        sorted; the anchor instants for recovery metrics."""
        times = list(self._instant_fires)
        for injector in self._plan_crash_injectors:
            times.extend(injector.failure_times)
        times.sort()
        return times

    def fault_counts(self) -> Dict[str, Any]:
        """This run's fault accounting, as the keyword arguments of
        :meth:`repro.obs.metrics.RunMetrics.record_faults`.  Cold path:
        read once per run by the harness, after the event loop."""
        crash_deaths = self.ambient_injector.failures_injected
        for injector in self._plan_crash_injectors:
            crash_deaths += injector.failures_injected
        return {
            "injected": self.failures_injected,
            "events_by_kind": {
                "crash": crash_deaths,
                "region_kill": self.region_kills,
                "transient_outage": self.outages,
                "clock_drift": self.nodes_skewed,
            },
            "recoveries": self.restores,
        }

    # ------------------------------------------------------------ internals
    def _build_crash(self, entry: CrashFault, rng: random.Random) -> FailureInjector:
        network = self.network
        return FailureInjector(
            self.sim,
            rate_hz=per_5000s(entry.rate_per_5000s),
            alive_provider=network.alive_ids,
            kill=network.kill,
            rng=rng,
            tracer=self._tracer,
        )

    def _fire_region(
        self, fault_id: str, entry: RegionKillFault, rng: random.Random
    ) -> None:
        center = entry.center
        if center is None:
            width, height = self.field_size
            center = (rng.uniform(0.0, width), rng.uniform(0.0, height))
        network = self.network
        grid = getattr(network, "grid", None)
        if grid is not None:
            hits = grid.within(center, entry.radius_m)
        else:
            r_sq = entry.radius_m * entry.radius_m
            hits = [
                node_id
                for node_id, node in network.nodes.items()
                if distance_sq(node.position, center) <= r_sq
            ]
        alive = network.alive_ids()
        victims: List[Hashable] = sorted(nid for nid in hits if nid in alive)
        now = self.sim.now
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                FAULT_FIRE, now, fault_id, entry.kind, len(victims)
            )
        for victim in victims:
            network.kill(victim)
            if tracer is not None:
                tracer.emit(FAIL, now, victim)
        self.region_kills += len(victims)
        self._instant_fires.append(now)

    def _arm_outage(
        self, fault_id: str, entry: TransientOutageFault, rng: random.Random
    ) -> None:
        rate_hz = per_5000s(entry.rate_per_5000s)
        if rate_hz <= 0:
            return
        self.sim.schedule(
            rng.expovariate(rate_hz),
            self._fire_outage, fault_id, entry, rng,
            label="fault-outage",
        )

    def _fire_outage(
        self, fault_id: str, entry: TransientOutageFault, rng: random.Random
    ) -> None:
        network = self.network
        candidates: List[Hashable] = sorted(network.alive_ids())
        if candidates:
            victim = candidates[rng.randrange(len(candidates))]
            node = network.nodes[victim]
            stun = getattr(node, "stun", None)
            if stun is None:
                raise ValueError(
                    "transient_outage requires stun-capable nodes"
                )
            if stun():
                now = self.sim.now
                self.outages += 1
                self._instant_fires.append(now)
                if self._tracer is not None:
                    self._tracer.emit(
                        FAULT_FIRE, now, fault_id, entry.kind, 1
                    )
                self.sim.schedule(
                    rng.expovariate(1.0 / entry.mean_outage_s),
                    self._restore_outage, fault_id, entry, victim,
                    label="fault-restore",
                )
        self._arm_next_outage(fault_id, entry, rng)

    def _arm_next_outage(
        self, fault_id: str, entry: TransientOutageFault, rng: random.Random
    ) -> None:
        self.sim.schedule(
            rng.expovariate(per_5000s(entry.rate_per_5000s)),
            self._fire_outage, fault_id, entry, rng,
            label="fault-outage",
        )

    def _restore_outage(
        self, fault_id: str, entry: TransientOutageFault, victim: Hashable
    ) -> None:
        node = self.network.nodes[victim]
        if node.restore():
            self.restores += 1
            if self._tracer is not None:
                self._tracer.emit(
                    FAULT_CLEAR, self.sim.now, fault_id, entry.kind
                )

    def _attach_bursty(
        self, entry: BurstyLossFault, rng: random.Random
    ) -> None:
        channel = getattr(self.network, "channel", None)
        if channel is None:
            raise ValueError(
                "bursty_loss requires a protocol with a radio channel"
            )
        if channel.loss_process is not None:
            raise ValueError("channel already has a loss overlay attached")
        self.loss_process = GilbertElliottLoss(
            entry.good_mean_s,
            entry.bad_mean_s,
            entry.good_loss,
            entry.bad_loss,
            rng,
            start_s=entry.start_s,
            end_s=entry.end_s,
        )
        channel.loss_process = self.loss_process

    def _announce_bursty(self, fault_id: str, entry: BurstyLossFault) -> None:
        if self._tracer is None:
            return
        now = self.sim.now
        self.sim.schedule(
            max(0.0, entry.start_s - now),
            self._emit_bursty_fire, fault_id, entry,
            label="fault-bursty",
        )
        if entry.end_s is not None:
            self.sim.schedule(
                max(0.0, entry.end_s - now),
                self._emit_bursty_clear, fault_id, entry,
                label="fault-bursty",
            )

    def _emit_bursty_fire(self, fault_id: str, entry: BurstyLossFault) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                FAULT_FIRE, self.sim.now, fault_id, entry.kind, 0
            )

    def _emit_bursty_clear(self, fault_id: str, entry: BurstyLossFault) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                FAULT_CLEAR, self.sim.now, fault_id, entry.kind
            )

    def _apply_drift(
        self, entry: ClockDriftFault, rng: random.Random
    ) -> None:
        low = 1.0 - entry.max_skew
        high = 1.0 + entry.max_skew
        for node in self.network.nodes.values():
            if getattr(node, "anchor", False):
                continue
            if not hasattr(node, "clock_skew"):
                raise ValueError(
                    "clock_drift requires clock-skew capable nodes"
                )
            node.clock_skew = rng.uniform(low, high)
            self.nodes_skewed += 1
