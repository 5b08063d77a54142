"""PEAS network orchestrator: builds and wires a full deployment.

:class:`PEASNetwork` owns everything needed to run the protocol over one
deployment: the spatial index, broadcast channel, per-node batteries and the
node state machines.  It exposes:

* the live *working set* (what the coverage tracker and routing layer consume,
  via observer callbacks),
* a ``kill`` entry point for the failure injector,
* shared protocol counters and network-wide energy summaries.

The PEAS role split the paper spells out at the end of §1 is respected here:
this class maintains working-node density only; data delivery is layered on
top by :mod:`repro.routing`.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from ..energy import (
    MOTE_PROFILE,
    EnergyReport,
    NodeBattery,
    PowerProfile,
    draw_initial_energy,
    frame_category,
    summarize_energy,
)
from ..obs.tracer import Tracer
from ..net import (
    PACKET_SIZE_BYTES,
    BroadcastChannel,
    Field,
    NeighborCache,
    Packet,
    Point,
    RadioModel,
    SpatialGrid,
)
from ..sim import CounterSet, RngRegistry, Simulator
from .config import PEASConfig
from .extensions import ReceptionFilter
from .node import MacTiming, NodeHooks, PEASNode
from .states import DeathCause

__all__ = ["PEASNetwork", "validate_timing"]


#: observer signature: (time, node, started) where started is True when the
#: node began working and False when it stopped (death or overlap turnoff).
WorkingObserver = Callable[[float, PEASNode, bool], None]
DeathObserver = Callable[[float, PEASNode, DeathCause], None]


def validate_timing(config: PEASConfig, radio: RadioModel) -> None:
    """Check that the control-plane timing fits the listening window.

    The window must hold the full PROBE burst plus a non-empty reply phase:
    probe span + guard + reply airtime + guard <= window.
    """
    from ..net.mac import probe_span

    airtime = radio.airtime(PACKET_SIZE_BYTES)
    span = probe_span(config.num_probes, airtime, config.probe_gap_s)
    needed = span + 2 * config.reply_guard_s + airtime
    if needed >= config.probe_window_s:
        raise ValueError(
            "listening window too short for the PROBE burst plus a reply "
            f"phase: need > {needed:.4f}s, window is {config.probe_window_s:.4f}s"
        )


class PEASNetwork:
    """A deployed sensor network running PEAS.

    Parameters
    ----------
    sim:
        Simulation engine.
    field:
        The deployment area.
    positions:
        One position per node; node ids are the indices ``0..n-1``.
    config:
        PEAS parameters.
    rngs:
        Registry supplying the per-node and channel random streams.
    radio / profile:
        Physical-layer and power models (paper defaults if omitted).
    loss_rate:
        Channel's independent frame-loss probability.
    neighbor_cache:
        ``True``/``False`` forces the stationary-topology neighbor memo on
        or off; ``None`` (default) follows ``REPRO_NEIGHBOR_CACHE``.
        Results are bit-identical either way; off trades speed for nothing
        and exists for determinism proofs and benchmarking.
    tracer:
        Optional :class:`repro.obs.Tracer` threaded through the channel
        and every node; ``None`` (or a null-sink tracer) keeps the whole
        network on the untraced fast path.
    """

    def __init__(
        self,
        sim: Simulator,
        field: Field,
        positions: Sequence[Point],
        config: PEASConfig,
        rngs: RngRegistry,
        radio: Optional[RadioModel] = None,
        profile: PowerProfile = MOTE_PROFILE,
        loss_rate: float = 0.0,
        anchors: Sequence[Point] = (),
        neighbor_cache: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.field = field
        self.config = config
        self.radio = radio if radio is not None else RadioModel()
        self.profile = profile
        self.tracer = tracer.active() if tracer is not None else None
        validate_timing(config, self.radio)

        self.counters = CounterSet()
        #: (packet kind, direction, airtime) -> (energy category, joules)
        #: for the per-frame hook.  Airtimes are quantized (one per packet
        #: size), so this holds a handful of entries.  Every battery here
        #: draws on ``profile``, so one frame energy serves all of them.
        self._frame_charges: Dict[tuple, tuple] = {}
        self.grid = SpatialGrid()
        self.neighbors = NeighborCache(self.grid, enabled=neighbor_cache)
        self.channel = BroadcastChannel(
            sim,
            self.grid,
            self.radio,
            loss_rate=loss_rate,
            rng=rngs.stream("channel"),
            energy_hook=self._energy_hook,
            neighbor_cache=self.neighbors,
            tracer=self.tracer,
        )
        self.working_observers: List[WorkingObserver] = []
        self.death_observers: List[DeathObserver] = []

        self.nodes: Dict[Hashable, PEASNode] = {}
        self._alive: set = set()
        self._working: set = set()
        reception_filter = ReceptionFilter(config, self.radio)
        hooks = NodeHooks(
            on_working_start=self._node_started_working,
            on_working_stop=self._node_stopped_working,
            on_death=self._node_died,
        )
        timing = MacTiming.of(config, self.radio.airtime(PACKET_SIZE_BYTES))
        battery_rng = rngs.stream("battery")
        for index, position in enumerate(positions):
            if not field.contains(position):
                raise ValueError(f"node {index} at {position} is outside the field")
            battery = NodeBattery(
                profile, draw_initial_energy(profile, battery_rng), sim.now
            )
            node = PEASNode(
                node_id=index,
                position=position,
                sim=sim,
                channel=self.channel,
                config=config,
                battery=battery,
                rng=rngs.stream(f"node.{index}"),
                reception_filter=reception_filter,
                timing=timing,
                hooks=hooks,
                counters=self.counters,
                tracer=self.tracer,
            )
            self.nodes[index] = node
            self._alive.add(index)
            self.channel.attach(node)

        # Anchored stations (source/sink): externally powered permanent
        # workers.  They participate in the protocol (REPLY to probes, hold
        # their 3 m neighborhood asleep) but are excluded from the sensor
        # population's liveness, failure targeting and energy accounting.
        self.anchor_ids: List[Hashable] = []
        for k, position in enumerate(anchors):
            if not field.contains(position):
                raise ValueError(f"anchor {k} at {position} is outside the field")
            anchor_id = f"anchor{k}"
            battery = NodeBattery(profile, 1e15, sim.now)
            node = PEASNode(
                node_id=anchor_id,
                position=position,
                sim=sim,
                channel=self.channel,
                config=config,
                battery=battery,
                rng=rngs.stream(f"node.{anchor_id}"),
                reception_filter=reception_filter,
                timing=timing,
                hooks=hooks,
                counters=CounterSet(),  # keep protocol counters sensor-only
                anchor=True,
                tracer=self.tracer,
            )
            self.nodes[anchor_id] = node
            self.anchor_ids.append(anchor_id)
            self.channel.attach(node)

    # ----------------------------------------------------------- operations
    def start(self) -> None:
        """Put every node into its initial sleep (network boot, §2.1)."""
        for node in self.nodes.values():
            node.start()

    def kill(self, node_id: Hashable) -> None:
        """Failure-injector entry point: destroy a node immediately."""
        self.nodes[node_id].fail()

    # ------------------------------------------------------------ inspection
    @property
    def population(self) -> int:
        """Number of PEAS-managed sensor nodes (anchors excluded)."""
        return len(self.nodes) - len(self.anchor_ids)

    def sensor_nodes(self) -> List[PEASNode]:
        """The PEAS-managed nodes (anchors excluded)."""
        return [n for n in self.nodes.values() if not n.anchor]

    def alive_ids(self) -> frozenset:
        return frozenset(self._alive)

    def working_ids(self) -> frozenset:
        return frozenset(self._working)

    @property
    def all_dead(self) -> bool:
        return not self._alive

    def node(self, node_id: Hashable) -> PEASNode:
        return self.nodes[node_id]

    def working_positions(self) -> List[Point]:
        return [self.nodes[i].position for i in self._working]

    def energy_report(self) -> EnergyReport:
        """Sensor-population consumption and PEAS overhead right now
        (anchored stations are externally powered and excluded)."""
        return summarize_energy(
            (node.battery for node in self.sensor_nodes()), self.sim.now
        )

    def total_initial_energy(self) -> float:
        return sum(node.battery.initial_j for node in self.sensor_nodes())

    # ------------------------------------------------------------- internals
    def _energy_hook(
        self, node_id: Hashable, direction: str, airtime: float, packet: Packet
    ) -> None:
        key = (packet.kind, direction, airtime)
        charge = self._frame_charges.get(key)
        if charge is None:
            charge = self._frame_charges[key] = (
                frame_category(packet.kind, direction),
                self.profile.frame_energy(direction, airtime),
            )
        self.nodes[node_id].charge_frame(self.sim.now, charge[0], charge[1])

    def _node_started_working(self, node: PEASNode) -> None:
        self._working.add(node.node_id)
        for observer in self.working_observers:
            observer(self.sim.now, node, True)

    def _node_stopped_working(self, node: PEASNode, reason: str) -> None:
        self._working.discard(node.node_id)
        for observer in self.working_observers:
            observer(self.sim.now, node, False)

    def _node_died(self, node: PEASNode, cause: DeathCause) -> None:
        self._alive.discard(node.node_id)
        for observer in self.death_observers:
            observer(self.sim.now, node, cause)
