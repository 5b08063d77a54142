"""Shared broadcast wireless channel with collisions and random loss.

This is the packet-level substrate beneath PEAS's control plane.  The model
captures the phenomena the paper's design explicitly reacts to:

* **broadcast within a chosen range** — PROBE/REPLY are local broadcasts
  whose reach is the probing range R_p (variable power, §2) or the maximum
  range R_t (fixed power, §4);
* **receiver-side collisions** — two frames overlapping in time at a
  listening receiver destroy each other there (no capture), which is why
  working nodes randomize their REPLY backoff (§2.1) and probing nodes
  spread repeated PROBEs (§4);
* **half duplex** — a node transmitting a frame cannot simultaneously
  receive one;
* **i.i.d. random loss** — the §4 loss-compensation experiments inject
  loss rates up to ~10-20 %;
* **bursty loss** — an optional Gilbert–Elliott overlay
  (:mod:`repro.net.loss`), attached by the fault-injection subsystem via
  ``channel.loss_process``, models time-correlated interference on top of
  the i.i.d. floor.

Energy is charged through an optional hook so the energy model can attribute
per-frame costs to overhead categories (Table 1 accounting).

Nodes are stationary, so the set of potential receivers of a broadcast is a
function of ``(sender, range)`` alone; lookups go through a
:class:`~repro.net.neighbors.NeighborCache` (memoized, sorted by distance,
invalidated on node death) instead of re-running the grid range query per
frame.  Attached endpoints publish their radio state into the grid's
columnar store (:meth:`BroadcastChannel.note_listening`), and every
broadcast picks its audience in one loop over store rows, traced or not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs pulls net)
    from ..obs.tracer import Tracer

from ..obs.events import COLLISION, DROP
from ..sim import CounterSet, Simulator
from ..sim.events import PRIORITY_HIGH
from .field import Point
from .neighbors import NeighborCache
from .packet import Packet
from .radio import RadioModel
from .spatial import SpatialGrid

__all__ = ["BroadcastChannel", "RadioEndpoint", "Reception"]

#: energy hook signature: (node_id, "tx" | "rx", airtime_seconds, packet)
EnergyHook = Callable[[Hashable, str, float, Packet], None]

class RadioEndpoint(Protocol):
    """What the channel needs to know about an attached node.

    :meth:`BroadcastChannel.attach` reads ``is_listening()`` once; after
    that the endpoint must call :meth:`BroadcastChannel.note_listening` on
    every change of its radio state, since broadcasts pick their audience
    from the published flag.
    """

    @property
    def node_id(self) -> Hashable: ...

    @property
    def position(self) -> Point: ...

    def is_listening(self) -> bool:
        """True iff the node's radio is on and able to receive right now."""
        ...

    def on_packet(self, packet: Packet, rssi: float, dist: float) -> None:
        """Deliver a successfully received frame."""
        ...


@dataclass(slots=True)
class Reception:
    """An in-flight frame as observed by one receiver."""

    packet: Packet
    end_time: float
    dist: float
    corrupted: bool = False


class BroadcastChannel:
    """The shared medium connecting all node radios.

    Parameters
    ----------
    sim:
        The simulation engine.
    grid:
        Spatial index over *all* node positions (nodes are
        stationary).
    radio:
        Physical-layer model (airtime, RSSI).
    loss_rate:
        Independent per-link frame loss probability in [0, 1).
    rng:
        Stream for loss draws and RSSI irregularity.
    energy_hook:
        Optional callback charging tx/rx energy per frame.
    neighbor_cache:
        Memoized neighborhoods over ``grid``; constructed locally when not
        supplied (pass a shared instance so routing reuses the same memo).
    tracer:
        Optional :class:`repro.obs.Tracer` receiving ``collision`` and
        ``drop`` events; normalized so a disabled tracer costs one ``is
        not None`` check per frame.
    """

    def __init__(
        self,
        sim: Simulator,
        grid: SpatialGrid,
        radio: RadioModel,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        energy_hook: Optional[EnergyHook] = None,
        neighbor_cache: Optional[NeighborCache] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.grid = grid
        self.radio = radio
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else random.Random(0)
        self.energy_hook = energy_hook
        self.neighbors = (
            neighbor_cache if neighbor_cache is not None else NeighborCache(grid)
        )
        self.tracer = tracer
        #: optional :class:`repro.sim.sanitizer.SimSanitizer`; same idiom as
        #: the tracer — one ``is not None`` test per transmit when attached,
        #: nothing at all otherwise
        self.sanitizer = None
        #: optional correlated-loss overlay (:class:`repro.net.loss.
        #: GilbertElliottLoss`), layered *on top of* the i.i.d. model and
        #: consulted after it; ``None`` (the default) costs one ``is not
        #: None`` test per delivered frame and keeps the channel's own RNG
        #: draw sequence untouched — the overlay owns its stream.
        self.loss_process = None
        self.counters = CounterSet()
        self._endpoints: Dict[Hashable, RadioEndpoint] = {}
        #: receiver id -> {packet uid: in-flight reception at that receiver}
        self._incoming: Dict[Hashable, Dict[int, Reception]] = {}
        #: node id -> absolute time its own transmission ends (half duplex),
        #: read by carrier sense; the audience loop reads
        #: the same deadlines from the store's ``tx_until_py`` by row
        self._transmitting_until: Dict[Hashable, float] = {}
        self._store = grid.store
        #: per-transmit memos (ranges are validated and airtimes computed
        #: once per distinct value, not once per frame)
        self._valid_ranges: Dict[float, float] = {}
        self._airtimes: Dict[int, float] = {}
        self._rx_labels: Dict[str, str] = {}

    # ---------------------------------------------------------- attachment
    def attach(self, endpoint: RadioEndpoint) -> None:
        node_id = endpoint.node_id
        if node_id in self._endpoints:
            raise KeyError(f"endpoint {node_id!r} already attached")
        self._endpoints[node_id] = endpoint
        if node_id not in self.grid:
            self.grid.insert(node_id, endpoint.position)
        self.note_listening(node_id, endpoint.is_listening())

    def note_listening(self, node_id: Hashable, flag: bool) -> None:
        """Endpoint radio-state publication.

        Endpoints call this on every ``is_listening()`` transition; the
        channel mirrors it into the store's ``listening`` columns, which
        are what :meth:`transmit` filters audiences by.
        """
        store = self._store
        row = store.row_of.get(node_id)
        if row is not None:
            store.listening[row] = flag
            store.listening_py[row] = flag

    def detach(self, node_id: Hashable) -> None:
        """Remove a (dead) node from the medium entirely.

        Dropping it from the grid also invalidates every cached neighborhood
        that contained it (see :class:`NeighborCache`).
        """
        self._endpoints.pop(node_id, None)
        self._incoming.pop(node_id, None)
        if node_id in self.grid:
            self.grid.remove(node_id)

    def endpoint(self, node_id: Hashable) -> RadioEndpoint:
        return self._endpoints[node_id]

    def assert_invariants(self, now: float) -> None:
        """Sanitizer entry point (read-only): every attached endpoint's
        published listening flag equals its ``is_listening()``, since the
        audience loop and reception completion read the flag instead."""
        from ..sim.sanitizer import InvariantViolation

        store = self._store
        for node_id, endpoint in self._endpoints.items():
            row = store.row_of.get(node_id)
            published = row is not None and store.listening_py[row]
            if published != endpoint.is_listening():
                raise InvariantViolation(
                    f"node {node_id!r} published listening={published} at "
                    f"t={now!r} but is_listening() is {not published}: the "
                    "endpoint changed radio state without note_listening"
                )

    # ------------------------------------------------------- carrier sense
    def busy_until(self, node_id: Hashable) -> float:
        """CSMA carrier sense: the latest end time of any activity this node
        can sense, its own transmissions plus every frame currently arriving
        at it.  The medium is busy while this is later than now."""
        busy = self._transmitting_until.get(node_id, 0.0)
        active = self._incoming.get(node_id)
        if active:
            for reception in active.values():
                if reception.end_time > busy:
                    busy = reception.end_time
        return busy

    # -------------------------------------------------------- transmission
    def transmit(self, sender_id: Hashable, packet: Packet, tx_range: float) -> None:
        """Broadcast ``packet`` from ``sender_id`` reaching ``tx_range`` meters.

        Delivery (or corruption) is resolved when the frame's airtime ends.
        """
        validated = self._valid_ranges.get(tx_range)
        if validated is None:
            validated = self._valid_ranges[tx_range] = self.radio.validate_tx_range(
                tx_range
            )
        tx_range = validated
        sender = self._endpoints.get(sender_id)
        if sender is None:
            raise KeyError(f"unknown sender {sender_id!r}")
        now = self.sim.now
        if self.sanitizer is not None:
            self.sanitizer.on_transmit(sender, now)
        size = packet.size_bytes
        airtime = self._airtimes.get(size)
        if airtime is None:
            airtime = self._airtimes[size] = self.radio.airtime(size)
        end = now + airtime
        # Counters are bumped through the CounterSet's own dict, at the same
        # moments as ``incr`` would (their insertion order is output).
        counts = self.counters._counts
        counts["frames_sent"] += 1

        # Half duplex: transmitting corrupts anything the sender was receiving
        # and blocks reception until the transmission ends.
        store = self._store
        tx_until = store.tx_until_py
        transmitting = self._transmitting_until
        prior = transmitting.get(sender_id, 0.0)
        deadline = end if end > prior else prior
        transmitting[sender_id] = deadline
        tx_until[store.row_of[sender_id]] = deadline
        own_incoming = self._incoming.get(sender_id)
        if own_incoming:
            for reception in own_incoming.values():
                reception.corrupted = True

        if self.energy_hook is not None:
            self.energy_hook(sender_id, "tx", airtime, packet)

        # Candidates as parallel store-row / distance lists in canonical
        # (distance, insertion index) order.
        neighbors = self.neighbors
        if sender_id in self.grid:
            entry = neighbors.columnar_entry(sender_id, tx_range)
            rows = entry[2]
            if rows is not None:
                dists = entry[3]
            else:
                # Large audience: one mask drops the sleepers before any
                # per-candidate work (order preserved).
                rows = entry[0]
                rows, dists = neighbors.row_distances(
                    sender.position, rows[store.listening[rows]]
                )
        else:
            # The tx charge above killed the sender, detaching it from the
            # grid: resolve its audience from its position, uncached.
            row_of = store.row_of
            pairs = neighbors.neighbors_at(sender.position, tx_range, exclude=sender_id)
            rows = [row_of[node_id] for node_id, _ in pairs]
            dists = [dist for _, dist in pairs]

        uid = packet.uid
        incoming = self._incoming
        tracer = self.tracer
        listening = store.listening_py
        ids = store.ids
        receivers: List[Hashable] = []
        n_hd = 0
        for row, dist in zip(rows, dists):
            if not listening[row]:
                continue
            node_id = ids[row]
            if tx_until[row] > now:
                # Receiver is itself on the air: frame is lost to it.
                n_hd += 1
                if tracer is not None:
                    tracer.emit(DROP, now, node_id, "half_duplex")
                continue
            reception = Reception(packet, end, dist)
            active = incoming.get(node_id)
            if active is None:
                incoming[node_id] = {uid: reception}
            else:
                if active:
                    # Overlap at this receiver: everything involved corrupts.
                    reception.corrupted = True
                    corrupted_now = 1
                    for other in active.values():
                        if not other.corrupted:
                            other.corrupted = True
                            counts["collisions"] += 1
                            corrupted_now += 1
                    counts["collisions"] += 1
                    if tracer is not None:
                        tracer.emit(
                            COLLISION, now, node_id, corrupted_now
                        )
                active[uid] = reception
            receivers.append(node_id)
        if n_hd:
            counts["half_duplex_losses"] += n_hd

        if not receivers:
            # Nobody will hear this frame: the tx-side energy and counters
            # are already charged above, so skip scheduling a completion
            # event outright.
            return
        kind = packet.kind
        label = self._rx_labels.get(kind)
        if label is None:
            label = self._rx_labels[kind] = f"rx:{kind}"
        self.sim.schedule(
            airtime,
            self._complete,
            sender_id,
            packet,
            receivers,
            airtime,
            priority=PRIORITY_HIGH,
            label=label,
        )

    # ---------------------------------------------------------- completion
    def _complete(
        self,
        sender_id: Hashable,
        packet: Packet,
        receivers: List[Hashable],
        airtime: float,
    ) -> None:
        uid = packet.uid
        now = self.sim.now
        incoming = self._incoming
        endpoints = self._endpoints
        store = self._store
        row_of = store.row_of
        listening = store.listening_py
        counts = self.counters._counts
        energy_hook = self.energy_hook
        tracer = self.tracer
        loss_rate = self.loss_rate
        loss_process = self.loss_process
        rng = self.rng
        radio = self.radio
        # The stock radio without irregularity is a pure power law; inlining
        # it here skips a method call per delivered frame.  Any subclass (or
        # jittered attenuation) still goes through ``radio.rssi``.
        plain_rssi = type(radio) is RadioModel and radio.irregularity == 0.0
        neg_alpha = -radio.path_loss_exponent
        for node_id in receivers:
            active = incoming.get(node_id)
            if active is None:
                continue
            # The emptied per-receiver dict is kept for reuse by the next
            # frame (receivers hear frames repeatedly; churning dicts costs
            # an allocation per reception).  ``detach`` drops the whole entry.
            reception = active.pop(uid, None)
            if reception is None:
                continue
            endpoint = endpoints.get(node_id)
            if endpoint is None or not listening[row_of[node_id]]:
                # Receiver died or slept mid-frame (the published flag is
                # the endpoint's state: it reports every change).
                counts["aborted_receptions"] += 1
                if tracer is not None:
                    tracer.emit(DROP, now, node_id, "aborted")
                continue
            if energy_hook is not None:
                energy_hook(node_id, "rx", airtime, packet)
                # The rx charge may have killed the receiver: its death
                # publishes the radio off before it detaches.
                row = row_of.get(node_id)
                if row is None or not listening[row]:
                    counts["aborted_receptions"] += 1
                    if tracer is not None:
                        tracer.emit(DROP, now, node_id, "aborted")
                    continue
            if reception.corrupted:
                continue
            if loss_rate > 0 and rng.random() < loss_rate:
                counts["random_losses"] += 1
                if tracer is not None:
                    tracer.emit(DROP, now, node_id, "random")
                continue
            if loss_process is not None and loss_process.drop(now):
                counts["bursty_losses"] += 1
                if tracer is not None:
                    tracer.emit(DROP, now, node_id, "bursty")
                continue
            dist = reception.dist
            if plain_rssi:
                rssi = dist**neg_alpha if dist > 1e-9 else float("inf")
            else:
                rssi = radio.rssi(dist, rng)
            counts["frames_delivered"] += 1
            endpoint.on_packet(packet, rssi, dist)
