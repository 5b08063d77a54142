"""Unit tests for repro.net.channel.BroadcastChannel."""

import random

import pytest

from repro.net import (
    BroadcastChannel,
    NeighborCache,
    PACKET_SIZE_BYTES,
    Packet,
    RadioModel,
    SpatialGrid,
)
from repro.net.packet import packet_from_dict, packet_to_dict
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim import Simulator


class StubEndpoint:
    """Minimal RadioEndpoint capturing deliveries; publishes every change
    of ``listening`` to the channel, as the endpoint contract requires."""

    def __init__(self, channel, node_id, position, listening=True):
        self._channel = channel
        self._id = node_id
        self._position = position
        self._listening = listening
        self.received = []

    @property
    def listening(self):
        return self._listening

    @listening.setter
    def listening(self, flag):
        self._listening = flag
        self._channel.note_listening(self._id, flag)

    @property
    def node_id(self):
        return self._id

    @property
    def position(self):
        return self._position

    def is_listening(self):
        return self.listening

    def on_packet(self, packet, rssi, dist):
        self.received.append((packet, rssi, dist))


def make_channel(loss_rate=0.0, energy_hook=None, seed=1):
    sim = Simulator()
    grid = SpatialGrid()
    channel = BroadcastChannel(
        sim, grid, RadioModel(), loss_rate=loss_rate,
        rng=random.Random(seed), energy_hook=energy_hook,
    )
    return sim, channel


def attach(channel, node_id, position, listening=True):
    endpoint = StubEndpoint(channel, node_id, position, listening)
    channel.attach(endpoint)
    return endpoint


class TestDelivery:
    def test_in_range_listener_receives(self):
        sim, channel = make_channel()
        sender = attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (12.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert len(receiver.received) == 1
        packet, rssi, dist = receiver.received[0]
        assert packet.kind == "PROBE"
        assert dist == pytest.approx(2.0)
        assert rssi == pytest.approx(0.25)

    def test_out_of_range_not_delivered(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        far = attach(channel, "r", (14.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert far.received == []

    def test_sender_does_not_hear_itself(self):
        sim, channel = make_channel()
        sender = attach(channel, "s", (10.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert sender.received == []

    def test_non_listening_receiver_skipped(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        sleeper = attach(channel, "r", (11.0, 10.0), listening=False)
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert sleeper.received == []

    def test_delivery_takes_airtime(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        assert receiver.received == []  # not yet: frame still on the air
        sim.run()
        assert sim.now == pytest.approx(0.010)  # 25 B at 20 kbps
        assert len(receiver.received) == 1

    def test_broadcast_reaches_multiple(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        receivers = [attach(channel, f"r{i}", (10.0 + i * 0.5, 10.0)) for i in (1, 2, 3)]
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert all(len(r.received) == 1 for r in receivers)

    def test_receiver_sleeping_at_end_misses_frame(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.schedule(0.005, lambda: setattr(receiver, "listening", False))
        sim.run()
        assert receiver.received == []
        assert channel.counters.get("aborted_receptions") == 1

    def test_unknown_sender_rejected(self):
        sim, channel = make_channel()
        with pytest.raises(KeyError):
            channel.transmit("ghost", Packet("PROBE", "ghost"), tx_range=3.0)

    def test_tx_range_beyond_radio_max_rejected(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        with pytest.raises(ValueError):
            channel.transmit("s", Packet("PROBE", "s"), tx_range=11.0)


class TestCollisions:
    def test_overlapping_frames_collide_at_receiver(self):
        sim, channel = make_channel()
        attach(channel, "a", (10.0, 10.0))
        attach(channel, "b", (12.0, 10.0))
        victim = attach(channel, "v", (11.0, 10.0))
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        sim.schedule(0.004, channel.transmit, "b", Packet("PROBE", "b"), 3.0)
        sim.run()
        assert victim.received == []
        assert channel.counters.get("collisions") >= 2

    def test_non_overlapping_frames_both_delivered(self):
        sim, channel = make_channel()
        attach(channel, "a", (10.0, 10.0))
        attach(channel, "b", (12.0, 10.0))
        victim = attach(channel, "v", (11.0, 10.0))
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        sim.schedule(0.02, channel.transmit, "b", Packet("PROBE", "b"), 3.0)
        sim.run()
        assert len(victim.received) == 2

    def test_collision_local_to_receiver(self):
        """A receiver that hears only one of two overlapping frames decodes it."""
        sim, channel = make_channel()
        attach(channel, "a", (10.0, 10.0))
        attach(channel, "b", (20.0, 10.0))  # far from the 'near' receiver
        near_a = attach(channel, "na", (11.0, 10.0))
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        channel.transmit("b", Packet("PROBE", "b"), tx_range=3.0)
        sim.run()
        assert len(near_a.received) == 1


class TestHalfDuplex:
    def test_transmitting_node_cannot_receive(self):
        sim, channel = make_channel()
        attach(channel, "a", (10.0, 10.0))
        attach(channel, "b", (12.0, 10.0))
        a_endpoint = channel.endpoint("a")
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        channel.transmit("b", Packet("REPLY", "b"), tx_range=3.0)
        sim.run()
        assert a_endpoint.received == []
        assert channel.counters.get("half_duplex_losses") == 1

    def test_large_audience_skips_sleepers_and_transmitters(self):
        """Above the list-memo size the audience is masked by the published
        listening column; half-duplex still drops per candidate."""
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        layout = random.Random(5)
        crowd = [
            attach(
                channel,
                i,
                (10.0 + layout.uniform(-2, 2), 10.0 + layout.uniform(-2, 2)),
                listening=i % 3 != 0,
            )
            for i in range(300)
        ]
        crowd[1].listening = False  # slept after attach
        crowd[3].listening = True  # woke after attach
        # 2 is on the air (a whisper nobody hears) when s broadcasts.
        channel.transmit(2, Packet("REPLY", 2), tx_range=1e-3)
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        heard = {e.node_id for e in crowd if e.received}
        assert heard == {e.node_id for e in crowd if e.listening} - {2}
        assert channel.counters.get("half_duplex_losses") == 1

    def test_transmission_corrupts_own_ongoing_reception(self):
        sim, channel = make_channel()
        attach(channel, "a", (10.0, 10.0))
        b = attach(channel, "b", (12.0, 10.0))
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        # b starts transmitting while a's frame is in flight toward it.
        sim.schedule(0.004, channel.transmit, "b", Packet("REPLY", "b"), 3.0)
        sim.run()
        assert b.received == []


class TestRandomLoss:
    def test_zero_loss_always_delivers(self):
        sim, channel = make_channel(loss_rate=0.0)
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        for i in range(20):
            sim.schedule(i * 0.02, channel.transmit, "s", Packet("PROBE", "s"), 3.0)
        sim.run()
        assert len(receiver.received) == 20

    def test_loss_rate_drops_fraction(self):
        sim, channel = make_channel(loss_rate=0.3, seed=3)
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        n = 400
        for i in range(n):
            sim.schedule(i * 0.02, channel.transmit, "s", Packet("PROBE", "s"), 3.0)
        sim.run()
        delivered = len(receiver.received)
        assert 0.6 * n < delivered < 0.8 * n
        assert channel.counters.get("random_losses") == n - delivered

    def test_invalid_loss_rate(self):
        sim = Simulator()
        grid = SpatialGrid()
        with pytest.raises(ValueError):
            BroadcastChannel(sim, grid, RadioModel(), loss_rate=1.0)


class TestEnergyHook:
    def test_tx_and_rx_charged(self):
        charges = []
        sim, channel = make_channel(
            energy_hook=lambda nid, kind, airtime, pkt: charges.append((nid, kind))
        )
        attach(channel, "s", (10.0, 10.0))
        attach(channel, "r", (11.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert ("s", "tx") in charges
        assert ("r", "rx") in charges

    def test_rx_charged_even_for_corrupted_frames(self):
        charges = []
        sim, channel = make_channel(
            energy_hook=lambda nid, kind, airtime, pkt: charges.append((nid, kind))
        )
        attach(channel, "a", (10.0, 10.0))
        attach(channel, "b", (12.0, 10.0))
        attach(channel, "v", (11.0, 10.0))
        channel.transmit("a", Packet("PROBE", "a"), tx_range=3.0)
        channel.transmit("b", Packet("PROBE", "b"), tx_range=3.0)
        sim.run()
        assert charges.count(("v", "rx")) == 2  # listened to both, decoded none

    # Receivers at mixed distances, two of them tied, so the delivery order
    # is the canonical (distance, insertion index) order.
    LAYOUT = [("s", (10.0, 10.0)), ("far", (12.5, 10.0)), ("near", (11.0, 10.0)),
              ("tie_a", (10.0, 12.0)), ("tie_b", (8.0, 10.0)), ("out", (14.0, 10.0)),
              ("mid", (10.0, 8.5))]

    def _deliveries(self, energy_hook=None):
        """One PROBE from ``s``; the ordered (receiver, dist) delivery log."""
        log = []
        sim, channel = make_channel(
            energy_hook=None if energy_hook is None
            else lambda *args: energy_hook(channel, *args)
        )
        for node_id, position in self.LAYOUT:
            endpoint = attach(channel, node_id, position)
            endpoint.on_packet = (
                lambda packet, rssi, dist, node_id=node_id: log.append((node_id, dist))
            )
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        return log, channel

    @staticmethod
    def _die(channel, node_id):
        # What a PEAS node's death does: publish the radio off, then detach.
        channel.endpoint(node_id)._listening = False
        channel.note_listening(node_id, False)
        channel.detach(node_id)

    def test_sender_killed_by_its_own_tx_charge_reaches_the_cached_audience(self):
        """The tx charge runs before the audience is picked; a charge that
        kills the sender detaches it, so the frame goes out through the
        uncached ``neighbors_at`` branch — which must pick the same
        receivers, in the same order, at the same distances."""
        cached, _ = self._deliveries()
        branches = []

        def kill_on_first_tx(channel, node_id, direction, airtime, packet):
            if direction == "tx" and not branches:
                self._die(channel, node_id)
                branches.append(node_id in channel.grid)

        uncached, channel = self._deliveries(kill_on_first_tx)
        assert branches == [False]  # the sender had left the grid
        assert [node_id for node_id, _ in cached] == ["near", "mid", "tie_a", "tie_b", "far"]
        assert uncached == cached
        assert channel.counters.get("frames_delivered") == len(cached)

    def test_receiver_killed_by_its_rx_charge_does_not_stop_later_receivers(self):
        cached, _ = self._deliveries()
        killed = []

        def kill_first_receiver(channel, node_id, direction, airtime, packet):
            if direction == "rx" and not killed:
                self._die(channel, node_id)
                killed.append(node_id)

        log, channel = self._deliveries(kill_first_receiver)
        assert killed == ["near"]
        later = [entry for entry in cached if entry[0] != "near"]
        assert [entry for entry in log if entry[0] != "near"] == later
        # The receiver its own rx charge killed is not handed the frame and
        # counts as an aborted reception.
        assert [entry for entry in log if entry[0] == "near"] == []
        assert channel.counters.get("frames_delivered") == len(later)
        assert channel.counters.get("aborted_receptions") == 1

    def test_rx_charge_death_is_traced_as_aborted(self):
        sink = RingBufferSink()
        sim, channel = make_channel(
            energy_hook=lambda nid, kind, airtime, pkt: (
                kind == "rx" and self._die(channel, nid)
            )
        )
        channel.tracer = Tracer(sink).active()
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert receiver.received == []
        drops = [e for e in sink.events() if e["ev"] == "drop"]
        assert [(e["node"], e["why"]) for e in drops] == [("r", "aborted")]
        assert channel.counters.get("aborted_receptions") == 1

    def test_sender_killed_by_its_tx_charge_gets_no_packet(self):
        """A node whose own tx charge kills it mid-reception never gets the
        frame it was receiving, and its own frame still reaches every
        receiver in order."""
        log = []
        killed = []

        def kill_on_tx_of_s(nid, direction, airtime, packet):
            if direction == "tx" and nid == "s":
                killed.append(nid)
                self._die(channel, nid)

        cached, _ = self._deliveries()
        sim, channel = make_channel(energy_hook=kill_on_tx_of_s)
        # ``x`` sits 0.9 m from ``s``; its 1 m frame reaches ``s`` alone.
        for node_id, position in self.LAYOUT + [("x", (10.0, 10.9))]:
            endpoint = attach(channel, node_id, position)
            endpoint.on_packet = (
                lambda packet, rssi, dist, node_id=node_id:
                log.append((node_id, packet.sender))
            )
        # ``x`` starts a frame that ``s`` is receiving; ``s`` then
        # transmits, and that charge kills it.
        channel.transmit("x", Packet("PROBE", "x"), tx_range=1.0)
        sim.schedule(0.001, channel.transmit, "s", Packet("PROBE", "s"), 3.0)
        sim.run()
        assert killed == ["s"]
        assert [entry for entry in log if entry[0] == "s"] == []
        # ``x`` is still on the air (half duplex); everyone else hears ``s``.
        assert [node_id for node_id, sender in log if sender == "s"] == [
            node_id for node_id, _ in cached
        ]


class TestAttachment:
    def test_attach_duplicate_rejected(self):
        sim, channel = make_channel()
        attach(channel, "a", (1.0, 1.0))
        with pytest.raises(KeyError):
            attach(channel, "a", (2.0, 2.0))

    def test_detach_removes_from_medium(self):
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (11.0, 10.0))
        channel.detach("r")
        channel.transmit("s", Packet("PROBE", "s"), tx_range=3.0)
        sim.run()
        assert receiver.received == []

    def test_detach_is_idempotent(self):
        sim, channel = make_channel()
        attach(channel, "a", (1.0, 1.0))
        channel.detach("a")
        channel.detach("a")


class TestNeighborCacheIntegration:
    def _run_traffic(self, cache_enabled, seed=7):
        """Randomized probe traffic; returns (counters, delivery transcript)."""
        sim = Simulator()
        grid = SpatialGrid()
        cache = NeighborCache(grid, enabled=cache_enabled)
        channel = BroadcastChannel(
            sim, grid, RadioModel(), loss_rate=0.2,
            rng=random.Random(seed), neighbor_cache=cache,
        )
        layout = random.Random(99)
        endpoints = [
            attach(channel, i, (layout.uniform(0, 20), layout.uniform(0, 20)))
            for i in range(30)
        ]
        for round_start in (0.0, 50.0, 100.0):
            for endpoint in endpoints:
                sim.schedule_at(
                    round_start + endpoint.node_id * 0.5,
                    channel.transmit,
                    endpoint.node_id,
                    Packet("PROBE", endpoint.node_id),
                    3.0,
                )
        sim.run()
        transcript = [
            (e.node_id, [(p.kind, p.sender, round(d, 9)) for p, _r, d in e.received])
            for e in endpoints
        ]
        return channel.counters.as_dict(), transcript

    def test_cache_on_off_bit_identical(self):
        """Determinism invariant: cache is an optimization, never a behavior."""
        on_counters, on_transcript = self._run_traffic(cache_enabled=True)
        off_counters, off_transcript = self._run_traffic(cache_enabled=False)
        assert on_counters == off_counters
        assert on_transcript == off_transcript

    def test_traffic_actually_delivered(self):
        counters, transcript = self._run_traffic(cache_enabled=True)
        assert counters.get("frames_sent", 0) > 0
        assert counters.get("frames_delivered", 0) > 0
        assert any(received for _, received in transcript)

    def test_dead_sender_still_transmits(self):
        """A node removed from the grid (dead) may have in-flight transmits."""
        sim, channel = make_channel()
        attach(channel, "s", (10.0, 10.0))
        receiver = attach(channel, "r", (12.0, 10.0))
        channel.grid.remove("s")  # node died; endpoint not yet detached
        channel.transmit("s", Packet("REPLY", "s"), tx_range=3.0)
        sim.run()
        assert len(receiver.received) == 1
        packet, _rssi, dist = receiver.received[0]
        assert packet.kind == "REPLY"
        assert dist == pytest.approx(2.0)


class TestPacketContract:
    def test_fresh_uid_per_packet(self):
        first, second = Packet("PROBE", 1), Packet("PROBE", 1)
        assert first.uid != second.uid
        assert first != second  # frames compare by identity

    def test_defaults_and_explicit_uid(self):
        packet = Packet("REPLY", 4, payload="x", size_bytes=40, uid=12345)
        assert (packet.kind, packet.sender, packet.payload) == ("REPLY", 4, "x")
        assert (packet.size_bytes, packet.uid) == (40, 12345)
        plain = Packet("PROBE", 4)
        assert plain.payload is None and plain.size_bytes == PACKET_SIZE_BYTES

    @pytest.mark.parametrize("size", [0, -1])
    def test_non_positive_size_rejected(self, size):
        with pytest.raises(ValueError, match="size_bytes"):
            Packet("PROBE", 1, size_bytes=size)

    def test_round_trips_through_the_snapshot_codec(self):
        import repro.core  # noqa: F401 - registers the message codecs
        from repro.core.messages import ProbeMessage, ReplyMessage

        for payload in (None, ProbeMessage(3, 7, 1), ReplyMessage(2, None, 0.02, 5.5, (3, 7))):
            packet = Packet("PROBE", 3, payload=payload, size_bytes=25)
            restored = packet_from_dict(packet_to_dict(packet))
            assert restored.uid == packet.uid
            assert (restored.kind, restored.sender, restored.size_bytes) == ("PROBE", 3, 25)
            assert restored.payload == payload
