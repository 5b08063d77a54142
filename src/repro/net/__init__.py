"""Wireless network substrate: geometry, deployment, radio, channel, MAC.

This package implements everything below the PEAS protocol:

* :class:`~repro.net.field.Field` — the 2-D deployment area;
* :class:`~repro.net.spatial.SpatialGrid` — range queries over node
  positions, answered over the per-node arrays of
  :class:`~repro.net.columnar.ColumnarNodeStore`;
* :class:`~repro.net.neighbors.NeighborCache` — memoized neighborhoods;
* :mod:`~repro.net.deployment` — node placement generators;
* :class:`~repro.net.radio.RadioModel` — bitrate/airtime, path loss, RSSI;
* :class:`~repro.net.channel.BroadcastChannel` — shared medium with
  collisions, half-duplex and random loss;
* :mod:`~repro.net.mac` — randomized backoff / frame spreading helpers.
"""

from .channel import BroadcastChannel, RadioEndpoint, Reception
from .columnar import ColumnarNodeStore
from .deployment import (
    DEPLOYMENTS,
    clustered_deployment,
    corner_heavy_deployment,
    grid_deployment,
    uniform_deployment,
)
from .field import Field, Point, distance, distance_sq
from .loss import GilbertElliottLoss
from .mac import (
    probe_arrival_offset,
    probe_offsets,
    probe_span,
    reply_backoff,
    reply_delay,
    reply_phase,
    spread_transmissions,
)
from .neighbors import NeighborCache, build_neighbor_lists
from .packet import PACKET_SIZE_BYTES, Packet
from .radio import RadioModel
from .spatial import SpatialGrid

__all__ = [
    "Field",
    "Point",
    "distance",
    "distance_sq",
    "SpatialGrid",
    "ColumnarNodeStore",
    "NeighborCache",
    "build_neighbor_lists",
    "DEPLOYMENTS",
    "uniform_deployment",
    "grid_deployment",
    "clustered_deployment",
    "corner_heavy_deployment",
    "RadioModel",
    "Packet",
    "PACKET_SIZE_BYTES",
    "BroadcastChannel",
    "RadioEndpoint",
    "Reception",
    "GilbertElliottLoss",
    "reply_backoff",
    "spread_transmissions",
    "probe_offsets",
    "probe_span",
    "probe_arrival_offset",
    "reply_phase",
    "reply_delay",
]
