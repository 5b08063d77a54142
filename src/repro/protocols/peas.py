"""PEAS as a registry entry: the default protocol under the run harness.

:func:`build_network` (moved here from ``repro.experiments.runner``, which
re-exports it) constructs the deployed :class:`~repro.core.PEASNetwork`;
:class:`PeasRun` adapts it to the generic :class:`ProtocolRun` surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Optional

from ..core import PEASNetwork
from ..net import PACKET_SIZE_BYTES, DEPLOYMENTS, Field, RadioModel
from ..net.mac import window_layout
from ..routing import WorkingTopology
from .base import ProtocolRun, ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..energy import EnergyReport
    from ..experiments.scenario import Scenario
    from ..obs.tracer import Tracer
    from ..sim import RngRegistry, Simulator

__all__ = ["build_network", "PeasRun", "PEAS_SPEC"]


def build_network(
    scenario: "Scenario",
    sim: "Simulator",
    rngs: "RngRegistry",
    tracer: Optional["Tracer"] = None,
) -> PEASNetwork:
    """Construct the deployed PEAS network for a scenario (no metrics wiring)."""
    field = Field(*scenario.field_size)
    deploy = DEPLOYMENTS[scenario.deployment]
    positions = deploy(field, scenario.num_nodes, rngs.stream("deployment"))
    radio = RadioModel(
        bitrate_bps=scenario.bitrate_bps,
        max_range_m=scenario.comm_range_m,
        irregularity=scenario.rssi_irregularity,
    )
    # With traffic enabled, the source and sink stations participate as
    # anchored permanent workers (they are nodes of the network, §5.2);
    # their REPLYs keep nearby sleepers in reserve for later generations.
    anchors = (scenario.source, scenario.sink) if scenario.with_traffic else ()
    return PEASNetwork(
        sim,
        field,
        positions,
        scenario.config,
        rngs,
        radio=radio,
        profile=scenario.profile,
        loss_rate=scenario.loss_rate,
        anchors=anchors,
        tracer=tracer,
    )


class PeasRun(ProtocolRun):
    """The paper's protocol behind the generic harness interface."""

    def __init__(
        self,
        scenario: "Scenario",
        sim: "Simulator",
        rngs: "RngRegistry",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.network = build_network(scenario, sim, rngs, tracer=tracer)

    def start(self) -> None:
        self.network.start()

    def topology(self, scenario: "Scenario") -> WorkingTopology:
        # Reuse the protocol's own spatial index and neighbor cache so
        # routing shares the stationary-topology fast path.
        return WorkingTopology(
            self.network.grid,
            comm_range=scenario.comm_range_m,
            neighbors=self.network.neighbors,
        )

    def total_wakeups(self) -> int:
        return self.network.counters.get("wakeups")

    def energy_overhead_j(self, energy: "EnergyReport") -> float:
        return energy.overhead_j

    def channel_counters(self) -> Dict[str, int]:
        return self.network.channel.counters.as_dict()

    def report_path_hook(
        self, scenario: "Scenario"
    ) -> Optional[Callable[[list], None]]:
        if not scenario.charge_data_energy:
            return None
        network = self.network
        airtime = network.radio.airtime(scenario.report_size_bytes)
        tx_j = network.profile.frame_energy("tx", airtime)
        rx_j = network.profile.frame_energy("rx", airtime)

        def path_hook(path: list, _network: Any = network) -> None:
            # Each hop: the forwarder transmits, the next node receives.
            # Anchors are externally powered; skip their batteries.
            now = _network.sim.now
            for sender, receiver in zip(path, path[1:] + [None]):
                node = _network.nodes[sender]
                if not node.anchor and node.alive:
                    node.charge_frame(now, "data_tx", tx_j)
                if receiver is None:
                    continue
                peer = _network.nodes[receiver]
                if not peer.anchor and peer.alive:
                    peer.charge_frame(now, "data_rx", rx_j)

        return path_hook

    def state_dict(self) -> Dict[str, Any]:
        return {"network": self.network.state_dict()}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.network.load_state(state["network"])

    def fault_capabilities(self) -> FrozenSet[str]:
        # PEAS nodes are stun/skew-capable and own a broadcast channel:
        # every registered fault model applies.
        from ..faults.plan import FAULT_KINDS

        return frozenset(FAULT_KINDS)

    def mac_layout(self, scenario: "Scenario") -> Dict[str, Any]:
        config = scenario.config
        airtime = self.network.radio.airtime(PACKET_SIZE_BYTES)
        return window_layout(
            config.num_probes,
            airtime,
            config.probe_gap_s,
            config.probe_window_s,
            config.reply_guard_s,
        )


PEAS_SPEC = ProtocolSpec(
    name="peas",
    kind="peas",
    description="Probing Environment and Adaptive Sleeping (the paper's protocol)",
    build=PeasRun,
)
