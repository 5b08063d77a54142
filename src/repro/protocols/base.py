"""The generic protocol interface the run harness composes against.

The paper's §5 comparisons are meaningful only because every protocol runs
under an identical substrate — same deployment, channel, coverage tracker,
failure injector, traffic generator and metrics.  A :class:`ProtocolRun`
is the narrow adapter between that shared substrate (assembled once, in
:mod:`repro.harness`) and one protocol's machinery: it owns the network
object and answers the few protocol-specific questions the harness has
(how to start, how to build a routing topology, which energy counts as
control overhead, ...).

A :class:`ProtocolSpec` is the registry entry: a name plus a builder that
instantiates the adapter for a scenario.  PEAS itself is just the default
entry (see :mod:`repro.protocols.peas`); the six baseline schemes register
through :mod:`repro.protocols.baseline`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..energy import EnergyReport
    from ..experiments.scenario import Scenario
    from ..obs.tracer import Tracer
    from ..routing import WorkingTopology
    from ..sim import RngRegistry, Simulator

__all__ = ["ProtocolRun", "ProtocolSpec"]

#: Signature of a per-report forwarding hook (see ReportTraffic.path_hook).
PathHook = Callable[[list], None]


class ProtocolRun(ABC):
    """One instantiated protocol, ready to run under the shared harness.

    Concrete adapters expose ``network`` — anything with the observer
    surface of :class:`~repro.core.protocol.PEASNetwork` (``start``,
    ``kill``, ``alive_ids``, ``all_dead``, ``counters``,
    ``working_observers``, ``energy_report``, ``nodes``, ``field``) — plus
    the protocol-specific answers below.  Everything else (coverage,
    gaps, traffic, failures, tracing, profiling, sanitizing, manifests)
    is shared harness code.
    """

    #: The population container; observers and the failure injector attach here.
    network: Any

    @abstractmethod
    def start(self) -> None:
        """Start the network and any protocol coordination processes."""

    @abstractmethod
    def topology(self, scenario: "Scenario") -> "WorkingTopology":
        """A working-set topology for GRAB routing over this network."""

    def total_wakeups(self) -> int:
        """Protocol wakeup count (§5's Fig 11 metric; 0 where undefined)."""
        return 0

    def energy_overhead_j(self, energy: "EnergyReport") -> float:
        """Joules charged to protocol coordination (Table 1's numerator)."""
        return 0.0

    def channel_counters(self) -> Dict[str, int]:
        """Radio-channel accounting, empty for protocols without a channel."""
        return {}

    def report_path_hook(self, scenario: "Scenario") -> Optional[PathHook]:
        """Optional per-report forwarding-energy hook (``None``: uncharged)."""
        return None

    def mac_layout(self, scenario: "Scenario") -> Optional[Dict[str, Any]]:
        """Control-plane MAC window layout for the manifest (``None``: n/a)."""
        return None

    def fault_capabilities(self) -> FrozenSet[str]:
        """Fault-plan model kinds this protocol can run under.

        Every network exposes ``kill``/``alive_ids``, so crashes and
        region kills always apply; the radio-level and timer-level models
        (bursty loss, transient outage, clock drift) need a channel and
        stun/skew-capable nodes, which only some protocols have.  The
        fault engine rejects unsupported plan entries at construction.
        """
        return frozenset({"crash", "region_kill"})


#: Builds an adapter for one scenario on a fresh simulator/RNG registry.
ProtocolBuilder = Callable[
    ["Scenario", "Simulator", "RngRegistry", Optional["Tracer"]], ProtocolRun
]


@dataclass(frozen=True)
class ProtocolSpec:
    """A named, registrable protocol: what ``Scenario.protocol`` points at."""

    name: str
    #: "peas" for the paper's protocol, "baseline" for §6-style comparisons.
    kind: str
    description: str
    build: ProtocolBuilder
