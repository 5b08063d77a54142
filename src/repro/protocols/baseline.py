"""The §6 baseline schemes as registry entries.

:class:`BaselineRun` adapts a :class:`~repro.baselines.base.BaselineNetwork`
plus one concrete scheduling protocol (from
:data:`~repro.baselines.runner.BASELINE_FACTORIES`, or any custom
``factory(network, rngs)``) to the generic harness interface.  Because the
substrate is shared harness code, every baseline automatically supports
tracing, profiling, sanitizing, manifests and sweeps — the capabilities
only PEAS used to have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..net import DEPLOYMENTS, Field, NeighborCache, SpatialGrid
from ..routing import WorkingTopology
from .base import ProtocolRun, ProtocolSpec
from .registry import register_protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..energy import EnergyReport
    from ..experiments.scenario import Scenario
    from ..obs.tracer import Tracer
    from ..sim import RngRegistry, Simulator

__all__ = ["BaselineRun", "baseline_spec", "register_baseline_factories"]

#: Energy categories charged by baseline coordination logic (the analogue
#: of PEAS's probe/reply control-plane overhead in Table 1 comparisons).
OVERHEAD_CATEGORIES = frozenset({"election"})


class BaselineRun(ProtocolRun):
    """A baseline scheduling protocol behind the generic harness interface."""

    def __init__(
        self,
        scenario: "Scenario",
        sim: "Simulator",
        rngs: "RngRegistry",
        factory: Callable,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        from ..baselines.base import BaselineNetwork

        field = Field(*scenario.field_size)
        self.positions = DEPLOYMENTS[scenario.deployment](
            field, scenario.num_nodes, rngs.stream("deployment")
        )
        self.network = BaselineNetwork(
            sim,
            field,
            self.positions,
            profile=scenario.profile,
            battery_rng=rngs.stream("battery"),
        )
        self.protocol = factory(self.network, rngs)

    def start(self) -> None:
        self.network.start()
        self.protocol.start()

    def topology(self, scenario: "Scenario") -> WorkingTopology:
        # Baselines have no control-plane spatial index; build one over the
        # full deployment so GRAB sees the same geometry as under PEAS.
        spatial = SpatialGrid()
        cache = NeighborCache(spatial)
        for i, p in enumerate(self.positions):
            spatial.insert(i, p)
        return WorkingTopology(
            spatial, comm_range=scenario.comm_range_m, neighbors=cache
        )

    def energy_overhead_j(self, energy: "EnergyReport") -> float:
        return sum(
            joules
            for category, joules in energy.by_category.items()
            if category in OVERHEAD_CATEGORIES
        )

    def state_dict(self) -> Dict[str, Any]:
        # The population state covers stateless schedulers (always_on,
        # duty_cycle — their pending events live in the engine queue).
        # Schedulers whose events lack handler descriptors (gaf, span, ...)
        # fail at queue serialization with a SnapshotError naming them.
        return {"network": self.network.state_dict()}

    def load_state(self, state: Dict[str, Any]) -> None:
        self.network.load_state(state["network"])


def baseline_spec(name: str, factory: Callable, description: str) -> ProtocolSpec:
    """Wrap a ``factory(network, rngs)`` baseline into a registrable spec."""

    def build(
        scenario: "Scenario",
        sim: "Simulator",
        rngs: "RngRegistry",
        tracer: Optional["Tracer"] = None,
    ) -> BaselineRun:
        return BaselineRun(scenario, sim, rngs, factory=factory, tracer=tracer)

    return ProtocolSpec(
        name=name, kind="baseline", description=description, build=build
    )


_DESCRIPTIONS: Dict[str, str] = {
    "always_on": "no conservation: every node works until its battery dies",
    "duty_cycle": "randomized independent sleeping (statistical redundancy)",
    "gaf": "GAF-style grid leader election by predicted leader lifetime",
    "synchronized": "synchronized round-based rotation (the Fig 4/5 strawman)",
    "span": "SPAN-style connectivity-driven coordinator election",
    "afeca": "AFECA-style density-scaled sleep intervals",
}


def register_baseline_factories() -> None:
    """Register every stock baseline factory (idempotent)."""
    from ..baselines.runner import BASELINE_FACTORIES
    from .registry import PROTOCOLS

    for name, factory in BASELINE_FACTORIES.items():
        if name in PROTOCOLS:
            continue
        register_protocol(
            baseline_spec(name, factory, _DESCRIPTIONS.get(name, name))
        )
