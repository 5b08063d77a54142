"""Network-wide energy accounting for the Table 1 overhead analysis.

The paper reports (Table 1) the *energy overhead* of PEAS — all energy spent
on PROBE/REPLY transmission and reception plus the idle listening a probing
node performs while waiting for REPLYs — and its ratio to total consumption.
This module aggregates per-node batteries into those two numbers.

Overhead categories (charged by the PEAS node implementation):

* ``probe_tx`` / ``probe_rx`` — PROBE frames on the air;
* ``reply_tx`` / ``reply_rx`` — REPLY frames on the air;
* ``probe_idle`` — the prober's listening window (paper: 100 ms/wakeup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .battery import NodeBattery

__all__ = [
    "OVERHEAD_CATEGORIES",
    "EnergyReport",
    "frame_category",
    "summarize_energy",
]

OVERHEAD_CATEGORIES: Tuple[str, ...] = (
    "probe_tx",
    "probe_rx",
    "reply_tx",
    "reply_rx",
    "probe_idle",
)

#: frame kinds with dedicated accounting categories; anything else (GRAB
#: reports, baseline beacons) is data-plane traffic.
_CONTROL_KINDS = {"PROBE": "probe", "REPLY": "reply"}


def frame_category(kind: str, direction: str) -> str:
    """Accounting category for a frame of ``kind`` seen in ``direction``.

    The single source of the ``probe_tx`` / ``reply_rx`` / ``data_tx``...
    naming used by battery attribution, Table 1 aggregation and the trace
    pipeline's ``energy`` events.  The per-frame energy hook memoizes it
    (:class:`repro.core.protocol.PEASNetwork`).
    """
    return f"{_CONTROL_KINDS.get(kind, 'data')}_{direction}"


@dataclass
class EnergyReport:
    """Aggregated energy figures for one simulation run."""

    total_consumed_j: float
    overhead_j: float
    by_category: Dict[str, float] = field(default_factory=dict)

    @property
    def overhead_ratio(self) -> float:
        """Overhead / total consumption; the paper's Table 1 right column."""
        if self.total_consumed_j <= 0:
            return 0.0
        return self.overhead_j / self.total_consumed_j

    def format_row(self, label: str) -> str:
        return (
            f"{label:>12}  overhead={self.overhead_j:8.2f}J  "
            f"ratio={self.overhead_ratio * 100:6.3f}%"
        )


def summarize_energy(
    batteries: Iterable[NodeBattery],
    now: float,
    overhead_categories: Tuple[str, ...] = OVERHEAD_CATEGORIES,
) -> EnergyReport:
    """Fold per-node batteries into a network :class:`EnergyReport`."""
    total = 0.0
    by_category: Dict[str, float] = {}
    for battery in batteries:
        total += battery.consumed(now)
        for category, joules in battery.by_category.items():
            by_category[category] = by_category.get(category, 0.0) + joules
    overhead = sum(by_category.get(c, 0.0) for c in overhead_categories)
    return EnergyReport(
        total_consumed_j=total, overhead_j=overhead, by_category=by_category
    )
