"""The registry of hot functions the hot-path hygiene rules police.

Two tiers:

* :data:`HOT_FUNCTIONS` — per-frame / per-event protocol functions.  Trace
  emits here must be guarded by the ``is not None`` normalization idiom
  (see :meth:`repro.obs.tracer.Tracer.active`), so tracing-off costs one
  pointer comparison.
* :data:`ENGINE_FAST_LOOPS` — the event-kernel dispatch loops themselves.
  These additionally must not allocate f-strings or dict/comprehension
  displays outside error paths and ``is None`` slow branches (memo misses).

Keys are path *suffixes* matched against lint-root-relative POSIX paths, so
the registry works whether the tree is linted as ``src/repro/...`` or
installed as ``repro/...``.

Ad-hoc additions: end a ``def`` line with ``# peas-lint: hot`` to subject
that function to the :data:`HOT_FUNCTIONS` rules, or ``# peas-lint:
fast-loop`` for the stricter allocation rules, without editing this table.

The registry is self-checked: ``tests/unit/test_hotpaths_registry.py``
asserts every suffix matches a real file and every qualname resolves to a
real ``def``, so refactors that move or rename a registered function fail
fast instead of silently un-policing it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

__all__ = [
    "HOT_FUNCTIONS",
    "ENGINE_FAST_LOOPS",
    "HOT_MARKER",
    "FAST_LOOP_MARKER",
    "hot_functions_for",
    "fast_loops_for",
]

HOT_MARKER = "# peas-lint: hot"
FAST_LOOP_MARKER = "# peas-lint: fast-loop"

HOT_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "repro/sim/engine.py": frozenset({
        "Simulator.run", "Simulator._run_profiled", "Simulator.step",
    }),
    "repro/net/channel.py": frozenset({
        "BroadcastChannel.transmit", "BroadcastChannel._complete",
    }),
    "repro/net/columnar.py": frozenset({
        "ColumnarSpatialGrid.query_rows",
        "ColumnarSpatialGrid.within",
        "ColumnarSpatialGrid.nearest",
    }),
    "repro/net/neighbors.py": frozenset({
        "NeighborCache.columnar_entry",
        "NeighborCache.neighbors_with_distance",
        "NeighborCache.row_distances",
    }),
    "repro/coverage/grid.py": frozenset({
        "CoverageGrid._fold",
        "CoverageGrid._disk_flat_index",
    }),
    "repro/core/node.py": frozenset({
        "PEASNode._wake",
        "PEASNode._send_probe",
        "PEASNode._on_probe",
        "PEASNode._send_reply",
        "PEASNode._on_reply",
    }),
    "repro/core/protocol.py": frozenset({"PEASNetwork._energy_hook"}),
    "repro/obs/metrics.py": frozenset({
        "Counter.inc", "Gauge.set_max", "Histogram.observe",
    }),
}

ENGINE_FAST_LOOPS: Dict[str, FrozenSet[str]] = {
    "repro/sim/engine.py": frozenset({
        "Simulator.run", "Simulator._run_profiled",
    }),
}


def _registered(table: Dict[str, FrozenSet[str]], rel_path: str) -> Set[str]:
    names: Set[str] = set()
    for suffix, qualnames in table.items():
        if rel_path.endswith(suffix):
            names |= qualnames
    return names


def hot_functions_for(rel_path: str) -> Set[str]:
    """Registered hot-function qualnames for one file (markers excluded)."""
    return _registered(HOT_FUNCTIONS, rel_path)


def fast_loops_for(rel_path: str) -> Set[str]:
    """Registered fast-loop qualnames for one file (markers excluded)."""
    return _registered(ENGINE_FAST_LOOPS, rel_path)
