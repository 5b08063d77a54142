"""The RNG-stream catalogue: every named stream the reproduction draws from.

:data:`STREAM_NAMES` is the single source of truth for the
:class:`~repro.sim.rng.RngRegistry` stream vocabulary, mirroring the
``METRIC_NAMES`` design in :mod:`repro.obs.metrics`: a **literal** dict
(keep it statically parseable — the ``W402`` lint rule reads it as AST,
never importing this module) mapping stream names to one-line descriptions
of what draws from them.

Why a catalogue at all: stream names are the seed-derivation keys
(``derive_seed(master, name)``), so a typo'd or drifting name silently
forks the RNG state of whatever component uses it — same master seed,
different draws, no error.  With the catalogue, every
``RngRegistry.stream("...")`` call site anywhere in the tree is
cross-checked statically (``peas-lint`` rule ``W402``) and the registry
self-check test (``tests/unit/test_streams_registry.py``) asserts the
catalogue and the call sites cover each other.

Families: a key ending in ``.*`` declares a dynamically-suffixed family —
``node.*`` covers ``node.0``, ``node.1``, ... — for call sites that build
the name from an f-string with that literal prefix.

Adding a stream: add its name here (alphabetical), then use it.  A name
used but not declared fails lint; a name declared but never used fails the
self-check test.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["STREAM_NAMES", "stream_declared"]

#: name -> what draws from it.  Keys ending in ``.*`` are families.
STREAM_NAMES: Dict[str, str] = {
    "afeca": "AFECA baseline: listen-window delays and adaptive sleeps",
    "analysis.connectivity": "Theorem 3.1 connectivity Monte-Carlo (CLI)",
    "analysis.estimator": "§2.2.1 k-interval estimator accuracy study (CLI)",
    "battery": "per-node initial battery energy draws",
    "channel": "broadcast-channel loss coin flips and RSSI irregularity",
    "deployment": "node placement over the field (all deployment models)",
    "duty": "duty-cycle baseline: initial phase offsets",
    "failures": "ambient §5.3 Poisson crash process (legacy stream name)",
    "faults.*": "per-plan-entry fault model streams (faults.<i>.<kind>)",
    "grab": "GRAB mesh forwarding coin flips",
    "node.*": "per-node protocol streams (probe backoffs, sleeps, phases)",
    "span": "Span baseline: backoff and rotation draws",
}


def stream_declared(name: str) -> bool:
    """Is ``name`` covered by the catalogue (exact entry or family)?"""
    if name in STREAM_NAMES:
        return True
    for key in STREAM_NAMES:
        if key.endswith(".*") and name.startswith(key[:-1]):
            return True
    return False
