"""The RNG-stream catalogue: every named stream the reproduction draws from.

:data:`STREAM_NAMES` is the single source of truth for the
:class:`~repro.sim.rng.RngRegistry` stream vocabulary, mirroring the
``METRIC_NAMES`` design in :mod:`repro.obs.metrics`: a dict mapping stream
names to one-line descriptions of what draws from them.

Why a catalogue at all: stream names are the seed-derivation keys
(``derive_seed(master, name)``), so a typo'd or drifting name silently
forks the RNG state of whatever component uses it — same master seed,
different draws, no error.  With the catalogue, the registry refuses to
create a stream whose name it does not declare
(:class:`~repro.sim.rng.UndeclaredStreamError`, raised at the call), and
the self-check test
(``tests/unit/test_streams_registry.py``) asserts the catalogue and the
call sites cover each other.

Families: a key ending in ``.*`` declares a dynamically-suffixed family —
``node.*`` covers ``node.0``, ``node.1``, ... — for call sites that build
the name from an f-string with that literal prefix.

Adding a stream: add its name here (alphabetical), then use it.  A name
used but not declared raises on first use; a name declared but never used
fails the self-check test.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    "events": "sensing target-event arrivals and dwells (detection studies)",
    "failures": "ambient §5.3 Poisson crash process (legacy stream name)",
    "faults.*": "per-plan-entry fault model streams (faults.<i>.<kind>)",
    "grab": "GRAB mesh forwarding coin flips",
    "node.*": "per-node protocol streams (probe backoffs, sleeps, phases)",
    "span": "Span baseline: backoff and rotation draws",
}

#: literal heads of the ``.*`` families (``"node."``, ...)
_FAMILY_PREFIXES: Tuple[str, ...] = tuple(
    key[:-1] for key in STREAM_NAMES if key.endswith(".*")
)


def stream_declared(name: str) -> bool:
    """Is ``name`` covered by the catalogue (exact entry or family)?"""
    return name in STREAM_NAMES or name.startswith(_FAMILY_PREFIXES)
