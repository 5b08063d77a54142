"""``peas-snapshot/1``: serialized simulation state and the restore paths.

A snapshot is one JSON document capturing everything mutable about a paused
run — engine clock and queue (as handler descriptors), every RNG stream,
protocol/node/channel state, coverage and traffic series, fault histories —
plus the scenario that produced it and provenance (code fingerprint,
config digest) so a restore can refuse state it cannot faithfully
continue.

A restore always continues the snapshot's own scenario exactly: a
checkpointed-then-resumed run produces the byte-identical ``peas-trace/1``
suffix and identical metrics to the uninterrupted run.

See ``docs/SNAPSHOTS.md`` for the format specification and contract.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..experiments.metrics import RunResult
from ..experiments.scenario import Scenario
from ..experiments.serialize import scenario_from_dict, scenario_to_dict
from ..obs.manifest import code_fingerprint, config_hash
from ..obs.tracer import Tracer
from ..sim import Simulator, SnapshotError
from .options import RunOptions

__all__ = [
    "SNAPSHOT_SCHEMA",
    "snapshot_provenance",
    "save_snapshot",
    "load_snapshot",
    "resume",
]

SNAPSHOT_SCHEMA = "peas-snapshot/1"


def snapshot_provenance(scenario: Scenario, sim: Simulator) -> Dict[str, Any]:
    """The provenance block stamped into every snapshot."""
    return {
        "code_fingerprint": code_fingerprint(),
        "config_digest": config_hash(scenario_to_dict(scenario)),
        "created_at_sim_s": sim.now,
        "created_events_executed": sim.events_executed,
    }


def save_snapshot(snapshot: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a snapshot document atomically (write-then-rename via the
    shared :func:`repro.obs.atomic.atomic_write_text` helper, so a crash
    mid-checkpoint never leaves a truncated file at the target path)."""
    from ..obs.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(snapshot) + "\n")


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and format-check a snapshot document."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    fmt = document.get("format") if isinstance(document, dict) else None
    if fmt != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"{path}: not a {SNAPSHOT_SCHEMA} document (format={fmt!r})"
        )
    return document


def _check_provenance(
    snapshot: Dict[str, Any], *, force: bool = False
) -> None:
    """Refuse snapshots whose provenance does not match this tree.

    The config digest is recomputed from the embedded scenario (corruption
    check, never skippable).  The code fingerprint must match this tree's
    :func:`~repro.obs.manifest.code_fingerprint` — the same "same code"
    identity the result store keys on, so a dirty working tree is told
    apart from the commit it sits on.  A mismatch or a missing fingerprint
    is fatal unless ``force=True`` (the restored run may then diverge from
    the snapshotting code's behavior — on your head be it).
    """
    provenance = snapshot.get("provenance", {})
    digest = config_hash(snapshot["scenario"])
    stored = provenance.get("config_digest")
    if stored is not None and stored != digest:
        raise SnapshotError(
            f"snapshot config digest {stored} does not match its embedded "
            f"scenario ({digest}); the file is corrupt or was edited"
        )
    written_by = provenance.get("code_fingerprint")
    here = code_fingerprint()
    if written_by != here and not force:
        raise SnapshotError(
            f"snapshot was written by code fingerprint {written_by} but this "
            f"tree's code fingerprint is {here}; behavior may have changed "
            "between the two source trees — pass force=True (or "
            "--force-restore) to restore anyway"
        )


def resume(
    snapshot: Union[str, Path, Dict[str, Any]],
    options: Optional[RunOptions] = None,
    *,
    tracer: Optional[Tracer] = None,
    force: bool = False,
) -> RunResult:
    """Restore a snapshot and run it to completion.

    Parameters
    ----------
    snapshot:
        A path to a ``peas-snapshot/1`` file, or an already-loaded
        document.
    options:
        Capability stack for the restored run.  Note a restored run's
        trace contains only events *from the restore point on* — prepend
        the checkpointing run's trace for the full history.
    tracer:
        Optional live tracer, as in :func:`repro.harness.run`.
    force:
        Accept a code-fingerprint provenance mismatch.
    """
    from .runner import _execute

    if not isinstance(snapshot, dict):
        snapshot = load_snapshot(snapshot)
    elif snapshot.get("format") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"not a {SNAPSHOT_SCHEMA} document "
            f"(format={snapshot.get('format')!r})"
        )
    _check_provenance(snapshot, force=force)

    def boot(live) -> None:
        live.load_snapshot(snapshot)

    return _execute(
        scenario_from_dict(snapshot["scenario"]), options, tracer, None, boot
    )
