"""Run manifests: enough provenance to reconstruct any figure row.

A manifest is a plain JSON object serialized alongside experiment output
(``<trace>.manifest.json`` from the CLI, ``RunResult.manifest`` in memory)
recording *how* a result was produced: source revision, configuration
hash, seed and RNG stream ids, package versions, wall time and peak RSS.

Determinism note: the ``timing`` block (wall time, RSS, creation stamp) is
inherently volatile across runs; everything else is reproducible for a
fixed tree + scenario.  Consumers comparing runs for bit-identity should
drop ``timing`` (see ``tests/integration/test_perf_invariants.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

__all__ = [
    "MANIFEST_SCHEMA",
    "code_fingerprint",
    "config_hash",
    "git_sha",
    "package_versions",
    "peak_rss_mb",
    "wall_clock_s",
    "build_manifest",
    "save_manifest",
    "load_manifest",
]

MANIFEST_SCHEMA = "peas-manifest/1"


def wall_clock_s() -> float:
    """Monotonic wall-clock reading for manifest ``timing`` provenance.

    The single host-clock read the simulation stack is allowed to reach:
    harness and CLI code time *runs* (never simulated events) through this
    helper, and its value only ever lands in the volatile ``timing`` block
    that bit-identity comparisons drop.  This module is one of determinism
    rule D103's host-timing modules; a clock read anywhere outside them
    fails ``tests/unit/test_determinism_rules.py``.
    """
    return time.perf_counter()


def _canonical(obj: Any) -> Any:
    """Reduce arbitrary config values to a canonical JSON-compatible form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_hash(config: Any) -> str:
    """A stable short hash of a configuration object (e.g. a Scenario).

    Dataclasses are walked field by field, so two scenarios hash equal iff
    every parameter matches — the hash is the figure-row identity.
    """
    payload = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """A stable digest of the installed ``repro`` source tree.

    The result-store cache key must change whenever the *code* that
    produces results changes — a git SHA alone misses dirty working trees
    (exactly the state a development sweep runs in) and is unavailable in
    an installed wheel.  So the fingerprint hashes the actual bytes of
    every ``.py`` file under the package, keyed by package-relative path:
    any edit anywhere in ``repro`` yields a new fingerprint, and an
    unchanged tree yields the same one regardless of mtimes, checkout
    path, or git state.

    Memoized per process (the tree cannot change under a running sweep
    without invalidating far more than this cache).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.blake2b(digest_size=16)
        for source in sorted(package_root.rglob("*.py")):
            rel = source.relative_to(package_root).as_posix()
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


@functools.lru_cache(maxsize=None)
def git_sha() -> Optional[str]:
    """The HEAD commit of the repository this package runs from, or ``None``
    outside a git checkout (e.g. an installed wheel).

    Memoized per process like :func:`code_fingerprint`: every run's
    manifest asks, and each ``git rev-parse`` is a subprocess spawn.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def package_versions() -> Dict[str, str]:
    """Versions of the interpreter and the packages results depend on."""
    versions = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }
    try:
        from .. import __version__

        versions["repro"] = __version__
    except ImportError:  # pragma: no cover - package always importable here
        pass
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:
        pass
    return versions


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MiB (``None`` where the
    ``resource`` module is unavailable, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return round(rss / divisor, 1)


def build_manifest(
    *,
    seed: int,
    config: Any,
    protocol: Optional[str] = None,
    rng_streams: Iterable[str] = (),
    wall_time_s: Optional[float] = None,
    events_executed: Optional[int] = None,
    sim_end_time_s: Optional[float] = None,
    trace: Optional[Dict[str, Any]] = None,
    mac: Optional[Dict[str, Any]] = None,
    argv: Optional[Iterable[str]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance block for one run.

    ``protocol`` names the registered protocol that produced the run (see
    :mod:`repro.protocols`); ``trace`` carries sink accounting (path,
    emitted, dropped); ``mac`` the control-plane window layout (see
    :func:`repro.net.mac.window_layout`).
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "git_sha": git_sha(),
        "config_hash": config_hash(config),
        "seed": seed,
        "protocol": protocol,
        "rng_streams": sorted(rng_streams),
        "packages": package_versions(),
        "platform": platform.platform(),
        "timing": {
            "wall_time_s": None if wall_time_s is None else round(wall_time_s, 4),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if events_executed is not None:
        manifest["events_executed"] = events_executed
    if sim_end_time_s is not None:
        manifest["sim_end_time_s"] = sim_end_time_s
    if trace is not None:
        manifest["trace"] = dict(trace)
    if mac is not None:
        manifest["mac"] = dict(mac)
    if argv is not None:
        manifest["argv"] = list(argv)
    return manifest


def save_manifest(manifest: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a manifest next to its experiment output (atomically)."""
    from .atomic import atomic_write_text

    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read back a manifest, checking the schema marker."""
    manifest: Dict[str, Any] = json.loads(Path(path).read_text())
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {manifest.get('schema')!r}")
    return manifest
