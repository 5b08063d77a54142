"""``repro.store``: a content-addressed, crash-safe run-result store.

Sweeps are the expensive artifact of this reproduction: a fig-12-style
battery is hundreds of multi-minute simulations, and losing them to a
killed pool or a poison seed is exactly the fragility the PEAS paper's
*protocol* is designed to avoid.  The store makes completed runs durable
and addressable the moment they finish:

* **Key** — each record is keyed by a digest over ``(scenario
  config_hash, seed, code fingerprint, payload-affecting options)``.  The
  config hash is the figure-row identity the manifests already carry; the
  code fingerprint (see
  :func:`repro.obs.manifest.code_fingerprint`) hashes the actual source
  bytes so editing *any* simulation code invalidates the cache even in a
  dirty working tree where a git SHA would lie.
* **Durability** — records are single JSON documents written via the
  shared :func:`repro.obs.atomic.atomic_write_text` write-then-rename
  helper: a record either exists completely or not at all, and pooled
  workers may publish concurrently without locks.
* **Honesty** — every record embeds a SHA-256 digest of its canonical
  result payload.  :meth:`ResultStore.get` recomputes the digest on every
  read; a mismatch (bit rot, torn copy, hand editing) quarantines the
  file and reports a miss — a corrupt record is *recomputed, never
  trusted*.
* **Audit** — every hit / miss / put / evict / quarantine appends one
  NDJSON line to ``journal.ndjson``, the one record of these operations
  across processes, so ``peas-repro store stats`` can answer "how much
  did the cache actually save" after the fact and CI can assert a second
  sweep pass was 100% hits.

Layout under the store root::

    store.json            peas-store/1 marker + creating fingerprint
    journal.ndjson        append-only operation audit trail
    results/<key>.json    peas-result/1 records (atomic, content-keyed)
    quarantine/           corrupt files moved aside, never deleted

The full contract (key derivation, journal format, GC, retry policy of
the executor that sits on top) is specified in ``docs/STORE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .obs.atomic import atomic_write_text
from .obs.manifest import code_fingerprint, config_hash

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from .experiments.metrics import RunResult
    from .experiments.scenario import Scenario
    from .harness.options import RunOptions

__all__ = [
    "RESULT_SCHEMA",
    "STORE_SCHEMA",
    "StoreError",
    "ResultStore",
    "store_eligible",
    "options_signature",
]

STORE_SCHEMA = "peas-store/1"

#: Schema marker of one stored run record (the document wrapping the
#: serialized :class:`~repro.experiments.metrics.RunResult` payload).
RESULT_SCHEMA = "peas-result/1"

#: Journal operations the store will ever append (anything else in a
#: journal line means a foreign writer; ``stats`` reports it as unknown).
JOURNAL_OPS = ("hit", "miss", "put", "evict", "quarantine")


class StoreError(RuntimeError):
    """Raised on store misuse: missing root on attach, foreign layout."""


def store_eligible(options: Optional["RunOptions"]) -> bool:
    """Whether a run under ``options`` may be served from / saved to the store.

    Only side-effect-free runs are cacheable: a run asked to emit a trace
    file produces an artifact a cache replay would silently skip.
    ``None`` options (the harness default) are eligible.
    """
    return options is None or options.trace_path is None


def options_signature(options: Optional["RunOptions"]) -> Dict[str, bool]:
    """The payload-affecting subset of :class:`RunOptions`, for the cache key.

    ``profile`` and ``metrics`` change the result object (extra blocks on
    it); ``sanitize`` is documented bit-identical but is included anyway —
    a sanitized run vouches for more than an unsanitized one, and the
    cache must never launder that distinction.
    """
    if options is None:
        return {"profile": False, "sanitize": False, "metrics": False}
    return {
        "profile": bool(options.profile),
        "sanitize": bool(options.sanitize),
        "metrics": bool(options.metrics),
    }


def _canonical_json(payload: Any) -> str:
    """The canonical encoding digests are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_digest(result_payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical encoding of a serialized result."""
    return hashlib.sha256(_canonical_json(result_payload).encode("utf-8")).hexdigest()


class ResultStore:
    """A directory-backed store of ``peas-result/1`` records.

    Parameters
    ----------
    root:
        Store directory.  Created (with the ``peas-store/1`` marker) when
        ``create=True``; with ``create=False`` the directory must already
        be a store — that is what ``--resume`` uses to refuse typos.
    """

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.quarantine_dir = self.root / "quarantine"
        self.journal_path = self.root / "journal.ndjson"
        self.marker_path = self.root / "store.json"
        self.code_fingerprint = code_fingerprint()
        #: Files *this instance* moved to quarantine.  The journal is the
        #: record of every operation; this count only lets a sweep report
        #: its own quarantines and ``verify`` name the files it moved.
        self.quarantined = 0
        if self.marker_path.exists():
            marker = json.loads(self.marker_path.read_text(encoding="utf-8"))
            if marker.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{self.root}: not a {STORE_SCHEMA} store "
                    f"(schema={marker.get('schema')!r})"
                )
        elif create:
            for directory in (self.root, self.results_dir, self.quarantine_dir):
                directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self.marker_path,
                json.dumps(
                    {
                        "schema": STORE_SCHEMA,
                        "created_by_fingerprint": self.code_fingerprint,
                    },
                    sort_keys=True,
                )
                + "\n",
            )
        else:
            raise StoreError(f"{self.root}: no {STORE_SCHEMA} store here")
        # An attached pre-existing store may predate a subdirectory.
        for directory in (self.results_dir, self.quarantine_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    def key_for(
        self,
        scenario: "Scenario",
        options: Optional["RunOptions"] = None,
    ) -> str:
        """The content-address of one ``(scenario, seed)`` run.

        The digest covers the scenario's full ``config_hash`` (seed
        included), the source-tree fingerprint and the payload-affecting
        options signature.
        """
        from .experiments.serialize import scenario_to_dict

        payload = {
            "config_hash": config_hash(scenario_to_dict(scenario)),
            "seed": int(scenario.seed),
            "code_fingerprint": self.code_fingerprint,
            "options": options_signature(options),
        }
        return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()[:32]

    def record_path(self, key: str) -> Path:
        """Where the record for ``key`` lives (whether or not it exists)."""
        return self.results_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional["RunResult"]:
        """The stored result for ``key``, or ``None``.

        Verifies the embedded payload digest on every read.  Undecodable
        documents, schema/key mismatches, digest mismatches, and payloads
        that fail deserialization are all quarantined (moved aside and
        journaled) and reported as a miss — never trusted, never deleted.
        A verified hit is journaled here; callers journal misses via
        :meth:`note_miss` only when they go on to recompute, so a probe
        that merely checks for work does not inflate the miss count.
        """
        result = self._verified(key)
        if result is not None:
            self._journal("hit", key=key)
        return result

    def _verified(self, key: str) -> Optional["RunResult"]:
        """The record for ``key`` if it passes every read-side check;
        quarantines it otherwise.  Journals nothing but the quarantine."""
        from .experiments.serialize import result_from_dict

        path = self.record_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        except UnicodeDecodeError:
            self._quarantine(path, reason="undecodable")
            return None
        try:
            record = json.loads(text)
        except ValueError:
            self._quarantine(path, reason="undecodable")
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != RESULT_SCHEMA
            or record.get("key") != key
        ):
            self._quarantine(path, reason="schema-mismatch")
            return None
        result_payload = record.get("result")
        if (
            not isinstance(result_payload, dict)
            or _payload_digest(result_payload) != record.get("digest")
        ):
            self._quarantine(path, reason="digest-mismatch")
            return None
        try:
            result = result_from_dict(result_payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, reason="payload-invalid")
            return None
        return result

    def put(
        self,
        key: str,
        result: "RunResult",
        scenario: "Scenario",
        options: Optional["RunOptions"] = None,
    ) -> Path:
        """Persist ``result`` under ``key`` (atomic; safe from pool workers).

        Concurrent writers of the same key both hold a valid record for
        the same deterministic run, so last-rename-wins is correct.
        """
        from .experiments.serialize import result_to_dict, scenario_to_dict

        result_payload = result_to_dict(result)
        record = {
            "schema": RESULT_SCHEMA,
            "key": key,
            "config_hash": config_hash(scenario_to_dict(scenario)),
            "seed": int(scenario.seed),
            "protocol": scenario.protocol,
            "code_fingerprint": self.code_fingerprint,
            "options": options_signature(options),
            "digest": _payload_digest(result_payload),
            "result": result_payload,
        }
        path = atomic_write_text(
            self.record_path(key), json.dumps(record, sort_keys=True) + "\n"
        )
        self._journal("put", key=key)
        return path

    def note_miss(self, key: str) -> None:
        """Journal that ``key`` was absent and is being recomputed."""
        self._journal("miss", key=key)

    # ------------------------------------------------------------------
    # maintenance: stats / verify / gc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Occupancy, staleness, and the journal's lifetime tallies."""
        records = sorted(self.results_dir.glob("*.json"))
        stale = 0
        for path in records:
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                stale += 1
                continue
            if record.get("code_fingerprint") != self.code_fingerprint:
                stale += 1
        return {
            "schema": "peas-store-stats/1",
            "root": str(self.root),
            "code_fingerprint": self.code_fingerprint,
            "records": len(records),
            "record_bytes": sum(p.stat().st_size for p in records),
            "stale_records": stale,
            "quarantined_files": sum(
                1 for p in self.quarantine_dir.iterdir() if p.is_file()
            ),
            "journal": self._journal_tallies(),
        }

    def verify(self) -> Dict[str, Any]:
        """Re-verify every record; quarantine what fails.

        Runs the exact read-side checks of :meth:`get` over the whole
        store, but journals no hits: an audit is not a lookup.  Returns
        counts plus the quarantined file names; a nonzero ``quarantined``
        count is the CLI's exit-1 signal.
        """
        quarantined: List[str] = []
        checked = 0
        for path in sorted(self.results_dir.glob("*.json")):
            checked += 1
            before = self.quarantined
            self._verified(path.stem)
            if self.quarantined > before:
                quarantined.append(path.name)
        return {
            "schema": "peas-store-verify/1",
            "checked": checked,
            "ok": checked - len(quarantined),
            "quarantined": quarantined,
        }

    def gc(
        self,
        *,
        stale: bool = True,
        max_age_days: Optional[float] = None,
        drop_all: bool = False,
    ) -> Dict[str, Any]:
        """Evict records that can no longer serve a hit.

        The default policy evicts records whose ``code_fingerprint`` does
        not match the current source tree (they are unreachable — no key
        computed today can find them).  ``max_age_days`` additionally
        evicts by file age; ``drop_all`` clears the store.  Quarantined
        files are never touched: they are the corruption evidence.
        """
        evicted: List[str] = []
        now = time.time()
        for path in sorted(self.results_dir.glob("*.json")):
            evict = drop_all
            if not evict and stale:
                try:
                    record = json.loads(path.read_text(encoding="utf-8"))
                    fingerprint = record.get("code_fingerprint")
                except (OSError, ValueError):
                    fingerprint = None
                evict = fingerprint != self.code_fingerprint
            if not evict and max_age_days is not None:
                evict = (now - path.stat().st_mtime) > max_age_days * 86400.0
            if evict:
                path.unlink()
                evicted.append(path.name)
                self._journal("evict", key=path.stem)
        return {
            "schema": "peas-store-gc/1",
            "evicted": len(evicted),
            "files": evicted,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, *, reason: str) -> None:
        """Move a corrupt file aside (never delete it) and journal why."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_dir / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, destination)
        except OSError:
            return  # a concurrent reader already moved it
        self.quarantined += 1
        self._journal("quarantine", name=path.name, reason=reason)

    def _journal(self, op: str, **fields: Optional[str]) -> None:
        """Append one audit line; fsynced so a crash cannot lose the tail.

        A torn final line (crash mid-append) is tolerated by the reader:
        :meth:`_journal_tallies` counts it as ``torn`` and moves on.
        """
        entry: Dict[str, Any] = {"op": op}
        entry.update({k: v for k, v in fields.items() if v is not None})
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _journal_tallies(self) -> Dict[str, int]:
        """Lifetime operation counts parsed back out of the journal."""
        tallies: Dict[str, int] = {op: 0 for op in JOURNAL_OPS}
        tallies["torn"] = 0
        try:
            text = self.journal_path.read_text(encoding="utf-8")
        except OSError:
            return tallies
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                tallies["torn"] += 1
                continue
            op = entry.get("op") if isinstance(entry, dict) else None
            tallies[op if op in JOURNAL_OPS else "torn"] += 1
        return tallies
