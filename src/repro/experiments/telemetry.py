"""Sweep-scale telemetry: live progress and exports.

``run_sweep`` executes a seed battery in silence by default.  A
:class:`SweepTelemetry` attached to it adds two things, none of which
touches simulation state:

1. **Live progress.**  The sweep executor runs in the parent process and
   reports every fact as it decides it: each run's final outcome (with
   the pid of the pool worker that produced it), each retry, each pool
   restart and each store replay.  The session keeps those counts in its
   :class:`~repro.obs.metrics.MetricsRegistry` instruments and folds them
   into a single status line (done/total, percentage, ETA from the
   observed run rate, workers seen, errors, the most recent run's
   coordinates), rewritten in place at a throttled cadence.

2. **Canonical exports.**  :meth:`SweepTelemetry.finish` merges every
   per-run ``result.metrics`` snapshot into the same registry, adds the
   sweep's wall time, and writes ``metrics.ndjson`` (``peas-metrics/1``),
   ``metrics.prom`` (Prometheus text exposition) and ``manifest.json``
   (``peas-sweep-manifest/1`` provenance) into the output directory — the
   inputs ``peas-repro inspect --diff`` compares.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, TextIO, Union

from ..obs.atomic import atomic_write_text
from ..obs.manifest import config_hash, git_sha, peak_rss_mb
from ..obs.metrics import MetricsRegistry, save_metrics, save_prometheus

__all__ = ["SWEEP_MANIFEST_SCHEMA", "SweepTelemetry"]

SWEEP_MANIFEST_SCHEMA = "peas-sweep-manifest/1"

#: minimum seconds between progress-line rewrites
_RENDER_PERIOD_S = 0.25


class SweepTelemetry:
    """One sweep's telemetry session: progress display + export writer.

    Parameters
    ----------
    out_dir:
        Directory receiving ``metrics.ndjson`` / ``metrics.prom`` /
        ``manifest.json`` (created on :meth:`finish`).
    label:
        Human-readable sweep name shown on the progress line and recorded
        in the export headers (e.g. ``"fig9"``).
    stream:
        Where the progress line goes; defaults to ``sys.stderr``.  Pass
        any text stream (tests use ``io.StringIO``).
    live:
        Force the in-place ``\\r`` line on or off; default auto-detects
        ``stream.isatty()`` (non-TTYs get sparse plain lines instead).
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        label: str = "sweep",
        stream: Optional[TextIO] = None,
        live: Optional[bool] = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        #: the sweep's counts live here as ``peas_sweep_*`` / ``peas_store_*``
        #: instruments; :meth:`finish` merges the per-run samples in too
        self.registry = MetricsRegistry()

        self.total = 0
        #: result-store accounting for the manifest (see note_store)
        self.store: Optional[Dict[str, int]] = None
        #: pids of the pool workers that returned a run's outcome
        self.workers_seen: set = set()
        self.current: Optional[Dict[str, Any]] = None
        self._started_at: Optional[float] = None
        self._last_render = 0.0
        self._wrote_line = False

    # --------------------------------------------------------------- counts
    def _count(self, name: str, **labels: str) -> int:
        return int(self.registry.value(name, **labels))

    @property
    def errors(self) -> int:
        """Runs that completed as a :class:`RunError`."""
        return self._count("peas_sweep_runs_total", status="error")

    @property
    def done(self) -> int:
        """Runs with a final outcome, store replays included."""
        return self._count("peas_sweep_runs_total", status="ok") + self.errors

    @property
    def retries(self) -> int:
        """Attempts after a run's first: the sum of ``attempts - 1``."""
        return self._count("peas_sweep_retries_total")

    @property
    def quarantined(self) -> int:
        """Runs that exhausted their retry budget (poison seeds)."""
        return self._count("peas_sweep_quarantined_total")

    @property
    def pool_restarts(self) -> int:
        """Process-pool respawns after worker death or run timeout."""
        return self._count("peas_sweep_pool_restarts_total")

    @property
    def store_hits(self) -> int:
        """Result-store replays served by the parent before dispatch."""
        return self._count("peas_store_hits_total")

    # ------------------------------------------------------------ lifecycle
    def start(self, total: int) -> None:
        """Begin the session for a sweep of ``total`` runs."""
        self.total = total
        self._started_at = time.time()
        self._render(force=True)

    def note_outcome(
        self, scenario: Any, error: Any = None, worker: Optional[int] = None
    ) -> None:
        """A run's final outcome, reported once per run by the executor:
        a result (``error`` is None) or its :class:`RunError`.  ``worker``
        is the pid of the pool process that returned the run's latest
        attempt (None in serial sweeps, or when no attempt came back)."""
        registry = self.registry
        registry.counter(
            "peas_sweep_runs_total", status="ok" if error is None else "error"
        ).inc()
        quarantined = error is not None and error.quarantined
        if quarantined:
            registry.counter("peas_sweep_quarantined_total").inc()
        if worker is not None:
            self.workers_seen.add(worker)
            registry.gauge("peas_sweep_workers").set_max(len(self.workers_seen))
        self._set_current(scenario)
        self._render(force=quarantined)

    def note_retry(self, scenario: Any = None) -> None:
        """The executor charged a failed run another attempt."""
        self.registry.counter("peas_sweep_retries_total").inc()
        self._set_current(scenario)
        self._render()

    def note_store_hit(self, scenario: Any = None) -> None:
        """A run replayed from the result store instead of simulating."""
        self.registry.counter("peas_sweep_runs_total", status="ok").inc()
        self.registry.counter("peas_store_hits_total").inc()
        self._render()

    def note_pool_restart(self) -> None:
        """The executor killed and re-spawned the worker pool."""
        self.registry.counter("peas_sweep_pool_restarts_total").inc()
        self._render(force=True)

    def note_store(self, misses: int, evictions: int) -> None:
        """Final result-store accounting (hits were counted as replayed)."""
        self.store = {
            "hits": self.store_hits,
            "misses": int(misses),
            "evictions": int(evictions),
        }
        if misses:
            self.registry.counter("peas_store_misses_total").inc(misses)
        if evictions:
            self.registry.counter("peas_store_evictions_total").inc(evictions)

    def _set_current(self, scenario: Any) -> None:
        if scenario is not None:
            self.current = {
                "protocol": scenario.protocol,
                "nodes": scenario.num_nodes,
                "seed": scenario.seed,
            }

    # -------------------------------------------------------------- display
    def _progress_line(self) -> str:
        elapsed = time.time() - (self._started_at or time.time())
        parts = [f"[{self.label}] {self.done}/{self.total} runs"]
        if self.total:
            parts[-1] += f" ({self.done * 100 // self.total}%)"
        if self.workers_seen:
            parts.append(f"{len(self.workers_seen)} workers")
        if self.errors:
            parts.append(f"{self.errors} errors")
        if self.store_hits:
            parts.append(f"{self.store_hits} cached")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restarts")
        parts.append(f"elapsed {elapsed:.0f}s")
        if 0 < self.done < self.total:
            eta = elapsed / self.done * (self.total - self.done)
            parts.append(f"eta {eta:.0f}s")
        if self.current:
            parts.append(
                f"{self.current.get('protocol')}/n={self.current.get('nodes')}"
                f"/seed={self.current.get('seed')}"
            )
        return " · ".join(parts)

    def _render(self, force: bool = False) -> None:
        now = time.time()
        if not force and now - self._last_render < _RENDER_PERIOD_S:
            return
        self._last_render = now
        line = self._progress_line()
        try:
            if self.live:
                self.stream.write("\r\x1b[2K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
            self._wrote_line = True
        except Exception:  # noqa: BLE001 - a dead stream must not kill runs
            pass

    def _close_line(self) -> None:
        if self.live and self._wrote_line:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:  # noqa: BLE001
                pass

    # --------------------------------------------------------------- finish
    def finish(
        self,
        scenarios: Sequence[Any],
        results: Sequence[Any],
    ) -> Dict[str, Path]:
        """Merge the per-run metrics and write the exports.

        The counts are already exact — the executor reported each run as
        it settled — so this only folds every result's ``metrics``
        snapshot into the registry and adds the sweep's wall time.
        Returns the written paths (``metrics`` / ``prometheus`` /
        ``manifest``).
        """
        wall_s = time.time() - (self._started_at or time.time())
        self._render(force=True)
        self._close_line()

        registry = self.registry
        for result in results:
            snapshot = getattr(result, "metrics", None)
            if snapshot:
                registry.merge(snapshot)
        registry.gauge("peas_sweep_wall_seconds").set_max(wall_s)
        ok = self.done - self.errors

        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._build_manifest(scenarios, ok, self.errors, wall_s)
        meta = {
            "label": self.label,
            "runs": len(results),
            "ok": ok,
            "errors": self.errors,
            "git_sha": manifest["git_sha"],
            "config_digest": manifest["config_digest"],
        }
        paths = {
            "metrics": self.out_dir / "metrics.ndjson",
            "prometheus": self.out_dir / "metrics.prom",
            "manifest": self.out_dir / "manifest.json",
        }
        save_metrics(registry, paths["metrics"], meta=meta)
        save_prometheus(registry, paths["prometheus"])
        # Through the shared write-then-rename helper (like the metrics
        # exports above): a crash mid-finish must never leave a truncated
        # manifest where a resumed sweep would read it.
        atomic_write_text(
            paths["manifest"],
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        return paths

    def _build_manifest(
        self,
        scenarios: Sequence[Any],
        ok: int,
        errors: int,
        wall_s: float,
    ) -> Dict[str, Any]:
        """Sweep-level provenance: what ``inspect --diff`` checks for drift."""
        hashes = sorted({config_hash(s) for s in scenarios})
        protocols = sorted({getattr(s, "protocol", "?") for s in scenarios})
        seeds = sorted({getattr(s, "seed", 0) for s in scenarios})
        return {
            "schema": SWEEP_MANIFEST_SCHEMA,
            "label": self.label,
            "runs": len(scenarios),
            "ok": ok,
            "errors": errors,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_restarts": self.pool_restarts,
            "store": self.store,
            "workers": len(self.workers_seen),
            "wall_s": round(wall_s, 3),
            "git_sha": git_sha(),
            "protocols": protocols,
            "seed_range": [seeds[0], seeds[-1]] if seeds else [],
            #: one hash per distinct scenario config, plus a digest of the
            #: sorted set — the single value to compare across runs
            "config_hashes": hashes,
            "config_digest": config_hash(hashes),
            "peak_rss_mb": peak_rss_mb(),
            "argv": list(sys.argv),
        }
