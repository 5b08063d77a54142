"""Cross-run comparison: the review tool behind ``peas-repro inspect --diff``.

Every telemetry-enabled sweep leaves a self-describing record behind — a
``peas-sweep-manifest/1`` provenance file plus a ``peas-metrics/1``
export.  :func:`diff_runs` loads two such records and reports what moved:

* **provenance drift** — code fingerprint, config digest, protocols, run
  counts (the first thing to check before trusting any metric delta: a
  lifetime "regression" against a different config is not a regression);
* **metric deltas** — every instrument present in either export, matched
  by ``(name, labels)``: counters and gauges by value, histograms by
  mean (sum/count), each with absolute and relative change.

:func:`render_diff` turns that into the terminal report perf/protocol PRs
paste into review: lifetime and coverage movement first, then energy by
category, then the biggest counter movers, then one-sided metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .metrics import load_metrics_file

__all__ = ["RunRecord", "MetricDelta", "RunDiff", "load_run", "diff_runs", "render_diff"]

#: manifest fields compared for drift, in report order
_DRIFT_FIELDS = (
    "code_fingerprint", "config_digest", "label", "protocols", "runs", "ok", "errors",
)

#: counters excluded from the "top movers" table (reported elsewhere or
#: meta-level bookkeeping that moves with every run)
_MOVER_EXCLUDES = (
    "peas_energy_joules_total",
    "peas_sweep_wall_seconds",
)


@dataclass
class RunRecord:
    """One recorded run: its manifest, export header, and samples."""

    path: Path
    manifest: Dict[str, Any]
    header: Dict[str, Any]
    #: (name, sorted label items) -> sample dict
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Dict[str, Any]]

    @property
    def label(self) -> str:
        return str(
            self.manifest.get("label") or self.header.get("label") or self.path
        )


def load_run(path: Union[str, Path]) -> RunRecord:
    """Load one recorded run for diffing.

    ``path`` may be a telemetry output directory (containing
    ``metrics.ndjson`` and ``manifest.json``) or the ``metrics.ndjson``
    file itself (the manifest is looked up next to it; a missing manifest
    degrades to provenance-free diffing rather than failing).
    """
    path = Path(path)
    if path.is_dir():
        metrics_path = path / "metrics.ndjson"
        manifest_path = path / "manifest.json"
    else:
        metrics_path = path
        manifest_path = path.parent / "manifest.json"
    if not metrics_path.exists():
        raise FileNotFoundError(
            f"{path}: no metrics export found (expected {metrics_path})"
        )
    header, raw_samples = load_metrics_file(metrics_path)
    manifest: Dict[str, Any] = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    samples = {
        (
            sample["name"],
            tuple(sorted(sample.get("labels", {}).items())),
        ): sample
        for sample in raw_samples
    }
    return RunRecord(
        path=path, manifest=manifest, header=header, samples=samples
    )


@dataclass
class MetricDelta:
    """One matched instrument's movement between two runs."""

    name: str
    labels: Dict[str, str]
    kind: str
    value_a: float
    value_b: float
    #: histogram deltas compare means; observation counts ride along
    count_a: Optional[int] = None
    count_b: Optional[int] = None

    @property
    def delta(self) -> float:
        return self.value_b - self.value_a

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent (``None`` when A is zero)."""
        if self.value_a == 0:
            return None
        return (self.value_b - self.value_a) / abs(self.value_a) * 100.0

    def describe(self) -> str:
        label_str = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        name = f"{self.name}{{{label_str}}}" if label_str else self.name
        pct = self.pct
        pct_str = f"{pct:+.1f}%" if pct is not None else "new" if self.value_b else "—"
        return (
            f"{name}: {_fmt(self.value_a)} -> {_fmt(self.value_b)} "
            f"({self.delta:+.4g}, {pct_str})"
        )


@dataclass
class RunDiff:
    """Everything that moved between two recorded runs."""

    a: RunRecord
    b: RunRecord
    #: (field, value_a, value_b) for manifest fields that differ
    drift: List[Tuple[str, Any, Any]] = field(default_factory=list)
    #: matched instruments whose value/mean moved
    changed: List[MetricDelta] = field(default_factory=list)
    #: matched instruments with identical values
    unchanged: int = 0
    #: sample keys present only in A / only in B (rendered names)
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)


def _sample_value(sample: Dict[str, Any]) -> Tuple[float, Optional[int]]:
    """Comparable scalar for one sample: value, or mean for histograms."""
    if sample["type"] == "histogram":
        count = int(sample["count"])
        mean = float(sample["sum"]) / count if count else 0.0
        return mean, count
    return float(sample["value"]), None


def _key_name(key: Tuple[str, Tuple[Tuple[str, str], ...]]) -> str:
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def diff_runs(a: RunRecord, b: RunRecord) -> RunDiff:
    """Match the two exports instrument by instrument and diff them."""
    diff = RunDiff(a=a, b=b)
    for field_name in _DRIFT_FIELDS:
        value_a = a.manifest.get(field_name)
        value_b = b.manifest.get(field_name)
        if value_a != value_b:
            diff.drift.append((field_name, value_a, value_b))
    keys_a = set(a.samples)
    keys_b = set(b.samples)
    diff.only_a = sorted(_key_name(k) for k in keys_a - keys_b)
    diff.only_b = sorted(_key_name(k) for k in keys_b - keys_a)
    for key in sorted(keys_a & keys_b):
        sample_a = a.samples[key]
        sample_b = b.samples[key]
        value_a, count_a = _sample_value(sample_a)
        value_b, count_b = _sample_value(sample_b)
        if value_a == value_b and count_a == count_b:
            diff.unchanged += 1
            continue
        diff.changed.append(
            MetricDelta(
                name=key[0],
                labels=dict(key[1]),
                kind=sample_a["type"],
                value_a=value_a,
                value_b=value_b,
                count_a=count_a,
                count_b=count_b,
            )
        )
    return diff


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _section(
    lines: List[str], title: str, deltas: List[MetricDelta], limit: Optional[int] = None
) -> None:
    if not deltas:
        return
    lines.append(f"  {title}:")
    shown = deltas if limit is None else deltas[:limit]
    for delta in shown:
        lines.append(f"    {delta.describe()}")
    if limit is not None and len(deltas) > limit:
        lines.append(f"    ... and {len(deltas) - limit} more")


def render_diff(diff: RunDiff, movers_limit: int = 10) -> str:
    """The terminal report: drift first, then grouped metric movement."""
    a, b = diff.a, diff.b
    lines = [f"run diff: A={a.label} ({a.path})  vs  B={b.label} ({b.path})"]
    if diff.drift:
        lines.append("  provenance drift:")
        for field_name, value_a, value_b in diff.drift:
            lines.append(f"    {field_name}: {value_a!r} -> {value_b!r}")
    else:
        lines.append("  provenance: identical (same code fingerprint + config digest)")

    lifetimes = [
        d for d in diff.changed
        if d.name in (
            "peas_coverage_lifetime_seconds",
            "peas_delivery_lifetime_seconds",
            "peas_run_sim_time_seconds",
        )
    ]
    energy = [d for d in diff.changed if d.name == "peas_energy_joules_total"]
    gauges = [
        d for d in diff.changed
        if d.kind == "gauge" and d not in lifetimes
    ]
    movers = sorted(
        (
            d for d in diff.changed
            if d.kind == "counter" and d.name not in _MOVER_EXCLUDES
        ),
        key=lambda d: -abs(d.pct if d.pct is not None else 100.0),
    )
    shown = set(map(id, lifetimes + energy + movers + gauges))
    other = [d for d in diff.changed if id(d) not in shown]
    _section(lines, "lifetime / coverage (histogram means)", lifetimes)
    _section(lines, "energy by category (J)", energy)
    _section(lines, "top counter movers", movers, limit=movers_limit)
    _section(lines, "gauges", gauges, limit=movers_limit)
    _section(lines, "other", other, limit=movers_limit)
    if diff.only_a:
        lines.append(f"  only in A: {', '.join(diff.only_a[:6])}"
                     + (f" (+{len(diff.only_a) - 6} more)" if len(diff.only_a) > 6 else ""))
    if diff.only_b:
        lines.append(f"  only in B: {', '.join(diff.only_b[:6])}"
                     + (f" (+{len(diff.only_b) - 6} more)" if len(diff.only_b) > 6 else ""))
    lines.append(
        f"  {len(diff.changed)} metrics moved, {diff.unchanged} unchanged"
    )
    return "\n".join(lines)
