"""Atomic file writes: the one write-then-rename helper the stack shares.

Every durable artifact the reproduction emits — ``peas-metrics/1``
exports, run and sweep manifests, engine-profile sidecars,
``peas-result/1`` store records — must never be observable in a
half-written state: a store record is what a crashed sweep resumes from,
and a truncated JSON file at the target path is strictly worse than no
file.

The recipe is the standard POSIX one: write the full payload to a
temporary file *in the target directory* (same filesystem, so the rename
is atomic), flush and fsync it, then ``os.replace`` it over the target.
Readers see either the old complete file or the new complete file, never a
mix — including readers in other processes, which is what lets pooled
sweep workers publish result-store records concurrently without locks.

The temporary name embeds the PID so concurrent writers from a process
pool never collide on the scratch file either; last rename wins, which is
correct for content-addressed records (both writers hold identical bytes).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text"]


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically; create parent dirs as needed.

    Returns the target as a :class:`~pathlib.Path`.  On any failure the
    target is left untouched (the scratch file is best-effort removed).
    """
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return target
