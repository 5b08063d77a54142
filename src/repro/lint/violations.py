"""The lint finding data model.

A :class:`Violation` is one finding at one source location.  Findings carry a
content-based :meth:`Violation.fingerprint` — a hash of ``(path, rule,
offending source line)`` rather than the line *number* — so a committed
baseline survives unrelated edits that shift code up or down a file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = [
    "Violation",
    "CATEGORY_DETERMINISM",
    "CATEGORY_CONCURRENCY",
    "CATEGORIES",
]

#: Stochastic draws or wall-clock reads that can silently decouple a run
#: from its seed.  Baseline policy: these must be *fixed*, never suppressed.
CATEGORY_DETERMINISM = "determinism"
#: Objects that cannot survive the pickle boundary into pool workers.
CATEGORY_CONCURRENCY = "concurrency"

CATEGORIES = (CATEGORY_DETERMINISM, CATEGORY_CONCURRENCY)


@dataclass(frozen=True)
class Violation:
    """One lint finding.

    ``path`` is stored POSIX-style and relative to the lint root so that
    fingerprints agree across machines and checkouts.
    """

    rule: str  #: short rule id, e.g. ``"D102"``
    name: str  #: human slug, e.g. ``"underived-rng-seed"``
    category: str  #: one of :data:`CATEGORIES`
    path: str  #: lint-root-relative POSIX path
    line: int  #: 1-based line number
    col: int  #: 0-based column
    message: str
    #: stripped text of the offending source line (fingerprint input)
    source_line: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """Stable identity for baselining: path + rule + line *content*."""
        payload = f"{self.path}::{self.rule}::{self.source_line}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "name": self.name,
            "category": self.category,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule} [{self.category}] {self.message}"
        )
