"""``repro.lint``: dependency-free static analysis for the reproduction.

The PEAS results are only meaningful because every run is a pure function
of its seed.  This package turns the conventions that guarantee that —
draws from :class:`~repro.sim.rng.RngRegistry` streams, no wall-clock
reads in simulation code, fork-safe callbacks — into
per-file, machine-checked rules with a violations baseline.  Only what no
runtime check catches is linted: RNG-stream-name, trace-schema and
metric-name drift fail at run time (:meth:`repro.sim.rng.RngRegistry.stream`,
:func:`repro.obs.schema.validate_event`,
:class:`repro.obs.metrics.MetricsRegistry`), and hot-path cost is
measured by the perfbench ledger.

Layout:

* :mod:`repro.lint.framework` — the pluggable AST checker framework;
* :mod:`repro.lint.rules_determinism` — D1xx determinism rules;
* :mod:`repro.lint.rules_flow` — the W403 capture rule;
* :mod:`repro.lint.baseline` — the accepted-findings ratchet;
* :mod:`repro.lint.cli` — ``peas-lint`` / ``peas-repro lint``.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and how to add a rule.
"""

from .baseline import (
    BASELINE_VERSION,
    BaselineError,
    load_baseline,
    partition_by_baseline,
    save_baseline,
)
from .framework import (
    Checker,
    FileContext,
    LintError,
    all_checkers,
    iter_python_files,
    lint_file,
    lint_paths,
    register,
)
from .violations import (
    CATEGORIES,
    CATEGORY_CONCURRENCY,
    CATEGORY_DETERMINISM,
    Violation,
)

__all__ = [
    "Violation",
    "CATEGORIES",
    "CATEGORY_CONCURRENCY",
    "CATEGORY_DETERMINISM",
    "Checker",
    "FileContext",
    "LintError",
    "register",
    "all_checkers",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "BASELINE_VERSION",
    "BaselineError",
    "load_baseline",
    "save_baseline",
    "partition_by_baseline",
]
