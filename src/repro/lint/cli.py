"""``peas-lint``: the standalone linter entry point.

Also exposed as ``peas-repro lint``.  Typical invocations::

    peas-lint src/                                   # full rule set
    peas-lint src/ --baseline lint-baseline.json     # CI ratchet mode
    peas-lint src/ --select determinism              # one category
    peas-lint src/ --format json --output lint.json  # machine-readable
    peas-lint --list-rules

Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .baseline import (
    BaselineError,
    load_baseline,
    partition_by_baseline,
    save_baseline,
)
from .framework import LintError, all_checkers, lint_paths
from .violations import CATEGORY_DETERMINISM, Violation

__all__ = ["main", "build_parser", "run_lint"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peas-lint",
        description=(
            "PEAS reproduction static analysis: determinism and "
            "fork safety."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="accepted-findings file; only NEW findings fail")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline to the current findings "
                             "(determinism findings are refused)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE", help="only run these rule ids / "
                        "categories (repeatable)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RULE", help="skip these rule ids / "
                        "categories (repeatable)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the findings report to FILE")
    parser.add_argument("--root", metavar="DIR", default=None,
                        help="directory paths are reported relative to "
                             "(default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _render_rules() -> str:
    lines = ["rule   category     name                    description",
             "-" * 78]
    for checker in all_checkers():
        lines.append(
            f"{checker.rule:<6} {checker.category:<12} {checker.name:<23} "
            f"{checker.description}"
        )
    return "\n".join(lines)


def _report_json(
    violations: List[Violation], new: List[Violation], baseline_used: bool
) -> str:
    return json.dumps(
        {
            "findings": [v.as_dict() for v in violations],
            "new": [v.fingerprint() for v in new],
            "baseline_used": baseline_used,
            "counts": {
                "total": len(violations),
                "new": len(new),
                "suppressed": len(violations) - len(new),
            },
        },
        indent=2,
        sort_keys=True,
    )


def run_lint(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rules())
        return 0
    try:
        checkers = all_checkers(select=args.select, ignore=args.ignore)
    except LintError as exc:
        print(f"peas-lint: {exc}", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"peas-lint: no such path(s): "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    root = Path(args.root) if args.root else Path.cwd()
    violations = lint_paths(paths, checkers, root=root)

    if args.baseline and args.update_baseline:
        try:
            save_baseline(args.baseline, violations)
        except BaselineError as exc:
            print(f"peas-lint: {exc}", file=sys.stderr)
            return 2
        print(f"baseline updated: {args.baseline} "
              f"({len(violations)} accepted finding(s))")
        return 0

    baseline: Dict[str, int] = {}
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"peas-lint: {exc}", file=sys.stderr)
            return 2
    new, suppressed = partition_by_baseline(violations, baseline)

    if args.format == "json":
        report = _report_json(violations, new, bool(args.baseline))
        print(report)
    else:
        for violation in new:
            print(violation.render())
        summary = f"{len(new)} new finding(s)"
        if args.baseline:
            summary += f", {len(suppressed)} baselined"
        summary += f", {len(violations)} total"
        print(summary)
        new_determinism = [v for v in new
                           if v.category == CATEGORY_DETERMINISM]
        if new_determinism:
            print(
                "determinism findings cannot be baselined: route the draws "
                "through RngRegistry (see docs/STATIC_ANALYSIS.md)",
                file=sys.stderr,
            )
    if args.output:
        Path(args.output).write_text(
            _report_json(violations, new, bool(args.baseline)) + "\n",
            encoding="utf-8",
        )
    return 1 if new else 0


def main(argv: Optional[List[str]] = None) -> int:
    return run_lint(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
