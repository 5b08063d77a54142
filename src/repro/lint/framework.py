"""The pluggable AST-checker framework behind ``peas-lint``.

Dependency-free by design (stdlib ``ast`` only): the linter must run in the
same minimal environment as the simulator itself, and in CI before any
optional tooling is installed.

Writing a checker
-----------------
Subclass :class:`Checker`, set the class attributes, implement
:meth:`Checker.check`, and decorate with :func:`register`::

    @register
    class NoEvalChecker(Checker):
        rule = "X999"
        name = "no-eval"
        category = CATEGORY_DETERMINISM
        description = "eval() hides stochastic control flow"

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "eval"):
                    yield ctx.violation(self, node, "call eval() nowhere")

Checkers are stateless; one instance lints many files.  Scope a rule to a
subtree with :meth:`Checker.applies_to` (see :data:`SIM_SCOPED_PREFIXES`
for the determinism-critical packages).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Type

from .violations import Violation

__all__ = [
    "Checker",
    "FileContext",
    "LintError",
    "register",
    "all_checkers",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "SIM_SCOPED_PREFIXES",
]

#: Packages whose code runs *inside* the simulation: set iteration (D104)
#: here breaks seed-reproducibility.
SIM_SCOPED_PREFIXES = (
    "repro/sim/",
    "repro/net/",
    "repro/core/",
    "repro/energy/",
    "repro/routing/",
    "repro/coverage/",
    "repro/sensing/",
    "repro/baselines/",
    "repro/failures/",
    "repro/faults/",
    "repro/protocols/",
    "repro/harness/",
)


class LintError(RuntimeError):
    """Raised on linter misuse (unknown rule selection, unreadable root)."""


class FileContext:
    """Everything a checker may want to know about the file being linted."""

    def __init__(
        self, path: Path, rel_path: str, source: str, tree: ast.Module
    ) -> None:
        self.path = path
        #: POSIX-style path relative to the lint root (fingerprint input)
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def violation(self, checker: "Checker", node: ast.AST, message: str) -> Violation:
        """Build a :class:`Violation` anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule=checker.rule,
            name=checker.name,
            category=checker.category,
            path=self.rel_path,
            line=lineno,
            col=col,
            message=message,
            source_line=self.source_line(lineno),
        )


class Checker:
    """Base class for one lint rule."""

    rule: str = ""
    name: str = ""
    category: str = ""
    description: str = ""

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on ``rel_path`` (POSIX, lint-root-relative)."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError

    @classmethod
    def in_sim_scope(cls, rel_path: str) -> bool:
        """True when the file belongs to a determinism-critical package."""
        return any(prefix in rel_path for prefix in SIM_SCOPED_PREFIXES)


_REGISTRY: List[Type[Checker]] = []


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the default rule set."""
    if not cls.rule or not cls.category:
        raise LintError(f"checker {cls.__name__} must define rule and category")
    if any(existing.rule == cls.rule for existing in _REGISTRY):
        raise LintError(f"duplicate rule id {cls.rule}")
    _REGISTRY.append(cls)
    return cls


def all_checkers(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Checker]:
    """Instantiate the registered rule set, optionally filtered.

    ``select``/``ignore`` accept rule ids (``D102``) or whole categories
    (``determinism``).
    """
    # Import for registration side effects; late so the modules can import us.
    from . import rules_determinism, rules_flow  # noqa: F401

    def matches(cls: Type[Checker], tokens: Sequence[str]) -> bool:
        return cls.rule in tokens or cls.category in tokens or cls.name in tokens

    known = {token for cls in _REGISTRY for token in (cls.rule, cls.category, cls.name)}
    for token in list(select or []) + list(ignore or []):
        if token not in known:
            raise LintError(f"unknown rule or category {token!r}")
    chosen = _REGISTRY
    if select:
        chosen = [cls for cls in chosen if matches(cls, select)]
    if ignore:
        chosen = [cls for cls in chosen if not matches(cls, ignore)]
    return [cls() for cls in chosen]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` in sorted order."""
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )


def _relativize(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    return rel.as_posix()


def lint_file(
    path: Path, checkers: Sequence[Checker], root: Optional[Path] = None
) -> List[Violation]:
    """Lint one file; a syntactically invalid file is itself a finding."""
    root = root if root is not None else Path.cwd()
    rel_path = _relativize(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule="E000",
                name="syntax-error",
                category="error",
                path=rel_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                source_line="",
            )
        ]
    ctx = FileContext(path, rel_path, source, tree)
    findings: List[Violation] = []
    for checker in checkers:
        if checker.applies_to(rel_path):
            findings.extend(checker.check(ctx))
    return findings


def lint_paths(
    paths: Sequence[Path],
    checkers: Optional[Sequence[Checker]] = None,
    root: Optional[Path] = None,
) -> List[Violation]:
    """Lint every Python file under ``paths`` with the given rule set."""
    active = list(checkers) if checkers is not None else all_checkers()
    findings: List[Violation] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, active, root=root))
    findings.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return findings
