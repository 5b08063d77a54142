"""Whole-program analysis: symbol table, call graph, cached summaries.

The per-file rules (D1xx) see one AST at a time, so a helper that reads
the wall clock is invisible the moment it is *called from* sim-scoped code
instead of living in it.  This module gives the linter a project-wide
view:

* :func:`summarize_module` reduces one file to a JSON-serializable
  :class:`ModuleSummary`: its dotted module name, import bindings,
  classes/bases, per-function **call references** (what it calls) and
  **sinks** (direct wall-clock / global-random call sites, detected with
  the same matchers as D101/D103), plus its RNG stream acquisitions;
* :class:`SummaryCache` persists summaries to ``.peas-lint-cache.json``
  keyed by a content hash, so warm runs skip parsing entirely — an
  mtime-only touch is a cache hit, an edit is a miss;
* :class:`ProgramGraph` resolves call references into edges — local and
  nested defs, ``self.``/inherited methods, imported names (following
  relative imports and package ``__init__`` re-export chains) — and is
  what the W401/W402 rules in :mod:`repro.lint.rules_flow` consume;
* :class:`ProgramChecker` is the framework hook: a checker whose
  :meth:`ProgramChecker.check_program` runs once over the graph instead
  of once per file.

Resolution is deliberately conservative: only statically nameable calls
become edges (a call through a variable of unknown type does not), so the
transitive rules inherit near-zero false positives at the cost of not
chasing dynamic dispatch.  Boundaries: a ``def`` line ending in
``# peas-lint: wallclock-boundary`` declares an audited provenance-timing
helper (e.g. :func:`repro.obs.manifest.wall_clock_s`); traversal treats
it as opaque.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .framework import Checker, FileContext, iter_python_files
from .rules_determinism import (
    _CLOCK_FNS,
    _GLOBAL_RANDOM_FNS,
    _call_on_module,
    _module_aliases,
)
from .violations import Violation

__all__ = [
    "BOUNDARY_MARKER",
    "CACHE_FILENAME",
    "SUMMARY_VERSION",
    "CallRef",
    "SinkRef",
    "StreamRef",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "SummaryCache",
    "ProgramGraph",
    "ProgramChecker",
    "build_program",
    "module_name_for",
    "summarize_module",
]

#: ``def`` line marker declaring an audited wall-clock provenance helper:
#: W401 does not traverse into (or past) a marked function.
BOUNDARY_MARKER = "# peas-lint: wallclock-boundary"

#: default on-disk cache file name (created under the lint root)
CACHE_FILENAME = ".peas-lint-cache.json"

#: bump when the summary format or extraction logic changes — stale cache
#: entries from older versions are discarded wholesale
SUMMARY_VERSION = 2

SINK_WALLCLOCK = "wallclock"
SINK_GLOBAL_RANDOM = "global-random"

AnyFuncDef = Any  # ast.FunctionDef | ast.AsyncFunctionDef (py3.9-safe alias)


# --------------------------------------------------------------------------
# Summary data model (everything JSON round-trips for the cache).
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CallRef:
    """One syntactically-nameable call inside a function body."""

    kind: str  #: ``"name"`` | ``"self"`` | ``"dotted"``
    parts: Tuple[str, ...]  #: name path, e.g. ``("helper",)`` / ``("mod", "fn")``
    line: int
    text: str  #: stripped source line (violation/fingerprint anchor)

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "parts": list(self.parts),
                "line": self.line, "text": self.text}

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "CallRef":
        return CallRef(payload["kind"], tuple(payload["parts"]),
                       payload["line"], payload["text"])


@dataclass(frozen=True)
class SinkRef:
    """A direct nondeterminism source: wall-clock read or global-RNG draw."""

    what: str  #: human form, e.g. ``"time.perf_counter()"``
    kind: str  #: :data:`SINK_WALLCLOCK` | :data:`SINK_GLOBAL_RANDOM`
    line: int
    text: str

    def as_dict(self) -> Dict[str, Any]:
        return {"what": self.what, "kind": self.kind,
                "line": self.line, "text": self.text}

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SinkRef":
        return SinkRef(payload["what"], payload["kind"],
                       payload["line"], payload["text"])


@dataclass(frozen=True)
class StreamRef:
    """One ``RngRegistry.stream(...)`` acquisition site.

    ``name`` is set for literal names, ``prefix`` for f-strings with a
    literal head (``f"node.{i}"`` -> ``"node."``); a site whose name is
    fully dynamic has neither and cannot be checked statically.
    """

    name: Optional[str]
    prefix: Optional[str]
    line: int
    text: str

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "prefix": self.prefix,
                "line": self.line, "text": self.text}

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "StreamRef":
        return StreamRef(payload["name"], payload["prefix"],
                         payload["line"], payload["text"])


@dataclass
class FunctionInfo:
    """Everything the whole-program rules need to know about one ``def``."""

    qualname: str
    line: int
    cls: Optional[str]  #: innermost enclosing class, if any
    boundary: bool  #: def line carries :data:`BOUNDARY_MARKER`
    calls: List[CallRef] = field(default_factory=list)
    sinks: List[SinkRef] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "cls": self.cls,
            "boundary": self.boundary,
            "calls": [c.as_dict() for c in self.calls],
            "sinks": [s.as_dict() for s in self.sinks],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "FunctionInfo":
        return FunctionInfo(
            qualname=payload["qualname"],
            line=payload["line"],
            cls=payload["cls"],
            boundary=payload["boundary"],
            calls=[CallRef.from_dict(c) for c in payload["calls"]],
            sinks=[SinkRef.from_dict(s) for s in payload["sinks"]],
        )


@dataclass(frozen=True)
class ClassInfo:
    name: str
    bases: Tuple[str, ...]  #: dotted base expressions, e.g. ``("base.ProtocolRun",)``

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "bases": list(self.bases)}

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ClassInfo":
        return ClassInfo(payload["name"], tuple(payload["bases"]))


@dataclass
class ModuleSummary:
    """One file's contribution to the program graph."""

    rel_path: str
    module: str
    is_init: bool
    imports: Dict[str, str]  #: local name -> absolute dotted target
    functions: Dict[str, FunctionInfo]
    classes: Dict[str, ClassInfo]
    streams: List[StreamRef] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rel_path": self.rel_path,
            "module": self.module,
            "is_init": self.is_init,
            "imports": dict(self.imports),
            "functions": {q: f.as_dict() for q, f in self.functions.items()},
            "classes": {n: c.as_dict() for n, c in self.classes.items()},
            "streams": [s.as_dict() for s in self.streams],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ModuleSummary":
        return ModuleSummary(
            rel_path=payload["rel_path"],
            module=payload["module"],
            is_init=payload["is_init"],
            imports=dict(payload["imports"]),
            functions={
                q: FunctionInfo.from_dict(f)
                for q, f in payload["functions"].items()
            },
            classes={
                n: ClassInfo.from_dict(c)
                for n, c in payload["classes"].items()
            },
            streams=[StreamRef.from_dict(s) for s in payload.get("streams", [])],
        )


# --------------------------------------------------------------------------
# Summarization (pure function of one file's source).
# --------------------------------------------------------------------------
def module_name_for(rel_path: str) -> Tuple[str, bool]:
    """Dotted module name for a lint-root-relative path.

    The tree may be linted as ``src/repro/...`` or installed as
    ``repro/...``; everything before the first ``repro`` path segment is
    treated as a source prefix and dropped.  Returns ``(name, is_init)``.
    """
    parts = rel_path.split("/")
    is_init = parts[-1] == "__init__.py"
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if is_init:
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts), is_init


def _flatten_attr(func: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name bases."""
    chain: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return tuple(reversed(chain))
    return None


def _import_bindings(
    tree: ast.Module, module: str, is_init: bool
) -> Dict[str, str]:
    """Local name -> absolute dotted import target (relative levels resolved)."""
    package = module.split(".") if is_init else module.split(".")[:-1]
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    bindings[item.asname] = item.name
                else:
                    top = item.name.split(".")[0]
                    bindings[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = len(package) - (node.level - 1)
                if keep < 0:
                    continue  # beyond the lint root: unresolvable
                base = package[:keep]
                target_parts = base + (node.module.split(".") if node.module else [])
            else:
                target_parts = node.module.split(".") if node.module else []
            target = ".".join(target_parts)
            for item in node.names:
                if item.name == "*":
                    continue
                bound = item.asname or item.name
                bindings[bound] = f"{target}.{item.name}" if target else item.name
    return bindings


def _is_boundary(lines: List[str], fn: AnyFuncDef) -> bool:
    """Does the def line carry :data:`BOUNDARY_MARKER`?"""
    return 1 <= fn.lineno <= len(lines) and BOUNDARY_MARKER in lines[fn.lineno - 1]


class _SinkMatcher:
    """File-wide alias tables for the D101/D103 call matchers."""

    def __init__(self, tree: ast.Module) -> None:
        self.random_aliases, self.random_members = _module_aliases(tree, "random")
        self.clock_tables: Dict[str, Tuple[Set[str], Dict[str, str]]] = {}
        for module in _CLOCK_FNS:
            self.clock_tables[module] = _module_aliases(tree, module)

    def match(self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """``(what, kind)`` when ``call`` is a direct nondeterminism source."""
        attr, is_module_call = _call_on_module(call, self.random_aliases)
        if is_module_call and attr in _GLOBAL_RANDOM_FNS:
            return f"random.{attr}()", SINK_GLOBAL_RANDOM
        func = call.func
        if (
            isinstance(func, ast.Name)
            and self.random_members.get(func.id) in _GLOBAL_RANDOM_FNS
        ):
            return f"random.{self.random_members[func.id]}()", SINK_GLOBAL_RANDOM
        for module, fns in _CLOCK_FNS.items():
            aliases, members = self.clock_tables[module]
            attr, is_module_call = _call_on_module(call, aliases)
            if is_module_call and attr in fns:
                return f"{module}.{attr}()", SINK_WALLCLOCK
            if (
                module == "datetime"
                and isinstance(func, ast.Attribute)
                and func.attr in fns
                and isinstance(func.value, ast.Name)
                and members.get(func.value.id) == "datetime"
            ):
                return f"datetime.{func.attr}()", SINK_WALLCLOCK
            if (
                module == "time"
                and isinstance(func, ast.Name)
                and members.get(func.id) in fns
            ):
                return f"time.{members[func.id]}()", SINK_WALLCLOCK
        return None


def _line_text(lines: List[str], lineno: int) -> str:
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


def _walk_own(fn: AnyFuncDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested defs/classes
    (those are indexed as functions of their own)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _index_defs(
    tree: ast.Module,
) -> Iterator[Tuple[str, Optional[str], AnyFuncDef]]:
    """Yield ``(qualname, enclosing_class, def_node)`` for every function."""

    def walk(node: ast.AST, scope: Tuple[str, ...], cls: Optional[str]) -> Iterator[
        Tuple[str, Optional[str], AnyFuncDef]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + (child.name,))
                yield qualname, cls, child
                yield from walk(child, scope + (child.name,), cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, scope + (child.name,), child.name)
            else:
                yield from walk(child, scope, cls)

    yield from walk(tree, (), None)


def _function_calls(fn: AnyFuncDef, lines: List[str]) -> List[CallRef]:
    refs: List[CallRef] = []
    for node in _walk_own(fn):
        if not isinstance(node, ast.Call):
            continue
        lineno = getattr(node, "lineno", fn.lineno)
        text = _line_text(lines, lineno)
        func = node.func
        if isinstance(func, ast.Name):
            refs.append(CallRef("name", (func.id,), lineno, text))
            continue
        chain = _flatten_attr(func)
        if chain is None:
            continue
        if chain[0] == "self" and len(chain) == 2:
            refs.append(CallRef("self", (chain[1],), lineno, text))
        elif chain[0] != "self":
            refs.append(CallRef("dotted", chain, lineno, text))
    return refs


#: registry methods whose first argument is a stream name.  ``stream`` is
#: always name-carrying; the draw/spawn helpers share their method names
#: with plain ``random.Random`` (``uniform(low, high)``), so those only
#: count when the first argument is syntactically a string.
_STREAM_ATTRS = frozenset({"stream", "spawn", "exponential", "uniform"})


def _stream_refs(tree: ast.Module, lines: List[str]) -> List[StreamRef]:
    """Every name-carrying RNG-registry call site in the file."""
    refs: List[StreamRef] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _STREAM_ATTRS
            and (node.args or node.keywords)
        ):
            continue
        arg: Optional[ast.expr] = node.args[0] if node.args else None
        if arg is None:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    arg = keyword.value
        if arg is None:
            continue
        string_like = (
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ) or isinstance(arg, ast.JoinedStr)
        if node.func.attr != "stream" and not string_like:
            continue
        lineno = getattr(node, "lineno", 1)
        text = _line_text(lines, lineno)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            refs.append(StreamRef(arg.value, None, lineno, text))
        elif isinstance(arg, ast.JoinedStr):
            prefix = ""
            for value in arg.values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    prefix += value.value
                else:
                    break
            refs.append(StreamRef(None, prefix or None, lineno, text))
        else:
            refs.append(StreamRef(None, None, lineno, text))
    return refs


def summarize_module(rel_path: str, source: str, tree: ast.Module) -> ModuleSummary:
    """Reduce one parsed file to its :class:`ModuleSummary`."""
    module, is_init = module_name_for(rel_path)
    lines = source.splitlines()
    matcher = _SinkMatcher(tree)
    imports = _import_bindings(tree, module, is_init)

    classes: Dict[str, ClassInfo] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases: List[str] = []
            for base in node.bases:
                chain = _flatten_attr(base) if not isinstance(base, ast.Name) else (base.id,)
                if chain is not None:
                    bases.append(".".join(chain))
            classes[node.name] = ClassInfo(node.name, tuple(bases))

    functions: Dict[str, FunctionInfo] = {}
    for qualname, cls, fn in _index_defs(tree):
        sinks: List[SinkRef] = []
        for node in _walk_own(fn):
            if isinstance(node, ast.Call):
                matched = matcher.match(node)
                if matched is not None:
                    what, kind = matched
                    lineno = getattr(node, "lineno", fn.lineno)
                    sinks.append(SinkRef(what, kind, lineno, _line_text(lines, lineno)))
        functions[qualname] = FunctionInfo(
            qualname=qualname,
            line=fn.lineno,
            cls=cls,
            boundary=_is_boundary(lines, fn),
            calls=_function_calls(fn, lines),
            sinks=sinks,
        )
    return ModuleSummary(
        rel_path=rel_path,
        module=module,
        is_init=is_init,
        imports=imports,
        functions=functions,
        classes=classes,
        streams=_stream_refs(tree, lines),
    )


# --------------------------------------------------------------------------
# Cache: content-hashed per-file summaries.
# --------------------------------------------------------------------------
class SummaryCache:
    """``.peas-lint-cache.json``: ``rel_path -> (content sha, summary)``.

    Purely an accelerator — a missing, unreadable or version-skewed cache
    degrades to parsing everything.  Keyed by content hash, so touching a
    file's mtime does not invalidate it while any byte change does.
    """

    def __init__(self, path: Optional[Path]) -> None:
        self.path = path
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        if path is not None and path.is_file():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("version") == SUMMARY_VERSION
                and isinstance(payload.get("entries"), dict)
            ):
                self._entries = payload["entries"]

    @staticmethod
    def content_hash(source: str) -> str:
        return hashlib.sha1(source.encode("utf-8")).hexdigest()

    def get(self, rel_path: str, sha: str) -> Optional[ModuleSummary]:
        entry = self._entries.get(rel_path)
        if entry is None or entry.get("sha") != sha:
            return None
        try:
            return ModuleSummary.from_dict(entry["summary"])
        except (KeyError, TypeError):
            return None

    def put(self, rel_path: str, sha: str, summary: ModuleSummary) -> None:
        self._entries[rel_path] = {"sha": sha, "summary": summary.as_dict()}
        self._dirty = True

    def prune(self, keep: Iterable[str]) -> None:
        """Drop entries for files no longer in the lint scope."""
        keep_set = set(keep)
        stale = [rel for rel in self._entries if rel not in keep_set]
        for rel in stale:
            del self._entries[rel]
            self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": SUMMARY_VERSION,
            "comment": (
                "peas-lint whole-program analysis cache (content-hashed "
                "per-file summaries); safe to delete, never commit"
            ),
            "entries": self._entries,
        }
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:
            pass  # a read-only tree still lints, just never warm
        self._dirty = False


# --------------------------------------------------------------------------
# The program graph.
# --------------------------------------------------------------------------
class ProgramGraph:
    """Resolved view over every module summary in the lint scope."""

    def __init__(self, summaries: Sequence[ModuleSummary],
                 stats: Optional[Dict[str, int]] = None,
                 root: Optional[Path] = None) -> None:
        self.by_module: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.by_module[summary.module] = summary
        #: ``{"parsed": files summarized fresh, "cached": cache hits}``
        self.stats: Dict[str, int] = dict(stats or {})
        #: lint root (lets rules open files referenced by summaries)
        self.root = root
        self._edges: Dict[str, List[Tuple[str, CallRef]]] = {}

    # ------------------------------------------------------------- accessors
    def iter_functions(self) -> Iterator[Tuple[ModuleSummary, FunctionInfo]]:
        for module in sorted(self.by_module):
            summary = self.by_module[module]
            for qualname in sorted(summary.functions):
                yield summary, summary.functions[qualname]

    def function(self, symbol: str) -> Optional[FunctionInfo]:
        module, _, qualname = symbol.partition(":")
        summary = self.by_module.get(module)
        if summary is None:
            return None
        return summary.functions.get(qualname)

    def summary_of(self, symbol: str) -> Optional[ModuleSummary]:
        return self.by_module.get(symbol.partition(":")[0])

    def rel_path(self, symbol: str) -> str:
        summary = self.summary_of(symbol)
        return summary.rel_path if summary is not None else "?"

    def is_sim_scoped(self, symbol: str) -> bool:
        summary = self.summary_of(symbol)
        return summary is not None and Checker.in_sim_scope(summary.rel_path)

    @staticmethod
    def display(symbol: str) -> str:
        module, _, qualname = symbol.partition(":")
        return f"{module}.{qualname}"

    # ------------------------------------------------------------ resolution
    def resolve_symbol(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve an absolute dotted reference to a function symbol id
        (``module:qualname``), following ``__init__`` re-export chains."""
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.by_module.get(module)
            if summary is None:
                continue
            return self._resolve_in_module(summary, parts[split:], seen)
        return None

    def _resolve_in_module(
        self, summary: ModuleSummary, rest: Sequence[str], seen: Set[str]
    ) -> Optional[str]:
        qualname = ".".join(rest)
        if qualname in summary.functions:
            return f"{summary.module}:{qualname}"
        if rest[0] in summary.classes:
            if len(rest) == 1:
                init = f"{rest[0]}.__init__"
                if init in summary.functions:
                    return f"{summary.module}:{init}"
                return None
            if len(rest) == 2:
                return self._resolve_method(summary, rest[0], rest[1], seen)
            return None
        binding = summary.imports.get(rest[0])
        if binding is not None:
            tail = ".".join(rest[1:])
            target = f"{binding}.{tail}" if tail else binding
            return self.resolve_symbol(target, seen)
        return None

    def _resolve_method(
        self,
        summary: ModuleSummary,
        cls: str,
        method: str,
        seen: Set[str],
    ) -> Optional[str]:
        qualname = f"{cls}.{method}"
        if qualname in summary.functions:
            return f"{summary.module}:{qualname}"
        info = summary.classes.get(cls)
        if info is None:
            return None
        for base in info.bases:
            guard = f"{summary.module}::{base}::{method}"
            if guard in seen:
                continue
            seen.add(guard)
            located = self._locate_class(summary, base.split("."), seen)
            if located is None:
                continue
            base_summary, base_cls = located
            resolved = self._resolve_method(base_summary, base_cls, method, seen)
            if resolved is not None:
                return resolved
        return None

    def _locate_class(
        self, summary: ModuleSummary, parts: Sequence[str], seen: Set[str]
    ) -> Optional[Tuple[ModuleSummary, str]]:
        """Find the summary defining a (possibly dotted) base-class ref."""
        if len(parts) == 1 and parts[0] in summary.classes:
            return summary, parts[0]
        binding = summary.imports.get(parts[0])
        if binding is None:
            return None
        dotted = ".".join([binding] + list(parts[1:]))
        return self._locate_class_abs(dotted, seen)

    def _locate_class_abs(
        self, dotted: str, seen: Set[str]
    ) -> Optional[Tuple[ModuleSummary, str]]:
        """Resolve an absolute dotted class reference, following one level
        of ``__init__`` re-export per recursion (cycle-guarded)."""
        chain = dotted.split(".")
        for split in range(len(chain) - 1, 0, -1):
            module = ".".join(chain[:split])
            target = self.by_module.get(module)
            if target is None:
                continue
            rest = chain[split:]
            if len(rest) != 1:
                return None
            if rest[0] in target.classes:
                return target, rest[0]
            reexport = target.imports.get(rest[0])
            if reexport is not None and reexport not in seen:
                seen.add(reexport)
                return self._locate_class_abs(reexport, seen)
            return None
        return None

    def resolve_call(
        self, summary: ModuleSummary, caller: FunctionInfo, call: CallRef
    ) -> Optional[str]:
        """Resolve one call reference from ``caller``'s scope to a symbol."""
        if call.kind == "self":
            if caller.cls is None:
                return None
            return self._resolve_method(
                summary, caller.cls, call.parts[0], set()
            )
        if call.kind == "name":
            name = call.parts[0]
            # a def nested directly inside the caller shadows module scope
            nested = f"{caller.qualname}.{name}"
            if nested in summary.functions:
                return f"{summary.module}:{nested}"
            if name in summary.functions:
                return f"{summary.module}:{name}"
            if name in summary.classes:
                init = f"{name}.__init__"
                if init in summary.functions:
                    return f"{summary.module}:{init}"
                return None
            binding = summary.imports.get(name)
            if binding is not None:
                return self.resolve_symbol(binding)
            return None
        # dotted: first segment must be an import binding or a local class
        first = call.parts[0]
        if first in summary.classes and len(call.parts) == 2:
            return self._resolve_method(summary, first, call.parts[1], set())
        binding = summary.imports.get(first)
        if binding is None:
            return None
        dotted = ".".join([binding] + list(call.parts[1:]))
        return self.resolve_symbol(dotted)

    def edges_from(self, symbol: str) -> List[Tuple[str, CallRef]]:
        """Resolved outgoing edges of one function (memoized)."""
        cached = self._edges.get(symbol)
        if cached is not None:
            return cached
        summary = self.summary_of(symbol)
        info = self.function(symbol)
        edges: List[Tuple[str, CallRef]] = []
        if summary is not None and info is not None:
            for call in info.calls:
                target = self.resolve_call(summary, info, call)
                if target is not None and target != symbol:
                    edges.append((target, call))
        self._edges[symbol] = edges
        return edges

    # ------------------------------------------------------------------ dumps
    def to_json(self) -> str:
        modules: Dict[str, Any] = {}
        for module in sorted(self.by_module):
            summary = self.by_module[module]
            functions: Dict[str, Any] = {}
            for qualname in sorted(summary.functions):
                info = summary.functions[qualname]
                symbol = f"{module}:{qualname}"
                functions[qualname] = {
                    "line": info.line,
                    "boundary": info.boundary,
                    "sim_scoped": Checker.in_sim_scope(summary.rel_path),
                    "sinks": [s.as_dict() for s in info.sinks],
                    "calls": [
                        {"to": self.display(target), "line": call.line}
                        for target, call in self.edges_from(symbol)
                    ],
                }
            modules[module] = {"path": summary.rel_path, "functions": functions}
        return json.dumps(
            {
                "schema": "peas-callgraph/1",
                "stats": self.stats,
                "modules": modules,
            },
            indent=2,
            sort_keys=True,
        )

    def to_dot(self) -> str:
        lines = [
            "digraph peas_callgraph {",
            '  rankdir="LR";',
            '  node [shape=box, fontsize=9];',
        ]
        for module in sorted(self.by_module):
            summary = self.by_module[module]
            sim = Checker.in_sim_scope(summary.rel_path)
            for qualname in sorted(summary.functions):
                symbol = f"{module}:{qualname}"
                edges = self.edges_from(symbol)
                info = summary.functions[qualname]
                if sim or edges or info.sinks:
                    attrs = []
                    if sim:
                        attrs.append("style=filled, fillcolor=lightyellow")
                    if info.sinks:
                        attrs.append("color=red")
                    if attrs:
                        lines.append(
                            f'  "{self.display(symbol)}" [{", ".join(attrs)}];'
                        )
                for target, _call in edges:
                    lines.append(
                        f'  "{self.display(symbol)}" -> "{self.display(target)}";'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Framework hook.
# --------------------------------------------------------------------------
class ProgramChecker(Checker):
    """A checker that runs once over the whole :class:`ProgramGraph`.

    Subclasses implement :meth:`check_program`; the per-file
    :meth:`~repro.lint.framework.Checker.check` is a no-op.
    """

    whole_program = True

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def check_program(self, graph: ProgramGraph) -> Iterable[Violation]:
        raise NotImplementedError


def build_program(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    cache_path: Optional[Path] = None,
) -> ProgramGraph:
    """Summarize every Python file under ``paths`` into a program graph.

    ``cache_path`` (usually ``<root>/.peas-lint-cache.json``) makes warm
    runs skip parsing for files whose content hash is unchanged; files
    that fail to parse are skipped (the per-file ``E000`` finding reports
    them).
    """
    from .framework import _relativize  # local: avoid import at module load

    root = root if root is not None else Path.cwd()
    cache = SummaryCache(cache_path)
    summaries: List[ModuleSummary] = []
    stats = {"parsed": 0, "cached": 0}
    seen_rel: List[str] = []
    for path in iter_python_files(paths):
        rel_path = _relativize(path, root)
        seen_rel.append(rel_path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            continue
        sha = SummaryCache.content_hash(source)
        summary = cache.get(rel_path, sha)
        if summary is not None:
            stats["cached"] += 1
            summaries.append(summary)
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue
        summary = summarize_module(rel_path, source, tree)
        stats["parsed"] += 1
        cache.put(rel_path, sha, summary)
        summaries.append(summary)
    cache.prune(seen_rel)
    cache.save()
    return ProgramGraph(summaries, stats=stats, root=root)
