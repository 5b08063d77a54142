"""Whole-program flow rules: nondeterminism and fork safety across calls.

The per-file rules police what a function *does*; these police what it
*reaches*.  They consume the :class:`~repro.lint.graph.ProgramGraph` built
over the whole lint scope (W403 is the exception — its capture patterns
are visible in one file):

========  ==========================  ========================================
``W401``  transitive-nondeterminism   a call chain from a sim-scoped function
                                      into a wall-clock read or global-RNG
                                      draw outside sim scope; reported with
                                      the full chain, never baselinable.
``W402``  undeclared-rng-stream       a ``.stream("...")`` acquisition whose
                                      name is missing from the
                                      ``STREAM_NAMES`` catalogue
                                      (:mod:`repro.sim.streams`); stream
                                      names are seed-derivation keys, so
                                      drift silently forks RNG state.
``W403``  fork-unsafe-capture         lambdas / nested functions / stateful
                                      objects handed to process-pool APIs;
                                      they fail (or worse, half-work) at the
                                      pickle boundary into workers.
``W404``  unserializable-event-capture  lambdas / nested functions scheduled
                                      on the simulator without a ``handler=``
                                      descriptor in sim-scoped code; such
                                      events make the engine queue
                                      unsnapshottable (peas-snapshot/1).
========  ==========================  ========================================

Escapes: ``# peas-lint: wallclock-boundary`` on a ``def`` line declares an
audited provenance-timing helper W401 will not traverse into;
``# peas-lint: snapshot-exempt`` on a schedule line accepts a deliberately
transient event W404 will not flag (the engine still refuses to snapshot
it, loudly, at run time).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from .framework import Checker, FileContext, register
from .graph import (
    CallRef,
    FunctionInfo,
    ModuleSummary,
    ProgramChecker,
    ProgramGraph,
    SinkRef,
)
from .violations import CATEGORY_CONCURRENCY, CATEGORY_DETERMINISM, Violation

__all__ = [
    "STREAMS_MODULE",
    "TransitiveNondeterminismChecker",
    "UndeclaredRngStreamChecker",
    "ForkUnsafeCaptureChecker",
    "UnserializableEventCaptureChecker",
    "load_stream_catalogue",
    "stream_name_declared",
]

#: where W402 looks for the literal ``STREAM_NAMES`` catalogue
STREAMS_MODULE = "repro.sim.streams"

_Chain = Tuple[Tuple[str, ...], SinkRef]


# --------------------------------------------------------------------------
# W401: transitive nondeterminism.
# --------------------------------------------------------------------------
@register
class TransitiveNondeterminismChecker(ProgramChecker):
    rule = "W401"
    name = "transitive-nondeterminism"
    category = CATEGORY_DETERMINISM
    description = (
        "sim-scoped code must not reach wall-clock reads or global-RNG "
        "draws through any call chain; reported with the full chain"
    )

    def check_program(self, graph: ProgramGraph) -> Iterator[Violation]:
        memo: Dict[str, Optional[_Chain]] = {}
        for summary, info in graph.iter_functions():
            if not Checker.in_sim_scope(summary.rel_path) or info.boundary:
                continue
            symbol = f"{summary.module}:{info.qualname}"
            reported: Set[str] = set()
            for target, call in graph.edges_from(symbol):
                if graph.is_sim_scoped(target) or target in reported:
                    continue
                chain = self._sink_chain(graph, target, memo)
                if chain is None:
                    continue
                reported.add(target)
                yield self._violation(graph, summary, info, call, chain)

    def _sink_chain(
        self, graph: ProgramGraph, symbol: str, memo: Dict[str, Optional[_Chain]]
    ) -> Optional[_Chain]:
        """Does ``symbol`` (outside sim scope) reach a sink?  Memoized DFS;
        sim-scoped nodes are skipped (their own chains are checked when they
        are the caller) and boundary-marked helpers are opaque."""
        if symbol in memo:
            return memo[symbol]
        info = graph.function(symbol)
        if info is None or info.boundary or graph.is_sim_scoped(symbol):
            memo[symbol] = None
            return None
        if info.sinks:
            found: Optional[_Chain] = ((symbol,), info.sinks[0])
            memo[symbol] = found
            return found
        memo[symbol] = None  # cycle guard: in-progress resolves to "no"
        for target, _call in graph.edges_from(symbol):
            sub = self._sink_chain(graph, target, memo)
            if sub is not None:
                found = ((symbol,) + sub[0], sub[1])
                memo[symbol] = found
                return found
        return None

    def _violation(
        self,
        graph: ProgramGraph,
        summary: ModuleSummary,
        info: FunctionInfo,
        call: CallRef,
        chain: _Chain,
    ) -> Violation:
        symbols, sink = chain
        names = [f"{summary.module}.{info.qualname}"]
        names += [graph.display(symbol) for symbol in symbols]
        hops = " -> ".join(names)
        detail_lines = ["call chain:"]
        detail_lines.append(f"  {names[0]} ({summary.rel_path}:{call.line})")
        for index, symbol in enumerate(symbols):
            hop_info = graph.function(symbol)
            line = hop_info.line if hop_info is not None else 0
            detail_lines.append(
                f"  -> {names[index + 1]} ({graph.rel_path(symbol)}:{line})"
            )
        sink_path = graph.rel_path(symbols[-1])
        detail_lines.append(
            f"  -> {sink.what} [{sink.kind}] at {sink_path}:{sink.line}: "
            f"{sink.text}"
        )
        return Violation(
            rule=self.rule,
            name=self.name,
            category=self.category,
            path=summary.rel_path,
            line=call.line,
            col=0,
            message=(
                f"sim-scoped {names[0]} transitively reaches {sink.what} "
                f"[{sink.kind}] via {hops}; route timing/randomness through "
                "Simulator.now / RngRegistry (or mark an audited helper "
                "'# peas-lint: wallclock-boundary')"
            ),
            source_line=call.text,
            details="\n".join(detail_lines),
        )


# --------------------------------------------------------------------------
# W402: undeclared RNG stream names.
# --------------------------------------------------------------------------
def load_stream_catalogue(graph: ProgramGraph) -> Optional[Dict[str, str]]:
    """Parse ``STREAM_NAMES`` out of the catalogue module, as AST.

    Returns ``None`` when the lint scope has no catalogue module (W402 then
    only flags statically-uncheckable names).  Never imports the module:
    the catalogue is required to stay a literal dict precisely so this
    works on unimportable trees.
    """
    summary = graph.by_module.get(STREAMS_MODULE)
    if summary is None or graph.root is None:
        return None
    path = graph.root / summary.rel_path
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Name)
            and target.id == "STREAM_NAMES"
            and isinstance(value, ast.Dict)
        ):
            catalogue: Dict[str, str] = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    description = (
                        val.value
                        if isinstance(val, ast.Constant)
                        and isinstance(val.value, str)
                        else ""
                    )
                    catalogue[key.value] = description
            return catalogue
    return None


def stream_name_declared(name: str, catalogue: Dict[str, str]) -> bool:
    """Exact entry, or covered by a ``<base>.*`` family."""
    if name in catalogue:
        return True
    return any(
        key.endswith(".*") and name.startswith(key[:-1]) for key in catalogue
    )


def stream_prefix_declared(prefix: str, catalogue: Dict[str, str]) -> bool:
    """Is an f-string's literal head covered by a declared family?"""
    return any(
        key.endswith(".*") and prefix.startswith(key[:-1]) for key in catalogue
    )


@register
class UndeclaredRngStreamChecker(ProgramChecker):
    rule = "W402"
    name = "undeclared-rng-stream"
    category = CATEGORY_DETERMINISM
    description = (
        "every RngRegistry.stream(name) site must use a name declared in "
        "STREAM_NAMES (repro/sim/streams.py); names are seed-derivation "
        "keys, so drift silently forks RNG state"
    )

    def check_program(self, graph: ProgramGraph) -> Iterator[Violation]:
        catalogue = load_stream_catalogue(graph)
        for module in sorted(graph.by_module):
            summary = graph.by_module[module]
            # The registry's own draw helpers forward a caller-supplied
            # name; those call sites are checked where the name is written
            # (mirrors D102's exemption for the deriving constructor).
            if summary.rel_path.endswith("repro/sim/rng.py"):
                continue
            for ref in summary.streams:
                message: Optional[str] = None
                if ref.name is not None:
                    if catalogue is None:
                        message = (
                            f'stream "{ref.name}" cannot be checked: no '
                            f"STREAM_NAMES catalogue ({STREAMS_MODULE}) in "
                            "the lint scope"
                        )
                    elif not stream_name_declared(ref.name, catalogue):
                        message = (
                            f'stream "{ref.name}" is not declared in '
                            "STREAM_NAMES (repro/sim/streams.py); add it to "
                            "the catalogue so its seed derivation is pinned"
                        )
                elif ref.prefix is not None:
                    if catalogue is not None and not stream_prefix_declared(
                        ref.prefix, catalogue
                    ):
                        message = (
                            f'f-string stream name with prefix "{ref.prefix}" '
                            "matches no declared family in STREAM_NAMES; "
                            'declare one (e.g. "' + ref.prefix + '*")'
                        )
                else:
                    message = (
                        "stream name is not statically checkable; use a "
                        "string literal or an f-string with a declared "
                        "family prefix"
                    )
                if message is not None:
                    yield Violation(
                        rule=self.rule,
                        name=self.name,
                        category=self.category,
                        path=summary.rel_path,
                        line=ref.line,
                        col=0,
                        message=message,
                        source_line=ref.text,
                    )


# --------------------------------------------------------------------------
# W403: fork-unsafe captures (per-file: the patterns are local).
# --------------------------------------------------------------------------
_POOL_CTORS = {"ProcessPoolExecutor", "Pool"}
_POOL_SUBMIT = {
    "submit", "map", "apply", "apply_async", "starmap", "starmap_async",
    "imap", "imap_unordered",
}
_STATEFUL_CTORS = {"Lock", "RLock", "open", "Tracer", "Simulator"}


@register
class ForkUnsafeCaptureChecker(Checker):
    rule = "W403"
    name = "fork-unsafe-capture"
    category = CATEGORY_CONCURRENCY
    description = (
        "lambdas, nested functions and stateful objects passed to process "
        "pools fail at the pickle boundary into workers; pass module-level "
        "functions and plain data"
    )

    def applies_to(self, rel_path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._uses_process_pools(ctx.tree):
            return
        nested = self._nested_def_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = self._callee_name(node)
            if callee in _POOL_CTORS:
                yield from self._check_ctor(ctx, node, nested)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SUBMIT
                and node.args
            ):
                yield from self._check_task_arg(ctx, node, node.args[0], nested)

    @staticmethod
    def _uses_process_pools(tree: ast.Module) -> bool:
        """Only police files that can actually construct a process pool."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    item.name.split(".")[0] == "multiprocessing"
                    for item in node.names
                ):
                    return True
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    return True
                if module.startswith("concurrent") and any(
                    item.name == "ProcessPoolExecutor" for item in node.names
                ):
                    return True
        return False

    @staticmethod
    def _nested_def_names(tree: ast.Module) -> Set[str]:
        """Names of functions not defined at module or class top level."""
        nested: Set[str] = set()

        def walk(node: ast.AST, inside_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if inside_function:
                        nested.add(child.name)
                    walk(child, True)
                else:
                    walk(child, inside_function)

        walk(tree, False)
        return nested

    @staticmethod
    def _callee_name(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    def _check_ctor(
        self, ctx: FileContext, call: ast.Call, nested: Set[str]
    ) -> Iterator[Violation]:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                yield from self._check_task_arg(ctx, call, keyword.value, nested,
                                                role="worker initializer")
            elif keyword.arg == "initargs" and isinstance(
                keyword.value, (ast.Tuple, ast.List)
            ):
                for element in keyword.value.elts:
                    if isinstance(element, ast.Lambda):
                        yield ctx.violation(
                            self, element,
                            "lambda in initargs cannot cross the pickle "
                            "boundary into pool workers",
                        )
                    elif (
                        isinstance(element, ast.Call)
                        and self._callee_name(element) in _STATEFUL_CTORS
                    ):
                        yield ctx.violation(
                            self, element,
                            f"{self._callee_name(element)}(...) in initargs "
                            "is stateful/unpicklable; construct it inside "
                            "the worker initializer instead",
                        )

    def _check_task_arg(
        self,
        ctx: FileContext,
        call: ast.Call,
        arg: ast.expr,
        nested: Set[str],
        role: str = "pool task",
    ) -> Iterator[Violation]:
        if isinstance(arg, ast.Lambda):
            yield ctx.violation(
                self, arg,
                f"lambda as {role} cannot be pickled into pool workers; "
                "use a module-level function",
            )
        elif isinstance(arg, ast.Name) and arg.id in nested:
            yield ctx.violation(
                self, arg,
                f"nested function '{arg.id}' as {role} cannot be pickled "
                "into pool workers; hoist it to module level",
            )
        elif (
            isinstance(arg, ast.Call)
            and self._callee_name(arg) == "partial"
            and arg.args
        ):
            yield from self._check_task_arg(ctx, call, arg.args[0], nested,
                                            role=f"{role} (via partial)")


# --------------------------------------------------------------------------
# W404: unserializable event captures (per-file: the patterns are local).
# --------------------------------------------------------------------------
_SCHEDULE_METHODS = {"schedule", "schedule_at"}
_SNAPSHOT_EXEMPT_MARKER = "peas-lint: snapshot-exempt"


@register
class UnserializableEventCaptureChecker(Checker):
    rule = "W404"
    name = "unserializable-event-capture"
    category = CATEGORY_DETERMINISM
    description = (
        "lambdas and nested functions scheduled on the simulator without a "
        "handler= descriptor cannot be captured by peas-snapshot/1; pass a "
        "registered handler kind with plain-data args (repro/sim/handlers.py)"
    )

    def applies_to(self, rel_path: str) -> bool:
        return Checker.in_sim_scope(rel_path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        nested = ForkUnsafeCaptureChecker._nested_def_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_METHODS
            ):
                continue
            if any(keyword.arg == "handler" for keyword in node.keywords):
                continue
            callback = self._callback_arg(node)
            if callback is None:
                continue
            if self._exempt(ctx, node):
                continue
            if isinstance(callback, ast.Lambda):
                yield ctx.violation(
                    self, callback,
                    f"lambda scheduled via {node.func.attr}() without a "
                    "handler= descriptor; the event cannot be serialized "
                    "into peas-snapshot/1 (register a handler kind, or mark "
                    "'# peas-lint: snapshot-exempt' if it is deliberately "
                    "transient)",
                )
            elif isinstance(callback, ast.Name) and callback.id in nested:
                yield ctx.violation(
                    self, callback,
                    f"nested function '{callback.id}' scheduled via "
                    f"{node.func.attr}() without a handler= descriptor; the "
                    "closure cannot be serialized into peas-snapshot/1 "
                    "(register a handler kind, or mark "
                    "'# peas-lint: snapshot-exempt' if it is deliberately "
                    "transient)",
                )

    @staticmethod
    def _callback_arg(call: ast.Call) -> Optional[ast.expr]:
        """The ``fn`` argument: positional index 1, or the ``fn=`` keyword."""
        if len(call.args) >= 2:
            return call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "fn":
                return keyword.value
        return None

    @staticmethod
    def _exempt(ctx: FileContext, call: ast.Call) -> bool:
        """Marker anywhere on the call's source lines (multi-line calls put
        the comment on the opening line)."""
        end = getattr(call, "end_lineno", call.lineno) or call.lineno
        return any(
            _SNAPSHOT_EXEMPT_MARKER in ctx.source_line(line)
            for line in range(call.lineno, end + 1)
        )
