"""Capture rule: fork safety of the callables a file hands off.

The rule is per-file, since the capture patterns it looks for are visible
in one file:

========  ==========================  ========================================
``W403``  fork-unsafe-capture         lambdas / nested functions / stateful
                                      objects handed to process-pool APIs;
                                      they fail (or worse, half-work) at the
                                      pickle boundary into workers.
========  ==========================  ========================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .framework import Checker, FileContext, register
from .violations import CATEGORY_CONCURRENCY, Violation

__all__ = ["ForkUnsafeCaptureChecker"]


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
