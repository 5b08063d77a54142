"""Determinism rules: every stochastic draw and every clock read must be
seed-reproducible.

PEAS results are only comparable across sweeps because all randomness flows
through named :class:`repro.sim.rng.RngRegistry` streams and the simulation
never reads the host.  These rules make that convention machine-checked:

========  ======================  ==============================================
``D101``  module-level-random     ``random.random()`` & co. share one hidden
                                  global stream: any third-party import that
                                  also draws from it reorders every draw.
``D102``  underived-rng-seed      ``random.Random(x)`` with a runtime seed
                                  bypasses ``derive_seed``: two components fed
                                  the same master seed replay *identical*
                                  streams (perfectly correlated "noise").
``D103``  wallclock-in-sim        wall-clock reads anywhere but the
                                  host-timing modules couple results to host
                                  speed.
``D104``  unordered-set-iter      iterating a set feeds hash-order into event
                                  scheduling; order is stable per process but
                                  not a contract.
========  ======================  ==============================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .framework import Checker, FileContext, register
from .violations import CATEGORY_DETERMINISM, Violation

__all__ = [
    "ModuleRandomChecker",
    "UnderivedRngSeedChecker",
    "WallClockChecker",
    "SetIterationChecker",
]

#: stochastic functions of the ``random`` module's hidden global instance
_GLOBAL_RANDOM_FNS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "expovariate", "gauss", "normalvariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "weibullvariate", "vonmisesvariate", "triangular", "seed",
    "getrandbits", "randbytes",
}

_CLOCK_FNS = {
    "time": {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time", "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
}


def _module_aliases(tree: ast.Module, module: str) -> Tuple[Set[str], Dict[str, str]]:
    """Names the file binds to ``module`` and to functions imported from it.

    Returns ``(module_aliases, {local_name: original_name})``.
    """
    aliases: Set[str] = set()
    members: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or item.name)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                members[item.asname or item.name] = item.name
    return aliases, members


def _call_on_module(
    call: ast.Call, aliases: Set[str]
) -> Tuple[str, bool]:
    """If ``call`` is ``<alias>.<attr>(...)``, return ``(attr, True)``."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in aliases
    ):
        return func.attr, True
    return "", False


@register
class ModuleRandomChecker(Checker):
    rule = "D101"
    name = "module-level-random"
    category = CATEGORY_DETERMINISM
    description = (
        "calls to the random module's hidden global instance "
        "(random.random(), random.choice(), ...) bypass RngRegistry streams"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases, members = _module_aliases(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr, is_module_call = _call_on_module(node, aliases)
            if is_module_call and attr in _GLOBAL_RANDOM_FNS:
                yield ctx.violation(
                    self, node,
                    f"random.{attr}() draws from the process-global stream; "
                    "use a named RngRegistry stream instead",
                )
            elif (
                isinstance(node.func, ast.Name)
                and members.get(node.func.id) in _GLOBAL_RANDOM_FNS
            ):
                original = members[node.func.id]
                yield ctx.violation(
                    self, node,
                    f"'from random import {original}' draws from the "
                    "process-global stream; use a named RngRegistry stream",
                )


def _is_derived_seed(arg: ast.expr) -> bool:
    """True for ``derive_seed(...)`` / ``rngs.derive_seed(...)`` arguments."""
    if not isinstance(arg, ast.Call):
        return False
    func = arg.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name == "derive_seed"


@register
class UnderivedRngSeedChecker(Checker):
    rule = "D102"
    name = "underived-rng-seed"
    category = CATEGORY_DETERMINISM
    description = (
        "random.Random(seed) with a runtime seed must derive through "
        "RngRegistry/derive_seed so streams decorrelate; literal-constant "
        "seeds (documented fallbacks/fixtures) are allowed"
    )

    def applies_to(self, rel_path: str) -> bool:
        # The registry itself is the one legitimate deriving constructor.
        return not rel_path.endswith("repro/sim/rng.py")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases, members = _module_aliases(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            attr, is_module_call = _call_on_module(node, aliases)
            is_ctor = (is_module_call and attr == "Random") or (
                isinstance(node.func, ast.Name)
                and members.get(node.func.id) == "Random"
            )
            if not is_ctor:
                continue
            if not node.args and not node.keywords:
                yield ctx.violation(
                    self, node,
                    "random.Random() seeds from OS entropy: derive the seed "
                    "via RngRegistry/derive_seed",
                )
            elif node.args and not (
                isinstance(node.args[0], ast.Constant)
                or _is_derived_seed(node.args[0])
            ):
                yield ctx.violation(
                    self, node,
                    "random.Random(<runtime seed>) correlates streams across "
                    "components: use RngRegistry(seed).stream(name) or "
                    "derive_seed(seed, name)",
                )


#: The modules that time the host on purpose: run provenance
#: (``wall_clock_s``), sweep timeouts and progress, store timestamps and the
#: perf harness.  D103 runs on every other file, so a clock read in any
#: helper that simulation code calls is caught where it is written.
HOST_CLOCK_MODULES = (
    "repro/obs/manifest.py",
    "repro/experiments/executor.py",
    "repro/experiments/telemetry.py",
    "repro/store.py",
    "repro/perf/",
)


@register
class WallClockChecker(Checker):
    rule = "D103"
    name = "wallclock-in-sim"
    category = CATEGORY_DETERMINISM
    description = (
        "wall-clock reads (time.time()/perf_counter()/datetime.now()) outside "
        "the host-timing modules tie results to host speed; use Simulator.now"
    )

    def applies_to(self, rel_path: str) -> bool:
        return not any(module in rel_path for module in HOST_CLOCK_MODULES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        findings: List[Tuple[ast.Call, str]] = []
        for module, fns in _CLOCK_FNS.items():
            aliases, members = _module_aliases(ctx.tree, module)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                attr, is_module_call = _call_on_module(node, aliases)
                if is_module_call and attr in fns:
                    findings.append((node, f"{module}.{attr}()"))
                    continue
                func = node.func
                # datetime.datetime.now() / dt.datetime.utcnow() chains, and
                # ``from datetime import datetime; datetime.now()``.
                if (
                    module == "datetime"
                    and isinstance(func, ast.Attribute)
                    and func.attr in fns
                    and isinstance(func.value, ast.Name)
                    and members.get(func.value.id) == "datetime"
                ):
                    findings.append((node, f"datetime.{func.attr}()"))
                elif (
                    isinstance(func, ast.Name)
                    and members.get(func.id) in fns
                    and module == "time"
                ):
                    findings.append((node, f"time.{members[func.id]}()"))
        for node, what in findings:
            yield ctx.violation(
                self, node,
                f"{what} reads the host clock outside the host-timing "
                "modules; simulated and traced values must use Simulator.now",
            )


def _set_valued(expr: ast.expr) -> bool:
    """Is ``expr`` syntactically a set? (literal, comprehension, set() call)"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


@register
class SetIterationChecker(Checker):
    rule = "D104"
    name = "unordered-set-iter"
    category = CATEGORY_DETERMINISM
    description = (
        "iterating a set inside simulation packages feeds hash order into "
        "downstream scheduling; wrap in sorted() or keep a list"
    )

    def applies_to(self, rel_path: str) -> bool:
        return self.in_sim_scope(rel_path)

    def _iterables(self, tree: ast.Module) -> Iterable[ast.expr]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for iterable in self._iterables(ctx.tree):
            if _set_valued(iterable):
                yield ctx.violation(
                    self, iterable,
                    "iteration over a set has no ordering contract; sort it "
                    "(or iterate the underlying sequence) before it can feed "
                    "the event queue",
                )
