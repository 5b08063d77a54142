"""The determinism rules: every run must be a pure function of its seed.

PEAS's §5 results are averages over seeded runs of randomised sleep draws
(§2.2), so a draw or a clock read that the seed does not decide makes them
unreproducible.  The runtime gates (the pinned result and trace hashes, the
perfbench seed-0 digests) see only the code a pinned run executes; these
static rules cover the rest.  Each walks every ``src/repro/**/*.py`` with
``ast``:

========  ============================================================
``D101``  ``random.random()`` & co. draw from the hidden global stream:
          any import that also draws from it reorders every draw.
``D102``  ``random.Random(x)`` with a runtime seed bypasses
          ``derive_seed``: two components fed the same master seed replay
          identical streams.  Exempt: ``repro/sim/rng.py``, the registry.
``D103``  wall-clock reads tie results to host speed.  Exempt: the
          modules that time the host on purpose (``HOST_CLOCK_MODULES``).
``D104``  iterating a set feeds hash order into event scheduling.  Only
          in the packages whose code runs inside the simulation.
``W403``  lambdas, nested functions and stateful objects handed to a
          process pool fail at the pickle boundary into workers.  Only in
          files that import a process pool.
========  ============================================================

A rule is a function ``rule(tree, rel)`` yielding ``(node, message)`` for
one parsed file at ``rel``, its path below ``src/``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages whose code runs inside the simulation (D104's scope).
SIM_PACKAGES = tuple(
    f"repro/{package}/" for package in
    "sim net core energy routing coverage sensing baselines failures faults "
    "protocols harness".split()
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

#: Stochastic functions of the ``random`` module's hidden global instance.
GLOBAL_RANDOM = {
    f"random.{fn}" for fn in
    "random uniform randint randrange choice choices sample shuffle "
    "expovariate gauss normalvariate betavariate gammavariate lognormvariate "
    "paretovariate weibullvariate vonmisesvariate triangular seed "
    "getrandbits randbytes".split()
}

HOST_CLOCKS = {
    *(f"time.{fn}{ns}" for ns in ("", "_ns") for fn in
      ("time", "perf_counter", "monotonic", "process_time")),
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


def imported_calls(tree):
    """Yield ``(call, dotted)`` for every call in ``tree``, ``dotted`` being
    the imported name the callee resolves to (``''`` if none): with
    ``import datetime as dt``, ``dt.datetime.now()`` gives
    ``datetime.datetime.now``; with ``from random import choice as pick``,
    ``pick()`` gives ``random.choice``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                top = item.name.split(".")[0]
                names[item.asname or top] = item.name if item.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                names[item.asname or item.name] = f"{node.module}.{item.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            attrs, func = [], node.func
            while isinstance(func, ast.Attribute):
                attrs.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name) and func.id in names:
                yield node, ".".join([names[func.id], *reversed(attrs)])
            else:
                yield node, ""


def _callee(call):
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)``."""
    return getattr(call.func, "id", getattr(call.func, "attr", ""))


def module_random(tree, rel):
    for call, name in imported_calls(tree):
        if name in GLOBAL_RANDOM:
            yield call, (f"{name}() draws from the process-global stream; "
                         "use a named RngRegistry stream instead")


def underived_seed(tree, rel):
    if rel == "repro/sim/rng.py":  # the one legitimate deriving constructor
        return
    for call, name in imported_calls(tree):
        if name != "random.Random":
            continue
        if not call.args and not call.keywords:
            yield call, ("random.Random() seeds from OS entropy: derive the "
                         "seed via RngRegistry/derive_seed")
        elif call.args and not isinstance(call.args[0], ast.Constant) and not (
            isinstance(call.args[0], ast.Call)
            and _callee(call.args[0]) == "derive_seed"
        ):
            yield call, ("random.Random(<runtime seed>) correlates streams "
                         "across components: use RngRegistry(seed)"
                         ".stream(name) or derive_seed(seed, name)")


def wall_clock(tree, rel):
    if rel.startswith(HOST_CLOCK_MODULES):
        return
    for call, name in imported_calls(tree):
        if name in HOST_CLOCKS:
            yield call, (f"{name}() reads the host clock outside the "
                         "host-timing modules; simulated and traced values "
                         "must use Simulator.now")


def set_iteration(tree, rel):
    if not rel.startswith(SIM_PACKAGES):
        return
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables = [gen.iter for gen in node.generators]
        else:
            continue
        for it in iterables:
            if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and getattr(it.func, "id", "") in ("set", "frozenset")
            ):
                yield it, ("iteration over a set has no ordering contract; "
                           "sort it (or iterate the underlying sequence) "
                           "before it can feed the event queue")


POOL_SUBMITS = {"submit", "map", "apply", "apply_async", "starmap",
                "starmap_async", "imap", "imap_unordered"}
STATEFUL_CTORS = {"Lock", "RLock", "open", "Tracer", "Simulator"}


def _imports_a_process_pool(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [item.name for item in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if modules[0].startswith("concurrent") and any(
                item.name == "ProcessPoolExecutor" for item in node.names
            ):
                return True
        else:
            continue
        if any(module.split(".")[0] == "multiprocessing" for module in modules):
            return True
    return False


def _task_findings(arg, nested, role):
    if isinstance(arg, ast.Lambda):
        yield arg, (f"lambda as {role} cannot be pickled into pool workers; "
                    "use a module-level function")
    elif isinstance(arg, ast.Name) and arg.id in nested:
        yield arg, (f"nested function '{arg.id}' as {role} cannot be pickled "
                    "into pool workers; hoist it to module level")
    elif isinstance(arg, ast.Call) and _callee(arg) == "partial" and arg.args:
        yield from _task_findings(arg.args[0], nested, f"{role} (via partial)")


def fork_unsafe_capture(tree, rel):
    if not _imports_a_process_pool(tree):
        return
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {
        inner.name for outer in ast.walk(tree) if isinstance(outer, defs)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, defs)
    }
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if _callee(call) in ("ProcessPoolExecutor", "Pool"):
            for keyword in call.keywords:
                if keyword.arg == "initializer":
                    yield from _task_findings(keyword.value, nested,
                                              "worker initializer")
                elif keyword.arg == "initargs" and isinstance(
                    keyword.value, (ast.Tuple, ast.List)
                ):
                    for arg in keyword.value.elts:
                        if isinstance(arg, ast.Lambda):
                            yield arg, ("lambda in initargs cannot cross the "
                                        "pickle boundary into pool workers")
                        elif (isinstance(arg, ast.Call)
                              and _callee(arg) in STATEFUL_CTORS):
                            yield arg, (f"{_callee(arg)}(...) in initargs is "
                                        "stateful/unpicklable; construct it "
                                        "inside the worker initializer")
        elif (isinstance(call.func, ast.Attribute)
              and call.func.attr in POOL_SUBMITS and call.args):
            yield from _task_findings(call.args[0], nested, "pool task")


RULES = (
    ("D101", module_random),
    ("D102", underived_seed),
    ("D103", wall_clock),
    ("D104", set_iteration),
    ("W403", fork_unsafe_capture),
)


def findings(rel, source):
    """``(line, col, 'RULE message')`` for every finding, in source order."""
    tree = ast.parse(source, filename=rel)
    return sorted(
        (node.lineno, node.col_offset, f"{code} {message}")
        for code, rule in RULES for node, message in rule(tree, rel)
    )


def test_src_obeys_the_determinism_rules():
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert paths
    for scoped in ("repro/sim/rng.py", *HOST_CLOCK_MODULES, *SIM_PACKAGES):
        assert (SRC / scoped).exists(), f"a rule scope names missing {scoped}"
    report = [
        f"{rel}:{line}: {finding}"
        for path in paths for rel in [path.relative_to(SRC).as_posix()]
        for line, _col, finding in findings(rel, path.read_text("utf-8"))
    ]
    assert not report, "\n".join(report)


CLOCK_READ = """
    import time

    def stamp(t):
        return t + time.time()
"""

#: ``(rel, source, expected)``: ``expected`` holds one prefix per finding,
#: in source order.
FIXTURES = [
    pytest.param("repro/sim/mod.py", "import random\nx = random.random()\n",
                 ["D101 random.random() draws from the process-global stream; "
                  "use a named RngRegistry stream"], id="d101_module_random"),
    pytest.param("anywhere.py", """
        import random as rnd
        from random import choice as pick

        def f(items):
            rnd.shuffle(items)
            return pick(items)
    """, ["D101 random.shuffle()", "D101 random.choice()"],
        id="d101_aliases_and_from_import"),
    pytest.param("repro/sim/mod.py", """
        import random

        def f(rng: random.Random):
            return rng.random() + rng.uniform(0, 1)
    """, [], id="d101_instance_draws_pass"),
    pytest.param("repro/tool.py", """
        import random

        def f(seed):
            return random.Random(seed)
    """, ["D102 random.Random(<runtime seed>)"], id="d102_runtime_seed"),
    pytest.param("repro/tool.py", "from random import Random\nr = Random()\n",
                 ["D102 random.Random() seeds from OS entropy"],
                 id="d102_unseeded"),
    pytest.param("repro/tool.py", """
        import random
        from repro.sim import derive_seed

        fallback = random.Random(0)

        def f(seed):
            return random.Random(derive_seed(seed, "stream"))
    """, [], id="d102_constant_and_derived_seeds_pass"),
    pytest.param("repro/sim/rng.py", """
        import random

        def stream(seed):
            return random.Random(seed)
    """, [], id="d102_registry_exempt"),
    pytest.param("repro/net/mod.py", """
        import time
        from datetime import datetime

        def f():
            return time.time(), datetime.now()
    """, ["D103 time.time()", "D103 datetime.datetime.now()"],
        id="d103_wallclock_in_sim_scope"),
    pytest.param("repro/core/mod.py", """
        from time import perf_counter

        def f():
            return perf_counter()
    """, ["D103 time.perf_counter() reads the host clock"],
        id="d103_from_imported_clock"),
    pytest.param("repro/experiments/metrics.py", """
        import datetime
        import datetime as dt
        from datetime import date

        def stamps():
            return (datetime.datetime.now(), dt.datetime.utcnow(),
                    date.today(), datetime.date.today())
    """, ["D103 datetime.datetime.now()", "D103 datetime.datetime.utcnow()",
          "D103 datetime.date.today()", "D103 datetime.date.today()"],
        id="d103_dotted_datetime_reads"),
    pytest.param("repro/obs/events.py", CLOCK_READ, ["D103 time.time()"],
                 id="d103_helper_obs_events"),
    pytest.param("repro/experiments/metrics.py", CLOCK_READ,
                 ["D103 time.time()"], id="d103_helper_experiments_metrics"),
    *(pytest.param(rel, CLOCK_READ, [], id=f"d103_spares_{rel}")
      for rel in HOST_CLOCK_MODULES[:4]),
    pytest.param("repro/sim/mod.py", """
        import time

        def f(clock=time.perf_counter):
            return clock
    """, [], id="d103_bare_reference_passes"),
    pytest.param("repro/perf/mod.py", "import time\nt = time.perf_counter()\n",
                 [], id="d103_spares_repro_perf"),
    pytest.param("repro/routing/mod.py", """
        def f(items):
            for x in set(items):
                yield x
            return [y for y in {1, 2, 3}]
    """, ["D104", "D104"], id="d104_set_iteration"),
    pytest.param("repro/coverage/mod.py", """
        def f(items):
            for x in sorted(set(items)):
                yield x
    """, [], id="d104_sorted_set_passes"),
    pytest.param("repro/obs/mod.py", """
        def f(items):
            for x in set(items):
                yield x
    """, [], id="d104_outside_sim_passes"),
    pytest.param("repro/experiments/sweep.py", """
        from concurrent.futures import ProcessPoolExecutor

        def run(items):
            def task(x):
                return x
            with ProcessPoolExecutor(initializer=lambda: None) as ex:
                ex.submit(task, 1)
                list(ex.map(lambda v: v, items))
    """, ["W403 lambda as worker initializer",
          "W403 nested function 'task' as pool task",
          "W403 lambda as pool task"], id="w403_lambda_and_nested_captures"),
    pytest.param("repro/experiments/sweep.py", """
        import multiprocessing

        def boot(lock):
            pass

        def run():
            with multiprocessing.Pool(
                initializer=boot,
                initargs=(multiprocessing.Lock(),),
            ) as pool:
                pool.map(len, [()])
    """, ["W403 Lock(...) in initargs"], id="w403_stateful_initargs"),
    pytest.param("repro/experiments/sweep.py", """
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        def worker(x):
            return x

        def run(items):
            with ProcessPoolExecutor() as ex:
                list(ex.map(partial(worker), items))
    """, [], id="w403_module_level_function_passes"),
    pytest.param("repro/experiments/threads.py", """
        from concurrent.futures import ThreadPoolExecutor

        def run(items):
            with ThreadPoolExecutor() as ex:
                list(ex.map(lambda v: v, items))  # threads: no pickling
    """, [], id="w403_thread_pool_passes"),
]


@pytest.mark.parametrize("rel, source, expected", FIXTURES)
def test_rule_fixture(rel, source, expected):
    found = [finding for _line, _col, finding in
             findings(rel, textwrap.dedent(source))]
    assert len(found) == len(expected), found
    for finding, prefix in zip(found, expected):
        assert finding.startswith(prefix), (finding, prefix)
