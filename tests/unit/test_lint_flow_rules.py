"""Good/bad fixtures for the whole-program rules (W401-W404).

Same convention as ``test_lint_rules.py``: every rule gets fixtures that
must fire and fixtures that must stay silent, run through the real
``lint_paths`` entry point so the graph build and sim-scope logic are
exercised end to end.
"""

import textwrap

import pytest

from repro.lint import all_checkers, lint_paths
from repro.lint.baseline import BaselineError, save_baseline

CATALOGUE = 'STREAM_NAMES = {"deployment": "d", "node.*": "per-node"}\n'


def lint_tree(tmp_path, files, select=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path / "repro"],
                      all_checkers(select=select), root=tmp_path)


def rules_of(violations):
    return [v.rule for v in violations]


# --------------------------------------------------------------------- W401
HELPER = """
    import time

    def stamp():
        return time.time()

    def indirection():
        return stamp()
"""


def test_w401_flags_sim_scoped_chain_with_full_chain(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/analysis/helpers.py": HELPER,
        "repro/sim/engine.py": """
            from ..analysis.helpers import indirection

            def schedule():
                return indirection()
        """,
    }, select=["W401"])
    assert rules_of(found) == ["W401"]
    violation = found[0]
    assert violation.path == "repro/sim/engine.py"
    # the full chain, caller to sink, in both message and details
    assert "repro.sim.engine.schedule" in violation.message
    assert "repro.analysis.helpers.indirection" in violation.message
    assert "time.time()" in violation.message
    assert "repro.analysis.helpers.stamp" in violation.details
    assert "repro/analysis/helpers.py" in violation.details


def test_w401_ignores_the_same_helper_called_from_perf(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/analysis/helpers.py": HELPER,
        "repro/perf/bench.py": """
            from ..analysis.helpers import indirection

            def measure():
                return indirection()
        """,
    }, select=["W401"])
    assert found == []


def test_w401_flags_global_random_sinks_too(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/analysis/noise.py": """
            import random

            def jitter():
                return random.random()
        """,
        "repro/core/node.py": """
            from ..analysis.noise import jitter

            def wake():
                return jitter()
        """,
    }, select=["W401"])
    assert rules_of(found) == ["W401"]
    assert "random.random()" in found[0].message


def test_w401_respects_wallclock_boundary_marker(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/obs/provenance.py": """
            import time

            def wall_clock_s():  # peas-lint: wallclock-boundary
                return time.perf_counter()
        """,
        "repro/harness/runner.py": """
            from ..obs.provenance import wall_clock_s

            def run():
                return wall_clock_s()
        """,
    }, select=["W401"])
    assert found == []


def test_w401_direct_in_scope_sinks_are_d_rules_not_w401(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/engine.py": """
            import time

            def schedule():
                return time.time()
        """,
    })
    assert "D103" in rules_of(found)
    assert "W401" not in rules_of(found)


def test_w401_refuses_baselining(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/analysis/helpers.py": HELPER,
        "repro/sim/engine.py": """
            from ..analysis.helpers import indirection

            def schedule():
                return indirection()
        """,
    }, select=["W401"])
    with pytest.raises(BaselineError, match="determinism"):
        save_baseline(tmp_path / "baseline.json", found)


# --------------------------------------------------------------------- W402
def test_w402_accepts_declared_names_and_families(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/streams.py": CATALOGUE,
        "repro/sim/uses.py": """
            def build(rngs, key):
                a = rngs.stream("deployment")
                b = rngs.stream(f"node.{key}")
                return a, b
        """,
    }, select=["W402"])
    assert found == []


def test_w402_flags_undeclared_name_prefix_and_dynamic(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/streams.py": CATALOGUE,
        "repro/sim/uses.py": """
            def build(rngs, key):
                a = rngs.stream("typo-name")
                b = rngs.stream(f"edge.{key}")
                c = rngs.stream(key)
                return a, b, c
        """,
    }, select=["W402"])
    assert rules_of(found) == ["W402", "W402", "W402"]
    messages = " | ".join(v.message for v in found)
    assert '"typo-name"' in messages
    assert '"edge."' in messages
    assert "not statically checkable" in messages


def test_w402_checks_registry_helper_draws_with_literal_names(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/streams.py": CATALOGUE,
        "repro/sim/uses.py": """
            def draw(rngs, rng):
                bad = rngs.exponential("undeclared", 2.0)
                fine = rng.uniform(0.0, 1.0)   # plain Random draw: no name
                return bad, fine
        """,
    }, select=["W402"])
    assert rules_of(found) == ["W402"]
    assert '"undeclared"' in found[0].message


def test_w402_exempts_the_registry_implementation(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/streams.py": CATALOGUE,
        "repro/sim/rng.py": """
            def exponential(self, name, rate):
                return self.stream(name).expovariate(rate)
        """,
    }, select=["W402"])
    assert found == []


def test_w402_without_catalogue_flags_only_literals(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/uses.py": """
            def build(rngs):
                return rngs.stream("anything")
        """,
    }, select=["W402"])
    assert rules_of(found) == ["W402"]
    assert "no STREAM_NAMES catalogue" in found[0].message


# --------------------------------------------------------------------- W403
def test_w403_flags_lambda_and_nested_captures(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/experiments/sweep.py": """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                def task(x):
                    return x
                with ProcessPoolExecutor(initializer=lambda: None) as ex:
                    ex.submit(task, 1)
                    list(ex.map(lambda v: v, items))
        """,
    }, select=["W403"])
    assert rules_of(found) == ["W403", "W403", "W403"]
    messages = " | ".join(v.message for v in found)
    assert "initializer" in messages
    assert "task" in messages


def test_w403_flags_stateful_initargs(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/experiments/sweep.py": """
            import multiprocessing

            def boot(lock):
                pass

            def run():
                with multiprocessing.Pool(
                    initializer=boot,
                    initargs=(multiprocessing.Lock(),),
                ) as pool:
                    pool.map(len, [()])
        """,
    }, select=["W403"])
    assert rules_of(found) == ["W403"]
    assert "Lock" in found[0].message


def test_w403_allows_module_level_functions_and_thread_pools(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/experiments/sweep.py": """
            from concurrent.futures import ProcessPoolExecutor
            from functools import partial

            def worker(x):
                return x

            def run(items):
                with ProcessPoolExecutor() as ex:
                    list(ex.map(partial(worker), items))
        """,
        "repro/experiments/threads.py": """
            from concurrent.futures import ThreadPoolExecutor

            def run(items):
                with ThreadPoolExecutor() as ex:
                    list(ex.map(lambda v: v, items))  # threads: no pickling
        """,
    }, select=["W403"])
    assert found == []


# --------------------------------------------------------------------- W404
def test_w404_flags_lambda_and_nested_schedule_captures(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/core/node.py": """
            def arm(sim):
                def fire():
                    pass
                sim.schedule(1.0, fire)
                sim.schedule_at(5.0, lambda: None)
        """,
    }, select=["W404"])
    assert rules_of(found) == ["W404", "W404"]
    messages = " | ".join(v.message for v in found)
    assert "'fire'" in messages
    assert "lambda" in messages
    assert "peas-snapshot/1" in messages


def test_w404_accepts_handler_descriptors(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/core/node.py": """
            def arm(sim, node):
                def fire():
                    pass
                sim.schedule(1.0, fire, handler=("node.fire", (node.id,)))
                sim.schedule_at(5.0, lambda: None,
                                handler=("node.sleep", (node.id,)))
        """,
    }, select=["W404"])
    assert found == []


def test_w404_respects_snapshot_exempt_marker(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/sim/process.py": """
            def advance(sim):
                def step():
                    pass
                sim.schedule(0.0, step)  # peas-lint: snapshot-exempt
        """,
    }, select=["W404"])
    assert found == []


def test_w404_quiet_outside_sim_scope_and_for_bound_methods(tmp_path):
    found = lint_tree(tmp_path, {
        "repro/perf/bench.py": """
            def arm(sim):
                sim.schedule(1.0, lambda: None)
        """,
        "repro/core/node.py": """
            def arm(sim, node):
                sim.schedule(1.0, node.wake)
        """,
    }, select=["W404"])
    assert found == []
