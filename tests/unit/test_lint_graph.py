"""The whole-program graph engine: summaries, resolution, cache.

Fixture trees are written under ``tmp_path`` with a ``repro/`` segment so
module naming and sim-scope detection behave as they do on the real tree.
"""

import json
import textwrap

import pytest

from repro.lint.graph import (
    CACHE_FILENAME,
    SummaryCache,
    build_program,
    module_name_for,
    summarize_module,
)


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def graph_of(tmp_path, files, cache=False):
    write_tree(tmp_path, files)
    cache_path = tmp_path / CACHE_FILENAME if cache else None
    return build_program([tmp_path / "repro"], root=tmp_path,
                         cache_path=cache_path)


# ------------------------------------------------------------ module naming
def test_module_name_for_strips_source_prefix():
    assert module_name_for("src/repro/sim/engine.py") == ("repro.sim.engine", False)
    assert module_name_for("repro/sim/engine.py") == ("repro.sim.engine", False)
    assert module_name_for("repro/obs/__init__.py") == ("repro.obs", True)
    assert module_name_for("standalone.py") == ("standalone", False)


# ---------------------------------------------------------------- summaries
def test_summary_round_trips_through_json():
    source = textwrap.dedent(
        """
        import time
        from ..obs import helper

        class Base:
            def greet(self):  # peas-lint: wallclock-boundary
                return helper()

        class Child(Base):
            def __init__(self):
                self.x = 1

        def clocky():
            return time.time()
        """
    )
    import ast

    summary = summarize_module("repro/sim/mod.py", source, ast.parse(source))
    payload = json.loads(json.dumps(summary.as_dict()))
    from repro.lint.graph import ModuleSummary

    restored = ModuleSummary.from_dict(payload)
    assert restored == summary
    assert restored.functions["clocky"].sinks[0].what == "time.time()"
    assert restored.functions["Base.greet"].boundary
    assert not restored.functions["clocky"].boundary
    assert restored.classes["Child"].bases == ("Base",)
    assert restored.imports["helper"] == "repro.obs.helper"


# --------------------------------------------------------------- resolution
def test_resolves_direct_relative_and_reexported_imports(tmp_path):
    graph = graph_of(tmp_path, {
        "repro/util/__init__.py": "from .impl import helper\n",
        "repro/util/impl.py": "def helper():\n    return 1\n",
        "repro/sim/a.py": """
            from ..util import helper
            from ..util.impl import helper as direct

            def use():
                helper()

            def use_direct():
                direct()
        """,
    })
    edges = {
        target
        for symbol in ("repro.sim.a:use", "repro.sim.a:use_direct")
        for target, _ in graph.edges_from(symbol)
    }
    assert edges == {"repro.util.impl:helper"}


def test_resolves_self_methods_inheritance_and_constructors(tmp_path):
    graph = graph_of(tmp_path, {
        "repro/sim/base.py": """
            class Base:
                def shared(self):
                    return 0
        """,
        "repro/sim/impl.py": """
            from .base import Base

            class Impl(Base):
                def __init__(self):
                    self.n = 0

                def run(self):
                    self.shared()

            def make():
                return Impl()
        """,
    })
    run_edges = [t for t, _ in graph.edges_from("repro.sim.impl:Impl.run")]
    assert run_edges == ["repro.sim.base:Base.shared"]
    make_edges = [t for t, _ in graph.edges_from("repro.sim.impl:make")]
    assert make_edges == ["repro.sim.impl:Impl.__init__"]


def test_unresolvable_calls_produce_no_edges(tmp_path):
    graph = graph_of(tmp_path, {
        "repro/sim/a.py": """
            import os

            def use(thing):
                os.getcwd()        # stdlib: outside the lint scope
                thing.method()     # unknown receiver type
                (lambda: 1)()      # not nameable
        """,
    })
    assert graph.edges_from("repro.sim.a:use") == []


def test_graph_dumps(tmp_path):
    graph = graph_of(tmp_path, {
        "repro/sim/a.py": """
            def callee():
                return 1

            def caller():
                return callee()
        """,
    })
    payload = json.loads(graph.to_json())
    assert payload["schema"] == "peas-callgraph/1"
    functions = payload["modules"]["repro.sim.a"]["functions"]
    assert functions["caller"]["calls"] == [
        {"to": "repro.sim.a.callee", "line": 6}
    ]
    assert functions["caller"]["sim_scoped"] is True
    dot = graph.to_dot()
    assert '"repro.sim.a.caller" -> "repro.sim.a.callee";' in dot


# -------------------------------------------------------------------- cache
FILES = {
    "repro/sim/a.py": "def f():\n    return 1\n",
    "repro/sim/b.py": "def g():\n    return 2\n",
}


def test_cache_cold_then_warm(tmp_path):
    graph = graph_of(tmp_path, FILES, cache=True)
    assert graph.stats == {"parsed": 2, "cached": 0}
    warm = build_program([tmp_path / "repro"], root=tmp_path,
                         cache_path=tmp_path / CACHE_FILENAME)
    assert warm.stats == {"parsed": 0, "cached": 2}


def test_mtime_only_touch_stays_warm_content_change_reparses(tmp_path):
    graph_of(tmp_path, FILES, cache=True)
    target = tmp_path / "repro/sim/a.py"
    # mtime bump, identical bytes: still a cache hit
    target.touch()
    warm = build_program([tmp_path / "repro"], root=tmp_path,
                         cache_path=tmp_path / CACHE_FILENAME)
    assert warm.stats == {"parsed": 0, "cached": 2}
    # content change: exactly that file re-parses
    target.write_text("def f():\n    return 3\n", encoding="utf-8")
    edited = build_program([tmp_path / "repro"], root=tmp_path,
                           cache_path=tmp_path / CACHE_FILENAME)
    assert edited.stats == {"parsed": 1, "cached": 1}


def test_corrupt_or_version_skewed_cache_degrades_to_cold(tmp_path):
    write_tree(tmp_path, FILES)
    cache_path = tmp_path / CACHE_FILENAME
    cache_path.write_text("{not json", encoding="utf-8")
    graph = build_program([tmp_path / "repro"], root=tmp_path,
                          cache_path=cache_path)
    assert graph.stats == {"parsed": 2, "cached": 0}
    payload = json.loads(cache_path.read_text(encoding="utf-8"))
    payload["version"] = 999
    cache_path.write_text(json.dumps(payload), encoding="utf-8")
    graph = build_program([tmp_path / "repro"], root=tmp_path,
                          cache_path=cache_path)
    assert graph.stats == {"parsed": 2, "cached": 0}


def test_cache_prunes_deleted_files(tmp_path):
    graph_of(tmp_path, FILES, cache=True)
    (tmp_path / "repro/sim/b.py").unlink()
    build_program([tmp_path / "repro"], root=tmp_path,
                  cache_path=tmp_path / CACHE_FILENAME)
    payload = json.loads((tmp_path / CACHE_FILENAME).read_text(encoding="utf-8"))
    assert sorted(payload["entries"]) == ["repro/sim/a.py"]


def test_syntax_error_files_are_skipped_not_cached(tmp_path):
    write_tree(tmp_path, {"repro/sim/bad.py": "def broken(:\n"})
    graph = build_program([tmp_path / "repro"], root=tmp_path,
                          cache_path=tmp_path / CACHE_FILENAME)
    assert graph.stats == {"parsed": 0, "cached": 0}
    assert graph.by_module == {}


def test_content_hash_is_stable():
    assert SummaryCache.content_hash("x = 1\n") == SummaryCache.content_hash("x = 1\n")
    assert SummaryCache.content_hash("x = 1\n") != SummaryCache.content_hash("x = 2\n")
