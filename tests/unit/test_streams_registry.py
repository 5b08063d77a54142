"""The STREAM_NAMES catalogue must cover — and be covered by — the tree.

``RngRegistry.stream`` refuses an undeclared name at run time, but only on
the paths a run takes.  This self-check reads every ``.stream(...)`` call
site in the program code instead: a name used but missing from the
catalogue would fail the first run that reaches it, and a catalogue entry
no call site uses is dead weight that hides drift.
"""

import ast
from pathlib import Path

import pytest

from repro.sim.streams import STREAM_NAMES, stream_declared

REPO_ROOT = Path(__file__).resolve().parents[2]
#: where program code acquires streams (the registry itself is skipped: it
#: creates streams from the names its callers pass)
CODE_ROOTS = ("src/repro", "benchmarks", "examples", "perfbench")
REGISTRY = REPO_ROOT / "src" / "repro" / "sim" / "rng.py"


def _stream_call_sites():
    """``(where, name, prefix)`` for every ``<x>.stream(<arg>)`` call:
    ``name`` for a string literal, ``prefix`` (the literal head) for an
    f-string, neither for anything else."""
    sites = []
    for root in CODE_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path == REGISTRY:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "stream"
                    and len(node.args) == 1
                ):
                    continue
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                arg = node.args[0]
                name = prefix = None
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    name = arg.value
                elif isinstance(arg, ast.JoinedStr):
                    head = arg.values[0] if arg.values else None
                    if isinstance(head, ast.Constant):
                        prefix = head.value
                sites.append((where, name, prefix))
    return sites


@pytest.fixture(scope="module")
def sites():
    found = _stream_call_sites()
    assert found, "no stream call sites found — extraction is broken"
    return found


def test_catalogue_is_alphabetical():
    assert list(STREAM_NAMES) == sorted(STREAM_NAMES)


def test_every_entry_has_a_description():
    for name, description in STREAM_NAMES.items():
        assert description.strip(), f"catalogue entry {name!r} has no description"


def test_every_call_site_is_declared(sites):
    for where, name, prefix in sites:
        if name is not None:
            assert stream_declared(name), (
                f"{where}: stream {name!r} is not declared in STREAM_NAMES"
            )
        else:
            assert prefix is not None, (
                f"{where}: stream name is neither a literal nor an f-string "
                "with a literal head"
            )
            assert stream_declared(prefix + "suffix"), (
                f"{where}: f-string stream prefix {prefix!r} matches no "
                "declared family in STREAM_NAMES"
            )


def test_every_declared_name_is_used(sites):
    literal_names = {name for _where, name, _prefix in sites if name is not None}
    prefixes = {prefix for _where, _name, prefix in sites if prefix is not None}
    for name in STREAM_NAMES:
        if name.endswith(".*"):
            base = name[:-1]
            assert any(p.startswith(base) for p in prefixes), (
                f"declared family {name!r} has no f-string call site"
            )
        else:
            assert name in literal_names, (
                f"declared stream {name!r} has no call site; remove it or "
                "use it"
            )


def test_stream_declared_covers_families():
    assert stream_declared("node.0")
    assert stream_declared("node.anchor0")
    assert stream_declared("faults.3.region")
    assert not stream_declared("nodeX")
    assert not stream_declared("unheard-of")
