"""Good/bad fixtures for every peas-lint rule.

Each rule gets at least one snippet that must fire and one that must stay
silent, exercised through the real ``lint_file`` entry point so path scoping
(``applies_to``) is covered too.
"""

import textwrap

import pytest

from repro.lint import all_checkers, lint_file, lint_paths
from repro.lint.cli import run_lint
from repro.lint.framework import LintError


def lint_snippet(tmp_path, rel, source, select=None, ignore=None):
    """Write ``source`` at ``tmp_path/rel`` and lint it with the full rules."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, all_checkers(select=select, ignore=ignore),
                     root=tmp_path)


def rules_of(violations):
    return [v.rule for v in violations]


# --------------------------------------------------------------------- D101
def test_d101_flags_module_level_random(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/sim/mod.py",
        """
        import random
        x = random.random()
        """,
    )
    assert rules_of(found) == ["D101"]
    assert "RngRegistry" in found[0].message


def test_d101_flags_from_import_and_aliases(tmp_path):
    found = lint_snippet(
        tmp_path,
        "anywhere.py",
        """
        import random as rnd
        from random import choice as pick

        def f(items):
            rnd.shuffle(items)
            return pick(items)
        """,
    )
    assert rules_of(found) == ["D101", "D101"]


def test_d101_allows_instance_draws(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/sim/mod.py",
        """
        import random

        def f(rng: random.Random):
            return rng.random() + rng.uniform(0, 1)
        """,
    )
    assert found == []


# --------------------------------------------------------------------- D102
def test_d102_flags_runtime_seed(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/tool.py",
        """
        import random

        def f(seed):
            return random.Random(seed)
        """,
    )
    assert rules_of(found) == ["D102"]


def test_d102_flags_unseeded_constructor(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/tool.py",
        """
        from random import Random
        r = Random()
        """,
    )
    assert rules_of(found) == ["D102"]
    assert "OS entropy" in found[0].message


def test_d102_allows_constant_and_derived_seeds(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/tool.py",
        """
        import random
        from repro.sim import derive_seed

        fallback = random.Random(0)

        def f(seed):
            return random.Random(derive_seed(seed, "stream"))
        """,
    )
    assert found == []


def test_d102_exempts_the_registry_itself(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/sim/rng.py",
        """
        import random

        def stream(seed):
            return random.Random(seed)
        """,
    )
    assert found == []


# --------------------------------------------------------------------- D103
def test_d103_flags_wallclock_in_sim_scope(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/net/mod.py",
        """
        import time
        from datetime import datetime

        def f():
            return time.time(), datetime.now()
        """,
    )
    assert sorted(rules_of(found)) == ["D103", "D103"]


def test_d103_flags_from_imported_clock(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/core/mod.py",
        """
        from time import perf_counter

        def f():
            return perf_counter()
        """,
    )
    assert rules_of(found) == ["D103"]


@pytest.mark.parametrize("rel", [
    "repro/obs/events.py",            # trace constructors sim code calls
    "repro/experiments/metrics.py",   # result helpers the harness calls
])
def test_d103_flags_wallclock_in_helpers_outside_sim_packages(tmp_path, rel):
    found = lint_snippet(
        tmp_path,
        rel,
        """
        import time

        def stamp(t):
            return t + time.time()
        """,
    )
    assert rules_of(found) == ["D103"]


@pytest.mark.parametrize("rel", [
    "repro/obs/manifest.py",
    "repro/experiments/executor.py",
    "repro/experiments/telemetry.py",
    "repro/store.py",
])
def test_d103_spares_the_host_timing_modules(tmp_path, rel):
    assert lint_snippet(
        tmp_path,
        rel,
        """
        import time

        def wall_clock_s():
            return time.perf_counter()
        """,
    ) == []


def test_d103_ignores_references_and_out_of_scope_code(tmp_path):
    # A bare reference (e.g. a default clock argument) is not a read, and
    # repro.perf measures wall time on purpose.
    assert lint_snippet(
        tmp_path,
        "repro/sim/mod.py",
        """
        import time

        def f(clock=time.perf_counter):
            return clock
        """,
    ) == []
    assert lint_snippet(
        tmp_path,
        "repro/perf/mod.py",
        """
        import time
        t = time.perf_counter()
        """,
    ) == []


# --------------------------------------------------------------------- D104
def test_d104_flags_set_iteration(tmp_path):
    found = lint_snippet(
        tmp_path,
        "repro/routing/mod.py",
        """
        def f(items):
            for x in set(items):
                yield x
            return [y for y in {1, 2, 3}]
        """,
    )
    assert rules_of(found) == ["D104", "D104"]


def test_d104_allows_sorted_sets_and_non_sim_scope(tmp_path):
    assert lint_snippet(
        tmp_path,
        "repro/coverage/mod.py",
        """
        def f(items):
            for x in sorted(set(items)):
                yield x
        """,
    ) == []
    assert lint_snippet(
        tmp_path,
        "repro/obs/mod.py",
        """
        def f(items):
            for x in set(items):
                yield x
        """,
    ) == []


# ---------------------------------------------------------------- framework
def test_syntax_error_is_a_finding(tmp_path):
    found = lint_snippet(tmp_path, "broken.py", "def f(:\n")
    assert rules_of(found) == ["E000"]


def test_select_and_ignore_filter_rules(tmp_path):
    source = """
    import random
    x = random.random()
    """
    assert rules_of(lint_snippet(tmp_path, "m.py", source, select=["D101"])) == ["D101"]
    assert lint_snippet(tmp_path, "m.py", source, select=["concurrency"]) == []
    assert lint_snippet(tmp_path, "m.py", source, ignore=["D101"]) == []
    with pytest.raises(LintError):
        all_checkers(select=["NOPE999"])


def test_lint_paths_sorts_and_recurses(tmp_path):
    for name in ("b.py", "a.py"):
        (tmp_path / name).write_text("import random\nrandom.seed(1)\n")
    found = lint_paths([tmp_path], root=tmp_path)
    assert [v.path for v in found] == ["a.py", "b.py"]


def test_fingerprint_survives_line_moves(tmp_path):
    before = lint_snippet(tmp_path, "m1.py", "import random\nx = random.random()\n")
    after = lint_snippet(
        tmp_path, "m1.py", "import random\n\n\n# shifted\nx = random.random()\n"
    )
    assert before[0].fingerprint() == after[0].fingerprint()
    assert before[0].line != after[0].line


# ---------------------------------------------------------------------- CLI
def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")

    assert run_lint([str(clean)]) == 0
    assert run_lint([str(dirty)]) == 1
    assert run_lint([str(tmp_path / "missing.py")]) == 2
    assert run_lint(["--select", "BOGUS", str(clean)]) == 2
    capsys.readouterr()

    assert run_lint(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    listed = [line.split()[0] for line in listing.splitlines()[2:]]
    assert listed == ["D101", "D102", "D103", "D104", "W403"]
    # Linting reads only: nothing is written next to the linted files.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.py", "dirty.py"]


def test_cli_json_report_and_output_file(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    report_path = tmp_path / "report.json"
    code = run_lint(
        ["--format", "json", "--output", str(report_path),
         "--root", str(tmp_path), str(dirty)]
    )
    assert code == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"total": 1, "new": 1, "suppressed": 0}
    assert payload["findings"][0]["rule"] == "D101"
    assert payload["findings"][0]["path"] == "dirty.py"
    assert json.loads(report_path.read_text()) == payload
