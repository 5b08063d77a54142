"""The ``peas-lint`` CLI contract: exit codes and the baseline refusal.

CI and the pre-commit hook script against these exit codes, so they are
pinned here rather than implied: 0 clean, 1 new findings, 2 usage error.
"""

import textwrap

from repro.lint.cli import run_lint

CLOCKY = """
    import time

    def schedule():
        return time.time()
"""


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def lint(tmp_path, *extra):
    return run_lint([str(tmp_path / "repro"), "--root", str(tmp_path), *extra])


# ----------------------------------------------------------------- exit codes
def test_exit_0_on_empty_tree(tmp_path, capsys):
    (tmp_path / "repro").mkdir()
    assert lint(tmp_path) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_exit_0_on_clean_tree(tmp_path):
    write_tree(tmp_path, {"repro/sim/ok.py": "def f():\n    return 1\n"})
    assert lint(tmp_path) == 0


def test_exit_1_on_findings(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/engine.py": CLOCKY})
    assert lint(tmp_path) == 1
    assert "D103" in capsys.readouterr().out


def test_exit_1_on_syntax_error_file(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/bad.py": "def broken(:\n"})
    assert lint(tmp_path) == 1
    assert "E000" in capsys.readouterr().out


def test_exit_2_on_unknown_rule_id(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/ok.py": "x = 1\n"})
    assert lint(tmp_path, "--select", "Z999") == 2
    assert "Z999" in capsys.readouterr().err


def test_exit_2_on_missing_path(tmp_path, capsys):
    assert run_lint([str(tmp_path / "nowhere")]) == 2
    assert "no such path" in capsys.readouterr().err


# ------------------------------------------------------------------- baseline
def test_update_baseline_refuses_determinism_findings(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/engine.py": CLOCKY})
    baseline = tmp_path / "baseline.json"
    code = lint(tmp_path, "--baseline", str(baseline), "--update-baseline")
    assert code == 2
    assert "determinism" in capsys.readouterr().err
    assert not baseline.exists()
