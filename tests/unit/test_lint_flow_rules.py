"""Good/bad fixtures for the capture rule (W403).

Same convention as ``test_lint_rules.py``: every rule gets fixtures that
must fire and fixtures that must stay silent, run through the real
``lint_paths`` entry point so the sim-scope logic is exercised end to end.
"""

import textwrap

from repro.lint import all_checkers, lint_paths


def lint_tree(tmp_path, files, select=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path / "repro"],
                      all_checkers(select=select), root=tmp_path)


def rules_of(violations):
    return [v.rule for v in violations]


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
