"""A failing Hypothesis test is one failure and the session goes on; a test that leaks a child fails.

Hypothesis reports a falsifying example through hypothesis.extra._patching,
whose imports (libcst, then mypy_extensions) raise a DeprecationWarning.
Under the project's filterwarnings = error that import, made inside
pytest's report hook, ended the session with INTERNALERROR, so no later
test ran. tests/conftest.py imports the module up front with the warning
ignored; this runs a failing @given test in a child pytest under the
project's settings and that conftest.

The conftest also fails, at teardown, a test that leaves a child process
running or unreaped; a second child pytest checks both cases. A third
checks that a test leaving the process pinned to fewer CPUs fails and
that the next test runs on the whole set again.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

CHILD = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 5


    def test_passes():
        pass
    """
)


def test_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD)
    path = os.pathsep.join(p for p in (str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS.parent / "pyproject.toml"),
         "-p", "conftest", "-p", "no:cacheprovider", str(tmp_path / "test_child.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]


LEAVES_A_CHILD = textwrap.dedent(
    """
    import os
    import subprocess
    import sys


    def test_leaves_a_zombie():
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # until it has exited, left unreaped


    def test_reaps_its_child():
        subprocess.run([sys.executable, "-c", "pass"], check=True)


    def test_leaves_a_child_running():
        test_leaves_a_child_running.child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(2)"])
    """
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the zombie is made by os.fork")
def test_a_test_that_leaves_a_child_fails(tmp_path):
    (tmp_path / "test_child.py").write_text(LEAVES_A_CHILD)
    path = os.pathsep.join(p for p in (str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS.parent / "pyproject.toml"),
         "-p", "conftest", "-p", "no:cacheprovider", str(tmp_path / "test_child.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    # each test passes, and the two that leave a child error at teardown
    assert "3 passed, 2 errors" in proc.stdout, proc.stdout[-2000:]
    assert "left a child process unreaped" in proc.stdout and "left a child process running" in proc.stdout


LEAVES_A_PIN = textwrap.dedent(
    """
    import os

    MASK = os.sched_getaffinity(0)


    def test_leaves_a_pin():
        os.sched_setaffinity(0, {min(MASK)})


    def test_runs_on_the_whole_set_again():
        assert os.sched_getaffinity(0) == MASK
    """
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="a pin narrower than the usable set needs two usable CPUs")
def test_a_test_that_leaves_a_pin_fails(tmp_path):
    (tmp_path / "test_child.py").write_text(LEAVES_A_PIN)
    path = os.pathsep.join(p for p in (str(TESTS), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS.parent / "pyproject.toml"),
         "-p", "conftest", "-p", "no:cacheprovider", str(tmp_path / "test_child.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    # the leaking test passes and errors at teardown; the next one sees the mask restored
    assert "2 passed, 1 error" in proc.stdout, proc.stdout[-2000:]
    assert "left this process pinned to CPUs" in proc.stdout
