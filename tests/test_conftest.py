"""A failing Hypothesis test is reported as one failure, and the session goes on.

Hypothesis reports a falsifying example through hypothesis.extra._patching,
whose imports (libcst, then mypy_extensions) raise a DeprecationWarning.
Under the project's filterwarnings = error that import, made inside
pytest's report hook, ended the session with INTERNALERROR, so no later
test ran. tests/conftest.py imports the module up front with the warning
ignored; this runs a failing @given test in a child pytest under the
project's settings and that conftest.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
