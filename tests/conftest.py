import os
import warnings

import pytest
from hypothesis import settings

# Hypothesis reports a failing @given test through hypothesis.extra._patching,
# which imports libcst, which imports mypy_extensions, which warns with a
# DeprecationWarning. Under filterwarnings = error that import would raise
# inside pytest's report hook and end the session with INTERNALERROR, so it
# is imported once here with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# property tests replay a fixed set of examples, so every run checks the same cases
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

_RESULTS: list[tuple[int, bool, str]] = []


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped, as the benchmark's process_left_running does."""
    yield
    if not hasattr(os, "WNOHANG"):  # Windows has no wait for any child
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one zombie, if there is one
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'unreaped (pid {pid})'}")


# the real calls, so a test that patches os.sched_getaffinity is still checked against the process's own mask
_GET_MASK, _SET_MASK = getattr(os, "sched_getaffinity", None), getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def no_pin_left():
    """Fail a test that leaves this process pinned to other CPUs than before it, and unpin it.

    A leaked pin would quietly run every later test, and the helper processes it forks, on fewer CPUs.
    """
    if _GET_MASK is None:
        yield
        return
    before = _GET_MASK(0)
    yield
    after = _GET_MASK(0)
    if after != before:
        _SET_MASK(0, before)
        pytest.fail(f"the test left this process pinned to CPUs {sorted(after)}, not {sorted(before)}")


@pytest.fixture
def criterion():
    """Record one acceptance-criterion outcome, then enforce it."""

    def _record(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        _RESULTS.append((number, ok, detail))
        print(line)
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(_RESULTS):
        terminalreporter.write_line(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
