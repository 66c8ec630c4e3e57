import pytest
from hypothesis import settings

# property tests replay a fixed set of examples, so every run checks the same cases
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

_RESULTS: list[tuple[int, bool, str]] = []


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
