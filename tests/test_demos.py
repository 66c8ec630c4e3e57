"""Every demo script runs to completion in a fresh interpreter, and the
README's library quickstart runs and prints what it documents."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_erasure

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    src = str(Path(aoi_erasure.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart: library\n+```python\n(.*?)```", readme, re.S)[1]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # lines of the form `expr  # 1.409196... note` or `expr  # 'PASS'` document a value
    checked = 0
    for line in block.splitlines():
        if m := re.fullmatch(r"(\S.*?)\s+# (\d+\.(\d+))\.\.\..*", line):
            assert f"{eval(m[1], namespace):.{len(m[3])}f}" == m[2], line
            checked += 1
        elif m := re.fullmatch(r"(\S.*?)\s+# '(\w+)'", line):
            assert eval(m[1], namespace) == m[2], line
            checked += 1
    assert checked == 5
