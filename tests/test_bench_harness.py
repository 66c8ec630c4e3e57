"""The benchmark's helper scripts still run against the package, each in a fresh process.

perfbench/probe.py builds its run with make_config's keywords,
perfbench/verify.py parses a traced log back through Event and
EventLog(list), and perfbench/traced.py wraps functions by name. A
rename in the package would otherwise break the benchmark without
failing a test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import aoi_erasure
from aoi_erasure.stats import closed_form_aoi

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run(cwd: Path, *args: str) -> str:
    src = str(Path(aoi_erasure.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_probe_runs_its_horizon_simulation(tmp_path):
    out = json.loads(_run(tmp_path, str(BENCH / "probe.py"), "1", "200"))
    assert out["horizon_arrivals"] > 0


def test_verify_accepts_a_traced_log(tmp_path):
    log = tmp_path / "events.log"
    cell = ["--q", "0.3", "--m", "2", "--setting", "wfb", "--gamma", "0.4"]
    _run(tmp_path, "-m", "aoi_erasure.cli", "simulate", *cell,
         "--epochs", "200", "--seed", "1", "--trace", "--out", str(log))
    out = json.loads(_run(tmp_path, str(BENCH / "verify.py"), "0.3", "2", "wfb", "0.4", str(log)))
    assert out["log_error"] is None
    assert out["closed_form_aoi"] == closed_form_aoi(0.3, 2, "wfb", 0.4)


def test_traced_finds_every_target(tmp_path):
    spans = tmp_path / "spans.json"
    _run(tmp_path, str(BENCH / "traced.py"), str(spans), "--", "optimize", "--q", "0.3", "--setting", "wfb")
    assert json.loads(spans.read_text())["missing"] == []
