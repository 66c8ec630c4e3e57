"""The benchmark's helper scripts still run against the package, each in a fresh process.

perfbench/run.py passes each workload's flags to the CLI,
perfbench/probe.py builds its run with make_config's keywords,
perfbench/verify.py parses a traced log back through Event and
EventLog(list), and perfbench/traced.py wraps functions by name. A
rename in the package would otherwise break the benchmark without
failing a test.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_erasure
from aoi_erasure import cli
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


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look the module up there while the classes are built
    spec.loader.exec_module(run)
    return run


WORKLOADS = _load_run().WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cli_accepts_every_workload_command_line(tmp_path, name):
    # parsed only, not run: a flag the CLI dropped would fail every benchmark run of the workload
    argv = WORKLOADS[name].argv(1, tmp_path)
    parser, commands = cli._build_parser()
    try:
        args = cli._parse(parser, commands, argv)
    except SystemExit:
        pytest.fail(f"the CLI refuses the {name} workload's command line {argv}")
    assert args.command == argv[0]


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


def _traced_counts(tmp_path: Path, *cli_args: str) -> dict:
    spans = tmp_path / "spans.json"
    _run(tmp_path, str(BENCH / "traced.py"), str(spans), "--", *cli_args)
    return json.loads(spans.read_text())["counts"]


def test_traced_counters_read_the_package(tmp_path):
    # traced.py reads _RawRun and ValidationRecord fields by name with a
    # default of 0, so a renamed field would zero a counter silently
    cell = ["--q", "0.3", "--m", "2", "--setting", "wfb", "--gamma", "0.4", "--epochs", "200", "--seed", "1"]
    counts = _traced_counts(tmp_path, "simulate", *cell, "--trace", "--out", str(tmp_path / "events.log"))
    assert counts["simulator.attempts"] > 0
    assert counts["simulator.events"] == counts["simulator.arrivals"] + 2 * counts["simulator.attempts"]
    assert counts["simulator.dump.events"] == counts["simulator.events"]
    assert counts["simulator.trace.epochs"] == 400
    cell = ["--q", "0.3", "--m", "2", "--setting", "nofb", "--epochs", "2000", "--seed", "1"]
    counts = _traced_counts(tmp_path, "validate", *cell)
    assert counts["stats.validate.epochs"] == counts["simulator.engine.epochs"] == 4000
