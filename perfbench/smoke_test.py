"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke_test.py

Every workload runs once per trace mode with its inputs shrunk. The
result line must be well formed, report every metric BENCHMARK.json
names with its unit and a finite value, and find no failed operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep-curves": dict(qs=(0.3, 0.6), ms=(1, 2), gammas=(0.0, 0.5, 1.0, 1.5)),
    "validate-grid": dict(qs=(0.3,), ms=(1, 2), settings=("nofb", "wfb"), epochs=2000),
    "simulate-long": dict(epochs=20_000),
    "traced-run": dict(epochs=2000),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], **changes))
    monkeypatch.setattr(run, "HORIZON", 2000.0)


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_workload_emits_every_metric(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith(f"workload {workload} ")
    assert lines[-2].startswith("env ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "PACKAGE", tmp_path / "aoi_erasure")
    code = run.main(["--workload", "sweep-curves", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    raise SystemExit(pytest.main(["-q", __file__]))
