import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_erasure
from aoi_erasure import analytic, model


@pytest.mark.parametrize("name", aoi_erasure.__all__)
def test_every_public_name_resolves(name):
    assert getattr(aoi_erasure, name) is not None
    assert name in dir(aoi_erasure)


def test_lazy_names_are_the_submodules_objects():
    simulator = importlib.import_module("aoi_erasure.simulator")
    stats = importlib.import_module("aoi_erasure.stats")
    assert aoi_erasure.run_simulation is simulator.run_simulation
    assert aoi_erasure.Epochs is simulator.Epochs
    assert aoi_erasure.EventLog is simulator.EventLog
    assert aoi_erasure.make_config is simulator.make_config is model.SimConfig
    assert aoi_erasure.validate is stats.validate
    assert aoi_erasure.ValidationRecord is stats.ValidationRecord


def test_closed_form_aoi_is_one_function():
    from aoi_erasure.stats import closed_form_aoi

    assert closed_form_aoi is analytic.closed_form_aoi is aoi_erasure.closed_form_aoi


def test_names_used_by_the_benchmark_scripts_import():
    from aoi_erasure import make_config, run_simulation, simulator  # noqa: F401
    from aoi_erasure.simulator import Event, EventLog  # noqa: F401

    assert simulator is importlib.import_module("aoi_erasure.simulator")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        aoi_erasure.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from aoi_erasure import no_such_name  # noqa: F401


def test_simulator_does_not_import_stats():
    # stats is the validation oracle on top of the simulator; the simulator must not reach back into it
    script = "import sys, aoi_erasure.simulator; print('aoi_erasure.stats' in sys.modules)"
    src = str(Path(aoi_erasure.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
