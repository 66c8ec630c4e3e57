"""Average age of information for a unit-battery sensor on an erasure channel.

Closed-form solvers and evaluators for threshold transmission policies
(one or many sources, with or without erasure feedback) next to a
seeded discrete-event simulator that reproduces the same quantities by
renewal-reward estimation.

Importing the package loads only the analytic layer, which needs no
numpy. The simulator and stats names (EventLog, make_config,
run_simulation, Epochs, ValidationRecord, validate) are loaded on first
access, through the module __getattr__ of PEP 562.
"""

import importlib

from .analytic import (
    BracketError,
    MaxMoments,
    aoi_maf_wfb,
    aoi_rr_nofb,
    baseline_infinite_battery,
    closed_form_aoi,
    exp_max_moments,
    feedback_gain,
    optimize_gamma,
    p_nofb,
    p_wfb,
    percentage_gain,
    solve_nofb,
    solve_wfb,
)
from .model import AnalyticSolution, Feedback, Regime, SimConfig, SimResult

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BracketError",
    "Epochs",
    "EventLog",
    "Feedback",
    "MaxMoments",
    "Regime",
    "SimConfig",
    "SimResult",
    "ValidationRecord",
    "aoi_maf_wfb",
    "aoi_rr_nofb",
    "baseline_infinite_battery",
    "closed_form_aoi",
    "exp_max_moments",
    "feedback_gain",
    "make_config",
    "optimize_gamma",
    "p_nofb",
    "p_wfb",
    "percentage_gain",
    "run_simulation",
    "solve_nofb",
    "solve_wfb",
    "validate",
]

# name: the submodule that defines it; importing that submodule loads numpy
_LAZY = {
    "Epochs": "simulator",
    "EventLog": "simulator",
    "make_config": "simulator",
    "run_simulation": "simulator",
    "ValidationRecord": "stats",
    "validate": "stats",
}


def __getattr__(name: str):
    # any other name, submodules included, raises AttributeError, so
    # `from aoi_erasure import simulator` falls back to the submodule import
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
