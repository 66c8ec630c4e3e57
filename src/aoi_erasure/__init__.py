"""Average age of information for a unit-battery sensor on an erasure channel.

Closed-form solvers and evaluators for threshold transmission policies
(one or many sources, with or without erasure feedback) next to a
seeded discrete-event simulator that reproduces the same quantities by
renewal-reward estimation.
"""

from .analytic import (
    BracketError,
    MaxMoments,
    aoi_maf_wfb,
    aoi_rr_nofb,
    baseline_infinite_battery,
    exp_max_moments,
    feedback_gain,
    optimize_gamma,
    p_nofb,
    p_wfb,
    percentage_gain,
    solve_nofb,
    solve_wfb,
)
from .model import AnalyticSolution, Epochs, Feedback, Regime, SimConfig, SimResult
from .simulator import EventLog, make_config, run_simulation
from .stats import ValidationRecord, closed_form_aoi, validate

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
