"""Average age of information for a unit-battery sensor on an erasure channel.

Closed-form solvers and evaluators for threshold transmission policies
(one or many sources, with or without erasure feedback) next to a
seeded discrete-event simulator that reproduces the same quantities by
renewal-reward estimation.
"""

from .analytic import (
    BracketError,
    MaxMoments,
    RootSolverConfig,
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
from .model import (
    AnalyticSolution,
    ChannelSpec,
    Epochs,
    Feedback,
    PolicySpec,
    Regime,
    SimResult,
)
from .simulator import EventLog, SimConfig, make_config, run_simulation
from .stats import (
    RenewalEstimate,
    ValidationRecord,
    closed_form_aoi,
    grid_oracle_gamma,
    sim_gamma_curve,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSolution",
    "BracketError",
    "ChannelSpec",
    "Epochs",
    "EventLog",
    "Feedback",
    "MaxMoments",
    "PolicySpec",
    "Regime",
    "RenewalEstimate",
    "RootSolverConfig",
    "SimConfig",
    "SimResult",
    "ValidationRecord",
    "aoi_maf_wfb",
    "aoi_rr_nofb",
    "baseline_infinite_battery",
    "closed_form_aoi",
    "exp_max_moments",
    "feedback_gain",
    "grid_oracle_gamma",
    "make_config",
    "optimize_gamma",
    "p_nofb",
    "p_wfb",
    "percentage_gain",
    "run_simulation",
    "sim_gamma_curve",
    "solve_nofb",
    "solve_wfb",
    "validate",
]
