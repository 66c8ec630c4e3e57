"""Brute-force threshold oracles for the tests.

grid_oracle_gamma scans a gamma grid, on the closed form or by
simulation, and sim_gamma_curve simulates along one; the optimizer and
the acceptance checks are compared against them. Each simulated grid
point is one run_simulation call without epochs, as stats.validate
makes it, and reports its mean_aoi and ci_half_width unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from aoi_erasure.model import Feedback, SimConfig
from aoi_erasure.simulator import run_simulation
from aoi_erasure.stats import closed_form_aoi


@dataclass(frozen=True, slots=True)
class RenewalEstimate:
    """Empirical long-term average AoI from i.i.d. epochs."""

    point: float
    ci_half_width: float
    n_epochs: int



_GRID_HI = 5.0


def grid_oracle_gamma(
    q: float,
    M: int,
    setting: Feedback | str,
    grid_step: float,
    n_epochs: int | None = None,
    seed: int = 0,
) -> float:
    """Brute-force threshold search on gamma in {0, step, ..., 5}.

    With n_epochs unset the closed form is scanned, giving an optimizer
    oracle; with n_epochs set each grid point is simulated (one common
    seed across points, so the curve is smooth in gamma) and the
    empirical argmin is returned.
    """
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    setting = Feedback(setting)
    gammas = np.arange(0.0, _GRID_HI + 0.5 * grid_step, grid_step)
    if n_epochs is None:
        vals = [closed_form_aoi(q, M, setting, g) for g in gammas]
    else:
        cfgs = [SimConfig(q, M, setting, g, target_epochs=n_epochs, seed=seed) for g in gammas]
        vals = [run_simulation(cfg, _with_epochs=False)[0].mean_aoi for cfg in cfgs]
    return float(gammas[int(np.argmin(vals))])


def sim_gamma_curve(
    q: float,
    M: int,
    setting: Feedback | str,
    gammas: Sequence[float],
    n_epochs: int,
    seed: int = 0,
) -> list[RenewalEstimate]:
    """Simulated AoI estimates along a gamma grid, common random numbers."""
    setting = Feedback(setting)
    out = []
    for g in gammas:
        sim, _, _ = run_simulation(SimConfig(q, M, setting, g, target_epochs=n_epochs, seed=seed), _with_epochs=False)
        out.append(RenewalEstimate(point=sim.mean_aoi, ci_half_width=sim.ci_half_width, n_epochs=n_epochs * M))
    return out
