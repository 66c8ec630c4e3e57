"""Renewal-reward estimation and analytic-vs-simulation oracles.

The estimators (ratio_estimate, batch_means_ci) aggregate the epochs of
one run. The oracles (validate, grid_oracle_gamma, sim_gamma_curve) get
their simulated numbers from simulator.run_simulation, the one place
that turns a seeded configuration into epochs, and read its mean_aoi
and ci_half_width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import RootSolverConfig, _bisect_checked, aoi_maf_wfb, aoi_rr_nofb
from .model import Feedback, SimResult

__all__ = [
    "RenewalEstimate",
    "ratio_estimate",
    "batch_means_ci",
    "closed_form_aoi",
    "ValidationRecord",
    "validate",
    "grid_oracle_gamma",
    "sim_gamma_curve",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True, slots=True)
class RenewalEstimate:
    """Empirical long-term average AoI from i.i.d. epochs."""

    point: float
    ci_half_width: float
    n_epochs: int


def ratio_estimate(y: np.ndarray, R: np.ndarray) -> tuple[float, float]:
    """Ratio-of-sums estimator of E[R]/E[y] with a delta-method 95% CI."""
    n = y.size
    if n == 0:
        raise ValueError("no epochs to estimate from")
    point = float(R.sum() / y.sum())
    if n == 1:
        return point, 0.0
    cov = np.cov(R, y, ddof=1)
    var_r, var_y, cov_ry = cov[0, 0], cov[1, 1], cov[0, 1]
    ybar = float(y.mean())
    var_point = (var_r - 2.0 * point * cov_ry + point * point * var_y) / (n * ybar * ybar)
    return point, _Z95 * float(np.sqrt(max(var_point, 0.0)))


def _t_within(x: float, df: int) -> float:
    """P(|T| <= x) for Student's t with integer df (A&S 26.7.3 and 26.7.4)."""
    theta = math.atan(x / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    c2 = c * c
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            total += term
        return s * total
    if df == 1:
        return 2.0 * theta / math.pi
    term = total = c
    for k in range(1, (df - 1) // 2):
        term *= c2 * (2 * k) / (2 * k + 1)
        total += term
    return 2.0 / math.pi * (theta + s * total)


_T_SOLVER = RootSolverConfig(bracket_hi=64.0, tol=1e-13)


def _t975(df: int) -> float:
    """Two-sided 95% quantile of Student's t with integer df."""
    return _bisect_checked(lambda x: _t_within(x, df) - 0.95, 0.0, _T_SOLVER.bracket_hi, _T_SOLVER)


def batch_means_ci(batches: np.ndarray) -> float:
    """95% half-width from batch means (Student t, B - 1 degrees of freedom)."""
    b = batches.size
    if b < 2:
        return 0.0
    se = float(np.std(batches, ddof=1)) / np.sqrt(b)
    return _t975(b - 1) * se


def closed_form_aoi(q: float, M: int, setting: Feedback | str, gamma: float) -> float:
    """Dispatch to the closed form matching the feedback setting."""
    setting = Feedback(setting)
    if setting is Feedback.NOFB:
        return aoi_rr_nofb(q, M, gamma)
    return aoi_maf_wfb(q, M, gamma)


@dataclass(frozen=True, slots=True)
class ValidationRecord:
    """Outcome of one analytic-vs-simulation comparison."""

    q: float
    M: int
    setting: Feedback
    gamma: float
    analytic: float
    sim_mean: float
    sim_ci: float
    n_epochs: int
    seed: int
    rel_tol: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _simulate(q: float, M: int, setting: Feedback, gamma: float, n_epochs: int, seed: int) -> SimResult:
    # the simulator imports this module for its estimators, so it is
    # imported at call time
    from .simulator import make_config, run_simulation

    result, _, _ = run_simulation(make_config(q, M, setting, gamma, target_epochs=n_epochs, seed=seed))
    return result


def validate(
    q: float,
    M: int,
    setting: Feedback | str,
    gamma: float,
    n_epochs: int,
    seed: int,
    rel_tol: float = 0.01,
) -> ValidationRecord:
    """Simulate one cell and compare against its closed form.

    PASS means the gap is within max(3 CI half-widths, rel_tol relative),
    so a cell passes either because it is statistically indistinguishable
    or because it is numerically close.
    """
    setting = Feedback(setting)
    analytic = closed_form_aoi(q, M, setting, gamma)
    sim = _simulate(q, M, setting, gamma, n_epochs, seed)
    point, ci = sim.mean_aoi, sim.ci_half_width
    passed = abs(point - analytic) <= max(3.0 * ci, rel_tol * analytic)
    return ValidationRecord(
        q=q,
        M=M,
        setting=setting,
        gamma=gamma,
        analytic=analytic,
        sim_mean=point,
        sim_ci=ci,
        n_epochs=n_epochs,
        seed=seed,
        rel_tol=rel_tol,
        passed=passed,
    )


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
        vals = [_simulate(q, M, setting, g, n_epochs, seed).mean_aoi for g in gammas]
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
        sim = _simulate(q, M, setting, g, n_epochs, seed)
        out.append(RenewalEstimate(point=sim.mean_aoi, ci_half_width=sim.ci_half_width, n_epochs=n_epochs * M))
    return out
