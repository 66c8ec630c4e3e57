"""Renewal-reward estimation and analytic-vs-simulation oracles.

ratio_estimate is the one interval estimator: every run's 95% CI is by
batch means. All sources draw on one energy stream and one attempt
sequence, so for M > 1 their epochs are correlated, and pooling the
M * n epochs as if they were iid understates the interval by up to about
sqrt(M). Batch b instead totals every source's y and R = y**2 / 2 over
the b-th run of consecutive epochs (of time, in horizon runs), which
keeps that correlation inside the batches, and independent replications
pool by adding batch b across them. There are _N_BATCHES batches, or n
with n < _N_BATCHES epochs per source; one batch gives no interval
(0.0). The point estimate stays the ratio of the plain sums of R and y.
validate simulates through simulator.run_simulation and reads its
mean_aoi and ci_half_width. closed_form_aoi lives in analytic; this
module re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_aoi
from .model import Feedback, SimConfig, SimResult

__all__ = [
    "ratio_estimate",
    "closed_form_aoi",
    "ValidationRecord",
    "validate",
]

_N_BATCHES = 20
# two-sided 95% quantiles of Student's t at 1 .. _N_BATCHES - 1 df; 19 df's is 8e-15 high, as pinned horizon CIs use it
_T975 = (
    12.706204736174705, 4.302652729749464, 3.1824463052837095, 2.7764451051977943, 2.5705818356363155,
    2.44691185114497, 2.3646242515927853, 2.3060041352041667, 2.2621571627982053, 2.228138851986275,
    2.2009851600916397, 2.178812829667229, 2.1603686564627926, 2.144786687917804, 2.1314495455597755,
    2.1199052992212546, 2.109815577833317, 2.1009220402410387, 2.0930240544083176,
)


def _epoch_batches(ys: np.ndarray) -> tuple[list[float], float, np.ndarray]:
    """Each row's ratio R.sum() / y.sum() of an (M, n) epoch block, the pooled ratio
    (row sums added in row order), and the (2, B) totals of y and R per batch over
    the rows; the B = min(_N_BATCHES, n) batches are as np.array_split cuts a row."""
    n = ys.shape[1]
    B = min(_N_BATCHES, n)
    starts = np.arange(B) * (n // B) + np.minimum(np.arange(B), n % B)
    per_row, sum_y, sum_r = [], 0.0, 0.0
    totals = np.zeros((2, B))
    for row in ys:
        R = 0.5 * row * row
        y_j, r_j = float(row.sum()), float(R.sum())
        per_row.append(r_j / y_j)
        sum_y += y_j
        sum_r += r_j
        totals[0] += np.add.reduceat(row, starts)
        totals[1] += np.add.reduceat(R, starts)
    return per_row, sum_r / sum_y, totals


def ratio_estimate(y: np.ndarray, R: np.ndarray, point: float) -> float:
    """95% half-width of the ratio estimate `point` of E[R] / E[y], from batch totals y and R.

    The delta method: the spread of R - point * y over the B batches, over
    sqrt(B) and the mean of y, times Student's t at B - 1 df; 0.0 if B = 1.
    """
    B = len(y)
    if B < 2:
        return 0.0
    d = (R - R.mean()) - point * (y - y.mean())
    sd = math.sqrt(float(np.sum(d * d)) / (B - 1))
    return _T975[B - 2] * (sd / math.sqrt(B)) / float(y.mean())


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
    from .simulator import run_simulation

    cfg = SimConfig(q, M, setting, gamma, target_epochs=n_epochs, seed=seed)
    result, _, _ = run_simulation(cfg, _with_epochs=False)
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

