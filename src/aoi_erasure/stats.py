"""Renewal-reward estimation and analytic-vs-simulation oracles.

The estimators (Moments, ratio_estimate) aggregate the epochs of one
run; horizon runs average over a time window instead and are estimated
in the simulator. The ratio estimator needs only the count, the sums and
means of the epochs y and their age areas R = y**2 / 2, and the centered
sums M2(y), M2(R) and C(R, y). Moments takes them one block of
epochs at a time, each block centered on its own mean, and merges
blocks (and whole runs) with the pairwise update of Chan, Golub &
LeVeque, "Algorithms for computing the sample variance" (1983), so no
estimate needs more than one block of temporaries or a concatenation.
Raw power sums would cancel catastrophically when y varies little, so
none are kept. The point estimate stays the ratio of the plain sums of
R and y. validate gets its simulated numbers from
simulator.run_simulation, the one place that turns a seeded
configuration into epochs, and reads its mean_aoi and ci_half_width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import aoi_maf_wfb, aoi_rr_nofb
from .model import Feedback, SimConfig, SimResult

__all__ = [
    "Moments",
    "ratio_estimate",
    "closed_form_aoi",
    "ValidationRecord",
    "validate",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

_CHUNK = 1 << 16  # epochs centered in one pass


class Moments:
    """Mergeable moments of renewal epochs y and their areas R.

    n, the sums of y and R (the point estimate is their ratio), the
    means, the centered sums of squares M2(y), M2(R) and the co-moment
    C(R, y). Each block is centered on its mean, taken as the first
    value plus the mean offset from it, so constant epochs give exact
    zeros.
    """

    __slots__ = ("n", "sum_y", "sum_r", "mean_y", "mean_r", "m2_y", "m2_r", "c_ry")

    def __init__(self) -> None:
        self.n = 0
        self.sum_y = self.sum_r = self.mean_y = self.mean_r = 0.0
        self.m2_y = self.m2_r = self.c_ry = 0.0

    @classmethod
    def of(cls, y: np.ndarray, R: np.ndarray) -> Moments:
        """The moments of epochs y with areas R, centered _CHUNK epochs at a time."""
        acc = cls()
        for lo in range(0, y.size, _CHUNK):
            yb, rb = y[lo : lo + _CHUNK], R[lo : lo + _CHUNK]
            dy = yb - yb[0]
            oy = float(dy.sum()) / yb.size
            dy -= oy
            dr = rb - rb[0]
            o_r = float(dr.sum()) / rb.size
            dr -= o_r
            mean_y, mean_r = float(yb[0]) + oy, float(rb[0]) + o_r
            acc._combine(yb.size, mean_y, mean_r, float(dy @ dy), float(dr @ dr), float(dr @ dy))
        # the sums of the whole arrays, so the point is R.sum() / y.sum()
        acc.sum_y, acc.sum_r = float(y.sum()), float(R.sum())
        return acc

    def merge(self, other: Moments) -> None:
        """Fold another run's moments into these."""
        self._combine(other.n, other.mean_y, other.mean_r, other.m2_y, other.m2_r, other.c_ry)
        self.sum_y += other.sum_y
        self.sum_r += other.sum_r

    def _combine(self, n: int, mean_y: float, mean_r: float, m2_y: float, m2_r: float, c_ry: float) -> None:
        # Chan, Golub & LeVeque's pairwise update; sums are the caller's
        if n == 0:
            return
        total = self.n + n
        w = self.n * n / total
        dy, dr = mean_y - self.mean_y, mean_r - self.mean_r
        self.mean_y += dy * (n / total)
        self.mean_r += dr * (n / total)
        self.m2_y += m2_y + dy * dy * w
        self.m2_r += m2_r + dr * dr * w
        self.c_ry += c_ry + dr * dy * w
        self.n = total

    @property
    def point(self) -> float:
        return self.sum_r / self.sum_y

    def estimate(self) -> tuple[float, float]:
        """Ratio-of-sums estimate of E[R]/E[y] with a delta-method 95% CI."""
        if self.n == 0:
            raise ValueError("no epochs to estimate from")
        point = self.point
        if self.n == 1:
            return point, 0.0
        spread = self.m2_r - 2.0 * point * self.c_ry + point * point * self.m2_y
        var_point = spread / ((self.n - 1) * self.n * self.mean_y * self.mean_y)
        return point, _Z95 * math.sqrt(max(var_point, 0.0))


def ratio_estimate(y: np.ndarray, R: np.ndarray) -> tuple[float, float]:
    """Ratio-of-sums estimator of E[R]/E[y] with a delta-method 95% CI."""
    return Moments.of(y, R).estimate()


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

