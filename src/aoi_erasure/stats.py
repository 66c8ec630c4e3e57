"""Analytic-vs-simulation oracle.

validate simulates one cell through simulator.run_simulation, reads its
mean_aoi and ci_half_width, and compares them with the closed form.
closed_form_aoi lives in analytic and ratio_estimate, the one interval
estimator, in simulator; this module re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic import closed_form_aoi
from .model import Feedback, SimConfig
from .simulator import ratio_estimate, run_simulation

__all__ = ["ratio_estimate", "closed_form_aoi", "ValidationRecord", "validate"]


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

    @property
    def leans_on_ci(self) -> bool:
        """Whether 3 CI half-widths exceed the rel_tol band, so the verdict leans on the 3-CI criterion."""
        return 3.0 * self.sim_ci > self.rel_tol * self.analytic


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
    cfg = SimConfig(q, M, setting, gamma, target_epochs=n_epochs, seed=seed)
    sim, _, _ = run_simulation(cfg, _with_epochs=False)
    passed = abs(sim.mean_aoi - analytic) <= max(3.0 * sim.ci_half_width, rel_tol * analytic)
    return ValidationRecord(
        q=q, M=M, setting=setting, gamma=gamma, analytic=analytic, sim_mean=sim.mean_aoi,
        sim_ci=sim.ci_half_width, n_epochs=n_epochs, seed=seed, rel_tol=rel_tol, passed=passed,
    )
