"""Domain types shared by the analytic and simulation layers.

Time is a 64-bit float in normalized units: energy arrives as a Poisson
process of rate 1, transmissions are instantaneous, and the sensor's
battery stores at most one energy unit. Age of information (AoI) of a
source grows at slope 1 and drops to 0 exactly when one of its updates
is successfully received.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Feedback(str, Enum):
    """Whether the sensor learns the fate of each transmission."""

    NOFB = "nofb"
    WFB = "wfb"

    @classmethod
    def _missing_(cls, value: object) -> Feedback | None:
        # lets Feedback(" WFB ") coerce; anything else still raises ValueError
        if isinstance(value, str):
            return cls._value2member_map_.get(value.strip().lower())
        return None


class Regime(str, Enum):
    """Structure of an optimal single-source policy."""

    THRESHOLD = "threshold"
    GREEDY = "greedy"


def require_q(q: float) -> float:
    """The erasure probability as a float; raises ValueError outside [0, 1)."""
    # q = 1 makes every AoI formula diverge; q = 0 is a valid degenerate case
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must be < 1 and >= 0, got {q!r}")
    if q >= 0.999:
        # 1/(1-q)^2 terms dominate here; results are valid but extreme
        warnings.warn(f"q = {q} is close to 1; AoI values grow like 1/(1-q)^2", RuntimeWarning)
    return float(q)


def require_m(M: int) -> int:
    """The source count as an int; raises ValueError unless a positive integer."""
    m = int(M)
    if m != M or m < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return m


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """Erasure channel with Poisson energy arrivals of normalized rate 1."""

    q: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        require_q(self.q)
        if self.rate != 1.0:
            raise ValueError("energy arrival rate is normalized to 1")


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """Policy family: threshold gamma (0 encodes greedy) and feedback setting.

    The setting fixes the scheduler. Without feedback the sensor cannot
    react to erasures, so its attempts follow the fixed round-robin
    order; with feedback it retransmits the same source greedily until
    success and picks the next source by maximum age.
    """

    feedback: Feedback
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "feedback", Feedback(self.feedback))
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


class Epochs:
    """The renewal cycles of one run as columns, ordered by source, then time.

    y[i] is the time between two consecutive successful deliveries of
    source source_id[i], attempts[i] the number of transmissions that
    source made inside the cycle; R, the AoI area over each cycle, is
    derived. len() is the number of epochs.
    """

    __slots__ = ("source_id", "y", "attempts")

    def __init__(self, source_id: np.ndarray, y: np.ndarray, attempts: np.ndarray) -> None:
        if not source_id.size == y.size == attempts.size:
            raise ValueError("epoch columns must have equal lengths")
        if y.size and (y.min() <= 0.0 or attempts.min() < 1):
            raise ValueError("epochs need y > 0 and attempts >= 1")
        self.source_id = source_id
        self.y = y
        self.attempts = attempts

    @property
    def R(self) -> np.ndarray:
        return 0.5 * self.y * self.y

    def __len__(self) -> int:
        return self.y.size


@dataclass(frozen=True, slots=True)
class AnalyticSolution:
    """Solved single-source problem: optimal AoI and the threshold achieving it."""

    regime: Regime
    lambda_star: float
    threshold: float
    q: float
    M: int = 1

    def __post_init__(self) -> None:
        if (self.regime is Regime.GREEDY) != (self.threshold == 0.0):
            raise ValueError("greedy regime means threshold 0 and vice versa")
        if self.lambda_star < 0.0 or self.threshold < 0.0:
            raise ValueError("AoI and threshold are nonnegative")


@dataclass(frozen=True, slots=True)
class SimResult:
    """Aggregated output of one simulation run."""

    per_source_mean: tuple[float, ...]
    mean_aoi: float
    ci_half_width: float
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    epochs_per_source: int
    seed: int

    def __post_init__(self) -> None:
        if any(m < 0.0 for m in self.per_source_mean):
            raise ValueError("per-source mean AoI cannot be negative")
        if not self.successes <= self.attempts <= self.arrivals - self.overflows:
            raise ValueError("counters violate successes <= attempts <= arrivals - overflows")

