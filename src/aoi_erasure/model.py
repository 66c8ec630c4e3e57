"""Domain types shared by the analytic and simulation layers.

Time is a 64-bit float in normalized units: energy arrives as a Poisson
process of rate 1, transmissions are instantaneous, and the sensor's
battery stores at most one energy unit. Age of information (AoI) of a
source grows at slope 1 and drops to 0 exactly when one of its updates
is successfully received. A run takes four model inputs, q, M, the
feedback setting and the threshold gamma, which SimConfig holds flat
beside the stopping rule and seeds.
"""

from __future__ import annotations

import math
import numbers
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


def _require_seed(name: str, value: object) -> None:
    # checked here so a bad seed is named, not left to numpy's SeedSequence
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One run: erasure probability, sources, setting, threshold, stopping rule, seeds.

    Every input is checked here, once. gamma = 0 encodes greedy. The
    setting fixes the scheduler. Without feedback the sensor cannot
    react to erasures, so its attempts follow the fixed round-robin
    order; with feedback it retransmits the same source greedily until
    success and picks the next source by maximum age. Exactly one
    stopping rule is set: target_epochs per source or a wall-clock
    horizon. erasure_seed, when set, replaces only the erasure substream.
    """

    q: float
    M: int
    setting: Feedback
    gamma: float
    target_epochs: int | None = None
    horizon: float | None = None
    seed: int = 0
    trace: bool = False
    erasure_seed: int | None = None

    def __post_init__(self) -> None:
        # mean attempts per epoch is 1/(1-q); beyond 1e4 a run is hopeless,
        # refused before require_q would warn that q is close to 1
        if 0.9999 < self.q < 1.0:
            raise ValueError(f"q = {self.q} implies over 1e4 attempts per epoch; refusing")
        require_q(self.q)
        require_m(self.M)
        object.__setattr__(self, "setting", Feedback(self.setting))
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if (self.target_epochs is None) == (self.horizon is None):
            raise ValueError("exactly one stopping rule must be set: target_epochs or horizon")
        if self.target_epochs is not None:
            if isinstance(self.target_epochs, bool) or not isinstance(self.target_epochs, numbers.Integral):
                raise ValueError(f"target_epochs must be an integer, got {self.target_epochs!r}")
            if self.target_epochs < 1:
                raise ValueError("target_epochs must be at least 1")
        if self.horizon is not None and not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        _require_seed("seed", self.seed)
        if self.erasure_seed is not None:
            _require_seed("erasure_seed", self.erasure_seed)


class Epochs:
    """The renewal cycles of one run as columns, ordered by source, then time.

    counts[j] is the number of epochs of source j + 1. y[i] is the time
    between two consecutive successful deliveries of source source_id[i],
    attempts[i] the number of transmissions that source made inside the
    cycle. source_id and R, the AoI area over each cycle, are derived.
    len() is the number of epochs.
    """

    __slots__ = ("counts", "y", "attempts")

    def __init__(self, counts: np.ndarray, y: np.ndarray, attempts: np.ndarray) -> None:
        if not counts.sum() == y.size == attempts.size:
            raise ValueError("epoch columns must have equal lengths, matching the counts")
        if y.size and (y.min() <= 0.0 or attempts.min() < 1):
            raise ValueError("epochs need y > 0 and attempts >= 1")
        self.counts = counts
        self.y = y
        self.attempts = attempts

    @property
    def source_id(self) -> np.ndarray:
        return np.repeat(np.arange(1, self.counts.size + 1), self.counts)

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

