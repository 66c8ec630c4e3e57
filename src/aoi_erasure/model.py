"""Domain types shared by the analytic and simulation layers.

Time is a 64-bit float in normalized units: energy arrives as a Poisson
process of rate 1, transmissions are instantaneous, and the battery
stores one energy unit at most. A source's age of information (AoI)
grows at slope 1 and drops to 0 when one of its updates is received.
SimConfig holds a run's model inputs (q, M, setting, gamma), stopping
rule and seeds. The module needs no numpy, so the analytic layer loads
without it; Epochs lives in the simulator, which builds it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

__all__ = ["Feedback", "Regime", "SimConfig", "AnalyticSolution", "SimResult"]


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
    """The source count as an int; raises ValueError unless a positive integer (a bool is not)."""
    # Python's bool is a numbers.Real and numpy's is not, so each needs its own test
    if isinstance(M, bool) or not isinstance(M, numbers.Real) or not float(M).is_integer() or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    return int(M)


def require_gamma(gamma: float) -> float:
    """The threshold as a float; raises ValueError unless finite and >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    return float(gamma)


def _require_seed(name: str, value: object) -> None:
    # checked here so a bad seed is named, not left to numpy's SeedSequence
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


# numpy's largest Poisson mean, which the overflow draws reach at gamma; the next float up is refused
_GAMMA_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One run: erasure probability, sources, setting, threshold, stopping rule, seeds.

    Every input is checked here, once, and stored as its check returns
    it. gamma = 0 encodes greedy. The setting fixes the scheduler.
    Without feedback the sensor cannot react to erasures, so its attempts
    follow the fixed round-robin order; with feedback it retransmits the
    same source greedily until success and picks the next source by
    maximum age. Exactly one stopping rule is set: target_epochs per
    source or a wall-clock horizon. erasure_seed, when set, replaces only
    the erasure substream.
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
        object.__setattr__(self, "q", require_q(self.q))
        object.__setattr__(self, "M", require_m(self.M))
        object.__setattr__(self, "setting", Feedback(self.setting))
        object.__setattr__(self, "gamma", require_gamma(self.gamma))
        if self.gamma > _GAMMA_MAX:
            raise ValueError(
                f"gamma must be at most {_GAMMA_MAX!r}, numpy's largest Poisson mean, got {self.gamma!r}"
            )
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

