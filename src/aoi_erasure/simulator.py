"""Discrete-event simulation of the sensing system.

Two engines produce statistically identical runs:

* an epoch engine (default) that exploits the renewal structure: each
  transmission empties the unit battery and arrivals are memoryless, so
  waits can be drawn in bulk with numpy and no event queue is needed;
* a literal event loop that threads one Poisson arrival stream through
  the battery, emitting EnergyArrival/Overflow/Attempt/Erasure/Success
  events for auditing. It runs whenever an event log is requested and
  for wall-clock-horizon runs, where the cut at the horizon matters.

Reproducibility contract: a SimConfig seed feeds a SeedSequence that is
split into three substreams (arrival waits, erasure draws, overflow
counts), so identical seeds give byte-identical event logs, and
replacing only erasure_seed reshuffles erasures while keeping the
arrival process fixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import stats
from .model import (
    BatteryState,
    ChannelSpec,
    EpochRecord,
    Feedback,
    PolicySpec,
    Scheduler,
    SimResult,
)

__all__ = [
    "SimConfig",
    "Event",
    "EventLog",
    "run_simulation",
    "policy_nofb_single",
    "policy_wfb_single",
    "scheduler_rr",
    "scheduler_maf",
]

ENERGY_ARRIVAL = "EnergyArrival"
OVERFLOW = "Overflow"
ATTEMPT = "Attempt"
ERASURE = "Erasure"
SUCCESS = "Success"


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One run: channel, sources, policy, stopping rule, seed."""

    channel: ChannelSpec
    M: int
    policy: PolicySpec
    target_epochs: int | None = None
    horizon: float | None = None
    seed: int = 0
    trace: bool = False
    erasure_seed: int | None = None

    def __post_init__(self) -> None:
        if int(self.M) != self.M or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if (self.target_epochs is None) == (self.horizon is None):
            raise ValueError("exactly one stopping rule must be set: target_epochs or horizon")
        if self.target_epochs is not None and self.target_epochs < 1:
            raise ValueError("target_epochs must be at least 1")
        if self.horizon is not None and not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        single = self.policy.scheduler is Scheduler.SINGLE
        if single != (self.M == 1):
            raise ValueError("scheduler 'single' is valid exactly when M = 1")
        # mean attempts per epoch is 1/(1-q); beyond 1e4 a run is hopeless
        if self.channel.q > 0.9999:
            raise ValueError(f"q = {self.channel.q} implies over 1e4 attempts per epoch; refusing")


class Event(NamedTuple):
    time: float
    kind: str
    source_id: int  # 0 for battery events, 1..M otherwise


@dataclass(slots=True)
class EventLog:
    """Ordered audit trail of one traced run."""

    events: list[Event] = field(default_factory=list)

    def to_lines(self) -> list[str]:
        return [f"{e.time:.9f}\t{e.kind}\t{e.source_id}" for e in self.events]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    def check_invariants(self) -> None:
        """Replay the log against the battery and ordering rules."""
        level = 0
        pending_attempt: Event | None = None
        prev_t = 0.0
        for e in self.events:
            if e.time < prev_t:
                raise ValueError(f"event times decrease at {e}")
            prev_t = e.time
            if pending_attempt is not None:
                if e.kind not in (SUCCESS, ERASURE):
                    raise ValueError(f"attempt at {pending_attempt} lacks an immediate outcome")
                if e.time != pending_attempt.time or e.source_id != pending_attempt.source_id:
                    raise ValueError(f"outcome {e} does not match attempt {pending_attempt}")
                pending_attempt = None
                continue
            if e.kind == ENERGY_ARRIVAL:
                if level != 0:
                    raise ValueError(f"arrival stored into a full battery at {e}")
                level = 1
            elif e.kind == OVERFLOW:
                if level != 1:
                    raise ValueError(f"overflow with room in the battery at {e}")
            elif e.kind == ATTEMPT:
                if level != 1:
                    raise ValueError(f"attempt with an empty battery at {e}")
                level = 0
                pending_attempt = e
            else:
                raise ValueError(f"outcome event {e} without a preceding attempt")
        if pending_attempt is not None:
            raise ValueError("log ends with an attempt missing its outcome")


def policy_nofb_single(gamma: float) -> Callable[[float], float]:
    """No-feedback inter-attempt rule.

    Returns the wait after the previous attempt given the energy arrival
    wait tau: the sensor holds the unit until the threshold expires, and
    never reacts to erasures because it cannot see them.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    return lambda tau: max(gamma, tau)


def policy_wfb_single(gamma: float) -> Callable[[float, bool], float]:
    """Threshold-greedy rule for the feedback setting.

    After a success the next attempt waits for both the energy unit and
    the threshold; after a failure the sensor retransmits at the very
    next arrival.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    return lambda tau, after_success: max(gamma, tau) if after_success else tau


def scheduler_rr(M: int) -> Callable[[int], int]:
    """Fixed cyclic order 1, 2, ..., M, advancing on every attempt."""
    if M < 1:
        raise ValueError("M must be at least 1")
    return lambda current: current % M + 1


def scheduler_maf(M: int) -> Callable[[Sequence[float]], int]:
    """Pick the source with the largest age; lowest index wins ties."""
    if M < 1:
        raise ValueError("M must be at least 1")

    def pick(ages: Sequence[float]) -> int:
        best, best_age = 0, -1.0
        for j in range(M):
            if ages[j] > best_age:
                best, best_age = j, ages[j]
        return best + 1

    return pick


def _spawn_streams(
    seed: int, erasure_seed: int | None
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    a_ss, e_ss, o_ss = np.random.SeedSequence(seed).spawn(3)
    if erasure_seed is not None:
        e_ss = np.random.SeedSequence(erasure_seed)
    return (
        np.random.default_rng(a_ss),
        np.random.default_rng(e_ss),
        np.random.default_rng(o_ss),
    )


class _RawRun(NamedTuple):
    ys: list[np.ndarray]  # per-source epoch lengths
    atts: list[np.ndarray]  # per-source attempts per epoch, aligned with ys
    success_times: list[np.ndarray]  # per-source, includes the first success
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    events: list[Event] | None
    end_time: float  # horizon runs only


def _epochs_nofb(
    q: float,
    M: int,
    gamma: float,
    target: int,
    rng_a: np.random.Generator,
    rng_e: np.random.Generator,
    rng_o: np.random.Generator,
) -> _RawRun:
    """Epoch engine, no feedback: attempts walk the round-robin cycle."""
    need = target + 1
    n0 = int(M * need / (1.0 - q) * 1.1) + 1024
    taus = [rng_a.exponential(size=n0)]
    oks = [rng_e.random(size=n0) < (1.0 - q)]
    while True:
        ok = oks[0] if len(oks) == 1 else np.concatenate(oks)
        n = ok.size
        counts = [int(ok[j::M].sum()) for j in range(M)]
        if min(counts) >= need:
            break
        extra = max(4096, n0 // 4)
        taus.append(rng_a.exponential(size=extra))
        oks.append(rng_e.random(size=extra) < (1.0 - q))
    tau = taus[0] if len(taus) == 1 else np.concatenate(taus)
    t = np.cumsum(np.maximum(gamma, tau))
    ys, atts, succ_times = [], [], []
    cut = 0
    for j in range(M):
        idx = np.arange(j, n, M)
        pos = np.flatnonzero(ok[idx])[:need]
        times = t[idx[pos]]
        ys.append(np.diff(times))
        atts.append(np.diff(pos))
        succ_times.append(times)
        cut = max(cut, int(idx[pos[-1]]) + 1)
    attempts = cut
    successes = int(ok[:cut].sum())
    overflows = int(rng_o.poisson(np.maximum(gamma - tau[:cut], 0.0)).sum()) if gamma > 0.0 else 0
    return _RawRun(ys, atts, succ_times, attempts + overflows, overflows, attempts, successes, None, 0.0)


def _epochs_wfb(
    q: float,
    M: int,
    gamma: float,
    target: int,
    rng_a: np.random.Generator,
    rng_e: np.random.Generator,
    rng_o: np.random.Generator,
) -> _RawRun:
    """Epoch engine, with feedback: one service (a success) per turn.

    Max-age-first with zero service time degenerates to the cyclic order
    1..M: a success makes its source the youngest, so the stalest source
    is always the least recently served one. Each turn needs a geometric
    number of attempts; the extra waits beyond the first are a sum of
    unit exponentials, drawn as one gamma variate.
    """
    need = target + 1
    n = M * need  # service s belongs to source s mod M, deterministically
    tau1 = rng_a.exponential(size=n)
    first = np.maximum(gamma, tau1)
    if q > 0.0:
        fails = rng_e.geometric(1.0 - q, size=n) - 1
    else:
        fails = np.zeros(n, dtype=np.int64)
    retr = rng_a.standard_gamma(fails.astype(np.float64))
    t = np.cumsum(first + retr)
    ys, atts, succ_times = [], [], []
    for j in range(M):
        times = t[j::M]
        ys.append(np.diff(times))
        atts.append((fails[j::M] + 1)[1:])
        succ_times.append(times)
    attempts = int(n + fails.sum())
    overflows = int(rng_o.poisson(np.maximum(gamma - tau1, 0.0)).sum()) if gamma > 0.0 else 0
    return _RawRun(ys, atts, succ_times, attempts + overflows, overflows, attempts, n, None, 0.0)


def _run_loop(cfg: SimConfig, keep_events: bool) -> _RawRun:
    """Event-loop engine: one literal Poisson arrival stream, one battery."""
    q = cfg.channel.q
    M = cfg.M
    gamma = cfg.policy.gamma
    wfb = cfg.policy.feedback is Feedback.WFB
    target = cfg.target_epochs
    horizon = cfg.horizon
    rng_a, rng_e, _ = _spawn_streams(cfg.seed, cfg.erasure_seed)

    wait_nofb = policy_nofb_single(gamma)
    wait_wfb = policy_wfb_single(gamma)
    pick_next = scheduler_maf(M)
    rr_next = scheduler_rr(M)

    events: list[Event] | None = [] if keep_events else None
    battery = BatteryState()
    succ_times: list[list[float]] = [[] for _ in range(M)]
    epoch_atts: list[list[int]] = [[] for _ in range(M)]
    att_since = [0] * M
    last_succ = [0.0] * M
    arrivals = overflows = attempts = successes = 0
    src = 0  # all ages tie at t = 0, so source 1 goes first
    turn_start = 0.0
    first_of_turn = True
    prev_attempt = 0.0
    pending = M if target is not None else -1
    need = (target + 1) if target is not None else 0
    next_arrival = float(rng_a.exponential())

    while pending != 0:
        fill = next_arrival
        if horizon is not None and fill > horizon:
            break
        stored = battery.harvest()
        assert stored, "battery must be empty before the next stored arrival"
        arrivals += 1
        if events is not None:
            events.append(Event(fill, ENERGY_ARRIVAL, 0))
        if wfb:
            anchor = turn_start if first_of_turn else prev_attempt
            attempt_t = anchor + wait_wfb(fill - anchor, first_of_turn)
        else:
            attempt_t = prev_attempt + wait_nofb(fill - prev_attempt)
        nxt = fill + float(rng_a.exponential())
        if horizon is not None and attempt_t > horizon:
            # the stored unit is never spent; arrivals meanwhile overflow
            while nxt <= horizon:
                arrivals += 1
                overflows += 1
                if events is not None:
                    events.append(Event(nxt, OVERFLOW, 0))
                nxt += float(rng_a.exponential())
            break
        while nxt <= attempt_t:
            arrivals += 1
            overflows += 1
            if events is not None:
                events.append(Event(nxt, OVERFLOW, 0))
            nxt += float(rng_a.exponential())
        next_arrival = nxt
        battery.discharge()
        attempts += 1
        att_since[src] += 1
        ok = float(rng_e.random()) > q
        if events is not None:
            events.append(Event(attempt_t, ATTEMPT, src + 1))
            events.append(Event(attempt_t, SUCCESS if ok else ERASURE, src + 1))
        prev_attempt = attempt_t
        if ok:
            successes += 1
            succ_times[src].append(attempt_t)
            epoch_atts[src].append(att_since[src])
            att_since[src] = 0
            last_succ[src] = attempt_t
            if target is not None and len(succ_times[src]) == need:
                pending -= 1
            if wfb:
                src = pick_next([attempt_t - last_succ[j] for j in range(M)]) - 1
                turn_start = attempt_t
                first_of_turn = True
        elif wfb:
            first_of_turn = False
        if not wfb:
            src = rr_next(src + 1) - 1

    ys, atts, stimes = [], [], []
    for j in range(M):
        s = np.asarray(succ_times[j])
        y = np.diff(s)
        a = np.asarray(epoch_atts[j][1:], dtype=np.int64)
        if target is not None:
            y, a = y[:target], a[:target]
        ys.append(y)
        atts.append(a)
        stimes.append(s)
    end = float(horizon) if horizon is not None else 0.0
    return _RawRun(ys, atts, stimes, arrivals, overflows, attempts, successes, events, end)


def _sawtooth_area_fn(s: np.ndarray) -> Callable[[float], float]:
    """Cumulative AoI area of one source given its success times."""
    ys = np.diff(np.concatenate(([0.0], s)))
    c = np.concatenate(([0.0], np.cumsum(0.5 * ys * ys)))

    def area(t: float) -> float:
        k = int(np.searchsorted(s, t, side="right"))
        last = float(s[k - 1]) if k > 0 else 0.0
        return float(c[k]) + 0.5 * (t - last) ** 2

    return area


_N_BATCHES = 20


def _horizon_estimates(
    success_times: list[np.ndarray], T: float
) -> tuple[list[float], list[float], float, float]:
    """Time-windowed AoI means over [0, T] with batch-means intervals.

    Unlike the renewal estimator, this one keeps the leading and trailing
    partial sawtooth segments.
    """
    M = len(success_times)
    edges = np.linspace(0.0, T, _N_BATCHES + 1)
    per_mean, per_ci = [], []
    batch_totals = np.zeros(_N_BATCHES)
    for s in success_times:
        area = _sawtooth_area_fn(s)
        vals = np.array([area(e) for e in edges])
        batches = np.diff(vals) / np.diff(edges)
        batch_totals += batches
        per_mean.append(area(T) / T)
        per_ci.append(stats.batch_means_ci(batches))
    mean = float(np.mean(per_mean))
    ci = stats.batch_means_ci(batch_totals / M)
    return per_mean, per_ci, mean, ci


def run_simulation(cfg: SimConfig) -> tuple[SimResult, list[EpochRecord], EventLog | None]:
    """Run one seeded simulation and aggregate it.

    Returns the aggregated result, the per-source epoch records (ordered
    by source, then time), and the event log when tracing was requested.
    """
    q = cfg.channel.q
    use_loop = cfg.trace or cfg.horizon is not None
    if use_loop:
        raw = _run_loop(cfg, keep_events=cfg.trace)
    else:
        rng_a, rng_e, rng_o = _spawn_streams(cfg.seed, cfg.erasure_seed)
        engine = _epochs_wfb if cfg.policy.feedback is Feedback.WFB else _epochs_nofb
        raw = engine(q, cfg.M, cfg.policy.gamma, cfg.target_epochs, rng_a, rng_e, rng_o)

    records: list[EpochRecord] = []
    for j, (y_arr, a_arr) in enumerate(zip(raw.ys, raw.atts)):
        sid = j + 1
        records.extend(
            EpochRecord(sid, yy, 0.5 * yy * yy, int(aa))
            for yy, aa in zip(y_arr.tolist(), a_arr.tolist())
        )

    if cfg.horizon is not None:
        n_epochs = min((y.size for y in raw.ys), default=0)
        if any(s.size < 2 for s in raw.success_times):
            warnings.warn(
                "horizon too short to complete one epoch on every source", RuntimeWarning
            )
        per_mean, per_ci, mean, ci = _horizon_estimates(raw.success_times, raw.end_time)
    else:
        n_epochs = cfg.target_epochs
        per = [stats.ratio_estimate(y, 0.5 * y * y) for y in raw.ys]
        per_mean = [p[0] for p in per]
        per_ci = [p[1] for p in per]
        y_all = np.concatenate(raw.ys)
        mean, ci = stats.ratio_estimate(y_all, 0.5 * y_all * y_all)

    result = SimResult(
        per_source_mean=tuple(per_mean),
        per_source_ci=tuple(per_ci),
        mean_aoi=mean,
        ci_half_width=ci,
        arrivals=raw.arrivals,
        overflows=raw.overflows,
        attempts=raw.attempts,
        successes=raw.successes,
        epochs_per_source=n_epochs,
        seed=cfg.seed,
    )
    log = EventLog(raw.events) if cfg.trace else None
    return result, records, log


def make_config(
    q: float,
    M: int,
    setting: Feedback | str,
    gamma: float,
    target_epochs: int | None = None,
    horizon: float | None = None,
    seed: int = 0,
    trace: bool = False,
    erasure_seed: int | None = None,
) -> SimConfig:
    """Convenience constructor picking the canonical scheduler for M."""
    feedback = Feedback(setting)
    if M == 1:
        scheduler = Scheduler.SINGLE
    elif feedback is Feedback.NOFB:
        scheduler = Scheduler.ROUND_ROBIN
    else:
        scheduler = Scheduler.MAX_AGE_FIRST
    return SimConfig(
        channel=ChannelSpec(q=q),
        M=M,
        policy=PolicySpec(feedback=feedback, scheduler=scheduler, gamma=gamma),
        target_epochs=target_epochs,
        horizon=horizon,
        seed=seed,
        trace=trace,
        erasure_seed=erasure_seed,
    )
