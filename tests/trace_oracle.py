"""Literal event-loop reference for the trace engine.

This is the simulator's original event loop, kept as a slow oracle: one
scalar draw per energy arrival and per erasure, one battery call and one
Event per event, the policy rules and schedulers called as written. The
production engine in aoi_erasure.simulator must reproduce its output
bit for bit (tests/test_trace_parity.py).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from aoi_erasure.model import Feedback
from aoi_erasure.simulator import (
    ATTEMPT,
    ENERGY_ARRIVAL,
    ERASURE,
    OVERFLOW,
    SUCCESS,
    Event,
    SimConfig,
    _spawn_streams,
)


@dataclass(slots=True)
class BatteryState:
    """Unit-capacity battery; an arrival at a full battery is lost."""

    level: int = 0

    def __post_init__(self) -> None:
        if self.level not in (0, 1):
            raise ValueError("battery level must be 0 or 1")

    def harvest(self) -> bool:
        """Absorb one energy arrival. Returns False if it overflowed."""
        if self.level == 1:
            return False
        self.level = 1
        return True

    def discharge(self) -> None:
        """Spend the stored unit on a transmission."""
        if self.level != 1:
            raise RuntimeError("transmission attempted with an empty battery")
        self.level = 0


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


class OracleRun(NamedTuple):
    ys: list[np.ndarray]
    atts: list[np.ndarray]
    success_times: list[np.ndarray]
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    events: list[Event] | None
    end_time: float


def run_loop(cfg: SimConfig, keep_events: bool) -> OracleRun:
    """Event-loop engine: one literal Poisson arrival stream, one battery."""
    q = cfg.q
    M = cfg.M
    gamma = cfg.gamma
    wfb = cfg.setting is Feedback.WFB
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
    return OracleRun(ys, atts, stimes, arrivals, overflows, attempts, successes, events, end)


def lines(events: list[Event]) -> list[str]:
    """The log format, written out with the f-string that defines it."""
    return [f"{e.time:.9f}\t{e.kind}\t{e.source_id}" for e in events]
