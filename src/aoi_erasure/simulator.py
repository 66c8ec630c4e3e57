"""Seeded simulation of the sensing system.

run_simulation is the one entry point: the CLI and stats.validate turn
a SimConfig (the flat q, M, setting and gamma of model.SimConfig, with
its stopping rule and seeds; make_config is the same constructor) into
numbers through it. It returns the aggregated SimResult, the epochs as
columns (per-source counts, y and attempts) and, for traced runs, the
event log. Two engines produce statistically identical runs:

* an epoch engine (default) that exploits the renewal structure: each
  transmission empties the unit battery and arrivals are memoryless, so
  waits can be drawn in bulk with numpy and no event queue is needed.
  Every source then has exactly target_epochs epochs, which the engine
  writes into one (M, target_epochs) block that run_simulation reads
  without copying. Attempts are drawn and folded in fixed blocks of
  about _BLOCK, so attempt-level memory does not grow with the run;
  only the returned epoch columns do (16 bytes an epoch). Between
  blocks the engines carry the clock and, per source, what the next
  epoch needs: without feedback the successes so far and the time and
  cycle of the last one, with feedback the last round's success times.
  The feedback engine also holds every first wait (8 bytes an epoch):
  its retry waits are gamma draws on the same stream as the first
  waits, and they come after all of them. Each stream is consumed in
  the order of an all-at-once draw, so the block size changes no
  number;
* a trace engine (`_run_loop`) for traced runs and wall-clock-horizon
  runs, where the cut at the horizon matters. It replays one Poisson
  arrival stream through the battery exactly: arrival times are the
  running sum of bulk exponential draws and erasure outcomes bulk
  uniforms, a loop over attempts (not events) applies the threshold
  rule with the float expressions of a literal battery replay and finds
  the next stored arrival by bisection, and every arrival in between is
  an overflow. The event log is then laid out as three numpy columns
  (time, kind, source) by index arithmetic, so no Python object is made
  per event or per epoch. tests/trace_oracle.py keeps the literal
  one-event-at-a-time loop this engine must match bit for bit.

Reproducibility contract: a SimConfig seed feeds a SeedSequence that is
split into three substreams (arrival waits, erasure draws, overflow
counts), so identical seeds give byte-identical event logs, and
replacing only erasure_seed reshuffles erasures while keeping the
arrival process fixed.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import Callable, NamedTuple

import numpy as np

from . import stats
from .model import Epochs, Feedback, SimConfig, SimResult

__all__ = ["SimConfig", "Event", "EventLog", "run_simulation"]

ENERGY_ARRIVAL = "EnergyArrival"
OVERFLOW = "Overflow"
ATTEMPT = "Attempt"
ERASURE = "Erasure"
SUCCESS = "Success"

# an EventLog stores each kind as its index in this tuple
_KINDS = (ENERGY_ARRIVAL, OVERFLOW, ATTEMPT, ERASURE, SUCCESS)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}


class Event(NamedTuple):
    time: float
    kind: str
    source_id: int  # 0 for battery events, 1..M otherwise


class EventLog:
    """Ordered audit trail of one traced run, held as three columns.

    time (float64), kind (uint8 index into the kind names) and source
    (0 for battery events, 1..M otherwise). `events` is a read-only
    Event sequence over them.
    """

    __slots__ = ("time", "kind", "source")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        events = list(events)
        try:
            kind = [_CODE[e.kind] for e in events]
        except KeyError as exc:
            raise ValueError(f"unknown event kind {exc.args[0]!r}") from None
        self.time = np.array([e.time for e in events], dtype=np.float64)
        self.kind = np.array(kind, dtype=np.uint8)
        self.source = np.array([e.source_id for e in events], dtype=np.int64)

    @classmethod
    def from_columns(cls, time: np.ndarray, kind: np.ndarray, source: np.ndarray) -> EventLog:
        log = cls.__new__(cls)
        log.time, log.kind, log.source = time, kind, source
        return log

    def __len__(self) -> int:
        return self.time.size

    @property
    def events(self) -> _EventView:
        return _EventView(self)

    def _chunks(self) -> Iterator[bytes]:
        for lo in range(0, len(self), _CHUNK):
            hi = lo + _CHUNK
            yield _format_lines(self.time[lo:hi], self.kind[lo:hi], self.source[lo:hi])

    def to_lines(self) -> list[str]:
        return b"".join(self._chunks()).decode().splitlines()

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            for chunk in self._chunks():
                fh.write(chunk)

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


class _EventView(Sequence):
    """The events of a log, made one at a time from its columns."""

    __slots__ = ("_log",)

    def __init__(self, log: EventLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, i: int) -> Event:
        log = self._log
        return Event(float(log.time[i]), _KINDS[log.kind[i]], int(log.source[i]))

    def __iter__(self) -> Iterator[Event]:
        log = self._log
        kinds = map(_KINDS.__getitem__, log.kind.tolist())
        return map(Event._make, zip(log.time.tolist(), kinds, log.source.tolist()))


_CHUNK = 65536  # log lines formatted and written at a time
# below this, t * 1e9 < 2**52, where the rounding in _format_lines is exact
_FAST_MAX = 4.5e6
_KIND_WIDTH = max(len(k) for k in _KINDS)
_KIND_BYTES = np.array([list(k.encode().ljust(_KIND_WIDTH, b"\0")) for k in _KINDS], np.uint8)
_KIND_KEEP = _KIND_BYTES != 0


def _put_digits(buf: np.ndarray, keep: np.ndarray, col: int, width: int, values: np.ndarray, pad: bool) -> None:
    """Write values (< 2**32) as `width` decimal columns; unless pad, drop leading zeros."""
    values = values.astype(np.uint32)  # 32-bit division is several times faster
    for c in range(col + width - 1, col - 1, -1):
        higher = values // 10
        buf[:, c] = values - higher * 10 + 48
        values = higher
        if not pad and c > col:
            keep[:, c - 1] = values > 0


def _format_lines(time: np.ndarray, kind: np.ndarray, source: np.ndarray) -> bytes:
    """The bytes of the lines f"{t:.9f}\\t{kind}\\t{source}\\n", built column-wise.

    The exact product t * 1e9 is p + e (Dekker's two-product; 1e9 has 21
    significant bits, so only t needs splitting). Its nearest integer,
    ties to even as in Python's float formatting, is rint(p), except
    where p lies exactly half-way between two integers: the sign of e
    decides there.
    """
    n = time.size
    if n == 0:
        return b""
    if not (time.min() >= 0.0 and time.max() < _FAST_MAX and source.min() >= 0):
        kinds = map(_KINDS.__getitem__, kind.tolist())
        rows = zip(time.tolist(), kinds, source.tolist())
        return "".join(f"{t:.9f}\t{k}\t{s}\n" for t, k, s in rows).encode()
    p = time * 1e9
    hi = time * 134217729.0  # Veltkamp split: 2**27 + 1
    hi -= hi - time
    e = (hi * 1e9 - p) + (time - hi) * 1e9
    r = np.rint(p)
    half = p - r
    nanos = r.astype(np.int64) + ((half == 0.5) & (e > 0.0)) - ((half == -0.5) & (e < 0.0))
    whole, frac = np.divmod(nanos, 1_000_000_000)
    w = len(str(int(whole.max())))
    ws = len(str(int(source.max())))
    tab1 = w + 10
    tab2 = tab1 + 1 + _KIND_WIDTH
    buf = np.empty((n, tab2 + ws + 2), np.uint8)
    keep = np.ones(buf.shape, bool)
    _put_digits(buf, keep, 0, w, whole, pad=False)
    buf[:, w] = ord(".")
    _put_digits(buf, keep, w + 1, 9, frac, pad=True)
    buf[:, tab1] = buf[:, tab2] = ord("\t")
    buf[:, tab1 + 1 : tab2] = _KIND_BYTES[kind]
    keep[:, tab1 + 1 : tab2] = _KIND_KEEP[kind]
    _put_digits(buf, keep, tab2 + 1, ws, source, pad=False)
    buf[:, -1] = ord("\n")
    return buf[keep].tobytes()


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
    # one row per source; the epoch engines fill one (M, target) block
    ys: Sequence[np.ndarray]  # epoch lengths
    atts: Sequence[np.ndarray]  # attempts per epoch, aligned with ys
    success_times: Sequence[np.ndarray]  # includes the first success; trace engine only
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    events: EventLog | None
    end_time: float  # horizon runs only


_BLOCK = 1 << 16  # attempts (nofb) or services (wfb) an epoch engine draws per pass


def _overflows(rng_o: np.random.Generator, gamma: float, tau: np.ndarray) -> int:
    """Arrivals lost while the threshold holds a full battery: Poisson(gamma - tau) each.

    Only positive means are drawn: a zero mean yields 0 without touching
    the stream, so the skipped draws change nothing.
    """
    lam = gamma - tau
    return int(rng_o.poisson(lam[lam > 0.0]).sum())


def _epochs_nofb(
    q: float,
    M: int,
    gamma: float,
    target: int,
    rng_a: np.random.Generator,
    rng_e: np.random.Generator,
    rng_o: np.random.Generator,
) -> _RawRun:
    """Epoch engine, no feedback: attempts walk the round-robin cycle.

    Attempt i belongs to source i mod M and waits max(gamma, tau_i). A
    block holds whole cycles; between blocks it carries the clock and,
    per source, the successes so far and the time and cycle of the last
    one. The run ends at the need-th success of the last source to get
    there; successes and overflows count the attempts before that cut.
    """
    need = target + 1
    cycles = max(1, _BLOCK // M)
    ys = np.empty((M, target))
    atts = np.empty((M, target), np.int64)
    wins = np.zeros(M, np.int64)  # successes so far, at most need
    last_t = np.zeros(M)
    last_k = np.zeros(M, np.int64)  # cycle of the last success
    done = np.zeros(M, np.int64)  # attempts up to each source's need-th success
    clock = 0.0
    base = successes = overflows = 0  # base: cycles before this block
    while True:
        tau = rng_a.exponential(size=cycles * M)
        ok = rng_e.random(size=cycles * M) < (1.0 - q)
        t = np.cumsum(np.concatenate(([clock], np.maximum(gamma, tau))))[1:]
        clock = t[-1]
        for j in np.flatnonzero(wins < need):
            k = np.flatnonzero(ok[j::M])[: need - wins[j]]
            if k.size == 0:
                continue
            s = np.concatenate(([last_t[j]], t[j::M][k]))
            a = np.concatenate(([last_k[j]], k + base))
            lo = wins[j] - 1  # epoch that the block's first success closes
            if lo < 0:  # the source's first success opens its first epoch
                s, a, lo = s[1:], a[1:], 0
            np.subtract(s[1:], s[:-1], out=ys[j, lo : lo + s.size - 1])
            np.subtract(a[1:], a[:-1], out=atts[j, lo : lo + a.size - 1])
            wins[j] += k.size
            last_t[j], last_k[j] = s[-1], a[-1]
            if wins[j] == need:
                done[j] = a[-1] * M + j + 1
        finished = wins.min() == need
        n = int(done.max()) - base * M if finished else tau.size
        successes += int(ok[:n].sum())
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, tau[:n])
        if finished:
            break
        base += cycles
    attempts = int(done.max())
    return _RawRun(ys, atts, (), attempts + overflows, overflows, attempts, successes, None, 0.0)


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
    unit exponentials, drawn as one gamma variate. Those gamma draws
    follow every first wait on the same stream, so the first waits are
    drawn up front (8 bytes per epoch); the rest runs in blocks of whole
    rounds of M services, carrying the clock and the last round's
    success times.
    """
    need = target + 1
    tau1 = rng_a.exponential(size=M * need)  # service s belongs to source s mod M
    rounds = max(1, _BLOCK // M)
    ys = np.empty((M, target))
    atts = np.empty((M, target), np.int64)
    clock = 0.0
    prev = np.empty((0, M))  # success times of the round before the block
    fails_total = overflows = 0
    for lo in range(0, need, rounds):
        tau = tau1[lo * M : (lo + rounds) * M]
        w = np.maximum(gamma, tau)
        if q > 0.0:
            fails = rng_e.geometric(1.0 - q, size=tau.size) - 1
            retry = fails > 0
            w[retry] += rng_a.standard_gamma(fails[retry].astype(np.float64))
        else:
            fails = np.zeros(tau.size, np.int64)
        t = np.cumsum(np.concatenate(([clock], w)))[1:].reshape(-1, M)  # row: one round
        clock = t[-1, -1]
        first = lo - prev.shape[0]
        t = np.concatenate((prev, t))  # rounds first, first + 1, ...
        # round r >= 1 closes epoch r - 1 of every source
        epochs = slice(first, first + t.shape[0] - 1)
        np.subtract(t[1:].T, t[:-1].T, out=ys[:, epochs])
        np.add(fails.reshape(-1, M)[first + 1 - lo :].T, 1, out=atts[:, epochs])
        prev = t[-1:]
        fails_total += int(fails.sum())
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, tau)
    n = M * need
    attempts = n + fails_total
    return _RawRun(ys, atts, (), attempts + overflows, overflows, attempts, n, None, 0.0)


def _more_arrivals(A: list[float], rng_a: np.random.Generator, n: int) -> None:
    """Append n arrival times, summed in the order of the running sum t += wait."""
    waits = rng_a.exponential(size=n)
    if A:
        A.extend(np.cumsum(np.concatenate(([A[-1]], waits)))[1:].tolist())
    else:
        A.extend(np.cumsum(waits).tolist())


def _attempts_needed(ok: np.ndarray, M: int, need: int, wfb: bool) -> int | None:
    """Attempts until every source has `need` successes, or None if ok runs out."""
    if wfb:
        # successes rotate through the sources, so the run ends at success M * need
        wins = np.flatnonzero(ok)
        return int(wins[M * need - 1]) + 1 if wins.size >= M * need else None
    last = 0
    for j in range(M):
        wins = np.flatnonzero(ok[j::M])
        if wins.size < need:
            return None
        last = max(last, int(wins[need - 1]) * M + j)
    return last + 1


def _run_loop(cfg: SimConfig, keep_events: bool) -> _RawRun:
    """Trace engine: one Poisson arrival stream through one unit battery.

    The battery is full from a stored arrival until the attempt that
    spends it; arrivals in between overflow, and the next stored arrival
    is the first one after the attempt. So only attempts need a loop:
    each finds its time from the stored arrival's and the next stored
    arrival by bisection. Sources follow from the outcomes: round-robin
    without feedback, and with feedback max-age-first, which with zero
    service time serves the sources cyclically (see _epochs_wfb). A
    replay that compares rounded ages could depart from that order only
    if two sources' last successes lay within one rounding unit of the
    age apart.
    """
    q, M, gamma = cfg.q, cfg.M, cfg.gamma
    wfb = cfg.setting is Feedback.WFB
    target, horizon = cfg.target_epochs, cfg.horizon
    rng_a, rng_e, _ = _spawn_streams(cfg.seed, cfg.erasure_seed)

    A: list[float] = []  # arrival times
    if horizon is None:
        n0 = int(M * (target + 1) / (1.0 - q) * 1.1) + 64
        ok = rng_e.random(n0) > q
        while (n_max := _attempts_needed(ok, M, target + 1, wfb)) is None:
            ok = np.concatenate((ok, rng_e.random(max(1024, ok.size // 4)) > q))
        # an attempt spaced by max(gamma, wait) spans gamma + e^-gamma arrivals
        # on average, an upper bound for both settings
        _more_arrivals(A, rng_a, int(n_max * (gamma + math.exp(-gamma)) * 1.02) + 256)
        limit = math.inf
    else:
        while not A or A[-1] <= horizon:
            _more_arrivals(A, rng_a, int(horizon * 1.02) + 256)
        n_max = bisect_right(A, horizon)  # every attempt spends an arrival before the cut
        ok = rng_e.random(n_max) > q
        limit = horizon
    # the threshold applies to every attempt without feedback, and with
    # feedback to the first attempt after a success
    gate = np.concatenate(([True], ok[:-1])).tolist() if wfb else [True] * n_max

    T: list[float] = []  # attempt times
    K: list[int] = []  # index of the arrival stored after each attempt
    k, prev, n_a = 0, 0.0, len(A)
    for i in range(n_max):
        fill = A[k]
        if fill > limit:
            break
        d = fill - prev
        if gate[i] and gamma > d:
            d = gamma
        t = prev + d
        if t > limit:
            break
        kn = k + 1
        if kn == n_a or A[kn] <= t:  # overflows: search past them
            kn = bisect_right(A, t, kn)
            while kn == n_a:  # only a target run can outgrow its first draw
                _more_arrivals(A, rng_a, max(1024, n_a // 8))
                n_a = len(A)
                kn = bisect_right(A, t, kn)
        T.append(t)
        K.append(kn)
        prev, k = t, kn

    n_att = len(T)
    times = np.array(T)
    knext = np.array(K, dtype=np.int64)
    ok = ok[:n_att]
    n_arr = k if horizon is None else bisect_right(A, horizon)
    # a horizon can cut between a stored arrival and its attempt
    n_stored = n_att + int(k < n_arr)
    src = (np.cumsum(ok) - ok) % M if wfb else np.arange(n_att) % M

    ys, atts, stimes = [], [], []
    for j in range(M):
        mine = np.flatnonzero(src == j)
        wins = np.flatnonzero(ok[mine])
        s = times[mine[wins]]
        y, a = np.diff(s), np.diff(wins)
        if target is not None:
            y, a = y[:target], a[:target]
        ys.append(y)
        atts.append(a)
        stimes.append(s)

    log = None
    if keep_events:
        log = _event_log(np.array(A[:n_arr]), n_stored, times, knext, ok, src)
    end = float(horizon) if horizon is not None else 0.0
    return _RawRun(ys, atts, stimes, n_arr, n_arr - n_stored, n_att, int(ok.sum()), log, end)


def _event_log(
    arrivals: np.ndarray,
    n_stored: int,
    times: np.ndarray,
    knext: np.ndarray,
    ok: np.ndarray,
    src: np.ndarray,
) -> EventLog:
    """Interleave the arrivals with the attempt/outcome pairs, in log order.

    Attempt i comes right after the knext[i] arrivals up to its time, so
    its pair sits at knext[i] + 2i, and arrival j sits at j plus two per
    attempt before it. The stored arrivals are the first one and each
    knext[i]; every other arrival is an overflow.
    """
    n_arr, n_att = arrivals.size, times.size
    time = np.empty(n_arr + 2 * n_att)
    kind = np.empty(time.size, np.uint8)
    source = np.zeros(time.size, np.int64)
    j = np.arange(n_arr)
    at = j + 2 * np.searchsorted(knext, j, side="right")
    time[at] = arrivals
    kind[at] = _CODE[OVERFLOW]
    kind[at[np.concatenate(([0], knext))[:n_stored]]] = _CODE[ENERGY_ARRIVAL]
    pair = knext + 2 * np.arange(n_att)
    time[pair] = time[pair + 1] = times
    kind[pair] = _CODE[ATTEMPT]
    kind[pair + 1] = np.where(ok, _CODE[SUCCESS], _CODE[ERASURE])
    source[pair] = source[pair + 1] = src + 1
    return EventLog.from_columns(time, kind, source)


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
    success_times: Sequence[np.ndarray], T: float
) -> tuple[list[float], float, float]:
    """Time-windowed AoI means over [0, T], pooled with a batch-means interval.

    Unlike the renewal estimator, this one keeps the leading and trailing
    partial sawtooth segments.
    """
    M = len(success_times)
    edges = np.linspace(0.0, T, _N_BATCHES + 1)
    per_mean = []
    batch_totals = np.zeros(_N_BATCHES)
    for s in success_times:
        area = _sawtooth_area_fn(s)
        vals = np.array([area(e) for e in edges])
        batch_totals += np.diff(vals) / np.diff(edges)
        per_mean.append(area(T) / T)
    mean = float(np.mean(per_mean))
    ci = stats.batch_means_ci(batch_totals / M)
    return per_mean, mean, ci


def run_simulation(cfg: SimConfig) -> tuple[SimResult, Epochs, EventLog | None]:
    """Run one seeded simulation and aggregate it.

    Returns the aggregated result, the epochs as columns (ordered by
    source, then time), and the event log when tracing was requested.
    """
    if cfg.trace or cfg.horizon is not None:
        raw = _run_loop(cfg, keep_events=cfg.trace)
    else:
        rng_a, rng_e, rng_o = _spawn_streams(cfg.seed, cfg.erasure_seed)
        engine = _epochs_wfb if cfg.setting is Feedback.WFB else _epochs_nofb
        raw = engine(cfg.q, cfg.M, cfg.gamma, cfg.target_epochs, rng_a, rng_e, rng_o)

    if cfg.horizon is None:
        # every source has exactly target epochs, so the rows form one block
        ys = np.asarray(raw.ys)
        pooled = stats.Moments()
        per_mean = []
        for row in ys:
            moments = stats.Moments.of(row, 0.5 * row * row)
            per_mean.append(moments.point)
            pooled.merge(moments)
        mean, ci = pooled.estimate()
        y, att = ys.ravel(), np.ravel(raw.atts)
        n_epochs = cfg.target_epochs
    else:
        y, att = np.concatenate(raw.ys), np.concatenate(raw.atts)
        if any(s.size < 2 for s in raw.success_times):
            warnings.warn(
                "horizon too short to complete one epoch on every source", RuntimeWarning
            )
        per_mean, mean, ci = _horizon_estimates(raw.success_times, raw.end_time)
        n_epochs = min((r.size for r in raw.ys), default=0)
    epochs = Epochs(np.array([len(r) for r in raw.ys]), y, att)

    result = SimResult(
        per_source_mean=tuple(per_mean),
        mean_aoi=mean,
        ci_half_width=ci,
        arrivals=raw.arrivals,
        overflows=raw.overflows,
        attempts=raw.attempts,
        successes=raw.successes,
        epochs_per_source=n_epochs,
        seed=cfg.seed,
    )
    return result, epochs, raw.events


# the name the CLI, stats, the demos and the benchmark probe build runs by
make_config = SimConfig
