"""Seeded simulation of the sensing system.

run_simulation is the one entry point: the CLI and stats.validate turn
a model.SimConfig (q, M, setting, gamma, stopping rule and seeds) into
numbers through it. It returns the aggregated SimResult, the epochs as
columns (Epochs: per-source counts, y and attempts) and, for traced
runs, the event log. Two engines produce statistically identical runs:

* an epoch engine (default) that exploits the renewal structure: each
  transmission empties the unit battery and arrivals are memoryless, so
  waits can be drawn in bulk with numpy and no event queue is needed.
  Every source then has exactly target_epochs epochs, which the engine
  writes into one (M, target_epochs) block that run_simulation reads
  without copying. Attempts are drawn and folded in fixed blocks of
  about _BLOCK, into buffers reused from block to block, so
  attempt-level memory does not grow with the run; only the returned
  epoch columns do (16 bytes an epoch: y and attempts). stats.validate
  reads no epochs, so its runs keep no attempts column (8 bytes an
  epoch). Between blocks the engines carry the clock and, per source,
  what the next epoch needs: without feedback the successes so far and
  the time and cycle of the last one, with feedback the last round's
  success times. The feedback engine also holds every first wait (8
  bytes an epoch): its retry waits are gamma draws on the same stream
  as the first waits, and they come after all of them. Each stream is
  consumed in the order of an all-at-once draw, so the block size
  changes no number. Exponentials are drawn with standard_exponential,
  which gives the values and the stream state of exponential() at less
  cost;
* a trace engine (`_run_loop`) for traced runs and wall-clock-horizon
  runs, where the cut at the horizon matters. It replays one Poisson
  arrival stream through the battery exactly: arrival times are the
  running sum of bulk exponential draws and erasure outcomes bulk
  uniforms, a loop over attempts (not events) applies the threshold
  rule with the float expressions of a literal battery replay and finds
  the next stored arrival by bisection, and every arrival in between is
  an overflow. Arrivals and attempts live in typed buffers, not as
  Python objects: 8 bytes an arrival and 8 an attempt (its time). The
  index of the next stored arrival is not stored: a traced run derives
  it for every attempt at once after the loop. The event log is then
  laid out as three numpy columns (time, kind, and source in the
  smallest unsigned type that holds M; 10 bytes an event up to M = 255)
  by index arithmetic, in place, over zero-copy views of those buffers,
  so no Python object is kept per arrival, attempt, event or epoch.
  tests/trace_oracle.py keeps the literal one-event-at-a-time loop this
  engine must match bit for bit.

Reproducibility contract: a SimConfig seed feeds a SeedSequence that is
split into three substreams (arrival waits, erasure draws, overflow
counts), so identical seeds give byte-identical event logs, and
replacing only erasure_seed reshuffles erasures while keeping the
arrival process fixed.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import stats
from .model import Feedback, SimConfig, SimResult

__all__ = ["SimConfig", "Epochs", "Event", "EventLog", "run_simulation"]

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
    (0 for battery events, 1..M otherwise; the trace engine stores it in
    np.min_scalar_type(M), a log built from Events in int64). `events` is
    a read-only Event sequence over them.
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
        """Check the log against the battery and ordering rules, column-wise.

        Up to its first violation the log is valid, so the replay state
        there follows from the columns: an event must be an outcome
        exactly when the one before it is an attempt, and the battery
        level is the running sum of +1 per stored arrival and -1 per
        attempt. Every rule is tested at every index under that state;
        the first failing index raises what an event-at-a-time replay
        (tests/trace_oracle.py) raises there.
        """
        time, kind, source = self.time, self.kind, self.source
        if time.size == 0:
            return
        attempt = kind == _CODE[ATTEMPT]
        stored = kind == _CODE[ENERGY_ARRIVAL]
        slot = np.concatenate(([False], attempt[:-1]))  # the outcome of the attempt before
        outcome = (kind == _CODE[SUCCESS]) | (kind == _CODE[ERASURE])
        step = stored.view(np.int8) - attempt.view(np.int8)
        # before each event; int8 is enough, as only levels up to the first violation count
        level = np.cumsum(step, dtype=np.int8) - step
        prev_time = np.concatenate(([0.0], time[:-1]))
        prev_source = np.concatenate(([0], source[:-1]))
        rules = (  # in the order a replay tests them at one event
            (time < prev_time, "event times decrease at {e}"),
            (slot & ~outcome, "attempt at {p} lacks an immediate outcome"),
            (slot & ((time != prev_time) | (source != prev_source)), "outcome {e} does not match attempt {p}"),
            (~slot & stored & (level != 0), "arrival stored into a full battery at {e}"),
            (~slot & (kind == _CODE[OVERFLOW]) & (level != 1), "overflow with room in the battery at {e}"),
            (~slot & attempt & (level != 1), "attempt with an empty battery at {e}"),
            (~slot & outcome, "outcome event {e} without a preceding attempt"),
        )
        failed = [(int(bad.argmax()), order) for order, (bad, _) in enumerate(rules) if bad.any()]
        if failed:
            i, order = min(failed)
            events = self.events
            raise ValueError(rules[order][1].format(e=events[i], p=events[i - 1]))
        if attempt[-1]:
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


_CHUNK = 8192  # log lines formatted and written at a time
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
    atts: Sequence[np.ndarray] | None  # attempts per epoch, aligned with ys; None if not kept
    success_times: Sequence[np.ndarray]  # includes the first success; trace engine only
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    events: EventLog | None


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
    keep_attempts: bool = True,
) -> _RawRun:
    """Epoch engine, no feedback: attempts walk the round-robin cycle.

    Attempt i belongs to source i mod M and waits max(gamma, tau_i). A
    block holds whole cycles; between blocks it carries the clock and,
    per source, the successes so far and the time and cycle of the last
    one. The run ends at the need-th success of the last source to get
    there; successes and overflows count the attempts before that cut.
    Every block is drawn and folded into the same buffers.
    """
    need = target + 1
    cycles = max(1, _BLOCK // M)
    ys = np.empty((M, target))
    atts = np.empty((M, target), np.int64) if keep_attempts else None
    wins = np.zeros(M, np.int64)  # successes so far, at most need
    last_t = np.zeros(M)
    last_k = np.zeros(M, np.int64)  # cycle of the last success
    done = np.zeros(M, np.int64)  # attempts up to each source's need-th success
    tau, u, t = np.empty((3, cycles * M))
    ok = np.empty(tau.size, bool)
    clock = 0.0
    base = successes = overflows = 0  # base: cycles before this block
    while True:
        rng_a.standard_exponential(out=tau)
        np.less(rng_e.random(out=u), 1.0 - q, out=ok)
        # attempt times, summed in the order of one running sum that starts at the clock
        np.maximum(tau, gamma, out=t)
        t[0] += clock
        np.cumsum(t, out=t)
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
            if atts is not None:
                np.subtract(a[1:], a[:-1], out=atts[j, lo : lo + a.size - 1])
            wins[j] += k.size
            last_t[j], last_k[j] = s[-1], a[-1]
            if wins[j] == need:
                done[j] = a[-1] * M + j + 1
        finished = wins.min() == need
        n = int(done.max()) - base * M if finished else tau.size
        successes += int(np.count_nonzero(ok[:n]))
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, tau[:n])
        if finished:
            break
        base += cycles
    attempts = int(done.max())
    return _RawRun(ys, atts, (), attempts + overflows, overflows, attempts, successes, None)


def _epochs_wfb(
    q: float,
    M: int,
    gamma: float,
    target: int,
    rng_a: np.random.Generator,
    rng_e: np.random.Generator,
    rng_o: np.random.Generator,
    keep_attempts: bool = True,
) -> _RawRun:
    """Epoch engine, with feedback: one service (a success) per turn.

    Max-age-first with zero service time degenerates to the cyclic order
    1..M: a success makes its source the youngest, so the stalest source
    is always the least recently served one. Each turn needs a geometric
    number of attempts; the extra waits beyond the first are a sum of
    unit exponentials, drawn as one gamma variate (shape 0 gives 0.0 and
    draws nothing). Those gamma draws follow every first wait on the
    same stream, so the first waits are drawn up front (8 bytes per
    epoch); the rest runs in blocks of whole rounds of M services,
    carrying the clock and the last round's success times.
    """
    need = target + 1
    tau1 = rng_a.standard_exponential(size=M * need)  # service s belongs to source s mod M
    rounds = max(1, _BLOCK // M)
    ys = np.empty((M, target))
    atts = np.empty((M, target), np.int64) if keep_attempts else None
    t = np.empty((rounds + 1, M))  # row 0: the last round of the block before
    shape, extra = np.empty((2, rounds * M))
    clock = 0.0
    fails_total = overflows = 0
    for lo in range(0, need, rounds):
        tau = tau1[lo * M : (lo + rounds) * M]
        size = tau.size
        w = t[1 : size // M + 1].reshape(-1)  # this block's services, then success times
        np.maximum(tau, gamma, out=w)
        tries = rng_e.geometric(1.0 - q, size=size)  # attempts per service
        np.subtract(tries, 1, out=shape[:size])
        w += rng_a.standard_gamma(shape[:size], out=extra[:size])
        fails_total += int(tries.sum()) - size
        w[0] += clock
        np.cumsum(w, out=w)
        clock = w[-1]
        # round r >= 1 of the run closes epoch r - 1 of every source
        r0 = 0 if lo else 1
        rows = t[r0 : size // M + 1]
        epochs = slice(lo - 1 + r0, lo + size // M - 1)
        np.subtract(rows[1:].T, rows[:-1].T, out=ys[:, epochs])
        if atts is not None:
            atts[:, epochs] = tries.reshape(-1, M)[r0:].T
        t[0] = rows[-1]
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, tau)
    n = M * need
    attempts = n + fails_total
    return _RawRun(ys, atts, (), attempts + overflows, overflows, attempts, n, None)


def _more_arrivals(A: array, rng_a: np.random.Generator, n: int) -> None:
    """Append n arrival times, summed in the order of the running sum t += wait."""
    waits = rng_a.standard_exponential(size=n)
    waits[0] += A[-1] if A else 0.0  # the same additions as a cumsum that starts at A[-1]
    A.frombytes(np.cumsum(waits, out=waits).view(np.uint8))


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

    A = array("d")  # arrival times
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
    gate = np.concatenate(([True], ok[:-1])).tobytes() if wfb else b"\x01" * n_max

    T = array("d")  # attempt times
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
        prev, k = t, kn

    # views, not copies: nothing is appended to A or T from here on
    n_att = len(T)
    times = np.frombuffer(T, np.float64)
    ok = ok[:n_att]
    n_arr = k if horizon is None else bisect_right(A, horizon)
    # a horizon can cut between a stored arrival and its attempt
    n_stored = n_att + int(k < n_arr)
    # the source (1..M) of each attempt, in the log's source dtype
    dt = np.min_scalar_type(M)
    if wfb:
        src = ((np.cumsum(ok) - ok) % M + 1).astype(dt)
    else:
        src = np.resize(np.arange(1, M + 1, dtype=dt), n_att)

    ys, atts, stimes = [], [], []
    for j in range(1, M + 1):
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
        arrivals = np.frombuffer(A, np.float64, n_arr)
        log = _event_log(arrivals, n_stored, times, _pair_slots(arrivals, times), ok, src)
    return _RawRun(ys, atts, stimes, n_arr, n_arr - n_stored, n_att, int(ok.sum()), log)


def _pair_slots(arrivals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Where each attempt/outcome pair starts in the log, in the searchsorted buffer.

    The arrival stored after attempt i is knext[i] = max(knext[i-1] + 1,
    s[i]), with knext[-1] = 0 and s[i] the number of arrivals up to
    times[i]: the loop's bisect_right(A, t, k + 1). So knext[i] - (i + 1)
    is the running maximum of max(0, s[j] - (j + 1)) over j <= i. The
    knext[i] arrivals and the i pairs before attempt i put its pair at
    knext[i] + 2i.
    """
    slots = np.searchsorted(arrivals, times, "right")
    i = np.arange(times.size)
    slots -= i
    slots -= 1
    np.maximum(slots, 0, out=slots)
    np.maximum.accumulate(slots, out=slots)
    i *= 3
    slots += i
    slots += 1
    return slots


def _event_log(
    arrivals: np.ndarray,
    n_stored: int,
    times: np.ndarray,
    slots: np.ndarray,
    ok: np.ndarray,
    src: np.ndarray,
) -> EventLog:
    """Interleave the arrivals with the attempt/outcome pairs, in log order.

    Attempt i sits at slots[i] (see _pair_slots), its outcome right after
    it, and the arrivals fill the other slots in order. The stored
    arrivals are the first one and the one that follows each outcome at
    once; every other arrival is an overflow. The columns take 10 bytes an
    event (time, kind and a source narrowed to the smallest unsigned type
    that holds M), and slots is shifted in place from the attempts to the
    outcomes to the stored arrivals, so no int64 index is made per event.
    """
    n_arr, n_att = arrivals.size, times.size
    time = np.empty(n_arr + 2 * n_att)
    kind = np.full(time.size, _CODE[OVERFLOW], np.uint8)
    source = np.zeros(time.size, src.dtype)
    time[slots] = times
    kind[slots] = _CODE[ATTEMPT]
    source[slots] = src
    slots += 1
    time[slots] = times
    kind[slots] = ok.view(np.uint8) + np.uint8(_CODE[ERASURE])  # Success is Erasure + 1
    source[slots] = src
    time[kind == _CODE[OVERFLOW]] = arrivals
    if n_stored:  # the first arrival, and the one right after each of the first n_stored - 1 outcomes
        kind[0] = _CODE[ENERGY_ARRIVAL]
        stored = slots[: n_stored - 1]
        stored += 1
        kind[stored] = _CODE[ENERGY_ARRIVAL]
    return EventLog.from_columns(time, kind, source)


def _horizon_estimates(
    success_times: Sequence[np.ndarray], T: float
) -> tuple[list[float], float, float]:
    """Time-windowed AoI means over [0, T], with a batch-means interval over time.

    Unlike the renewal estimator, this one keeps the leading and trailing
    partial sawtooth segments. A source's age area up to time t is the
    whole teeth before its last success s_k <= t plus the open ramp
    0.5 (t - s_k)^2; it is taken at every batch edge at once. The
    batches are equal in width, so each enters stats.ratio_estimate as
    its mean age over the sources against a length of 1.
    """
    M = len(success_times)
    edges = np.linspace(0.0, T, stats._N_BATCHES + 1)
    per_mean = []
    batch_totals = np.zeros(stats._N_BATCHES)
    for s in success_times:
        s0 = np.concatenate(([0.0], s))
        ys = np.diff(s0)
        teeth = np.concatenate(([0.0], np.cumsum(0.5 * ys * ys)))
        k = np.searchsorted(s, edges, side="right")
        d = edges - s0[k]
        area = teeth[k] + 0.5 * d * d
        batch_totals += np.diff(area) / np.diff(edges)
        per_mean.append(float(area[-1]) / T)
    mean = float(np.mean(per_mean))
    return per_mean, mean, stats.ratio_estimate(np.ones(stats._N_BATCHES), batch_totals / M, mean)


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


def run_simulation(
    cfg: SimConfig, *, _with_epochs: bool = True
) -> tuple[SimResult, Epochs | None, EventLog | None]:
    """Run one seeded simulation and aggregate it.

    Returns the aggregated result, the epochs as columns (ordered by
    source, then time), and the event log when tracing was requested.
    stats.validate reads only the result: it passes _with_epochs=False,
    gets None for the epochs, and the epoch engines skip their attempts
    block.
    """
    if cfg.trace or cfg.horizon is not None:
        raw = _run_loop(cfg, keep_events=cfg.trace)
    else:
        rng_a, rng_e, rng_o = _spawn_streams(cfg.seed, cfg.erasure_seed)
        engine = _epochs_wfb if cfg.setting is Feedback.WFB else _epochs_nofb
        raw = engine(cfg.q, cfg.M, cfg.gamma, cfg.target_epochs, rng_a, rng_e, rng_o, _with_epochs)

    if cfg.horizon is None:
        # every source has exactly target epochs, so the rows form one block
        ys = np.asarray(raw.ys)
        per_mean, mean, totals = stats._epoch_batches(ys)
        ci = stats.ratio_estimate(*totals, mean)
        n_epochs = cfg.target_epochs
    else:
        if any(s.size < 2 for s in raw.success_times):
            warnings.warn(
                "horizon too short to complete one epoch on every source", RuntimeWarning
            )
        per_mean, mean, ci = _horizon_estimates(raw.success_times, cfg.horizon)
        n_epochs = min((r.size for r in raw.ys), default=0)

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
    if not _with_epochs:
        return result, None, raw.events
    if cfg.horizon is None:
        y, att = ys.ravel(), np.ravel(raw.atts)
    else:
        y, att = np.concatenate(raw.ys), np.concatenate(raw.atts)
    return result, Epochs(np.array([len(r) for r in raw.ys]), y, att), raw.events


# kept only for perfbench/probe.py, which builds its run by this name; it goes when the probe stops using it
make_config = SimConfig
