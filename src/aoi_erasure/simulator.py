"""Seeded simulation of the sensing system.

run_simulation is the one entry point: the CLI and stats.validate turn
a model.SimConfig (q, M, setting, gamma, stopping rule and seeds) into
numbers through it. It returns the aggregated SimResult, the epochs as
columns (Epochs: per-source counts, y and attempts) and, for traced
runs, the event log. It picks one of three engines, which all take
(cfg, keep_attempts) and spawn their own streams; they produce
statistically identical runs:

* two epoch engines (default), one per setting, that exploit the renewal
  structure: each transmission empties the unit battery and arrivals are
  memoryless, so waits can be drawn in bulk with numpy and no event
  queue is needed. Every source then has exactly target_epochs epochs.
  Attempts are drawn and folded in fixed blocks of about _BLOCK, into
  buffers reused from block to block, and each block writes its success
  times into the window of the renewal estimator (_Renewal), which sums
  the epochs a leaf at a time and drops them, so memory does not grow
  with the run. Only runs that keep their epochs (run_simulation with
  _with_epochs, which stats.validate and the CLI do not ask for) hold an
  (M, target_epochs) y block and an attempts block, 16 bytes an epoch.
  Kept attempts without feedback are the cycle of each success, turned
  into counts in place (_gaps); with feedback each epoch takes the tries
  of its source's next service, written straight into their block. The
  feedback engine's retry waits are gamma draws on the arrival stream
  that come after every first wait, so they come from a copy of the
  stream set past those (_past_first_waits, one walk per seed and count
  of services). Each stream is consumed in the order of an all-at-once
  draw, so the block size changes no number. Exponentials are drawn with
  standard_exponential, which gives the values and the stream state of
  exponential() at less cost;
* a trace engine (`_run_loop`) for traced runs and wall-clock-horizon
  runs, where the cut at the horizon matters. It replays one Poisson
  arrival stream through the battery exactly: arrival times are the
  running sum of bulk exponential draws and erasure outcomes bulk
  uniforms compared with q. One loop over attempts (not events) serves
  both stopping rules and applies the threshold rule with the float
  expressions of a literal battery replay. The arrival it reads after
  an attempt is the next attempt's unless it overflows; then bisection
  finds the next stored arrival, and every arrival in between is an
  overflow. The loop tests no bound per attempt: a -inf sentinel after
  the last usable arrival sends it into that search, which tops the
  arrivals up a window's worth at a time and ends a horizon run once
  they are spent; each draw is cut at the horizon as it is made. The one
  attempt a threshold pushes past the horizon is trimmed after the loop.
  The loop makes at most _WINDOW attempts at a time and carries its
  state across. A window draws its outcomes first, so a target run
  stops inside the window where the last source gets its
  target_epochs + 1-th success. As a window ends it is handed on and
  its attempts dropped: each source's successes, read by stride (_wins:
  every M-th attempt without feedback, every M-th success with it), go
  to the renewal estimator in a target run, and a horizon run keeps
  their times; kept attempts per epoch are counted from each source's
  last success (or the last turn, with feedback) carried across
  windows. A window's log, from the stored arrival its first attempt
  spends to its last outcome, is an EventLog of its own. The simulate
  command passes --out, or a sink that formats nothing, as
  run_simulation's _out, and each window's log is dumped there, so the
  command holds one window at any epoch count; a library run keeps each
  window's arrays in its log (8 bytes an arrival, 10 an attempt). Every
  run drops a window's spent arrivals with it, and the estimator's
  leaves are sized by the window (_Renewal), so a target run holds one
  window; a horizon run keeps besides only its success times. No
  Python object is kept per arrival, attempt, event or epoch.
  tests/trace_oracle.py keeps the literal one-event-at-a-time loop this
  engine must match bit for bit.

The estimators live here too. Every run's 95% CI is by batch means
(ratio_estimate): for M > 1 the sources share one energy stream and one
attempt sequence, so their epochs are correlated, and iid pooling would
understate the interval by up to about sqrt(M). Each of the _N_BATCHES
batches (one an epoch, with fewer epochs) totals every source's y and
R = y**2 / 2 over a run of consecutive epochs (of time, in horizon
runs), which keeps that correlation inside it. The point estimate is
the ratio of the plain sums of R and y. A target run's sums are taken
as the epochs come (_Renewal): numpy's pairwise summation tree is cut
into leaves that one sum call each adds, so the estimates carry the
bits of whole-row np.sum and np.add.reduceat calls without holding the
rows (tests/epoch_oracle.py keeps that whole-row arithmetic).

Reproducibility contract: a SimConfig seed feeds a SeedSequence that is
split into three substreams (arrival waits, erasure draws, overflow
counts), so identical seeds give byte-identical event logs, and
replacing only erasure_seed reshuffles erasures while keeping the
arrival process fixed.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import warnings
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import BinaryIO, NamedTuple

import numpy as np

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
    """Ordered audit trail of one traced run.

    The engine's log keeps each window of attempts as the arrays the
    engine made it in (_Trace: 8 bytes an arrival and 10 an attempt, 11
    above M = 255). dump and to_lines lay out one window at a time
    (_lay_out, 10 bytes an event) and format its lines one _CHUNK at a
    time, so a dump holds one window's columns and one chunk's lines
    beside the arrays. A run that writes
    its log as it runs (run_simulation's _out) dumps each window's log
    into the one file as the window ends, and returns no log.
    The columns time (float64), kind (uint8 index into the kind names)
    and source (0 for battery events, else 1..M; np.min_scalar_type(M)
    from the engine, int64 from Events) are laid out whole on first read,
    10 bytes more an event. `events` is a read-only Event sequence.
    """

    __slots__ = ("_trace", "_columns", "_lines")

    def __init__(self, events: Iterable[Event] = ()) -> None:
        events = list(events)
        try:
            kind = [_CODE[e.kind] for e in events]
        except KeyError as exc:
            raise ValueError(f"unknown event kind {exc.args[0]!r}") from None
        time = np.array([e.time for e in events], dtype=np.float64)
        source = np.array([e.source_id for e in events], dtype=np.int64)
        self._trace, self._columns, self._lines = None, (time, np.array(kind, dtype=np.uint8), source), None

    @classmethod
    def from_columns(cls, time: np.ndarray, kind: np.ndarray, source: np.ndarray) -> EventLog:
        """The log of the columns time, kind (integer indices into the kind names) and source."""
        if not all(isinstance(c, np.ndarray) and c.ndim == 1 and c.size == time.size for c in (time, kind, source)):
            raise ValueError("time, kind and source must be three 1-D arrays of one length")
        if kind.dtype.kind not in "iu":
            raise ValueError(f"kind must hold integer codes, not {kind.dtype}")
        bad = (kind < 0) | (kind >= len(_KINDS))
        if bad.any():
            raise ValueError(f"unknown event kind code {int(kind[bad.argmax()])}")
        log = cls.__new__(cls)
        log._trace, log._columns, log._lines = None, (time, kind, source), None
        return log

    @classmethod
    def _from_trace(cls, windows: tuple[_Trace, ...], lines: bytearray | None = None) -> EventLog:
        """The log of a trace's windows; lines, if given, is the buffer its chunks are formatted in."""
        log = cls.__new__(cls)
        log._trace, log._columns, log._lines = windows, None, lines
        return log

    def __len__(self) -> int:
        if self._columns is not None:
            return self._columns[0].size
        return sum(w.size for w in self._trace)

    def _laid_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._columns is None:
            self._trace, self._columns = None, tuple(np.concatenate(c) for c in zip(*map(_lay_out, self._trace)))
        return self._columns

    time = property(lambda self: self._laid_out()[0])
    kind = property(lambda self: self._laid_out()[1])
    source = property(lambda self: self._laid_out()[2])

    @property
    def events(self) -> _EventView:
        return _EventView(self)

    def _chunks(self) -> Iterator[bytes | bytearray]:
        lines = bytearray() if self._lines is None else self._lines
        for columns in (self._columns,) if self._columns is not None else map(_lay_out, self._trace):
            for lo in range(0, columns[0].size, _CHUNK):
                yield _format_lines(*(c[lo : lo + _CHUNK] for c in columns), lines)

    def to_lines(self) -> list[str]:
        return b"".join(self._chunks()).decode().splitlines()

    def dump(self, out: str | os.PathLike | BinaryIO) -> None:
        """Write the lines to the file at path out, or to out, a binary file open for writing."""
        if not hasattr(out, "writelines"):
            with open(out, "wb") as fh:
                return self.dump(fh)
        out.writelines(self._chunks())

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
_KIND_WIDTH = max(len(k) for k in _KINDS)
_KIND_BYTES = np.array([list(k.encode().ljust(_KIND_WIDTH, b"\0")) for k in _KINDS], np.uint8)
_KIND_ITEM = np.dtype((np.void, _KIND_WIDTH))  # a kind's bytes as one item, gathered per line
_KIND_FIELD = _KIND_BYTES.view(_KIND_ITEM).ravel()


def _nanos(time: np.ndarray) -> np.ndarray:
    """time * 1e9 rounded to the nearest integer, ties to even as in Python's float formatting.

    The exact product t * 1e9 is p + e (Dekker's two-product; 1e9 has 21
    significant bits, so only t needs splitting). Its nearest integer is
    rint(p), except where p lies exactly half-way between two integers:
    the sign of e decides there. The steps run in place, four arrays of
    the chunk's length at most, and the caller holds none of them.
    """
    p = time * 1e9
    hi = time * 134217729.0  # Veltkamp split: 2**27 + 1
    hi -= hi - time
    e = time - hi
    e *= 1e9
    hi *= 1e9
    hi -= p
    e += hi  # (hi * 1e9 - p) + (time - hi) * 1e9
    r = np.rint(p)
    p -= r  # p less its nearest integer
    nanos = r.astype(np.int64)
    nanos += (p == 0.5) & (e > 0.0)
    nanos -= (p == -0.5) & (e < 0.0)
    return nanos


def _put_digits(buf: np.ndarray, col: int, width: int, values: np.ndarray, pad: bool) -> None:
    """Write values (< 2**32) as `width` decimal columns; unless pad, leading zeros as 0 bytes."""
    values = values.astype(np.uint32)  # 32-bit division is several times faster
    units = col + width - 1
    for c in range(units, col - 1, -1):
        higher = values // 10
        zero = np.uint32(48) if pad or c == units else (values > 0) * np.uint32(48)
        buf[:, c] = values - higher * 10 + zero
        values = higher


def _format_lines(
    time: np.ndarray, kind: np.ndarray, source: np.ndarray, lines: bytearray | None = None
) -> bytes | bytearray:
    """The bytes of the lines f"{t:.9f}\\t{kind}\\t{source}\\n", built column-wise.

    Times with a clear sign bit below 2**32 s and sources in [0, 2**32) fit
    _put_digits' 32-bit columns. t - floor(t) is exact (Sterbenz's lemma for
    t >= 1), so _nanos rounds its nanoseconds exactly, ties to even as for
    t * 1e9 since 1e9 is even; 1e9 of them carry a second. The f-string
    formats the rest, which the engine never writes: times with the sign
    bit set (-0.0 too), non-finite or of 2**32 s and more; other sources.

    Each line is a row of a byte buffer, with leading zeros and the kind's
    padding as 0 bytes, which bytearray.translate drops. lines, if given, is
    that buffer, resized: a dump or a streamed run reuses its pages every chunk.
    """
    n = time.size
    if n == 0:
        return b""
    if not (time.max() < 2.0**32 and not np.signbit(time).any() and source.min() >= 0 and source.max() < 2**32):
        kinds = map(_KINDS.__getitem__, kind.tolist())
        rows = zip(time.tolist(), kinds, source.tolist())
        return "".join(f"{t:.9f}\t{k}\t{s}\n" for t, k, s in rows).encode()
    frac = _nanos(time - np.floor(time))  # no whole part is held beside _nanos' arrays: fewer page faults
    carry = frac == 1_000_000_000
    whole = np.floor(time) + carry
    frac[carry] = 0
    w = len(str(int(whole.max())))
    ws = len(str(int(source.max())))
    tab1 = w + 10
    tab2 = tab1 + 1 + _KIND_WIDTH
    size = n * (tab2 + ws + 2)
    if lines is None:
        lines = bytearray(size)
    else:  # every byte is written below
        del lines[size:]
        lines.extend(bytes(size - len(lines)))
    buf = np.frombuffer(lines, np.uint8).reshape(n, -1)
    _put_digits(buf, 0, w, whole, pad=False)
    buf[:, w] = ord(".")
    _put_digits(buf, w + 1, 9, frac, pad=True)
    buf[:, tab1] = buf[:, tab2] = ord("\t")
    buf[:, tab1 + 1 : tab2].view(_KIND_ITEM)[:, 0] = np.take(_KIND_FIELD, kind)
    _put_digits(buf, tab2 + 1, ws, source, pad=False)
    buf[:, -1] = ord("\n")
    return lines.translate(None, b"\0")


def _spawn_streams(
    seed: int, erasure_seed: int | None
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    a_ss, e_ss, o_ss = np.random.SeedSequence(seed).spawn(3)
    if erasure_seed is not None:
        e_ss = np.random.SeedSequence(erasure_seed)
    return tuple(map(np.random.default_rng, (a_ss, e_ss, o_ss)))


class _RawRun(NamedTuple):
    # a target run's epochs are one (M, target) block, a horizon run's one row per source
    ys: np.ndarray | Sequence[np.ndarray]  # epoch lengths; stride-0 NaN of their shape if the epochs are not kept
    atts: np.ndarray | Sequence[np.ndarray] | None  # attempts per epoch, aligned with ys; None if not kept
    success_times: Sequence[np.ndarray]  # includes the first success; horizon runs only
    estimates: tuple[list[float], float, float] | None  # a target run's _Renewal estimates
    arrivals: int
    overflows: int
    attempts: int
    successes: int
    events: EventLog | range | None  # a log written as it ran is the range of its lines


_BLOCK = 1 << 14  # attempts (nofb) or services (wfb) an epoch engine draws per pass


def _overflows(rng_o: np.random.Generator, gamma: float, tau: np.ndarray) -> int:
    """Arrivals lost while the threshold holds a full battery: Poisson(gamma - tau) each.

    Only positive means are drawn: a zero mean yields 0 without touching
    the stream, so the skipped draws change nothing. The draws are summed
    exactly, as high and low 32-bit halves, since an int64 sum of draws
    near gamma = 1e17 wraps.
    """
    lam = gamma - tau
    d = rng_o.poisson(lam[lam > 0.0])
    return (int((d >> 32).sum()) << 32) + int((d & 0xFFFFFFFF).sum())


def _gaps(rows: np.ndarray) -> np.ndarray:
    """The (M, n - 1) consecutive differences of (M, n) rows, written over the rows in place.

    Row j's differences start at flat offset j * (n - 1), at or before the
    row itself, so numpy reads them forward without a temporary.
    """
    M, n = rows.shape
    flat = rows.reshape(-1)
    for j, row in enumerate(rows):
        np.subtract(row[1:], row[:-1], out=flat[j * (n - 1) : (j + 1) * (n - 1)])
    return flat[: M * (n - 1)].reshape(M, n - 1)


def _epochs_nofb(cfg: SimConfig, keep_attempts: bool) -> _RawRun:
    """Epoch engine, no feedback: attempts walk the round-robin cycle.

    Attempt i belongs to source i mod M and waits max(gamma, tau_i). A
    block holds whole cycles, and the cycle of a source's success counts
    the source's attempts before it. The run ends at the need-th success
    of the last source to get there; successes and overflows count the
    attempts before that cut. Every block is drawn and folded into the
    same buffers, and the success times into the estimator's window
    (_Renewal), which takes the epochs that every source has each time
    it fills.
    """
    q, M, gamma, need = cfg.q, cfg.M, cfg.gamma, cfg.target_epochs + 1
    rng_a, rng_e, rng_o = _spawn_streams(cfg.seed, cfg.erasure_seed)
    cycles = max(1, _BLOCK // M)
    renewal = _Renewal(M, need - 1, keep_attempts, cycles)
    a = np.empty((M, need), np.int64) if keep_attempts else None  # the cycles of source j's successes
    wins = [0] * M  # successes so far, at most need
    done = [0] * M  # attempts up to each source's need-th success
    tau, u, t = np.empty((3, cycles * M))
    ok = np.empty(tau.size, bool)
    clock = 0.0
    base = successes = overflows = 0  # base: cycles before this block
    while True:
        s, first = renewal.window(min(max(wins) + cycles, need))  # row j: source j's success times
        rng_a.standard_exponential(out=tau)
        np.less(rng_e.random(out=u), 1.0 - q, out=ok)
        # attempt times, summed in the order of one running sum that starts at the clock
        spaced = np.maximum(tau, gamma, out=t) if gamma > 0.0 else tau  # max(tau, 0) is tau, not read again
        spaced[0] += clock
        np.cumsum(spaced, out=t)
        clock = t[-1]
        for j, w in enumerate(wins):
            if w == need:
                continue
            k = ok[j::M].nonzero()[0][: need - w]  # in place, where flatnonzero copies the view
            s[j, w - first : w - first + k.size] = t[j::M][k]
            if a is not None:
                a[j, w : w + k.size] = k + base
            wins[j] = w = w + k.size
            if w == need:
                done[j] = (int(k[-1]) + base) * M + j + 1
        renewal.advance(min(wins), max(wins))
        finished = min(wins) == need
        n = max(done) - base * M if finished else tau.size
        successes += int(np.count_nonzero(ok[:n]))
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, tau[:n])
        if finished:
            break
        base += cycles
    attempts = max(done)
    atts = None if a is None else _gaps(a)
    return _RawRun(renewal.ys, atts, (), renewal.estimates(), attempts + overflows, overflows, attempts, successes, None)


@functools.lru_cache(maxsize=16)
def _past_first_waits(seed: int, n: int) -> np.random.Generator:
    """seed's arrival stream after n exponential draws, where a feedback run's retry waits start.

    The stream walks past the draws in blocks. The walk depends only on
    the seed and n, not on q, gamma or erasure_seed, so the feedback
    cells of a grid with one seed walk once per source count. Callers
    draw from a copy, never from the cached stream.
    """
    rng_a = _spawn_streams(seed, None)[0]
    out = np.empty(min(n, _BLOCK))
    for lo in range(0, n, out.size):
        rng_a.standard_exponential(out=out[: n - lo])
    return rng_a


def _epochs_wfb(cfg: SimConfig, keep_attempts: bool) -> _RawRun:
    """Epoch engine, with feedback: one service (a success) per turn.

    Max-age-first with zero service time degenerates to the cyclic order
    1..M: a success makes its source the youngest, so the stalest source
    is always the least recently served one. Each turn needs a geometric
    number of attempts; the extra waits beyond the first are a sum of
    unit exponentials, drawn as one gamma variate of shape tries - 1.
    Those gamma draws follow every first wait on the same stream, so
    they come from a copy of the stream set past the M * need first
    waits (_past_first_waits); a shape of 0 gives 0.0 and draws nothing,
    so only the services with a retry draw. Blocks hold whole rounds of
    M services and carry the clock; round r holds every source's success
    r, and goes into the estimator's window (_Renewal). A source's epoch
    k takes the tries of its service k + 1, so round r > 0 writes column
    r - 1 of the attempts.
    """
    q, M, gamma, need = cfg.q, cfg.M, cfg.gamma, cfg.target_epochs + 1
    rng_a, rng_e, rng_o = _spawn_streams(cfg.seed, cfg.erasure_seed)
    rounds = max(1, _BLOCK // M)
    renewal = _Renewal(M, need - 1, keep_attempts, rounds)
    a = np.empty((M, need - 1), np.int64) if keep_attempts else None  # row j: source j's attempts per epoch
    waits = np.empty(rounds * M)
    rng_r = copy.deepcopy(_past_first_waits(cfg.seed, M * need))  # the retry waits' stream
    clock = 0.0
    fails_total = overflows = 0
    for lo in range(0, need, rounds):
        w = waits[: min(rounds, need - lo) * M]  # service s belongs to source s mod M
        size = w.size
        rng_a.standard_exponential(out=w)
        if gamma > 0.0:
            overflows += _overflows(rng_o, gamma, w)
            np.maximum(w, gamma, out=w)
        tries = rng_e.geometric(1.0 - q, size=size)  # attempts per service
        retry = np.flatnonzero(tries > 1)
        w[retry] += rng_r.standard_gamma(tries[retry] - 1.0)
        fails_total += int(tries.sum()) - size
        w[0] += clock
        np.cumsum(w, out=w)
        clock = w[-1]
        hi = lo + size // M  # successes so far
        s, first = renewal.window(hi)  # row j: source j's success times
        s[:, lo - first : hi - first] = w.reshape(-1, M).T
        renewal.advance(hi, hi)
        if a is not None:
            start = max(lo, 1)
            a[:, start - 1 : hi - 1] = tries.reshape(-1, M)[start - lo :].T
    n = M * need
    attempts = n + fails_total
    return _RawRun(renewal.ys, a, (), renewal.estimates(), attempts + overflows, overflows, attempts, n, None)


def _more_arrivals(A: array, rng_a: np.random.Generator, n: int, horizon: float | None) -> bool:
    """Draw n arrival times, summed in the order of the running sum t += wait, and append
    those up to the horizon; True if one lies past it, so that no later one is usable."""
    waits = rng_a.standard_exponential(size=n)
    waits[0] += A[-1] if A else 0.0  # the same additions as a cumsum that starts at A[-1]
    times = np.cumsum(waits, out=waits)
    usable = n if horizon is None else int(np.searchsorted(times, horizon, "right"))
    A.frombytes(times[:usable].view(np.uint8))
    return usable < n


def _outcomes(rng_e: np.random.Generator, q: float, ok: np.ndarray) -> np.ndarray:
    """Fill ok with attempt outcomes, True where a uniform exceeds q.

    Called on each window in turn, the values and the stream state are
    those of one rng_e.random(attempts) > q for the whole run.
    """
    return np.greater(rng_e.random(ok.size), q, out=ok)


def _wins(ok: np.ndarray, M: int, wfb: bool, start: int = 0) -> Iterator[np.ndarray]:
    """Each source's successful attempts, as indices into ok, one source at a time.

    Without feedback source j makes every M-th attempt from the j-th
    (round robin). With feedback, max-age-first with zero service time
    serves the sources cyclically (see _epochs_wfb), so source j gets
    every M-th success from the j-th. A replay that compares rounded
    ages could depart from that order only if two sources' last
    successes lay within one rounding unit of the age apart. ok may be
    a window of the run: start is then the attempts (without feedback)
    or the successes (with it) before the window, mod M.
    """
    wins = np.flatnonzero(ok) if wfb else None
    for j in range(M):
        at = (j - start) % M
        # nonzero reads the strided view in place, where flatnonzero copies it first
        yield wins[at::M] if wfb else ok[at::M].nonzero()[0] * M + at


_WINDOW = 1 << 12  # attempts the trace engine makes, and settles the log of, at a time


def _run_loop(cfg: SimConfig, keep_attempts: bool, out: BinaryIO | None = None) -> _RawRun:
    """Trace engine: one Poisson arrival stream through one unit battery.

    The battery is full from a stored arrival until the attempt that
    spends it; arrivals in between overflow, and the next stored arrival
    is the first one after the attempt. So only attempts need a loop:
    each finds its time from the stored arrival's, and the arrival read
    after it is the next attempt's unless it overflows, when bisection
    finds the next stored one. One loop serves both stopping rules. It
    runs over the gate bytes of the attempts it may make and tests no
    bound: a -inf sentinel after the last usable arrival sends the step
    past it into the search, which tops the arrivals up a window's worth
    at a time (_more_arrivals, which cuts each draw at the horizon) and
    ends a horizon run once a draw has passed the horizon and its
    arrivals are spent. An attempt that a threshold pushes past the
    horizon is made and then trimmed after the loop.

    The loop makes a window of at most _WINDOW attempts at a time, whose
    outcomes it draws first, so a target run stops inside the window
    where the last source gets its target + 1-th success. As a window
    ends, each source's successes in it (_wins) go to the renewal
    estimator or the horizon run's success times, and any kept attempts
    per epoch are counted (_attempts_per_epoch). A traced window's log is
    dumped into out (events is then the range of the lines written) or
    its arrays kept for the run's EventLog. Then the window's attempts
    and the arrivals they spent are dropped. A horizon run's success
    times are joined as it ends, and its ys are stride-0 NaN rows of
    their lengths unless its epochs are kept.
    """
    q, M, gamma = cfg.q, cfg.M, cfg.gamma
    wfb = cfg.setting is Feedback.WFB
    target, horizon = cfg.target_epochs, cfg.horizon
    rng_a, rng_e, _ = _spawn_streams(cfg.seed, cfg.erasure_seed)

    A = array("d")  # arrival times, from the a0-th on
    # arrivals drawn at a time, about a window's: an attempt spaced by max(gamma, wait)
    # spans gamma + e^-gamma arrivals on average, an upper bound for both settings
    more = int(_WINDOW * (gamma + math.exp(-gamma)) * 1.02) + 256
    cut = _more_arrivals(A, rng_a, more, horizon)  # a draw passed the horizon: no more are usable
    if horizon is None:
        need = target + 1
        renewal = _Renewal(M, target, keep_attempts, -(-_WINDOW // M))
        atts = np.empty((M, target), np.int64) if keep_attempts else None
    else:
        stimes = [[np.empty(0)] for _ in range(M)]  # each source's success times, a window at a time
        atts = [[np.empty(0, np.int64)] for _ in range(M)] if keep_attempts else None

    n_a = len(A)  # usable arrivals, then the sentinel
    A.append(-math.inf)
    T = array("d")  # the window's attempt times
    windows = []  # a traced run's windows, unless out is given
    lines = bytearray()  # the buffer every window's log lines are formatted in, when out is given
    got = [0] * M  # successes of each source so far, in a target run up to need
    marks = [0] * M  # what _attempts_per_epoch carries
    buf = np.empty(_WINDOW if n_a else 0, bool)  # no attempt if nothing arrives before the horizon
    a0 = i0 = successes = trimmed = 0  # arrivals before A[0], attempts before the window
    k, prev, fill, last = 0, 0.0, A[0], b"\x01"  # last: the gate of the window's first attempt
    while True:
        ok = _outcomes(rng_e, q, buf)
        start = (successes if wfb else i0) % M
        wins = [] if horizon is not None else [w[: need - g] for w, g in zip(_wins(ok, M, wfb, start), got)]
        done = horizon is None and sum(got) + sum(w.size for w in wins) == M * need
        if done:  # the run ends at the need-th success of the last source to get there
            ok = ok[: 1 + max(int(w[-1]) for w in wins if w.size)]
        # the threshold applies to every attempt without feedback, and with
        # feedback to the first attempt after a success
        gate = (last + ok[:-1].tobytes())[: ok.size] if wfb else b"\x01" * ok.size

        append = T.append
        for g in gate:
            d = fill - prev
            if g and gamma > d:
                d = gamma
            t = prev + d
            append(t)
            prev = t
            k += 1
            fill = A[k]
            if fill <= t:  # overflows, or the sentinel: search past them
                k = bisect_right(A, t, k, n_a)
                while k == n_a and not cut:  # top the arrivals up
                    A.pop()
                    cut = _more_arrivals(A, rng_a, more, horizon)
                    n_a = len(A)
                    A.append(-math.inf)
                    k = bisect_right(A, t, k, n_a)
                if k == n_a:  # a horizon run has spent its arrivals
                    break
                fill = A[k]
        ended = done or k == n_a
        # the attempt that a threshold pushed past the horizon; its stored arrival is kept
        if horizon is not None and ended and T and T[-1] > horizon:
            T.pop()
            trimmed = 1
        made = len(T)
        ok = ok[:made]
        times = np.frombuffer(T, np.float64)
        if horizon is not None:
            wins = list(_wins(ok, M, wfb, start))
        if atts is not None:
            for j, (g, a) in enumerate(zip(got, _attempts_per_epoch(ok, wins, M, wfb, i0, start, marks))):
                a = a[g == 0 :]  # a source's first success ends no epoch
                if horizon is None:
                    atts[j, max(g - 1, 0) : max(g - 1, 0) + a.size] = a
                else:
                    atts[j].append(a)
        if horizon is None:
            _put_successes(renewal, got, times, wins)
        else:
            for j, w in enumerate(wins):
                stimes[j].append(times[w])
                got[j] += w.size
        successes += int(np.count_nonzero(ok))
        last = ok[-1:].tobytes()

        if cfg.trace:  # the window's own log, from the stored arrival A[0] to its last outcome
            window = _Trace(np.frombuffer(A, np.float64, k), times, ok, _sources(ok, M, wfb, start))
            if out is None:  # copies: A, T and buf are reused
                windows.append(_Trace(*map(np.copy, window)))
            else:
                EventLog._from_trace((window,), lines).dump(out)
            del window  # views of A and T
        i0 += made
        del times, T[:]  # times is a view of T
        if ended:
            break
        del A[:k]
        a0, n_a, k = a0 + k, n_a - k, 0

    n_arr = a0 + k
    counts = (n_arr, n_arr - i0 - trimmed, i0, successes)
    events = None if not cfg.trace else EventLog._from_trace(tuple(windows)) if out is None else range(n_arr + 2 * i0)
    if horizon is None:
        return _RawRun(renewal.ys, atts, (), renewal.estimates(), *counts, events)
    for pieces in (stimes, atts or ()):  # joined in place, one source's pieces at a time
        for j, p in enumerate(pieces):
            pieces[j] = np.concatenate(p)
    ys = [np.diff(s) if keep_attempts else np.broadcast_to(np.nan, s[1:].shape) for s in stimes]
    return _RawRun(ys, atts, stimes, None, *counts, events)


def _put_successes(renewal: _Renewal, got: list[int], times: np.ndarray, wins: list[np.ndarray]) -> None:
    """Write source j's successes at times[wins[j]] into the estimator's window after its got[j]
    others, and count them in got."""
    s, first = renewal.window(max(g + w.size for g, w in zip(got, wins)))
    for j, w in enumerate(wins):
        s[j, got[j] - first : got[j] - first + w.size] = times[w]
        got[j] += w.size
    renewal.advance(min(got), max(got))


def _attempts_per_epoch(
    ok: np.ndarray, wins: list[np.ndarray], M: int, wfb: bool, i0: int, start: int, marks: list[int]
) -> list[np.ndarray]:
    """Each source's attempts up to each of its successes wins[j] in a window, one array a source.

    Without feedback these are its own attempts since its success before;
    with feedback its turn, the attempts after the success before, the
    previous source's. i0 is the attempts before the window, start as in
    _wins. marks carries the cycle of each source's last success (without
    feedback) or the last success's index (with it, in marks[0]). A
    source's first success ends no epoch; the caller drops its entry.
    """
    if wfb:
        at = np.flatnonzero(ok) + i0
        turns = np.diff(at, prepend=marks[0])
        marks[0] = int(at[-1]) if at.size else marks[0]
        return [turns[(j - start) % M :: M] for j in range(M)]
    counts = []
    for j, w in enumerate(wins):
        cycles = (w + i0) // M
        counts.append(np.diff(cycles, prepend=marks[j]))
        marks[j] = int(cycles[-1]) if cycles.size else marks[j]
    return counts


def _sources(ok: np.ndarray, M: int, wfb: bool, start: int = 0) -> np.ndarray:
    """The source (1..M) of each attempt, in np.min_scalar_type(M).

    Without feedback attempts cycle through the sources; with feedback an
    attempt's source is one more than the successes before it, mod M.
    start is as in _wins.
    """
    dt = np.min_scalar_type(M)
    if not wfb:
        return np.resize(np.roll(np.arange(1, M + 1, dtype=dt), -start), ok.size)
    return ((np.cumsum(ok) - ok + start) % M + 1).astype(dt)


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
    i = np.arange(slots.size)
    slots -= i + 1
    np.maximum(slots, 0, out=slots)
    np.maximum.accumulate(slots, out=slots)
    slots += 3 * i + 1
    return slots


class _Trace(NamedTuple):
    """One window of a traced run's log as the trace engine leaves it: what _lay_out reads."""

    arrivals: np.ndarray  # the arrival times from the stored one the window's first attempt spends
    times: np.ndarray  # attempt times
    ok: np.ndarray  # attempt outcomes, True for a success
    src: np.ndarray  # the source (1..M) of each attempt, in np.min_scalar_type(M)

    @property
    def size(self) -> int:
        """The lines of the window's log: its arrivals, and its attempts with their outcomes."""
        return self.arrivals.size + 2 * self.times.size


def _lay_out(trace: _Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The time, kind and source columns of a window's events.

    Attempt i sits at its pair's slot (_pair_slots), its outcome right
    after it, and the arrivals fill the other positions in order. The
    first arrival and the one right after each outcome are stored, the
    others overflow.
    """
    arrivals, times, ok, src = trace
    at = _pair_slots(arrivals, times)
    time = np.empty(trace.size)
    kind = np.full(time.size, _CODE[OVERFLOW], np.uint8)
    source = np.zeros(time.size, src.dtype)
    kind[:1] = _CODE[ENERGY_ARRIVAL]  # an empty log has no first arrival
    for code in (_CODE[ATTEMPT], ok.view(np.uint8) + np.uint8(_CODE[ERASURE])):  # Success is Erasure + 1
        time[at], kind[at], source[at] = times, code, src
        at += 1
    kind[at[at < time.size]] = _CODE[ENERGY_ARRIVAL]  # the log may end at an outcome
    time[kind <= _CODE[OVERFLOW]] = arrivals
    return time, kind, source


_N_BATCHES = 20
# two-sided 95% quantiles of Student's t at 1 .. _N_BATCHES - 1 df; 19 df's is 8e-15 high, as pinned horizon CIs use it
_T975 = (
    12.706204736174705, 4.302652729749464, 3.1824463052837095, 2.7764451051977943, 2.5705818356363155,
    2.44691185114497, 2.3646242515927853, 2.3060041352041667, 2.2621571627982053, 2.228138851986275,
    2.2009851600916397, 2.178812829667229, 2.1603686564627926, 2.144786687917804, 2.1314495455597755,
    2.1199052992212546, 2.109815577833317, 2.1009220402410387, 2.0930240544083176,
)


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


def _pairwise_tree(lo: int, hi: int, leaf: int) -> Iterator[tuple[int, int] | None]:
    """numpy's pairwise summation tree over [lo, hi), down to leaves of at most `leaf` values, in post-order.

    np.sum of n > 128 contiguous float64 values adds the sum of the first
    n // 2 - (n // 2) % 8 and the sum of the rest, so np.sum over each
    leaf, added back up along this tree, gives np.sum over the range bit
    for bit (tests/test_simulator.py::TestNumpyContracts pins this). A
    leaf comes as its range (lo, hi), and a join as None after the two
    subtrees it adds, so a stack of sums adds the tree up as it is walked.
    An empty range gives nothing.
    """
    n = hi - lo
    if n > leaf:
        half = n // 2 - n // 2 % 8
        yield from _pairwise_tree(lo, lo + half, leaf)
        yield from _pairwise_tree(lo + half, hi, leaf)
        yield None
    elif n > 0:
        yield lo, hi


def _batch_trees(n: int, leaf: int) -> Iterator[tuple[int, int] | None]:
    """The trees of np.add.reduceat's batch totals over np.array_split's batches of n epochs, in order.

    np.add.reduceat gives a batch as its first epoch plus the pairwise
    tree of the rest, so each batch's tree joins the leaf of its first
    epoch with _pairwise_tree of the rest; walked with a stack, they
    leave each batch's total on it.
    """
    B = min(_N_BATCHES, n)
    starts = [b * (n // B) + min(b, n % B) for b in range(B)]
    for lo, hi in zip(starts, [*starts[1:], n]):
        yield lo, lo + 1
        if hi > lo + 1:
            yield from _pairwise_tree(lo + 1, hi, leaf)
            yield None


class _Sums:
    """The sums of a tree walk (_pairwise_tree, _batch_trees) over the epochs of every source.

    close sums each leaf, y and R of every source in one call, once its
    last epoch is in, and adds each join as soon as both its halves are,
    so the stack holds only the sums not yet joined: the walk's finished
    trees and, from the open one, at most one a level.
    """

    __slots__ = ("_steps", "leaf", "stack")

    def __init__(self, steps: Iterator[tuple[int, int] | None]) -> None:
        self._steps = steps
        self.leaf = next(steps, None)  # the next leaf to sum; a walk starts with one
        self.stack: list[np.ndarray] = []

    def close(self, yr: np.ndarray, lo: int, n: int) -> None:
        """Sum every leaf that ends by epoch n, from yr's y and R of the epochs from lo on."""
        while self.leaf is not None and self.leaf[1] <= n:
            a, b = self.leaf
            self.stack.append(np.add.reduce(yr[:, :, a - lo : b - lo], axis=2))
            self.leaf = None
            for step in self._steps:
                if step is not None:
                    self.leaf = step
                    break
                right = self.stack.pop()
                self.stack[-1] += right


class _Renewal:
    """The renewal estimates of an (M, n) epoch block, taken a run of epochs at a time.

    Each row's sums of y and of R = 0.5 * y * y are np.sum's, added up
    along its pairwise tree (_pairwise_tree), and each batch's totals are
    np.add.reduceat's: the batch's first epoch plus the tree of the rest
    (_batch_trees). A leaf of a tree is summed for y and R of every source
    in one call, once its last epoch is in (a row slice of a 2-D array
    sums each row as np.sum sums it alone), and a join is added as soon
    as both its halves are (_Sums). Only the epochs of the leaves still
    open are held, and no more than a few dozen sums.

    An epoch engine writes its success times into the window that
    window(upto) returns, where column c holds success `first` + c, and
    tells advance how many successes every source has. When the window
    is full, the epochs that every source has are taken, and the window
    moves up to the success they end at. feed(ys) takes a block of
    epochs instead. block is the successes a source that an engine
    writes at a time (an epoch engine's block, _BLOCK // M, or a window
    of the trace engine, _WINDOW / M), and a leaf holds max(512, block)
    epochs of a source, so the window and the open leaves take about
    40 * leaf + 48 * block bytes a source, whatever n. With keep, the
    epochs are also kept, in ys.
    """

    def __init__(self, M: int, n: int, keep: bool = False, block: int = 0) -> None:
        self._leaf = max(512, block)  # epochs of each source
        self._row, self._batches = _Sums(_pairwise_tree(0, n, self._leaf)), _Sums(_batch_trees(n, self._leaf))
        self._s = np.empty((M, min(n, self._leaf + 2 * block) + 1 if block else 0))  # from success _first on
        self._yr = np.empty((2, M, 2 * (self._leaf + block)))  # y and R of the epochs from _lo on
        self._first = self._ready = self._filled = 0
        self._lo = self._n = 0  # _n epochs taken
        self.ys = np.empty((M, n)) if keep else np.broadcast_to(np.nan, (M, n))
        self._keep = keep

    def window(self, upto: int) -> tuple[np.ndarray, int]:
        """The success-time window with room for the successes before `upto`, and its first success."""
        if upto - self._first > self._s.shape[1]:
            self._take_window()
            if upto - self._first > self._s.shape[1]:  # a source ran far ahead of another
                s = np.empty((self._s.shape[0], 2 * (upto - self._first)))
                s[:, : self._s.shape[1]] = self._s
                self._s = s
        return self._s, self._first

    def advance(self, ready: int, filled: int) -> None:
        """Every source has its first `ready` successes in the window, and none more than `filled`."""
        self._ready, self._filled = ready, filled

    def _take_window(self) -> None:
        """Take the epochs that every source has in the window, and move it up to the last."""
        s, k = self._s, self._ready - 1 - self._first
        if k > 0:
            np.subtract(s[:, 1 : k + 1], s[:, :k], out=self._space(k))
            self._commit(k)
            held = self._filled - self._first - k
            s[:, :held] = s[:, k : k + held]
            self._first += k

    def _space(self, k: int) -> np.ndarray:
        """The (M, k) slice that the y of the next k epochs go into."""
        yr, held = self._yr, self._n - self._lo
        if held + k > yr.shape[2]:
            open_leaves = [t.leaf[0] for t in (self._row, self._batches) if t.leaf is not None]
            drop = min(open_leaves, default=self._n) - self._lo
            held -= drop
            if held + k > yr.shape[2]:
                self._yr = np.empty((2, yr.shape[1], held + k))
            self._yr[:, :, :held] = yr[:, :, drop : drop + held]
            self._lo += drop
        return self._yr[0, :, held : held + k]

    def _commit(self, k: int) -> None:
        """Take the k epochs written into _space(k), and sum every leaf they close."""
        yr, lo, at = self._yr, self._lo, self._n - self._lo
        y, R = yr[:, :, at : at + k]
        np.multiply(y, 0.5, out=R)
        R *= y
        if self._keep:
            self.ys[:, self._n : self._n + k] = y
        self._n += k
        self._row.close(yr, lo, self._n)
        self._batches.close(yr, lo, self._n)

    def feed(self, ys: np.ndarray) -> None:
        """Take an (M, k) block of the next epochs, a leaf's width at a time."""
        for lo in range(0, ys.shape[1], self._leaf):
            part = ys[:, lo : lo + self._leaf]
            self._space(part.shape[1])[:] = part
            self._commit(part.shape[1])

    def estimates(self) -> tuple[list[float], float, float]:
        """Each row's ratio R.sum() / y.sum(), the pooled ratio (row sums added in row order)
        and its interval, from the batch totals of y and R added over the rows in row order."""
        self._take_window()
        per_row, sum_y, sum_r = [], 0.0, 0.0
        for y_j, r_j in zip(*self._row.stack[0].tolist()):
            per_row.append(r_j / y_j)
            sum_y += y_j
            sum_r += r_j
        # a running sum over the rows is the reference's row-by-row addition
        totals = np.cumsum(self._batches.stack, axis=2)[:, :, -1].T
        mean = sum_r / sum_y
        return per_row, mean, ratio_estimate(*totals, mean)


def _horizon_estimates(
    success_times: Sequence[np.ndarray], T: float
) -> tuple[list[float], float, float]:
    """Time-windowed AoI means over [0, T], with a batch-means interval over time.

    Unlike the renewal estimator, this one keeps the leading and trailing
    partial sawtooth segments. A source's age area up to time t is the
    whole teeth before its last success s_k <= t plus the open ramp
    0.5 (t - s_k)^2; it is taken at every batch edge at once. The
    batches are equal in width, so each enters ratio_estimate as
    its mean age over the sources against a length of 1.
    """
    M = len(success_times)
    edges = np.linspace(0.0, T, _N_BATCHES + 1)
    per_mean = []
    batch_totals = np.zeros(_N_BATCHES)
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
    return per_mean, mean, ratio_estimate(np.ones(_N_BATCHES), batch_totals / M, mean)


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
    cfg: SimConfig, *, _with_epochs: bool = True, _out: BinaryIO | None = None
) -> tuple[SimResult, Epochs | None, EventLog | None]:
    """Run one seeded simulation and aggregate it.

    Returns the aggregated result, the epochs as columns (ordered by
    source, then time), and the event log when tracing was requested.
    stats.validate and the simulate command read only the result: they
    pass _with_epochs=False, get None for the epochs, and the engines
    keep no attempts per epoch. The simulate command also passes _out,
    its --out file, or without --out a sink that formats nothing: a
    traced run then writes its log there a window at a time as it runs,
    so it holds one window, and returns None for it.
    """
    if _out is not None and not cfg.trace:
        raise ValueError("_out takes the log of a traced run")
    if cfg.trace or cfg.horizon is not None:
        raw = _run_loop(cfg, _with_epochs, _out)
    else:
        raw = (_epochs_wfb if cfg.setting is Feedback.WFB else _epochs_nofb)(cfg, _with_epochs)

    if cfg.horizon is None:  # every source has exactly target epochs
        per_mean, mean, ci = raw.estimates
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
    log = None if _out is not None else raw.events
    if not _with_epochs:
        return result, None, log
    if cfg.horizon is None:
        y, att = raw.ys.ravel(), raw.atts.ravel()
    else:
        y, att = np.concatenate(raw.ys), np.concatenate(raw.atts)
    return result, Epochs(np.array([len(r) for r in raw.ys]), y, att), log


# kept only for perfbench/probe.py, which builds its run by this name; it goes when the probe stops using it
make_config = SimConfig
