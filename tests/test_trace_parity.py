"""The trace engine against the literal event loop, and the log format.

tests/trace_oracle.py replays one event at a time with scalar draws; the
production engine must reproduce it exactly: log lines, counters, epoch
arrays and, in horizon runs, success times.
"""

import hashlib
import re

import numpy as np
import pytest

from aoi_erasure.analytic import optimize_gamma
from aoi_erasure.cli import main
from aoi_erasure.model import SimConfig
from aoi_erasure.simulator import (
    ATTEMPT,
    ENERGY_ARRIVAL,
    ERASURE,
    OVERFLOW,
    SUCCESS,
    Event,
    EventLog,
    _format_lines,
    _run_loop,
    run_simulation,
)
from trace_oracle import lines, run_loop


def assert_same_run(cfg):
    want = run_loop(cfg, cfg.trace)
    got = _run_loop(cfg, True)
    counters = ("arrivals", "overflows", "attempts", "successes")
    assert [getattr(got, c) for c in counters] == [getattr(want, c) for c in counters]
    # success times are kept only where the horizon estimator reads them
    assert len(got.success_times) == (0 if cfg.horizon is None else cfg.M)
    for name in ("ys", "atts", "success_times"):
        for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    if cfg.trace:
        assert len(got.events) == len(want.events)
        assert list(got.events.events) == want.events
        assert got.events.to_lines() == lines(want.events)
    else:
        assert got.events is None


@pytest.mark.parametrize("setting", ["nofb", "wfb"])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_engine_matches_literal_loop_on_grid(setting, M):
    for q in (0.0, 0.3, 0.7, 0.9):
        gamma_star, _ = optimize_gamma(q, M, setting)
        for gamma in (0.0, gamma_star, 2.0):
            seed = int(q * 10) + 7 * M
            assert_same_run(SimConfig(q, M, setting, gamma, target_epochs=40, seed=seed, trace=True))


@pytest.mark.parametrize(
    "kw",
    [
        dict(target_epochs=50, erasure_seed=99, trace=True),
        dict(horizon=80.0, trace=True),
        dict(horizon=80.0, trace=False),
        dict(horizon=300.0, erasure_seed=5, trace=True),
        dict(horizon=0.01, trace=True),  # nothing arrives before the cut
        dict(horizon=0.01, trace=False),
    ],
)
@pytest.mark.parametrize("cell", [(0.3, 1, "nofb", 0.47), (0.5, 3, "nofb", 0.0), (0.4, 2, "wfb", 0.5),
                                  (0.7, 4, "wfb", 2.0)])
def test_engine_matches_literal_loop_seeds_and_horizons(cell, kw):
    assert_same_run(SimConfig(*cell, seed=11, **kw))


def test_horizon_cut_between_stored_arrival_and_attempt():
    # a long threshold makes the cut land while the battery holds a unit
    cfg = SimConfig(0.2, 1, "nofb", 5.0, horizon=12.5, seed=3, trace=True)
    raw = _run_loop(cfg, True)
    assert raw.arrivals - raw.overflows == raw.attempts + 1
    assert_same_run(cfg)


def _sha(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


# sha256 of logs written by the one-event-at-a-time loop before the trace
# engine replaced it
GOLDEN_LOGS = [
    (dict(q=0.3, M=2, setting="wfb", gamma=0.25, target_epochs=3000, seed=1),
     25698, "5db89e607205e0501a2a1ebfb2dea0568ffbe3b60a26065e451ccf6774e08736"),
    (dict(q=0.5, M=3, setting="nofb", gamma=0.4, target_epochs=3000, seed=2),
     56170, "68e37c6906ef0150743196dab2f0fa16f1e91fc53725408f09203ae34ab90432"),
    (dict(q=0.4, M=1, setting="wfb", gamma=0.5, horizon=2000.0, seed=19),
     5827, "0c29f69c3bf54589ebdc24758cd4bdf6b8073217041ea1b7d4f544479a261fa4"),
]


@pytest.mark.parametrize("kw,n_events,digest", GOLDEN_LOGS)
def test_golden_log_digests(kw, n_events, digest, tmp_path):
    _, _, log = run_simulation(SimConfig(**kw, trace=True))
    path = tmp_path / "events.log"
    log.dump(str(path))
    assert len(log) == n_events
    assert _sha(path.read_bytes()) == digest


def test_golden_simulate_command(tmp_path, capsys):
    # sim_ci was re-recorded when the interval became batch means
    path = tmp_path / "events.log"
    assert main(["simulate", "--q", "0.3", "--m", "2", "--setting", "wfb", "--epochs", "3000",
                 "--seed", "5", "--trace", "--out", str(path)]) == 0
    assert capsys.readouterr().out == (
        "q=0.300000 M=2 setting=wfb gamma=0.253934 sim_mean=2.115480 sim_ci=0.062725 "
        "epochs_per_source=3000 arrivals=8683 overflows=201 attempts=8482 "
        "successes=6002 seed=5\n"
    )
    # the optimal threshold is the bisected root 0.2539340525478827; this is
    # the log the same command writes with --gamma set to that value
    assert _sha(path.read_bytes()) == "030bc8ff07c03f4d6e9a1c4330526f459f20ba1dd8d99d2c9069ecb5af7b36ca"


def _reference_bytes(time, kind, source):
    names = (ENERGY_ARRIVAL, OVERFLOW, ATTEMPT, ERASURE, SUCCESS)
    return "".join(f"{t:.9f}\t{names[k]}\t{s}\n" for t, k, s in zip(time.tolist(), kind.tolist(),
                                                                      source.tolist())).encode()


def test_formatter_matches_fstring():
    rng = np.random.default_rng(0)
    n = 200_000
    time = np.concatenate((
        rng.exponential(size=n) * 10.0 ** rng.integers(-12, 7, size=n),
        np.arange(1, 4001) / 1024.0,  # t * 1e9 exactly half-way between integers
        np.nextafter(np.arange(1, 2001) / 1024.0, 0.0),
        np.nextafter(np.arange(1, 2001) / 1024.0, 1e9),
        [0.0, 5e-10, 1.5e-9, 999999.9999999995, 4.4999e6, 4.5e6, 1.23456789e7],
    ))
    kind = rng.integers(0, 5, size=time.size).astype(np.uint8)
    fast = time < 4.5e6
    assert fast.sum() > 0.9 * time.size
    # the engine's source column is uint8 up to M = 255 and uint16 up to 65535;
    # logs built from Event lists keep int64, where a negative source stays valid
    for dtype, high in ((np.int64, 12), (np.uint8, 256), (np.uint16, 65536)):
        source = rng.integers(0, high, size=time.size, dtype=dtype)
        assert _format_lines(time[fast], kind[fast], source[fast]) == _reference_bytes(
            time[fast], kind[fast], source[fast])
        # a chunk holding times past 4.5e6, where t * 1e9 is no longer exact, is formatted column-wise too
        assert _format_lines(time, kind, source) == _reference_bytes(time, kind, source)
    # a source id of 2**32 or more does not fit the fast path's 32-bit digits
    time, kind = np.array([0.5, 0.5]), np.array([2, 4], np.uint8)
    wide = EventLog.from_columns(time, kind, np.array([2**32 + 5] * 2, np.uint64))
    events = [Event(0.5, ATTEMPT, 2**32 + 5), Event(0.5, SUCCESS, 2**32 + 5)]
    assert wide.to_lines() == EventLog(events).to_lines() == lines(events)


def test_formatter_edges_match_fstring():
    """The column path up to its 2**32 s bound, and the f-string for what lies outside it."""
    rng = np.random.default_rng(7)
    below = np.nextafter(2.0**32, 0.0)
    whole = rng.integers(0, 2**32 - 1, size=1000).astype(np.float64)
    near = np.concatenate([c + np.linspace(-1.0, 1.0, 2001) for c in (4.5e6, 9e6)])
    near = np.concatenate((near, np.nextafter([4.5e6, 9e6], 0.0), np.nextafter([4.5e6, 9e6], 1e10)))
    ends = np.arange(1, 2**24, 2**14).astype(np.float64)  # whole seconds; below 2**22 the one before rounds up
    columns = (  # each chunk takes the column path
        # past 4.5e6 the column path once fell back to one f-string a line, ten times slower:
        # this chunk catches a return of that cliff without timing it
        5e6 + np.arange(8192) * (1000 / 8192),
        near,
        np.sort(whole + rng.integers(1, 1024, size=whole.size) / 1024.0),  # exact ties
        np.concatenate((np.nextafter(ends, 0.0), ends - 5e-10, [0.9999999995, 0.99999999949999])),  # carries
        np.array([0.0, 5e-10, below - 1.0, 2.0**32 - 1e-6, below]),
    )
    f_string = (  # each chunk holds a time only the f-string formats
        np.array([-0.0]),
        np.array([0.5, -0.0, 1.5]),
        np.array([2.0, -1.5, -1e-12]),
        np.array([below, 2.0**32, 2.0**32 + 0.5, 1e10]),
        np.array([1.0, np.nan]),
        np.array([np.inf, 1.0]),
        np.array([-np.inf, 1.0]),
    )
    chunks = [(t, True) for t in columns] + [(t, False) for t in f_string]
    got = []
    for time, _ in chunks:
        kind = rng.integers(0, 5, size=time.size).astype(np.uint8)
        source = rng.integers(0, 300, size=time.size).astype(np.uint16)
        got.append(_format_lines(time, kind, source, bytearray()))
        assert got[-1] == _reference_bytes(time, kind, source)
    # the column path returns its buffer's bytearray, the f-string path bytes
    assert [isinstance(g, bytearray) for g in got] == [column_path for _, column_path in chunks]
    time, kind = np.array([1.0, 2.5]), np.array([2, 4], np.uint8)
    sources = ((np.array([3, -1], np.int64), False), (np.array([2**32, 5], np.uint64), False),
               (np.array([2**32 - 1, 0], np.uint64), True))
    for source, column_path in sources:
        got = _format_lines(time, kind, source, bytearray())
        assert got == _reference_bytes(time, kind, source)
        assert isinstance(got, bytearray) == column_path


def test_event_log_from_events_round_trips():
    events = [Event(0.25, ENERGY_ARRIVAL, 0), Event(0.5, OVERFLOW, 0), Event(0.75, ATTEMPT, 2),
              Event(0.75, SUCCESS, 2)]
    log = EventLog(events)
    log.check_invariants()
    assert len(log) == len(log.events) == 4
    assert list(log.events) == events
    assert log.events[2] == events[2] and log.events[-1] == events[-1]
    assert log.to_lines() == lines(events)
    assert EventLog().to_lines() == [] and len(EventLog().events) == 0
    odd = [Event(2.5e7, ATTEMPT, -1), Event(float("nan"), SUCCESS, 3)]
    assert EventLog(odd).to_lines() == lines(odd)
    with pytest.raises(ValueError):
        EventLog([Event(0.1, "Teleport", 0)])


def test_log_lines_keep_their_shape():
    pat = re.compile(r"^\d+\.\d{9}\t(EnergyArrival|Overflow|Attempt|Erasure|Success)\t\d+$")
    cells = ((12, 30, np.uint8), (255, 2, np.uint8), (256, 2, np.uint16), (300, 3, np.uint16))
    for M, target, dtype in cells:
        _, _, log = run_simulation(SimConfig(0.3, M, "nofb", 0.1, target_epochs=target, seed=4, trace=True))
        assert log.source.dtype == np.min_scalar_type(M) == dtype
        text = log.to_lines()
        assert all(pat.match(line) for line in text)
        assert {line.rsplit("\t", 1)[1] for line in text} == {str(s) for s in range(M + 1)}
