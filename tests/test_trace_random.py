"""The trace engine against the literal event loop on randomly drawn cells.

tests/test_trace_parity.py checks a fixed grid; here hypothesis draws the
seed, q, M, the setting, the threshold and the stopping rule (a target
epoch count or a horizon), and the engine must reproduce
tests/trace_oracle.py exactly: every attempt's time and outcome, the log
lines, the epoch arrays, the success times and the four counters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_erasure.model import SimConfig
from aoi_erasure.simulator import ATTEMPT, SUCCESS, _run_loop
from trace_oracle import lines, run_loop

_STOP = st.one_of(
    st.builds(dict, target_epochs=st.integers(1, 300)),
    st.builds(dict, horizon=st.floats(0.0, 200.0, exclude_min=True)),
)


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.floats(0.0, 0.9),
    M=st.integers(1, 5),
    setting=st.sampled_from(["nofb", "wfb"]),
    gamma=st.floats(0.0, 6.0),
    stop=_STOP,
)
def test_engine_matches_literal_loop_on_random_cells(seed, q, M, setting, gamma, stop):
    cfg = SimConfig(q, M, setting, gamma, seed=seed, trace=True, **stop)
    want = run_loop(cfg, True)
    got = _run_loop(cfg, True)
    windows = got.events._trace  # the engine's own arrays, before the log is laid out
    attempts = [i for i, e in enumerate(want.events) if e.kind == ATTEMPT]
    np.testing.assert_array_equal(np.concatenate([w.times for w in windows]),
                                  [want.events[i].time for i in attempts])
    np.testing.assert_array_equal(np.concatenate([w.ok for w in windows]),
                                  [want.events[i + 1].kind == SUCCESS for i in attempts])
    counters = ("arrivals", "overflows", "attempts", "successes")
    assert [getattr(got, c) for c in counters] == [getattr(want, c) for c in counters]
    assert len(got.success_times) == (0 if cfg.horizon is None else M)
    for name in ("ys", "atts", "success_times"):
        for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    assert got.events.to_lines() == lines(want.events)
