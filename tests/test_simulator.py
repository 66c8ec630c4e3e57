import math
import re
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_erasure import simulator, stats
from aoi_erasure.analytic import aoi_maf_wfb, aoi_rr_nofb, exp_max_moments, solve_wfb
from aoi_erasure.model import Feedback
from aoi_erasure.simulator import (
    ATTEMPT,
    ENERGY_ARRIVAL,
    ERASURE,
    OVERFLOW,
    SUCCESS,
    EventLog,
    SimConfig,
    make_config,
    run_simulation,
)
from epoch_oracle import batch_ratio_estimate, epochs_nofb, epochs_wfb
from trace_oracle import check_invariants as replay_invariants
from trace_oracle import lines, policy_nofb_single, policy_wfb_single, scheduler_maf, scheduler_rr


class TestSimConfig:
    def test_exactly_one_stopping_rule(self):
        cell = (0.2, 1, Feedback.NOFB, 0.0)
        with pytest.raises(ValueError):
            SimConfig(*cell)
        with pytest.raises(ValueError):
            SimConfig(*cell, target_epochs=10, horizon=5.0)
        SimConfig(*cell, target_epochs=10)
        SimConfig(*cell, horizon=5.0)

    def test_refuses_hopeless_q(self):
        # refused before require_q would warn that q is close to 1; q >= 1 keeps require_q's message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="q = 0.99995 implies over 1e4 attempts per epoch"):
                SimConfig(0.99995, 1, Feedback.NOFB, 0.0, target_epochs=1)
            with pytest.raises(ValueError, match="q must be < 1 and >= 0, got 1.0"):
                SimConfig(1.0, 1, Feedback.NOFB, 0.0, target_epochs=1)
        assert caught == []
        with pytest.warns(RuntimeWarning, match="close to 1"):
            SimConfig(0.9999, 1, Feedback.NOFB, 0.0, target_epochs=1)

    def test_stopping_rule_domains(self):
        cell = (0.2, 1, Feedback.NOFB, 0.0)
        with pytest.raises(ValueError):
            SimConfig(*cell, target_epochs=0)
        with pytest.raises(ValueError):
            SimConfig(*cell, horizon=0.0)

    @pytest.mark.parametrize("name", ["seed", "erasure_seed"])
    @pytest.mark.parametrize("value", [-1, 1.5, 2.0, "3", True, False, np.True_])
    def test_seeds_are_nonnegative_integers(self, name, value):
        cell = (0.2, 1, Feedback.NOFB, 0.0)
        with pytest.raises(ValueError, match=f"{name} must be a nonnegative integer, got {value!r}"):
            SimConfig(*cell, target_epochs=10, **{name: value})
        SimConfig(*cell, target_epochs=10, **{name: np.int64(7)})


class TestPolicyRules:
    def test_nofb_wait(self):
        rule = policy_nofb_single(0.9)
        assert rule(0.2) == 0.9
        assert rule(1.4) == 1.4
        assert policy_nofb_single(0.0)(0.37) == 0.37

    def test_wfb_wait(self):
        rule = policy_wfb_single(0.94)
        assert rule(0.3, True) == 0.94
        assert rule(1.5, True) == 1.5
        assert rule(0.7, False) == 0.7

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            policy_nofb_single(-0.1)
        with pytest.raises(ValueError):
            policy_wfb_single(-0.1)

    def test_rr_cycles(self):
        nxt = scheduler_rr(3)
        assert [nxt(1), nxt(2), nxt(3)] == [2, 3, 1]

    def test_maf_argmax_lowest_index_tie(self):
        pick = scheduler_maf(3)
        assert pick([0.0, 2.0, 1.0]) == 2
        assert pick([0.0, 0.0, 0.0]) == 1
        assert pick([1.0, 3.0, 3.0]) == 2


class TestEpochEngine:
    def test_greedy_no_erasures_renewal_value(self):
        res, epochs, log = run_simulation(make_config(0.0, 1, "nofb", 0.0, target_epochs=1000000, seed=1))
        assert log is None
        assert abs(res.mean_aoi - 1.0) <= 0.01
        assert len(epochs) == 1000000

    def test_greedy_half_erasures(self):
        res, _, _ = run_simulation(make_config(0.5, 1, "nofb", 0.0, target_epochs=1000000, seed=2))
        assert abs(res.mean_aoi - 2.0) <= 0.02

    def test_round_robin_two_sources(self):
        res, _, _ = run_simulation(make_config(0.3, 2, "nofb", 0.0, target_epochs=100000, seed=3))
        target = aoi_rr_nofb(0.3, 2, 0.0)
        assert abs(res.mean_aoi - target) <= 0.01 * target

    def test_wfb_single_source_at_optimum(self):
        sol = solve_wfb(0.5)
        res, _, _ = run_simulation(make_config(0.5, 1, "wfb", sol.threshold, target_epochs=100000, seed=4))
        assert abs(res.mean_aoi - sol.lambda_star) <= max(3 * res.ci_half_width, 0.01 * sol.lambda_star)

    def test_counters_and_overflow_accounting(self):
        res, _, _ = run_simulation(make_config(0.3, 1, "nofb", 2.0, target_epochs=20000, seed=5))
        assert res.successes <= res.attempts <= res.arrivals - res.overflows
        # mean overflow per attempt is gamma - 1 + e^-gamma, far from zero here
        assert res.overflows > 0.5 * res.attempts

    def test_greedy_never_overflows(self):
        res, _, _ = run_simulation(make_config(0.4, 1, "nofb", 0.0, target_epochs=5000, seed=6))
        assert res.overflows == 0
        assert res.arrivals == res.attempts

    def test_attempts_per_epoch_geometric(self):
        res, epochs, _ = run_simulation(make_config(0.3, 1, "nofb", 0.47, target_epochs=1000000, seed=7))
        att = epochs.attempts.astype(np.float64)
        assert abs(att.mean() - 1.0 / 0.7) <= 0.01 / 0.7

    def test_observed_first_waits_match_moments(self):
        # with q = 0 each wfb epoch is exactly one wait max(gamma, tau)
        res, epochs, _ = run_simulation(make_config(0.0, 1, "wfb", 1.0, target_epochs=1000000, seed=8))
        y = epochs.y
        m1 = exp_max_moments(1.0).m1
        assert abs(y.mean() - m1) <= 0.005 * m1

    def test_epoch_records_shape(self):
        res, epochs, _ = run_simulation(make_config(0.2, 3, "wfb", 0.1, target_epochs=50, seed=9))
        assert len(epochs) == 3 * 50
        assert res.epochs_per_source == 50
        assert epochs.R == pytest.approx(epochs.y * epochs.y / 2.0, rel=1e-12)
        assert np.all((1 <= epochs.source_id) & (epochs.source_id <= 3))

    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_per_source_means_are_source_ratios(self, setting):
        res, epochs, _ = run_simulation(make_config(0.3, 3, setting, 0.2, target_epochs=2000, seed=10))
        assert len(res.per_source_mean) == 3
        for j, mean in enumerate(res.per_source_mean, start=1):
            mine = epochs.source_id == j
            assert mean == float(epochs.R[mine].sum()) / float(epochs.y[mine].sum())

    def test_wfb_epochs_look_iid(self):
        _, epochs, _ = run_simulation(make_config(0.5, 1, "wfb", 0.9438, target_epochs=100000, seed=55))
        y = epochs.y
        odd, even = y[1::2], y[0::2]
        for a, b in [(odd, even), (odd**2, even**2)]:
            gap = abs(a.mean() - b.mean())
            bound = 3.0 * np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert gap <= bound


class TestWaldIdentity:
    """Epoch means against Wald's identity, per source, on every engine.

    Each source's epochs are i.i.d. with mean M * m1 / (1 - q) without
    feedback and M * (m1 + q / (1 - q)) with it, m1 = gamma + e^-gamma.
    Sources share one clock, so z is taken per source; |z| <= 4 leaves
    room for the 26 checks.
    """

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("q,M,setting,gamma,seed", [
        (0.3, 1, "nofb", 0.47, 21), (0.5, 3, "nofb", 0.4, 22), (0.1, 2, "nofb", 1.0, 23),
        (0.3, 2, "wfb", 0.25, 24), (0.6, 1, "wfb", 1.2, 25), (0.0, 4, "wfb", 0.5, 26),
    ])
    def test_epoch_mean(self, q, M, setting, gamma, seed, trace):
        _, epochs, _ = run_simulation(make_config(q, M, setting, gamma, target_epochs=20000, seed=seed,
                                                  trace=trace))
        m1 = exp_max_moments(gamma).m1
        mean = M * m1 / (1.0 - q) if setting == "nofb" else M * (m1 + q / (1.0 - q))
        for y in np.split(epochs.y, np.cumsum(epochs.counts)[:-1]):
            z = (y.mean() - mean) / (y.std(ddof=1) / math.sqrt(y.size))
            assert abs(z) <= 4.0, (z, y.size)


def _run_with_block(block, cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_BLOCK", block)
        return run_simulation(cfg)


def _assert_same_run(got, want):
    (res, epochs, _), (res_w, epochs_w, _) = got, want
    assert res == res_w
    for name in ("source_id", "y", "attempts"):
        g, w = getattr(epochs, name), getattr(epochs_w, name)
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestEngineBlocks:
    """The block engines equal the all-at-once ones, whatever the block size.

    A block holds max(1, _BLOCK // M) cycles (nofb) or rounds (wfb), and
    the targets put the run's end exactly on a block edge or one epoch
    past it (exactly for wfb, and for nofb when q = 0, where every
    attempt succeeds).
    """

    @settings(max_examples=120)
    @given(
        setting=st.sampled_from(["nofb", "wfb"]),
        M=st.sampled_from([1, 2, 3, 5, 8]),
        q=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.95]),
        gamma=st.sampled_from([0.0, 0.4, 2.0]),
        target=st.sampled_from([1, 2, 7, 3000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_all_at_once_engines(self, setting, M, q, gamma, target, seed):
        cfg = make_config(q, M, setting, gamma, target_epochs=target, seed=seed)
        res, epochs, _ = run_simulation(cfg)
        oracle = epochs_wfb if setting == "wfb" else epochs_nofb
        ys, atts, *counters = oracle(q, M, gamma, target, *simulator._spawn_streams(seed, None))
        assert [res.arrivals, res.overflows, res.attempts, res.successes] == counters
        np.testing.assert_array_equal(epochs.y, ys.ravel())
        np.testing.assert_array_equal(epochs.attempts, atts.ravel())
        Rs = 0.5 * ys * ys
        assert list(res.per_source_mean) == (Rs.sum(1) / ys.sum(1)).tolist()
        point, ci = batch_ratio_estimate(ys)
        assert res.mean_aoi == pytest.approx(point, rel=1e-12)
        # near-equal epochs leave a CI of rounding size, where np.cov itself is off
        assert res.ci_half_width == pytest.approx(ci, rel=1e-12, abs=1e-15 * point)

    @settings(max_examples=60)
    @given(
        setting=st.sampled_from(["nofb", "wfb"]),
        M=st.sampled_from([1, 3, 8]),
        q=st.sampled_from([0.0, 0.5, 0.95]),
        gamma=st.sampled_from([0.0, 0.4]),
        block=st.sampled_from([1, 7, 64]),
        blocks=st.integers(1, 3),
        past=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_blocks_match_the_default(self, setting, M, q, gamma, block, blocks, past, seed):
        target = max(1, blocks * max(1, block // M) - 1 + past)
        cfg = make_config(q, M, setting, gamma, target_epochs=target, seed=seed)
        _assert_same_run(_run_with_block(block, cfg), run_simulation(cfg))

    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("q", [0.0, 0.95])
    @pytest.mark.parametrize("M", [1, 3, 8])
    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_default_block_edge(self, setting, M, q, past):
        target = simulator._BLOCK // M - 1 + past
        cfg = make_config(q, M, setting, 0.4, target_epochs=target, seed=M)
        _assert_same_run(run_simulation(cfg), _run_with_block(1 << 12, cfg))


class TestNumpyContracts:
    """The numpy behaviour the epoch engines rely on to keep every number.

    If numpy changes one of these, these tests fail, not a golden digest.
    """

    @pytest.mark.parametrize("n", [1, 7, 65536, 100003])
    def test_standard_exponential_is_exponential(self, n):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        assert a.standard_exponential(size=n).tobytes() == b.exponential(size=n).tobytes()
        out = np.empty(n)
        a.standard_exponential(out=out)
        assert out.tobytes() == b.exponential(size=n).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    def test_uniforms_into_a_buffer(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        out = np.empty(65536)
        a.random(out=out)
        assert out.tobytes() == b.random(size=out.size).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    def test_zero_gamma_shapes_draw_nothing(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        shape = np.array([0.0, 2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 17.0, 0.0])
        out = np.empty(shape.size)
        a.standard_gamma(shape, out=out)
        assert np.all(out[shape == 0.0] == 0.0)
        assert out[shape > 0.0].tobytes() == b.standard_gamma(shape[shape > 0.0]).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.standard_exponential() == b.standard_exponential()

    def test_certain_success_takes_one_attempt(self):
        # at q = 0 the feedback engine draws geometric(1.0) attempts per service
        tries = np.random.default_rng(6).geometric(1.0, size=65536)
        assert tries.dtype == np.int64 and np.all(tries == 1)

    @pytest.mark.parametrize("clock", [0.0, 0.1, 123.456, 9.87e5])
    def test_in_place_running_sum(self, clock):
        w = np.maximum(np.random.default_rng(9).exponential(size=65536), 0.4)
        want = np.cumsum(np.concatenate(([clock], w)))[1:]
        w[0] += clock
        np.cumsum(w, out=w)
        assert w.tobytes() == want.tobytes()


_FIRST_SUCCESS_MAX = 400  # attempts searched for a source's first success; P(miss) <= 0.9**400


class TestErasureSeed:
    """Without feedback, attempt times follow the arrival substream alone.

    Replacing erasure_seed reshuffles only the outcomes, on both engines.
    """

    @settings(max_examples=40)
    @given(
        q=st.floats(0.0, 0.9),
        M=st.integers(1, 5),
        gamma=st.floats(0.0, 2.0),
        target=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        erasure_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
    )
    def test_trace_attempt_times(self, q, M, gamma, target, seed, erasure_seeds):
        times = []
        for erasure_seed in erasure_seeds:
            cfg = make_config(q, M, "nofb", gamma, target_epochs=target, seed=seed, trace=True,
                              erasure_seed=erasure_seed)
            _, _, log = run_simulation(cfg)
            times.append(log.time[log.kind == simulator._CODE[ATTEMPT]])
        n = min(t.size for t in times)
        assert n >= M * (target + 1)
        np.testing.assert_array_equal(times[0][:n], times[1][:n])

    @settings(max_examples=40)
    @given(
        q=st.floats(0.0, 0.9),
        M=st.integers(1, 5),
        gamma=st.floats(0.0, 2.0),
        target=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        erasure_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_epochs_lie_on_the_arrival_grid(self, q, M, gamma, target, seed, erasure_seed):
        cfg = make_config(q, M, "nofb", gamma, target_epochs=target, seed=seed, erasure_seed=erasure_seed)
        res, epochs, _ = run_simulation(cfg)
        rng_a, _, _ = simulator._spawn_streams(seed, None)
        # attempt i belongs to source i mod M and happens at grid[i]
        grid = np.cumsum(np.maximum(gamma, rng_a.exponential(size=res.attempts)))
        for j, (y, att) in enumerate(zip(np.split(epochs.y, M), np.split(epochs.attempts, M))):
            mine = grid[j::M]
            steps = np.concatenate(([0], np.cumsum(att)))  # successes after the first
            for first in range(min(_FIRST_SUCCESS_MAX, mine.size - steps[-1])):
                if np.array_equal(np.diff(mine[first + steps]), y):
                    break
            else:
                pytest.fail(f"source {j + 1}: no first success puts its epochs on the grid")


class TestTraceEngine:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrivals=st.lists(st.floats(0.0, 50.0), max_size=60),
           times=st.lists(st.floats(0.0, 60.0), max_size=60))
    def test_pair_slots_match_the_loop_bisection(self, arrivals, times):
        # the engine's loop finds the arrival stored after each attempt by bisect_right(A, t, k + 1)
        A, T = sorted(arrivals), sorted(times)
        want, k = [], 0
        for i, t in enumerate(T):
            k = bisect_right(A, t, k + 1)
            want.append(k + 2 * i)
        got = simulator._pair_slots(np.array(A, float), np.array(T, float))
        assert got.dtype == np.int64 and got.tolist() == want

    def test_byte_identical_logs_for_identical_seeds(self):
        mk = lambda: make_config(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True)
        _, _, la = run_simulation(mk())
        _, _, lb = run_simulation(mk())
        assert la.to_lines() == lb.to_lines()

    def test_nofb_attempts_blind_to_erasures(self):
        base = make_config(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True)
        shuf = make_config(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True, erasure_seed=999)
        _, _, la = run_simulation(base)
        _, _, lc = run_simulation(shuf)
        at = lambda log: [(e.time, e.source_id) for e in log.events if e.kind == ATTEMPT]
        ta, tc = at(la), at(lc)
        n = min(len(ta), len(tc))
        assert n > 400
        assert ta[:n] == tc[:n]
        # outcomes must actually differ, or the reshuffle proved nothing
        oa = [e.kind for e in la.events if e.kind in (SUCCESS, ERASURE)]
        oc = [e.kind for e in lc.events if e.kind in (SUCCESS, ERASURE)]
        assert oa[:n] != oc[:n]

    @pytest.mark.parametrize(
        "q,m,setting,gamma",
        [(0.3, 1, "nofb", 0.47), (0.3, 4, "nofb", 0.2), (0.5, 1, "wfb", 0.94), (0.7, 2, "wfb", 0.0)],
    )
    def test_battery_audit(self, q, m, setting, gamma):
        _, _, log = run_simulation(make_config(q, m, setting, gamma, target_epochs=1000, seed=13, trace=True))
        log.check_invariants()

    def test_rr_attempt_order(self):
        _, _, log = run_simulation(make_config(0.4, 3, "nofb", 0.1, target_epochs=100, seed=21, trace=True))
        srcs = [e.source_id for e in log.events if e.kind == ATTEMPT]
        assert srcs == [i % 3 + 1 for i in range(len(srcs))]

    def test_maf_serves_cyclically(self):
        # zero service time makes max-age-first deterministic: the stalest
        # source is always the least recently served one
        _, _, log = run_simulation(make_config(0.4, 3, "wfb", 0.2, target_epochs=300, seed=5, trace=True))
        srcs = [e.source_id for e in log.events if e.kind == SUCCESS]
        assert srcs == [i % 3 + 1 for i in range(len(srcs))]

    def test_nofb_threshold_separates_attempts(self):
        gamma = 0.8
        _, _, log = run_simulation(make_config(0.2, 1, "nofb", gamma, target_epochs=500, seed=31, trace=True))
        at = [e.time for e in log.events if e.kind == ATTEMPT]
        gaps = np.diff(at)
        assert np.all(gaps >= gamma - 1e-12)

    def test_wfb_turn_timing(self):
        gamma = 0.9
        _, _, log = run_simulation(make_config(0.5, 1, "wfb", gamma, target_epochs=500, seed=37, trace=True))
        arrivals = {e.time for e in log.events if e.kind == ENERGY_ARRIVAL}
        last_success = 0.0
        first_of_turn = True
        for e in log.events:
            if e.kind == ATTEMPT:
                if first_of_turn:
                    assert e.time >= last_success + gamma - 1e-12
                else:
                    # greedy retransmissions fire exactly at an arrival
                    assert e.time in arrivals
            elif e.kind == SUCCESS:
                last_success = e.time
                first_of_turn = True
            elif e.kind == ERASURE:
                first_of_turn = False
        log.check_invariants()

    def test_dump_format(self, tmp_path):
        _, _, log = run_simulation(make_config(0.3, 2, "wfb", 0.4, target_epochs=50, seed=43, trace=True))
        path = tmp_path / "events.log"
        log.dump(str(path))
        lines = path.read_text().splitlines()
        assert lines == log.to_lines()
        pat = re.compile(r"^\d+\.\d{9}\t(EnergyArrival|Overflow|Attempt|Erasure|Success)\t\d+$")
        assert all(pat.match(line) for line in lines)
        kinds = {line.split("\t")[1] for line in lines}
        assert kinds == {ENERGY_ARRIVAL, OVERFLOW, ATTEMPT, ERASURE, SUCCESS}

    def test_engines_agree_statistically(self):
        cell = (0.5, 2, "wfb", 0.4)
        fast, _, _ = run_simulation(make_config(*cell, target_epochs=30000, seed=101))
        loop, _, _ = run_simulation(make_config(*cell, target_epochs=30000, seed=202, trace=True))
        analytic = aoi_maf_wfb(0.5, 2, 0.4)
        gap = abs(fast.mean_aoi - loop.mean_aoi)
        assert gap <= 3.0 * (fast.ci_half_width + loop.ci_half_width)
        for r in (fast, loop):
            assert abs(r.mean_aoi - analytic) <= max(3.0 * r.ci_half_width, 0.01 * analytic)

    def test_trace_counters_chain(self):
        res, _, log = run_simulation(make_config(0.3, 1, "nofb", 1.2, target_epochs=2000, seed=47, trace=True))
        assert res.successes <= res.attempts <= res.arrivals - res.overflows
        by_kind = {}
        for e in log.events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        assert by_kind[ATTEMPT] == res.attempts
        assert by_kind.get(SUCCESS, 0) == res.successes
        assert by_kind.get(OVERFLOW, 0) == res.overflows
        assert by_kind[ENERGY_ARRIVAL] + by_kind.get(OVERFLOW, 0) == res.arrivals

    def test_erasure_seed_is_reproducible(self):
        mk = lambda: make_config(0.3, 1, "nofb", 0.2, target_epochs=300, seed=3, trace=True, erasure_seed=77)
        _, _, la = run_simulation(mk())
        _, _, lb = run_simulation(mk())
        assert la.to_lines() == lb.to_lines()

    @pytest.mark.parametrize("setting", ["wfb", "nofb"])
    def test_arrival_top_up_changes_nothing(self, tmp_path, monkeypatch, setting):
        # a first draw of n // 50 arrivals makes the loop top the stream up; the
        # chunked draws continue the same stream and running sum, so no output moves
        cfg = make_config(0.3, 2, setting, 0.4, target_epochs=2000, seed=3, trace=True)
        want = run_simulation(cfg)
        real, calls = simulator._more_arrivals, []

        def short_first_draw(A, rng_a, n):
            calls.append(n)
            real(A, rng_a, n // 50 if len(calls) == 1 else n)

        monkeypatch.setattr(simulator, "_more_arrivals", short_first_draw)
        got = run_simulation(cfg)
        assert len(calls) > 1
        _assert_same_run(got, want)
        got[2].dump(str(tmp_path / "got.log"))
        want[2].dump(str(tmp_path / "want.log"))
        assert (tmp_path / "got.log").read_bytes() == (tmp_path / "want.log").read_bytes()


class TestEventLogChecker:
    def test_empty_log(self, tmp_path):
        log = EventLog([])
        log.check_invariants()
        path = tmp_path / "events.log"
        log.dump(str(path))
        assert path.read_bytes() == b""
        assert log.to_lines() == []
        assert simulator._format_lines(log.time, log.kind, log.source) == b""

    def test_rejects_broken_sequences(self):
        from aoi_erasure.simulator import Event

        bad_order = EventLog([Event(1.0, ENERGY_ARRIVAL, 0), Event(0.5, ATTEMPT, 1)])
        with pytest.raises(ValueError):
            bad_order.check_invariants()
        empty_attempt = EventLog([Event(0.5, ATTEMPT, 1)])
        with pytest.raises(ValueError):
            empty_attempt.check_invariants()
        no_outcome = EventLog([Event(0.2, ENERGY_ARRIVAL, 0), Event(0.5, ATTEMPT, 1)])
        with pytest.raises(ValueError):
            no_outcome.check_invariants()
        double_store = EventLog([Event(0.2, ENERGY_ARRIVAL, 0), Event(0.4, ENERGY_ARRIVAL, 0)])
        with pytest.raises(ValueError):
            double_store.check_invariants()

    @settings(max_examples=400)
    @given(
        cell=st.sampled_from([(0.3, 1, "nofb", 0.47), (0.5, 3, "nofb", 0.0), (0.4, 2, "wfb", 0.5),
                              (0.7, 3, "wfb", 2.0)]),
        stop=st.sampled_from([dict(target_epochs=8), dict(horizon=60.5)]),
        op=st.sampled_from(["swap", "drop", "cut", "retag", "source", "time", "none"]),
        data=st.data(),
    )
    def test_first_error_matches_event_replay(self, cell, stop, op, data):
        _, _, log = run_simulation(make_config(*cell, seed=3, trace=True, **stop))
        time, kind, source = log.time.copy(), log.kind.copy(), log.source.copy()
        n = time.size
        i = data.draw(st.integers(0, n - 1))
        if op == "swap":
            j = data.draw(st.one_of(st.integers(max(0, i - 2), min(n - 1, i + 2)), st.integers(0, n - 1)))
            for col in (time, kind, source):
                col[[i, j]] = col[[j, i]]
        elif op in ("drop", "cut"):
            keep = np.arange(n) != i if op == "drop" else np.arange(n) <= i
            time, kind, source = time[keep], kind[keep], source[keep]
        elif op == "retag":
            kind[i] = data.draw(st.integers(0, 4))
        elif op == "source":
            source[i] = data.draw(st.integers(0, cell[1] + 1))
        elif op == "time":
            t = time[i]
            time[i] = data.draw(st.sampled_from([time[i - 1] if i else 0.0, np.nextafter(t, -1.0),
                                                 np.nextafter(t, np.inf), t - 0.5, t + 0.5, -1.0, np.nan]))
        mutated = EventLog.from_columns(time, kind, source)

        def first_error(check):
            try:
                check()
            except ValueError as exc:
                return str(exc)
            return None

        want = first_error(lambda: replay_invariants(mutated.events))
        assert first_error(mutated.check_invariants) == want
        if op == "none":
            assert want is None


class TestDumpChunks:
    """dump and to_lines write the same bytes whatever the chunk size.

    The run ends at a horizon cut, and a copy of it shifted past
    _FAST_MAX puts chunks on both sides of the exact range and one
    across it, so the f-string fallback is covered too.
    """

    @settings(max_examples=24)
    @given(
        chunk=st.sampled_from([1, 7, 8192, 65536]),
        cell=st.sampled_from([(0.2, 1, "nofb", 5.0), (0.4, 3, "wfb", 0.5)]),
        shift=st.booleans(),
    )
    def test_chunk_size_changes_no_byte(self, tmp_path_factory, chunk, cell, shift):
        _, _, log = run_simulation(make_config(*cell, horizon=300.0, seed=3, trace=True))
        if shift:
            offset = simulator._FAST_MAX - log.time[len(log) // 2]
            log = EventLog.from_columns(log.time + offset, log.kind, log.source)
            assert log.time[0] < simulator._FAST_MAX <= log.time[-1]
        want = lines(list(log.events))
        path = tmp_path_factory.mktemp("dump") / "events.log"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            log.dump(str(path))
            assert log.to_lines() == want
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


class TestHorizonMode:
    def test_estimate_matches_closed_form(self):
        res, _, _ = run_simulation(make_config(0.3, 2, "nofb", 0.2, horizon=50000.0, seed=17))
        target = aoi_rr_nofb(0.3, 2, 0.2)
        assert abs(res.mean_aoi - target) <= max(3.0 * res.ci_half_width, 0.02 * target)
        assert res.ci_half_width > 0.0

    def test_tiny_horizon_warns_and_keeps_tail(self):
        with pytest.warns(RuntimeWarning):
            res, epochs, _ = run_simulation(make_config(0.0, 1, "nofb", 0.0, horizon=0.01, seed=2))
        # no success fits, so the whole window is one growing ramp
        assert res.mean_aoi == pytest.approx(0.005, rel=1e-12)
        assert res.epochs_per_source == 0
        assert len(epochs) == 0 and epochs.y.size == epochs.attempts.size == 0

    def test_trace_plus_horizon(self):
        res, _, log = run_simulation(make_config(0.4, 1, "wfb", 0.5, horizon=2000.0, seed=19, trace=True))
        log.check_invariants()
        assert all(e.time <= 2000.0 for e in log.events)
        target = aoi_maf_wfb(0.4, 1, 0.5)
        assert abs(res.mean_aoi - target) <= max(3.0 * res.ci_half_width, 0.05 * target)

    @pytest.mark.parametrize(
        "cell,horizon,seed,mean,ci,per_source",
        [
            (
                (0.3, 4, "wfb", 0.4), 1e4, 1, 3.6093724898790622, 0.08486468322680961,
                (3.614220153979202, 3.604962091737296, 3.5977848287078835, 3.6205228850918676),
            ),
            (
                (0.3, 2, "nofb", 0.2), 5e4, 17, 2.371937619328288, 0.041190812638567685,
                (2.38931512088653, 2.354560117770047),
            ),
            ((0.4, 1, "wfb", 0.5), 2000.0, 19, 1.5645356404998951, 0.15961131909611068, (1.5645356404998951,)),
        ],
    )
    def test_pinned_estimates(self, cell, horizon, seed, mean, ci, per_source):
        res, _, _ = run_simulation(make_config(*cell, horizon=horizon, seed=seed))
        assert repr(float(res.mean_aoi)) == repr(mean)
        assert repr(float(res.ci_half_width)) == repr(ci)
        assert repr(tuple(float(x) for x in res.per_source_mean)) == repr(per_source)
        assert type(res.mean_aoi) is type(res.ci_half_width) is float


def _sawtooth_area(s, t):
    """Age area over [0, t] of a source whose age restarts at 0 at each success time in s."""
    area, last = 0.0, 0.0
    for x in s:
        if x > t:
            break
        area += 0.5 * (x - last) ** 2
        last = x
    return area + 0.5 * (t - last) ** 2


class TestHorizonEstimates:
    def test_quantile_matches_scipy(self):
        # every df the small-n rule can reach, 1 .. _N_BATCHES - 1
        from scipy import stats as sps

        assert len(stats._T975) == stats._N_BATCHES - 1
        for df, t in enumerate(stats._T975, start=1):
            assert abs(t - sps.t.ppf(0.975, df)) <= 1e-12 * t, df

    def test_matches_scalar_sawtooth(self):
        from scipy import stats as sps

        T, B = 5.0, 20
        s = [np.array([0.7, 1.9, 3.2, 4.4]), np.array([1.1, 2.5])]
        per_mean, mean, ci = simulator._horizon_estimates(s, T)
        assert per_mean == pytest.approx([_sawtooth_area(x, T) / T for x in s], rel=1e-12)
        assert mean == pytest.approx(np.mean([_sawtooth_area(x, T) / T for x in s]), rel=1e-12)
        edges = [T * b / B for b in range(B + 1)]
        batches = [
            sum(_sawtooth_area(x, hi) - _sawtooth_area(x, lo) for x in s) / (hi - lo) / len(s)
            for lo, hi in zip(edges, edges[1:])
        ]
        want = sps.t.ppf(0.975, B - 1) * np.std(batches, ddof=1) / np.sqrt(B)
        assert ci == pytest.approx(want, rel=1e-12)

    def test_equal_batches_have_zero_interval(self):
        # successes every 0.5 repeat one sawtooth tooth, so all 20 batches of width 1 agree
        s = np.arange(1, 41) * 0.5
        per_mean, mean, ci = simulator._horizon_estimates([s, s], 20.0)
        assert per_mean == [0.25, 0.25] and mean == 0.25
        assert ci == pytest.approx(0.0, abs=1e-12)
