import copy
import math
import re
import sys
import threading
import warnings
from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoi_erasure import simulator
from aoi_erasure.analytic import aoi_maf_wfb, aoi_rr_nofb, exp_max_moments, optimize_gamma, solve_wfb
from aoi_erasure.model import Feedback
from aoi_erasure.simulator import (
    ATTEMPT,
    ENERGY_ARRIVAL,
    ERASURE,
    OVERFLOW,
    SUCCESS,
    EventLog,
    SimConfig,
    run_simulation,
)
from epoch_oracle import batch_ratio_estimate, epochs_nofb, epochs_wfb, renewal_estimates
from trace_oracle import check_invariants as replay_invariants
from trace_oracle import lines, policy_nofb_single, policy_wfb_single, scheduler_maf, scheduler_rr
from trace_oracle import run_loop as oracle_run_loop


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

    def test_refuses_a_gamma_numpy_cannot_draw(self):
        # the overflow counts are Poisson(gamma - tau) draws; numpy's largest mean is 2**63 - 1 - 10 sqrt(2**63 - 1)
        bound = 9.223372006484771e18
        cell = (0.3, 1, Feedback.NOFB)
        np.random.default_rng(0).poisson(bound)
        res, _, _ = run_simulation(SimConfig(*cell, bound, target_epochs=3, seed=1))
        assert res.overflows > 0
        above = math.nextafter(bound, math.inf)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above)
        msg = f"gamma must be at most {bound!r}, numpy's largest Poisson mean, got {above!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            SimConfig(*cell, above, target_epochs=3)

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("M", [2.0, np.int64(2)])
    def test_an_integral_m_runs_like_the_int(self, M, trace):
        cell = dict(q=0.3, setting="nofb", gamma=0.2, target_epochs=3, seed=1, trace=trace)
        got = run_simulation(SimConfig(M=M, **cell))
        want = run_simulation(SimConfig(M=2, **cell))
        assert got[0] == want[0]
        for column in ("counts", "y", "attempts"):
            np.testing.assert_array_equal(getattr(got[1], column), getattr(want[1], column))
        if trace:
            assert got[2].to_lines() == want[2].to_lines()

    def test_stores_numpy_scalars_as_python_numbers(self):
        cfg = SimConfig(np.float32(0.3), np.int64(2), "nofb", np.float64(0.2), target_epochs=3)
        assert (type(cfg.q), type(cfg.M), type(cfg.gamma)) == (float, int, float)
        assert (cfg.q, cfg.M, cfg.gamma) == (float(np.float32(0.3)), 2, 0.2)

    @pytest.mark.parametrize("M", [True, np.True_, math.inf, math.nan])
    def test_refuses_a_bool_or_non_finite_m(self, M):
        with pytest.raises(ValueError, match=re.escape(f"M must be a positive integer, got {M!r}")):
            SimConfig(0.3, M, "nofb", 0.0, target_epochs=3)

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
        res, epochs, log = run_simulation(SimConfig(0.0, 1, "nofb", 0.0, target_epochs=1000000, seed=1))
        assert log is None
        assert abs(res.mean_aoi - 1.0) <= 0.01
        assert len(epochs) == 1000000

    def test_greedy_half_erasures(self):
        res, _, _ = run_simulation(SimConfig(0.5, 1, "nofb", 0.0, target_epochs=1000000, seed=2))
        assert abs(res.mean_aoi - 2.0) <= 0.02

    def test_round_robin_two_sources(self):
        res, _, _ = run_simulation(SimConfig(0.3, 2, "nofb", 0.0, target_epochs=100000, seed=3))
        target = aoi_rr_nofb(0.3, 2, 0.0)
        assert abs(res.mean_aoi - target) <= 0.01 * target

    def test_wfb_single_source_at_optimum(self):
        sol = solve_wfb(0.5)
        res, _, _ = run_simulation(SimConfig(0.5, 1, "wfb", sol.threshold, target_epochs=100000, seed=4))
        assert abs(res.mean_aoi - sol.lambda_star) <= max(3 * res.ci_half_width, 0.01 * sol.lambda_star)

    def test_counters_and_overflow_accounting(self):
        res, _, _ = run_simulation(SimConfig(0.3, 1, "nofb", 2.0, target_epochs=20000, seed=5))
        assert res.successes <= res.attempts <= res.arrivals - res.overflows
        # mean overflow per attempt is gamma - 1 + e^-gamma, far from zero here
        assert res.overflows > 0.5 * res.attempts

    def test_greedy_never_overflows(self):
        res, _, _ = run_simulation(SimConfig(0.4, 1, "nofb", 0.0, target_epochs=5000, seed=6))
        assert res.overflows == 0
        assert res.arrivals == res.attempts

    @pytest.mark.parametrize("M, setting", [(1, "nofb"), (2, "wfb")])
    def test_overflow_counts_do_not_wrap(self, M, setting):
        # each threshold wait overflows about gamma - 1 arrivals, so the total passes 2**63; Poisson noise is ~3e-10
        # relative. Every attempt waits for the threshold without feedback, only a service's first attempt with it
        gamma = 1e17
        res, _, _ = run_simulation(SimConfig(0.3, M, setting, gamma, target_epochs=100, seed=1))
        waits = res.attempts if setting == "nofb" else res.successes
        assert 2**63 < res.overflows == res.arrivals - res.attempts
        assert abs(res.overflows - waits * gamma) <= 1e-6 * waits * gamma

    def test_attempts_per_epoch_geometric(self):
        res, epochs, _ = run_simulation(SimConfig(0.3, 1, "nofb", 0.47, target_epochs=1000000, seed=7))
        att = epochs.attempts.astype(np.float64)
        assert abs(att.mean() - 1.0 / 0.7) <= 0.01 / 0.7

    def test_observed_first_waits_match_moments(self):
        # with q = 0 each wfb epoch is exactly one wait max(gamma, tau)
        res, epochs, _ = run_simulation(SimConfig(0.0, 1, "wfb", 1.0, target_epochs=1000000, seed=8))
        y = epochs.y
        m1 = exp_max_moments(1.0).m1
        assert abs(y.mean() - m1) <= 0.005 * m1

    def test_epoch_records_shape(self):
        res, epochs, _ = run_simulation(SimConfig(0.2, 3, "wfb", 0.1, target_epochs=50, seed=9))
        assert len(epochs) == 3 * 50
        assert res.epochs_per_source == 50
        assert epochs.R == pytest.approx(epochs.y * epochs.y / 2.0, rel=1e-12)
        assert np.all((1 <= epochs.source_id) & (epochs.source_id <= 3))

    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_per_source_means_are_source_ratios(self, setting):
        res, epochs, _ = run_simulation(SimConfig(0.3, 3, setting, 0.2, target_epochs=2000, seed=10))
        assert len(res.per_source_mean) == 3
        for j, mean in enumerate(res.per_source_mean, start=1):
            mine = epochs.source_id == j
            assert mean == float(epochs.R[mine].sum()) / float(epochs.y[mine].sum())

    def test_wfb_epochs_look_iid(self):
        _, epochs, _ = run_simulation(SimConfig(0.5, 1, "wfb", 0.9438, target_epochs=100000, seed=55))
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
        _, epochs, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=20000, seed=seed,
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


# where a horizon falls in an arrival stream drawn n at a time: halfway to arrival i, or on it
_CUTS = {
    "in the first top-up": lambda n: (n // 3, False),
    "in a later top-up": lambda n: (3 * n + n // 3, False),
    "on an arrival": lambda n: (3 * n + n // 3, True),
    "on a top-up's last arrival": lambda n: (n - 1, True),
    "before the first arrival": lambda n: (0, False),
}


def _horizon_in(arrivals, n, where):
    i, on = _CUTS[where](n)
    return arrivals[i] if on else ((arrivals[i - 1] if i else 0.0) + arrivals[i]) / 2


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
    # two near-equal epochs, where a reference through np.cov was off by 2.3e-10 relative
    @example(setting="nofb", M=1, q=0.0, gamma=0.0, target=2, seed=167047)
    def test_matches_all_at_once_engines(self, setting, M, q, gamma, target, seed):
        cfg = SimConfig(q, M, setting, gamma, target_epochs=target, seed=seed)
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
        # near-equal epochs leave a CI of rounding size
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
        cfg = SimConfig(q, M, setting, gamma, target_epochs=target, seed=seed)
        _assert_same_run(_run_with_block(block, cfg), run_simulation(cfg))

    @pytest.mark.parametrize("target", [1, 2, 19, 20, 21, 4097, 40000])
    @pytest.mark.parametrize("q,M", [(0.0, 1), (0.3, 2), (0.7, 8), (0.95, 3)])
    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_runs_that_keep_no_epochs_give_the_same_result(self, setting, q, M, target):
        # the epoch block, when kept, is written beside the estimator, which reads the same success times
        cfg = SimConfig(q, M, setting, 0.4, target_epochs=target, seed=target + M)
        res, epochs, _ = run_simulation(cfg)
        assert run_simulation(cfg, _with_epochs=False)[0] == res
        assert list(res.per_source_mean) == renewal_estimates(epochs.y.reshape(M, target))[0]

    def test_threads_share_the_feedback_walk(self):
        # feedback runs on more threads than cores take their retry streams from one cached
        # walk per (seed, services); from an empty cache, with a short switch interval, each
        # run must equal its run alone
        cfgs = [SimConfig(q, M, "wfb", 0.3, target_epochs=3000, seed=seed)
                for q in (0.3, 0.7) for M in (1, 3) for seed in (1, 2)]
        simulator._past_first_waits.cache_clear()
        alone = [run_simulation(cfg, _with_epochs=False)[0] for cfg in cfgs]
        simulator._past_first_waits.cache_clear()
        got = [None] * len(cfgs)

        def work(i):
            got[i] = run_simulation(cfgs[i], _with_epochs=False)[0]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == alone

    @pytest.mark.parametrize("past", [0, 1])
    @pytest.mark.parametrize("q", [0.0, 0.95])
    @pytest.mark.parametrize("M", [1, 3, 8])
    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    def test_default_block_edge(self, setting, M, q, past):
        target = simulator._BLOCK // M - 1 + past
        cfg = SimConfig(q, M, setting, 0.4, target_epochs=target, seed=M)
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

    @pytest.mark.parametrize("n,block", [(1, 1), (7, 3), (100003, 1 << 14)])
    def test_a_copy_walks_past_blocked_draws(self, n, block):
        # the feedback engine draws its first waits in blocks and then its retry waits
        # from the same stream: those must continue where one n-draw call ends
        a = np.random.default_rng(n)
        b = copy.deepcopy(a)
        out = np.empty(block)
        for lo in range(0, n, block):
            b.standard_exponential(out=out[: n - lo])
        a.standard_exponential(size=n)
        assert b.bit_generator.state == a.bit_generator.state
        shape = np.array([0.0, 2.0, 1.0, 5.0])
        assert b.standard_gamma(shape).tobytes() == a.standard_gamma(shape).tobytes()

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

    @pytest.mark.parametrize("leaf", [128, 4096, 16384])
    def test_pairwise_tree_replays_np_sum(self, leaf):
        # np.sum of a contiguous row, as sums of the tree's leaves added back up in tree order
        rng = np.random.default_rng(leaf)
        for n in [*range(1, 300, 7), 4095, 4096, 4097, 16383, 16385, 65536, 100000, 123457]:
            a = rng.exponential(size=n) * rng.exponential(size=n)
            steps = list(simulator._pairwise_tree(0, n, leaf))
            assert all(hi - lo <= leaf for lo, hi in filter(None, steps))
            assert _add_up(steps, a) == [np.sum(a)], n

    def test_reduceat_is_first_plus_tree(self):
        # np.add.reduceat's batch total, as the batch's first value plus the tree of the rest
        rng = np.random.default_rng(3)
        for n in [1, 2, 19, 20, 21, 999, 4097, 100000, 250001]:
            a = rng.exponential(size=n) ** 2
            B = min(20, n)
            starts = np.arange(B) * (n // B) + np.minimum(np.arange(B), n % B)
            for got, lo, hi in zip(np.add.reduceat(a, starts), starts, [*starts[1:], n]):
                rest = _add_up(simulator._pairwise_tree(lo + 1, hi, 4096), a)
                assert got == (a[lo] + rest[0] if rest else a[lo]), (n, lo, hi)
            assert _add_up(simulator._batch_trees(n, 4096), a) == list(np.add.reduceat(a, starts)), n

    @pytest.mark.parametrize("rows", [1, 2, 8, 16])
    def test_row_slices_sum_as_rows(self, rows):
        # one 2-D call sums each row of a column slice as np.sum sums the row alone
        rng = np.random.default_rng(rows)
        buf = rng.exponential(size=(2, rows, 40000))
        for lo, hi in [(0, 1), (3, 10), (5, 133), (1000, 5096), (7, 16391), (0, 40000)]:
            got = np.add.reduce(buf[:, :, lo:hi], axis=2)
            want = [[np.sum(buf[p, j, lo:hi].copy()) for j in range(rows)] for p in range(2)]
            assert got.tolist() == want, (lo, hi)

    @pytest.mark.parametrize("clock", [0.0, 0.1, 123.456, 9.87e5])
    def test_in_place_running_sum(self, clock):
        w = np.maximum(np.random.default_rng(9).exponential(size=65536), 0.4)
        want = np.cumsum(np.concatenate(([clock], w)))[1:]
        w[0] += clock
        np.cumsum(w, out=w)
        assert w.tobytes() == want.tobytes()


def _add_up(steps, a):
    """A post-order tree walk over a, replayed with a stack: np.sum of a leaf, a join adds the two sums before it."""
    stack = []
    for step in steps:
        if step is None:
            right = stack.pop()
            stack[-1] = stack[-1] + right
        else:
            stack.append(np.sum(a[step[0] : step[1]]))
    return stack


class TestRenewalStream:
    """The renewal estimator fed a run of epochs at a time equals the whole-block reference.

    Pieces of any size, from one epoch to the whole block, either as epochs
    (feed) or as success times through the engines' window, must give
    per_row, mean and ci with the same bits as tests/epoch_oracle.py's
    whole-row sums, also with some sources ahead of others in the window,
    some far enough to outgrow it. The leaf is max(512, block), and the
    window holds about leaf + 2 * block successes: blocks of 1 to 512 give
    leaves of 512 in small windows, and blocks of 1,000 and 16,384 leaves
    of their own size. Runs of 8 to 16 leaves (or of up to 2), cut into up
    to 65 pieces, put many leaves, and many moves of the window, into one
    run.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        M=st.integers(1, 5),
        leaf=st.sampled_from([512, 1000, 1 << 14]),
        through_window=st.booleans(),
        data=st.data(),
    )
    def test_pieces_give_the_whole_block_bits(self, M, leaf, through_window, data):
        block = data.draw(st.integers(1, 512)) if leaf == 512 else leaf
        n = data.draw(st.one_of(st.integers(1, 2 * leaf), st.integers(8 * leaf, 16 * leaf)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        times = np.cumsum(rng.exponential(size=(M, n + 1)), axis=1)
        ys = np.diff(times, axis=1)
        cuts = sorted(set(rng.integers(1, n, size=data.draw(st.sampled_from([0, 1, 8, 64])), endpoint=True)) | {n})
        far = data.draw(st.sampled_from([300, 4 * leaf]))  # how far a source may run ahead
        renewal = simulator._Renewal(M, n, keep=through_window, block=block)
        assert renewal._leaf == leaf
        lo, written = 0, [0] * M  # successes in the window, per source
        for hi in cuts:
            if through_window:  # every source up to success hi, and some sources further, as without feedback
                ahead = rng.integers(0, far, size=M, endpoint=True)
                tops = [max(w, min(n + 1, hi + 1 + int(a))) for w, a in zip(written, ahead)]
                s, first = renewal.window(max(tops))
                for j, (w, top) in enumerate(zip(written, tops)):
                    s[j, w - first : top - first] = times[j, w:top]
                renewal.advance(min(tops), max(tops))
                written = tops
            else:
                renewal.feed(ys[:, lo:hi])
            lo = hi
        got = renewal.estimates()
        assert got == renewal_estimates(ys)
        if through_window:
            assert renewal.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 4096, 4097, 12345, 100000])
    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_whole_blocks(self, M, n):
        ys = np.random.default_rng(M * n).exponential(size=(M, n)) + 0.01
        renewal = simulator._Renewal(M, n)
        renewal.feed(ys)
        assert renewal.estimates() == renewal_estimates(ys)


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
            cfg = SimConfig(q, M, "nofb", gamma, target_epochs=target, seed=seed, trace=True,
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
        cfg = SimConfig(q, M, "nofb", gamma, target_epochs=target, seed=seed, erasure_seed=erasure_seed)
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
        mk = lambda: SimConfig(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True)
        _, _, la = run_simulation(mk())
        _, _, lb = run_simulation(mk())
        assert la.to_lines() == lb.to_lines()

    def test_nofb_attempts_blind_to_erasures(self):
        base = SimConfig(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True)
        shuf = SimConfig(0.3, 2, "nofb", 0.3, target_epochs=500, seed=42, trace=True, erasure_seed=999)
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
        _, _, log = run_simulation(SimConfig(q, m, setting, gamma, target_epochs=1000, seed=13, trace=True))
        log.check_invariants()

    def test_rr_attempt_order(self):
        _, _, log = run_simulation(SimConfig(0.4, 3, "nofb", 0.1, target_epochs=100, seed=21, trace=True))
        srcs = [e.source_id for e in log.events if e.kind == ATTEMPT]
        assert srcs == [i % 3 + 1 for i in range(len(srcs))]

    def test_maf_serves_cyclically(self):
        # zero service time makes max-age-first deterministic: the stalest
        # source is always the least recently served one
        _, _, log = run_simulation(SimConfig(0.4, 3, "wfb", 0.2, target_epochs=300, seed=5, trace=True))
        srcs = [e.source_id for e in log.events if e.kind == SUCCESS]
        assert srcs == [i % 3 + 1 for i in range(len(srcs))]

    def test_nofb_threshold_separates_attempts(self):
        gamma = 0.8
        _, _, log = run_simulation(SimConfig(0.2, 1, "nofb", gamma, target_epochs=500, seed=31, trace=True))
        at = [e.time for e in log.events if e.kind == ATTEMPT]
        gaps = np.diff(at)
        assert np.all(gaps >= gamma - 1e-12)

    def test_wfb_turn_timing(self):
        gamma = 0.9
        _, _, log = run_simulation(SimConfig(0.5, 1, "wfb", gamma, target_epochs=500, seed=37, trace=True))
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
        _, _, log = run_simulation(SimConfig(0.3, 2, "wfb", 0.4, target_epochs=50, seed=43, trace=True))
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
        fast, _, _ = run_simulation(SimConfig(*cell, target_epochs=30000, seed=101))
        loop, _, _ = run_simulation(SimConfig(*cell, target_epochs=30000, seed=202, trace=True))
        analytic = aoi_maf_wfb(0.5, 2, 0.4)
        gap = abs(fast.mean_aoi - loop.mean_aoi)
        assert gap <= 3.0 * (fast.ci_half_width + loop.ci_half_width)
        for r in (fast, loop):
            assert abs(r.mean_aoi - analytic) <= max(3.0 * r.ci_half_width, 0.01 * analytic)

    def test_trace_counters_chain(self):
        res, _, log = run_simulation(SimConfig(0.3, 1, "nofb", 1.2, target_epochs=2000, seed=47, trace=True))
        assert res.successes <= res.attempts <= res.arrivals - res.overflows
        by_kind = {}
        for e in log.events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        assert by_kind[ATTEMPT] == res.attempts
        assert by_kind.get(SUCCESS, 0) == res.successes
        assert by_kind.get(OVERFLOW, 0) == res.overflows
        assert by_kind[ENERGY_ARRIVAL] + by_kind.get(OVERFLOW, 0) == res.arrivals

    def test_erasure_seed_is_reproducible(self):
        mk = lambda: SimConfig(0.3, 1, "nofb", 0.2, target_epochs=300, seed=3, trace=True, erasure_seed=77)
        _, _, la = run_simulation(mk())
        _, _, lb = run_simulation(mk())
        assert la.to_lines() == lb.to_lines()

    @pytest.mark.parametrize("setting", ["wfb", "nofb"])
    def test_arrival_top_up_changes_nothing(self, tmp_path, monkeypatch, setting):
        # a first draw of n // 50 arrivals makes the loop top the stream up; the
        # chunked draws continue the same stream and running sum, so no output moves
        cfg = SimConfig(0.3, 2, setting, 0.4, target_epochs=2000, seed=3, trace=True)
        want = run_simulation(cfg)
        real, calls = simulator._more_arrivals, []

        def short_first_draw(A, rng_a, n, horizon):
            calls.append(n)
            return real(A, rng_a, n // 50 if len(calls) == 1 else n, horizon)

        monkeypatch.setattr(simulator, "_more_arrivals", short_first_draw)
        got = run_simulation(cfg)
        assert len(calls) > 1
        _assert_same_run(got, want)
        got[2].dump(str(tmp_path / "got.log"))
        want[2].dump(str(tmp_path / "want.log"))
        assert (tmp_path / "got.log").read_bytes() == (tmp_path / "want.log").read_bytes()

    @pytest.mark.parametrize("where", list(_CUTS))
    def test_horizon_arrivals_drawn_a_window_at_a_time(self, where):
        # topped up 300 at a time and cut at the horizon where drawn, the arrivals are
        # those of one up-front draw cut there, in count and in bits
        whole = np.cumsum(np.random.default_rng(5).standard_exponential(2000))
        horizon = _horizon_in(whole, 300, where)
        usable = bisect_right(whole, horizon)
        rng, A, draws = np.random.default_rng(5), array("d"), 0
        while True:
            draws += 1
            if simulator._more_arrivals(A, rng, 300, horizon):
                break
        assert draws == usable // 300 + 1
        assert np.frombuffer(A).tobytes() == whole[:usable].tobytes()
        rng, A = np.random.default_rng(5), array("d")  # no horizon: every arrival is kept
        assert not any(simulator._more_arrivals(A, rng, 300, None) for _ in range(2))
        assert np.frombuffer(A).tobytes() == whole[:600].tobytes()

    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    @pytest.mark.parametrize("where", list(_CUTS))
    def test_horizon_cut_where_the_arrivals_are_drawn(self, monkeypatch, where, setting):
        # windows of 64 attempts top the arrivals up 325 at a time (64 (gamma + e^-gamma) 1.02
        # + 256), and the literal loop, which draws one arrival at a time, must see the same run
        seed, real, draws = 3, simulator._more_arrivals, []

        def count_draws(A, rng_a, n, horizon):
            draws.append(n)
            return real(A, rng_a, n, horizon)

        whole = np.cumsum(simulator._spawn_streams(seed, None)[0].standard_exponential(2000))
        horizon = _horizon_in(whole, 325, where)
        cfg = SimConfig(0.3, 2, setting, 0.4, horizon=horizon, seed=seed, trace=True)
        monkeypatch.setattr(simulator, "_WINDOW", 64)
        monkeypatch.setattr(simulator, "_more_arrivals", count_draws)
        got = simulator._run_loop(cfg, True)
        want = oracle_run_loop(cfg, True)
        assert got.arrivals == want.arrivals == bisect_right(whole, horizon)
        assert draws == [325] * (got.arrivals // 325 + 1)
        assert [got.overflows, got.attempts, got.successes] == [want.overflows, want.attempts, want.successes]
        for name in ("ys", "atts", "success_times"):
            for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
                np.testing.assert_array_equal(g, w)
        assert got.events.to_lines() == lines(want.events)


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

    def test_from_columns_rejects_an_unknown_kind_code(self):
        time, source = np.array([0.5, 1.0]), np.array([0, 1])
        with pytest.raises(ValueError, match="unknown event kind code 9"):
            EventLog.from_columns(time, np.array([0, 9], np.uint8), source)
        with pytest.raises(ValueError, match="unknown event kind code -1"):
            EventLog.from_columns(time, np.array([-1, 2]), source)
        with pytest.raises(ValueError, match="integer codes"):
            EventLog.from_columns(time, np.array([0.0, 2.0]), source)

    def test_from_columns_rejects_columns_of_unequal_length(self):
        time, kind, source = np.array([0.5, 1.0]), np.array([0, 2], np.uint8), np.array([0, 1])
        for columns in ((time[:1], kind, source), (time, kind[:1], source), (time, kind, source[:1]),
                        (time, kind.reshape(1, 2), source), (list(time), kind, source)):
            with pytest.raises(ValueError, match="three 1-D arrays of one length"):
                EventLog.from_columns(*columns)
        assert len(EventLog.from_columns(time, kind, source)) == 2

    @settings(max_examples=400)
    @given(
        cell=st.sampled_from([(0.3, 1, "nofb", 0.47), (0.5, 3, "nofb", 0.0), (0.4, 2, "wfb", 0.5),
                              (0.7, 3, "wfb", 2.0)]),
        stop=st.sampled_from([dict(target_epochs=8), dict(horizon=60.5)]),
        op=st.sampled_from(["swap", "drop", "cut", "retag", "source", "time", "none"]),
        data=st.data(),
    )
    def test_first_error_matches_event_replay(self, cell, stop, op, data):
        _, _, log = run_simulation(SimConfig(*cell, seed=3, trace=True, **stop))
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

    The run ends at a horizon cut. A copy of it shifted across 4.5e6,
    where the column path once stopped, puts column-built chunks on both
    sides and across it; a copy shifted across 2**32, the column path's
    bound, mixes column-built chunks with f-string ones in one dump.
    """

    @settings(max_examples=24)
    @given(
        chunk=st.sampled_from([1, 7, 8192, 65536]),
        cell=st.sampled_from([(0.2, 1, "nofb", 5.0), (0.4, 3, "wfb", 0.5)]),
        shift=st.sampled_from([None, 4.5e6, 2.0**32]),
    )
    def test_chunk_size_changes_no_byte(self, tmp_path_factory, chunk, cell, shift):
        _, _, log = run_simulation(SimConfig(*cell, horizon=300.0, seed=3, trace=True))
        if shift is not None:
            offset = shift - log.time[len(log) // 2]
            log = EventLog.from_columns(log.time + offset, log.kind, log.source)
            assert log.time[0] < shift <= log.time[-1]
        want = lines(list(log.events))
        path = tmp_path_factory.mktemp("dump") / "events.log"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK", chunk)
            log.dump(str(path))
            assert log.to_lines() == want
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def _layout_cells():
    # target runs at gamma = 0, gamma* and 2 over M = 1-4, the horizon cut between a stored
    # arrival and its attempt, a horizon before the first arrival, and uint16 sources
    for setting in ("nofb", "wfb"):
        for M in (1, 2, 3, 4):
            for gamma in sorted({0.0, optimize_gamma(0.3, M, setting)[0], 2.0}):
                yield SimConfig(0.3, M, setting, gamma, target_epochs=12, seed=M, trace=True)
    yield SimConfig(0.2, 1, "nofb", 5.0, horizon=12.5, seed=3, trace=True)
    yield SimConfig(0.4, 3, "wfb", 0.5, horizon=80.0, seed=11, trace=True)
    yield SimConfig(0.3, 2, "wfb", 0.5, horizon=0.01, seed=11, trace=True)
    yield SimConfig(0.1, 256, "wfb", 0.1, target_epochs=1, seed=4, trace=True)


class TestRangeLayout:
    """A traced run's log, laid out a window at a time and formatted one _CHUNK of lines at
    a time, has the bytes of its columns laid out whole and of the literal loop
    (tests/trace_oracle.py).

    At a _CHUNK of 1, 2, 3 and 7, chunk edges fall between an attempt and its outcome
    and right before a stored arrival (with gamma = 0 every third event is a stored
    arrival, so a _CHUNK of 3 splits no pair).
    """

    @pytest.mark.parametrize("cfg", list(_layout_cells()), ids=lambda c: f"{c.setting.value}-M{c.M}-gamma{c.gamma:.4g}-"
                             + (f"epochs{c.target_epochs}" if c.horizon is None else f"horizon{c.horizon:g}"))
    def test_chunked_dump_matches_whole_layout_and_literal_loop(self, cfg, tmp_path, monkeypatch):
        want = "".join(f"{line}\n" for line in lines(oracle_run_loop(cfg, True).events)).encode()
        edges = {}
        for chunk in (1, 2, 3, 7, 8192):
            monkeypatch.setattr(simulator, "_CHUNK", chunk)
            log = simulator._run_loop(cfg, True).events
            path = tmp_path / f"{chunk}.log"
            log.dump(str(path))
            assert path.read_bytes() == want
            assert log.source.dtype == np.min_scalar_type(cfg.M)
            assert simulator._format_lines(log.time, log.kind, log.source) == want
            at = np.arange(chunk, len(log), chunk)
            edges[chunk] = (log.kind[at - 1] == simulator._CODE[ATTEMPT]).any(), (
                log.kind[at] == simulator._CODE[ENERGY_ARRIVAL]).any()
        if len(log) > 100:
            assert all(edges[1]) and all(edges[2]) and all(edges[7])


def _column_cells():
    # target and horizon runs in both settings; M = 300 puts the sources in uint16
    for setting in ("nofb", "wfb"):
        for M, target, horizon in ((1, 6000, 10000.0), (3, 3000, 10000.0), (300, 2, 2000.0)):
            yield SimConfig(0.3, M, setting, 0.4, target_epochs=target, seed=M, trace=True)
            yield SimConfig(0.3, M, setting, 0.4, horizon=horizon, seed=M, trace=True)


class TestChunkedColumns:
    """The trace engine draws its outcomes and builds its source column a window of
    attempts at a time, with the stream and the success count carried across windows;
    both equal the whole-run expressions whatever the window size, and so do the epochs,
    attempts per epoch and success times taken window by window. A window holds at
    most _WINDOW = 4,096 attempts, fewer than the default _CHUNK of 8,192, so no chunk
    splits one. The M < 300 runs hold over 8,192 attempts, so the default window has
    edges inside them too.
    """

    @pytest.mark.parametrize("cfg", list(_column_cells()), ids=lambda c: f"{c.setting.value}-M{c.M}-"
                             + (f"epochs{c.target_epochs}" if c.horizon is None else f"horizon{c.horizon:g}"))
    def test_chunked_columns_match_whole_run(self, cfg, monkeypatch):
        runs = {}
        for window in (7, 100, 4096):
            monkeypatch.setattr(simulator, "_WINDOW", window)
            runs[window] = raw = simulator._run_loop(cfg, True)
            windows = raw.events._trace
            ok, src = (np.concatenate([getattr(w, c) for w in windows]) for c in ("ok", "src"))
            n = ok.size
            rng_e = simulator._spawn_streams(cfg.seed, cfg.erasure_seed)[1]
            np.testing.assert_array_equal(ok, rng_e.random(n) > cfg.q)
            dt = np.min_scalar_type(cfg.M)
            served = np.cumsum(ok) - ok if cfg.setting is Feedback.WFB else np.arange(n)
            assert src.dtype == dt
            np.testing.assert_array_equal(src, (served % cfg.M + 1).astype(dt))
        if cfg.M < 300:
            assert n > 8192
        want = runs.pop(4096)
        for raw in runs.values():
            assert raw[3:-1] == want[3:-1]
            for name in ("ys", "atts", "success_times"):
                for got, exp in zip(getattr(raw, name), getattr(want, name), strict=True):
                    np.testing.assert_array_equal(got, exp)

    @pytest.mark.parametrize("window", [1, 3, 7, 8192])
    @pytest.mark.parametrize("n,lo", [(0, 0), (1, 0), (20000, 0), (20000, 15001)])
    def test_outcomes_continue_the_stream(self, window, n, lo):
        # the trace engine fills a slice of one reused buffer a window at a time
        a, b = np.random.default_rng(n + lo), np.random.default_rng(n + lo)
        ok = np.zeros(n, bool)
        for i in range(lo, n, window):
            part = ok[i : i + window]
            assert simulator._outcomes(a, 0.3, part) is part
        assert not ok[:lo].any()
        np.testing.assert_array_equal(ok[lo:], b.random(n - lo) > 0.3)
        assert a.bit_generator.state == b.bit_generator.state


class TestStreamedLog:
    """A traced run can write its log to a file as it runs (run_simulation's _out), one
    window of at most _WINDOW attempts at a time, and a library run keeps its log as those
    windows. At windows of 1, 7 and 64 attempts, window edges fall at every attempt,
    inside a cycle of the sources and across chunks of lines, in target and horizon runs
    with and without kept epochs. The streamed file and the library log must have the
    bytes of the library's EventLog.dump at the default window and of the literal loop
    (tests/trace_oracle.py), and the run the same estimates, counters, epochs, attempts
    per epoch and success times.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        setting=st.sampled_from(["nofb", "wfb"]),
        M=st.sampled_from([1, 2, 3, 5]),
        q=st.sampled_from([0.0, 0.3, 0.9]),
        gamma=st.sampled_from([0.0, 0.4, 3.0]),
        window=st.sampled_from([1, 7, 64]),
        chunk=st.sampled_from([3, 8192]),
        stop=st.one_of(st.builds(dict, target_epochs=st.integers(1, 40)),
                       st.builds(dict, horizon=st.floats(0.0, 60.0, exclude_min=True))),
        keep=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_windows_match_the_library_log(self, tmp_path_factory, setting, M, q, gamma, window, chunk,
                                                  stop, keep, seed):
        cfg = SimConfig(q, M, setting, gamma, seed=seed, trace=True, **stop)
        want = simulator._run_loop(cfg, keep)
        tmp = tmp_path_factory.mktemp("stream")
        want.events.dump(str(tmp / "dump.log"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_WINDOW", window)
            mp.setattr(simulator, "_CHUNK", chunk)
            with open(tmp / "streamed.log", "wb") as out:
                got = simulator._run_loop(cfg, keep, out)
            kept = simulator._run_loop(cfg, keep)
            kept.events.dump(str(tmp / "kept.log"))
        for run in (got, kept):
            assert run[3:-1] == want[3:-1]
            assert len(run.events) == len(want.events)
            for name in ("ys", "atts", "success_times"):
                g, w = getattr(run, name), getattr(want, name)
                assert (g is None) == (w is None)
                for a, b in zip(() if g is None else g, () if w is None else w, strict=True):
                    assert a.dtype == b.dtype
                    np.testing.assert_array_equal(a, b)
        for column in ("time", "kind", "source"):
            np.testing.assert_array_equal(getattr(kept.events, column), getattr(want.events, column))
        streamed = (tmp / "streamed.log").read_bytes()
        assert streamed == (tmp / "dump.log").read_bytes() == (tmp / "kept.log").read_bytes()
        assert streamed == "".join(f"{line}\n" for line in lines(oracle_run_loop(cfg, True).events)).encode()

    def test_the_command_gets_no_log_back(self, tmp_path):
        cfg = SimConfig(0.3, 2, "wfb", 0.4, target_epochs=3000, seed=2, trace=True)
        with open(tmp_path / "events.log", "wb") as out:
            res, epochs, log = run_simulation(cfg, _with_epochs=False, _out=out)
        assert (res, epochs, log) == (run_simulation(cfg, _with_epochs=False)[0], None, None)

    def test_only_traced_runs_stream(self, tmp_path):
        # an untraced run makes no log to write
        cfg = SimConfig(0.3, 2, "wfb", 0.4, target_epochs=30, seed=2)
        with open(tmp_path / "events.log", "wb") as out:
            with pytest.raises(ValueError, match="_out takes the log of a traced run"):
                run_simulation(cfg, _with_epochs=False, _out=out)


class TestHorizonMode:
    def test_estimate_matches_closed_form(self):
        res, _, _ = run_simulation(SimConfig(0.3, 2, "nofb", 0.2, horizon=50000.0, seed=17))
        target = aoi_rr_nofb(0.3, 2, 0.2)
        assert abs(res.mean_aoi - target) <= max(3.0 * res.ci_half_width, 0.02 * target)
        assert res.ci_half_width > 0.0

    def test_tiny_horizon_warns_and_keeps_tail(self):
        with pytest.warns(RuntimeWarning):
            res, epochs, _ = run_simulation(SimConfig(0.0, 1, "nofb", 0.0, horizon=0.01, seed=2))
        # no success fits, so the whole window is one growing ramp
        assert res.mean_aoi == pytest.approx(0.005, rel=1e-12)
        assert res.epochs_per_source == 0
        assert len(epochs) == 0 and epochs.y.size == epochs.attempts.size == 0

    def test_trace_plus_horizon(self):
        res, _, log = run_simulation(SimConfig(0.4, 1, "wfb", 0.5, horizon=2000.0, seed=19, trace=True))
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
        res, _, _ = run_simulation(SimConfig(*cell, horizon=horizon, seed=seed))
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

        assert len(simulator._T975) == simulator._N_BATCHES - 1
        for df, t in enumerate(simulator._T975, start=1):
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
