import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_erasure import simulator
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
from aoi_erasure.stats import ratio_estimate
from epoch_oracle import epochs_nofb, epochs_wfb
from epoch_oracle import ratio_estimate as cov_ratio_estimate
from trace_oracle import policy_nofb_single, policy_wfb_single, scheduler_maf, scheduler_rr


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
        with pytest.raises(ValueError):
            SimConfig(0.99995, 1, Feedback.NOFB, 0.0, target_epochs=1)

    def test_stopping_rule_domains(self):
        cell = (0.2, 1, Feedback.NOFB, 0.0)
        with pytest.raises(ValueError):
            SimConfig(*cell, target_epochs=0)
        with pytest.raises(ValueError):
            SimConfig(*cell, horizon=0.0)


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
            assert mean == ratio_estimate(epochs.y[mine], epochs.R[mine])[0]

    def test_wfb_epochs_look_iid(self):
        _, epochs, _ = run_simulation(make_config(0.5, 1, "wfb", 0.9438, target_epochs=100000, seed=55))
        y = epochs.y
        odd, even = y[1::2], y[0::2]
        for a, b in [(odd, even), (odd**2, even**2)]:
            gap = abs(a.mean() - b.mean())
            bound = 3.0 * np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert gap <= bound


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
        M=st.sampled_from([1, 2, 3, 5]),
        q=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
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
        point, ci = cov_ratio_estimate(ys.ravel(), Rs.ravel())
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


class TestTraceEngine:
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


class TestEventLogChecker:
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
