from dataclasses import replace

import numpy as np
import pytest

from aoi_erasure import simulator
from aoi_erasure.analytic import aoi_maf_wfb, aoi_rr_nofb, optimize_gamma, solve_nofb
from aoi_erasure.model import Feedback, SimConfig
from aoi_erasure.simulator import run_simulation
from aoi_erasure.stats import (
    ValidationRecord,
    closed_form_aoi,
    ratio_estimate,
    validate,
)
from epoch_oracle import batch_ratio_estimate, paired_ratio_difference
from gamma_oracle import RenewalEstimate, grid_oracle_gamma, sim_gamma_curve


def _estimate(ys):
    """The simulator's point and interval for an (M, n) block of epochs."""
    ys = np.atleast_2d(ys)
    renewal = simulator._Renewal(*ys.shape)
    renewal.feed(ys)
    _, point, ci = renewal.estimates()
    return point, ci


class TestRatioEstimate:
    def test_constant_epochs_have_zero_width(self):
        y = np.full(50, 2.0)
        point, ci = _estimate(y)
        assert point == 1.0
        assert ci == 0.0

    def test_single_epoch(self):
        # one epoch per source is one batch, which gives no interval
        assert _estimate(np.array([3.0])) == (1.5, 0.0)
        assert _estimate(np.array([[3.0], [1.0]])) == (5.0 / 4.0, 0.0)
        assert ratio_estimate(np.array([3.0]), np.array([4.5]), 1.5) == 0.0

    def test_one_epoch_run_has_no_interval(self):
        res, _, _ = run_simulation(SimConfig(0.3, 1, "nofb", 0.2, target_epochs=1, seed=4))
        assert res.ci_half_width == 0.0
        assert res.mean_aoi == res.per_source_mean[0] > 0.0

    def test_matches_renewal_identity(self):
        rng = np.random.default_rng(7)
        y = rng.exponential(size=4000) + 0.2
        R = 0.5 * y * y
        point, ci = _estimate(y)
        assert point == float(R.sum()) / float(y.sum())
        assert ci > 0.0

    def test_ci_shrinks_like_sqrt_n(self):
        # same process, doubled sample: widths should shrink near sqrt(2)
        _, ci_half_a = _pooled(0.3, 1, "nofb", 0.47, 20000, seed=123)
        _, ci_half_b = _pooled(0.3, 1, "nofb", 0.47, 20000, seed=124)
        _, ci_full = _pooled(0.3, 1, "nofb", 0.47, 40000, seed=123)
        ratio = 0.5 * (ci_half_a + ci_half_b) / ci_full
        assert 1.2 <= ratio <= 1.7


def _pooled(q, M, setting, gamma, n, seed):
    res, _, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=seed))
    return res.mean_aoi, res.ci_half_width


def _epochs(n, seed=0):
    return np.random.default_rng(seed).exponential(size=n) + 0.2


class TestMoments:
    """The batch-means interval, from the moments of the batch totals, against
    the independent np.array_split and np.cov reference in tests/epoch_oracle.py."""

    @pytest.mark.parametrize(
        "y,rel",
        [
            (_epochs(4000), 1e-12),
            # low coefficient of variation: the batch totals spread by about 1e-8 of their
            # size, so their last-place rounding, which the two sides do differently, is
            # a relative 1e-8 of the interval
            (3.0 + 1e-6 * np.random.default_rng(1).standard_normal(5000), 1e-7),
            (np.array([0.7, 2.3]), 1e-12),
            # lengths around 2**16, which leave 15, 16, 17 and 13 epochs over from 20 equal batches
            (_epochs((1 << 16) - 1, seed=2), 1e-12),
            (_epochs(1 << 16, seed=3), 1e-12),
            (_epochs((1 << 16) + 1, seed=4), 1e-12),
            (_epochs(3 * (1 << 16) + 5, seed=5), 1e-12),
        ],
        ids=["random", "low-cv", "n=2", "chunk-1", "chunk", "chunk+1", "3chunks+5"],
    )
    def test_matches_cov_reference(self, y, rel):
        point, ci = batch_ratio_estimate([y])
        assert _estimate(y) == pytest.approx((point, ci), rel=rel, abs=0.0)

    @pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 2.0, 7.77])
    @pytest.mark.parametrize("n", [2, 50, 65537])
    def test_constant_epochs_give_zero_width(self, value, n):
        # zero up to rounding: unequal batch sizes round their totals differently
        point, ci = _estimate(np.full(n, value))
        assert point == pytest.approx(0.5 * value, rel=1e-14)
        assert ci == pytest.approx(0.0, abs=1e-15 * value)


class TestCalibration:
    """The printed interval holds the closed form at its nominal rate for M > 1.

    Every source draws on one energy stream, so the pooled epochs of
    M = 8 sources are not independent; an interval that treats them as
    iid covered the closed form 0.55 (feedback) and 0.84 (none) of the
    time here. 300 seeds leave a binomial sd of 1.3 points at 0.95.
    """

    @pytest.mark.parametrize("setting", ["wfb", "nofb"])
    def test_coverage_over_seeds(self, setting):
        q, M, gamma = 0.3, 8, 0.0
        target = closed_form_aoi(q, M, setting, gamma)
        hits = 0
        for seed in range(300):
            rec = validate(q, M, setting, gamma, n_epochs=5000, seed=seed)
            hits += abs(rec.sim_mean - target) <= rec.sim_ci
        assert hits / 300 >= 0.90, hits / 300


class TestPairedThresholdShape:
    """Does a small threshold help? The simulator answers as the closed forms do.

    At q = 0.3 the optimizer first returns gamma* = 0 at M = 2 without
    feedback and M = 3 with it, one source earlier than the counts that
    tests/test_acceptance.py::test_05 expects. So gamma = 0.2 must cost
    age at those cells and save age one source earlier. Runs at
    gamma = 0 and 0.2 with one seed share every draw but the overflow
    counts, so their batch errors largely cancel in the difference: at
    1e5 epochs the paired half-width is 2 to 4e-4, against differences
    of 2 to 9e-3. Where the optimizer gives gamma* > 0, the gain of
    gamma* over gamma = 0 is measured the same way.
    """

    @pytest.mark.parametrize("M, setting", [(2, "nofb"), (3, "wfb"), (1, "nofb"), (2, "wfb")])
    def test_gamma_cost_has_the_closed_form_sign(self, M, setting):
        q, n = 0.3, 100_000
        rows = []
        for gamma in (0.0, 0.2):
            _, epochs, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=1))
            rows.append(epochs.y.reshape(M, n))
        cost, hw = paired_ratio_difference(*rows)
        exact = closed_form_aoi(q, M, setting, 0.2) - closed_form_aoi(q, M, setting, 0.0)
        assert np.sign(cost) == np.sign(exact) and abs(cost) > 3 * hw, (cost, hw)
        assert abs(cost - exact) <= 3 * hw, (cost, exact, hw)

    # every default-grid (q, M, setting) where gamma* > 0; the closed-form gains run from
    # 0.0021 at (0.3, 2, wfb) to 0.091 at (0.1, 1, wfb), 5.5 to 47 paired half-widths at
    # 1e5 epochs (seeds 1-3), where the simulated gains lay within 1.2 half-widths of them
    @pytest.mark.parametrize("q, M, setting", [
        (0.1, 1, "nofb"), (0.1, 1, "wfb"), (0.1, 2, "nofb"), (0.1, 2, "wfb"), (0.3, 1, "nofb"),
        (0.3, 1, "wfb"), (0.3, 2, "wfb"), (0.5, 1, "wfb"), (0.7, 1, "wfb"),
    ])
    def test_optimal_threshold_gain_matches_the_closed_form(self, q, M, setting):
        n = 100_000
        gamma_star, _ = optimize_gamma(q, M, setting)
        assert gamma_star > 0.0
        rows = []
        for gamma in (gamma_star, 0.0):
            _, epochs, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=1))
            rows.append(epochs.y.reshape(M, n))
        gain, hw = paired_ratio_difference(*rows)  # f(0) - f(gamma*)
        exact = closed_form_aoi(q, M, setting, 0.0) - closed_form_aoi(q, M, setting, gamma_star)
        assert abs(gain - exact) <= 3 * hw, (gain, exact, hw)
        assert hw < exact / 3, (exact, hw)


class TestClosedFormDispatch:
    def test_routes_by_setting(self):
        assert closed_form_aoi(0.3, 2, "nofb", 0.4) == pytest.approx(aoi_rr_nofb(0.3, 2, 0.4), rel=1e-15)
        assert closed_form_aoi(0.3, 2, "wfb", 0.4) == pytest.approx(aoi_maf_wfb(0.3, 2, 0.4), rel=1e-15)
        assert closed_form_aoi(0.3, 2, Feedback.WFB, 0.4) == closed_form_aoi(0.3, 2, "wfb", 0.4)

    def test_bad_setting(self):
        with pytest.raises(ValueError):
            closed_form_aoi(0.3, 2, "fancy", 0.4)


class TestValidate:
    def test_simulation_tracks_round_robin_form(self):
        rec = validate(0.3, 2, "nofb", 0.0, n_epochs=100000, seed=1)
        assert rec.passed and rec.verdict == "PASS"
        assert rec.analytic == pytest.approx(aoi_rr_nofb(0.3, 2, 0.0), rel=1e-15)

    def test_simulation_tracks_max_age_first_form(self):
        rec = validate(0.3, 2, "wfb", 0.0, n_epochs=100000, seed=2)
        assert rec.passed

    def test_simulation_tracks_single_source_optimum(self):
        rec = validate(0.5, 1, "wfb", 0.9437858746370043, n_epochs=100000, seed=3)
        assert rec.passed
        assert abs(rec.sim_mean - rec.analytic) <= max(3 * rec.sim_ci, 0.01 * rec.analytic)

    def test_verdict_text(self):
        rec = validate(0.2, 1, "nofb", 0.0, n_epochs=50000, seed=4)
        assert rec.verdict in ("PASS", "FAIL")
        failing = ValidationRecord(
            q=0.2, M=1, setting=Feedback.NOFB, gamma=0.0, analytic=1.0,
            sim_mean=2.0, sim_ci=0.01, n_epochs=10, seed=0, rel_tol=0.01, passed=False,
        )
        assert failing.verdict == "FAIL"

    def test_leans_on_ci_when_three_half_widths_exceed_the_tolerance(self):
        rec = ValidationRecord(
            q=0.2, M=1, setting=Feedback.NOFB, gamma=0.0, analytic=3.0,
            sim_mean=3.0, sim_ci=0.01, n_epochs=10, seed=0, rel_tol=0.01, passed=True,
        )
        assert not rec.leans_on_ci  # 0.03 against 0.03
        assert replace(rec, sim_ci=0.0101).leans_on_ci
        assert not replace(rec, rel_tol=0.02, sim_ci=0.0199).leans_on_ci

    def test_estimator_is_consistent(self):
        # fixed cell, growing run length: the final error beats the first
        analytic = aoi_rr_nofb(0.3, 2, 0.3)
        errs = []
        for n in (500, 5000, 50000, 200000):
            point, _ = _pooled(0.3, 2, "nofb", 0.3, n, seed=99)
            errs.append(abs(point - analytic))
        assert errs[-1] < errs[0]
        assert errs[-1] <= 0.01 * analytic


class TestGridOracle:
    def test_closed_form_scan_single_source(self):
        g = grid_oracle_gamma(0.0, 1, "nofb", 0.001)
        assert abs(g - solve_nofb(0.0).threshold) <= 0.001

    def test_scan_agrees_with_optimizer(self):
        for (q, M, setting) in [
            (0.3, 1, "nofb"),
            (0.3, 2, "wfb"),
            (0.45, 2, "nofb"),
            (0.2, 4, "wfb"),
        ]:
            g_scan = grid_oracle_gamma(q, M, setting, 0.001)
            g_opt, _ = optimize_gamma(q, M, setting)
            assert abs(g_scan - g_opt) <= 0.001 + 1e-9

    def test_scan_hits_boundary_when_greedy_wins(self):
        # dense scans land exactly on 0 once waiting stops paying
        assert grid_oracle_gamma(0.3, 3, "nofb", 0.001) == 0.0
        assert grid_oracle_gamma(0.3, 3, "wfb", 0.001) == 0.0
        assert grid_oracle_gamma(0.6, 1, "nofb", 0.001) == 0.0

    def test_sim_backed_scan(self):
        g_star, _ = optimize_gamma(0.5, 1, "wfb")
        grid = grid_oracle_gamma(0.5, 1, "wfb", 0.25, n_epochs=20000, seed=8)
        assert abs(grid - g_star) <= 0.25 + 1e-9

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_oracle_gamma(0.3, 1, "nofb", 0.0)


class TestSimGammaCurve:
    def test_curve_brackets_optimum(self):
        gammas = [0.0, 0.5, 0.9437858746370043, 1.5, 2.5]
        ests = sim_gamma_curve(0.5, 1, "wfb", gammas, n_epochs=20000, seed=12)
        assert len(ests) == len(gammas)
        assert all(isinstance(e, RenewalEstimate) for e in ests)
        vals = [e.point for e in ests]
        # the interior optimum must beat both extremes of the grid
        assert vals[2] < vals[0] and vals[2] < vals[-1]
        for e, g in zip(ests, gammas):
            analytic = closed_form_aoi(0.5, 1, "wfb", g)
            assert abs(e.point - analytic) <= max(3 * e.ci_half_width, 0.02 * analytic)


class TestOneEntryPoint:
    """The oracles report exactly what run_simulation reports for the same cell and seed."""

    @pytest.mark.parametrize(
        "q,M,setting,gamma", [(0.3, 1, "nofb", 0.47), (0.5, 2, "wfb", 0.2), (0.1, 4, "wfb", 0.0)]
    )
    def test_oracles_equal_run_simulation(self, q, M, setting, gamma):
        n, seed = 3000, 5
        res, _, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=seed))
        rec = validate(q, M, setting, gamma, n_epochs=n, seed=seed)
        assert (rec.sim_mean, rec.sim_ci) == (res.mean_aoi, res.ci_half_width)
        (est,) = sim_gamma_curve(q, M, setting, [gamma], n_epochs=n, seed=seed)
        assert (est.point, est.ci_half_width, est.n_epochs) == (res.mean_aoi, res.ci_half_width, n * M)
        gammas = np.arange(0.0, 5.5, 1.0)
        means = [_pooled(q, M, setting, g, n, seed)[0] for g in gammas]
        assert grid_oracle_gamma(q, M, setting, 1.0, n_epochs=n, seed=seed) == gammas[int(np.argmin(means))]

    @pytest.mark.parametrize("setting", ["nofb", "wfb"])
    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7])
    def test_validate_path_on_the_default_grid(self, q, M, setting):
        # validate's runs skip the attempts column; every number must stay
        n, seed = 2000, 3
        gamma_star, _ = optimize_gamma(q, M, setting)
        for gamma in (0.0, gamma_star):
            res, _, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=seed))
            rec = validate(q, M, setting, gamma, n_epochs=n, seed=seed)
            assert (rec.sim_mean, rec.sim_ci) == (res.mean_aoi, res.ci_half_width)
