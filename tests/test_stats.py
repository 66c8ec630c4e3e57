import numpy as np
import pytest

from aoi_erasure import stats
from aoi_erasure.analytic import aoi_maf_wfb, aoi_rr_nofb, optimize_gamma, solve_nofb
from aoi_erasure.model import Feedback
from aoi_erasure.simulator import make_config, run_simulation
from aoi_erasure.stats import (
    ValidationRecord,
    closed_form_aoi,
    ratio_estimate,
    validate,
)
from epoch_oracle import batch_ratio_estimate
from gamma_oracle import RenewalEstimate, grid_oracle_gamma, sim_gamma_curve


def _estimate(ys):
    """stats' point and interval for an (M, n) block of epochs."""
    _, point, totals = stats._epoch_batches(np.atleast_2d(ys))
    return point, ratio_estimate(*totals, point)


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
        res, _, _ = run_simulation(make_config(0.3, 1, "nofb", 0.2, target_epochs=1, seed=4))
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
    res, _, _ = run_simulation(make_config(q, M, setting, gamma, target_epochs=n, seed=seed))
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

    def test_merged_runs_match_pooled_reference(self):
        # replications pool by adding batch b across runs, as simulate --replications does
        runs = [np.stack([_epochs(999, seed=10 * r + j) for j in range(3)]) for r in range(4)]
        totals = sum(stats._epoch_batches(ys)[2] for ys in runs)
        point = float(totals[1].sum() / totals[0].sum())
        want = batch_ratio_estimate(np.concatenate(runs))
        assert (point, ratio_estimate(*totals, point)) == pytest.approx(want, rel=1e-12, abs=0.0)

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
        res, _, _ = run_simulation(make_config(q, M, setting, gamma, target_epochs=n, seed=seed))
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
            res, _, _ = run_simulation(make_config(q, M, setting, gamma, target_epochs=n, seed=seed))
            assert stats._simulate(q, M, Feedback(setting), gamma, n, seed) == res
            rec = validate(q, M, setting, gamma, n_epochs=n, seed=seed)
            assert (rec.sim_mean, rec.sim_ci) == (res.mean_aoi, res.ci_half_width)
