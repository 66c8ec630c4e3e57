import numpy as np
import pytest

from aoi_erasure import stats
from aoi_erasure.analytic import aoi_maf_wfb, aoi_rr_nofb, optimize_gamma, solve_nofb
from aoi_erasure.model import Feedback
from aoi_erasure.simulator import make_config, run_simulation
from aoi_erasure.stats import (
    Moments,
    ValidationRecord,
    batch_means_ci,
    closed_form_aoi,
    ratio_estimate,
    validate,
)
from epoch_oracle import ratio_estimate as cov_ratio_estimate
from gamma_oracle import RenewalEstimate, grid_oracle_gamma, sim_gamma_curve


class TestRatioEstimate:
    def test_constant_epochs_have_zero_width(self):
        y = np.full(50, 2.0)
        point, ci = ratio_estimate(y, 0.5 * y * y)
        assert point == pytest.approx(1.0, rel=1e-15)
        assert ci == pytest.approx(0.0, abs=1e-12)

    def test_single_epoch(self):
        point, ci = ratio_estimate(np.array([3.0]), np.array([4.5]))
        assert point == 1.5
        assert ci == 0.0
        with pytest.raises(ValueError):
            ratio_estimate(np.array([]), np.array([]))

    def test_matches_renewal_identity(self):
        rng = np.random.default_rng(7)
        y = rng.exponential(size=4000) + 0.2
        R = 0.5 * y * y
        point, ci = ratio_estimate(y, R)
        assert point == pytest.approx(R.sum() / y.sum(), rel=1e-14)
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
    @pytest.mark.parametrize(
        "y",
        [
            _epochs(4000),
            3.0 + 1e-6 * np.random.default_rng(1).standard_normal(5000),  # low coefficient of variation
            np.array([0.7, 2.3]),
            _epochs(stats._CHUNK - 1, seed=2),
            _epochs(stats._CHUNK, seed=3),
            _epochs(stats._CHUNK + 1, seed=4),
            _epochs(3 * stats._CHUNK + 5, seed=5),
        ],
        ids=["random", "low-cv", "n=2", "chunk-1", "chunk", "chunk+1", "3chunks+5"],
    )
    def test_matches_cov_reference(self, y):
        R = 0.5 * y * y
        want = cov_ratio_estimate(y, R)
        assert ratio_estimate(y, R) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_merged_runs_match_pooled_reference(self):
        parts = [_epochs(n, seed=n) for n in (1, 2, 999, stats._CHUNK + 3)]
        pooled = Moments()
        for y in parts:
            pooled.merge(Moments.of(y, 0.5 * y * y))
        y = np.concatenate(parts)
        assert pooled.n == y.size
        assert pooled.estimate() == pytest.approx(cov_ratio_estimate(y, 0.5 * y * y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 2.0, 7.77])
    @pytest.mark.parametrize("n", [2, 50, stats._CHUNK + 1])
    def test_constant_epochs_give_zero_width(self, value, n):
        y = np.full(n, value)
        assert ratio_estimate(y, 0.5 * y * y)[1] == 0.0

    def test_empty_merge_changes_nothing(self):
        y = _epochs(10)
        m = Moments.of(y, 0.5 * y * y)
        before = m.estimate()
        m.merge(Moments())
        assert m.estimate() == before


class TestBatchMeans:
    def test_constant_batches(self):
        assert batch_means_ci(np.full(20, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_count(self):
        assert batch_means_ci(np.array([1.0])) == 0.0

    def test_matches_student_t(self):
        from scipy import stats as sps

        b = np.array([1.0, 2.0, 3.0, 4.0])
        se = b.std(ddof=1) / 2.0
        assert batch_means_ci(b) == pytest.approx(sps.t.ppf(0.975, 3) * se, rel=1e-12)

    def test_quantile_matches_scipy_for_integer_df(self):
        from scipy import stats as sps

        from aoi_erasure.stats import _t975

        for df in range(1, 201):
            assert abs(_t975(df) - sps.t.ppf(0.975, df)) <= 1e-10, df


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
