import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from aoi_erasure import analytic
from aoi_erasure.analytic import (
    BracketError,
    _bisect_checked,
    _zero_threshold_optimal,
    aoi_maf_wfb,
    aoi_rr_nofb,
    baseline_infinite_battery,
    exp_max_moments,
    feedback_gain,
    optimize_gamma,
    p_nofb,
    p_wfb,
    percentage_gain,
    solve_nofb,
    solve_wfb,
)
from aoi_erasure.model import Feedback, Regime
from gamma_oracle import grid_oracle_gamma

# root of e^-x = x^2/2, the common q = 0 solution of both settings
ROOT_Q0 = 0.9012010317296648


class TestExpMaxMoments:
    def test_gamma_zero_is_plain_exponential(self):
        mm = exp_max_moments(0.0)
        assert mm.m1 == 1.0
        assert mm.m2 == 2.0

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_matches_numerical_integration(self, gamma):
        m1_num, _ = quad(lambda t: max(gamma, t) * math.exp(-t), 0.0, 60.0)
        m2_num, _ = quad(lambda t: max(gamma, t) ** 2 * math.exp(-t), 0.0, 60.0)
        mm = exp_max_moments(gamma)
        assert mm.m1 == pytest.approx(m1_num, rel=1e-9)
        assert mm.m2 == pytest.approx(m2_num, rel=1e-9)

    def test_frozen_values(self):
        mm1 = exp_max_moments(1.0)
        assert mm1.m1 == pytest.approx(1.3678794411714423, abs=1e-12)
        assert mm1.m2 == pytest.approx(2.4715177646857693, abs=1e-12)
        mm2 = exp_max_moments(2.0)
        assert mm2.m1 == pytest.approx(2.1353352832366127, abs=1e-12)
        assert mm2.m2 == pytest.approx(4.812011699419676, abs=1e-12)

    def test_moment_inequalities(self):
        for gamma in np.linspace(0.0, 20.0, 81):
            mm = exp_max_moments(float(gamma))
            assert mm.m1 >= max(gamma, 1.0)
            assert mm.m2 >= mm.m1 * mm.m1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exp_max_moments(-0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            exp_max_moments(gamma)
        for closed_form in (aoi_rr_nofb, aoi_maf_wfb):
            with pytest.raises(ValueError):
                closed_form(0.3, 2, gamma)


class TestPnofb:
    def test_at_zero(self):
        assert p_nofb(0.0, 0.3) == pytest.approx(0.4 / 0.49, rel=1e-12)
        assert p_nofb(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_q_zero_root(self):
        assert abs(p_nofb(ROOT_Q0, 0.0)) < 1e-4
        assert abs(p_nofb(ROOT_Q0, 0.0)) < 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 0.9])
    def test_strictly_decreasing(self, q):
        grid = np.linspace(0.0, 50.0, 2001)
        vals = np.array([p_nofb(float(x), q) for x in grid])
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            p_nofb(-0.1, 0.3)
        with pytest.raises(ValueError):
            p_nofb(0.1, 1.0)


class TestSolveNofb:
    @pytest.mark.parametrize("q", [0.5, 0.6, 0.75])
    def test_greedy_regime_exact(self, q):
        sol = solve_nofb(q)
        assert sol.regime is Regime.GREEDY
        assert sol.threshold == 0.0
        assert sol.lambda_star == 1.0 / (1.0 - q)

    def test_q_zero(self):
        sol = solve_nofb(0.0)
        assert sol.regime is Regime.THRESHOLD
        assert sol.threshold == pytest.approx(ROOT_Q0, abs=1e-9)
        assert sol.lambda_star == sol.threshold

    def test_q_03_frozen(self):
        sol = solve_nofb(0.3)
        assert sol.threshold == pytest.approx(0.47047144322816536, abs=1e-9)
        assert sol.lambda_star == pytest.approx(1.4091964099730947, abs=1e-9)

    def test_q_03_matches_renewal_ratio(self):
        # independent reconstruction from the epoch moments: x = max(lp, tau),
        # epoch = geometric number of inter-attempt waits
        q = 0.3
        sol = solve_nofb(q)
        mm = exp_max_moments(sol.threshold)
        e_y = mm.m1 / (1.0 - q)
        e_r = mm.m2 / (2.0 * (1.0 - q)) + q * mm.m1**2 / (1.0 - q) ** 2
        assert sol.lambda_star == pytest.approx(e_r / e_y, rel=1e-10)

    def test_threshold_positive_below_half(self):
        for q in np.arange(0.0, 0.5, 0.05):
            sol = solve_nofb(float(q))
            assert sol.regime is Regime.THRESHOLD
            assert sol.threshold > 0.0

    def test_bracket_misconfiguration(self):
        with pytest.raises(BracketError):
            _bisect_checked(lambda x: p_nofb(x, 0.0), 0.0, 0.1)

    @pytest.mark.parametrize("q", [0.5 - 10.0**-k for k in range(7, 17)] + [math.nextafter(0.5, 0.0)])
    def test_root_below_the_residual_probe_step(self, q):
        # the residual check's slope probe must stay inside the bracket
        assert 0.0 <= solve_nofb(q).threshold <= 1e-6


class TestBisection:
    """The hand-rolled bisection against scipy's on the same brackets."""

    def test_nofb_threshold_matches_scipy(self):
        from scipy.optimize import bisect

        for q in np.round(np.arange(0.0, 0.495, 0.01), 2):
            q = float(q)
            ref = bisect(lambda x: p_nofb(x, q), 0.0, 50.0, xtol=1e-12, maxiter=200)
            assert abs(solve_nofb(q).threshold - ref) < 1e-11, q

    def test_wfb_lambda_star_matches_scipy(self):
        from scipy.optimize import bisect

        for q in np.round(np.arange(0.0, 0.985, 0.01), 2):
            q = float(q)
            ref = bisect(lambda x: p_wfb(x, q), q / (1.0 - q), 50.0, xtol=1e-12, maxiter=200)
            assert abs(solve_wfb(q).lambda_star - ref) < 1e-11, q

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analytic, "_MAX_ITER", 5)
        with pytest.raises(RuntimeError):
            _bisect_checked(lambda x: p_nofb(x, 0.2), 0.0, 50.0)

    @pytest.mark.parametrize("root", [1.0, 2.0, 3.0])
    def test_exact_zeros_returned_as_is(self, root):
        # endpoints and the first midpoint of [1, 3] are exact zeros
        assert _bisect_checked(lambda x: x - root, 1.0, 3.0) == root


class TestPwfb:
    def test_lower_branch_value(self):
        assert p_wfb(0.5, 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_q_zero_reduces_to_nofb(self):
        assert abs(p_wfb(ROOT_Q0, 0.0)) < 1e-4
        for lam in (0.1, 0.9, 2.0):
            assert p_wfb(lam, 0.0) == pytest.approx(p_nofb(lam, 0.0), rel=1e-12)

    def test_positive_at_breakpoint(self):
        q = 0.3
        d = q / (1.0 - q)
        assert p_wfb(d, q) > 0.0
        assert p_wfb(d * 0.999, q) > 0.0

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.6, 0.9])
    def test_strictly_decreasing(self, q):
        grid = np.linspace(0.0, 50.0, 2001)
        vals = np.array([p_wfb(float(x), q) for x in grid])
        assert np.all(np.diff(vals) < 0.0)


class TestSolveWfb:
    def test_q_zero(self):
        sol = solve_wfb(0.0)
        assert sol.lambda_star == pytest.approx(ROOT_Q0, abs=1e-9)
        assert sol.threshold == sol.lambda_star

    def test_q_05_frozen(self):
        sol = solve_wfb(0.5)
        assert sol.lambda_star == pytest.approx(1.9437858746370043, abs=1e-9)
        assert sol.threshold == pytest.approx(0.9437858746370043, abs=1e-9)
        assert abs(p_wfb(sol.lambda_star, 0.5)) < 1e-10

    def test_threshold_always_positive(self):
        for q in np.arange(0.0, 0.96, 0.05):
            sol = solve_wfb(float(q))
            assert sol.regime is Regime.THRESHOLD
            assert sol.threshold > 0.0
            assert sol.lambda_star == pytest.approx(sol.threshold + q / (1.0 - q), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:q = .* is close to 1:RuntimeWarning")
    @pytest.mark.parametrize("q", [0.9803, 0.981, 0.99, 0.999, 0.9999])
    def test_root_beyond_a_large_breakpoint(self, q):
        # the root is sought in gamma on [0, sqrt(2)], whatever the breakpoint q/(1-q)
        sol = solve_wfb(q)
        assert sol.lambda_star > q / (1.0 - q)
        assert sol.lambda_star == pytest.approx(optimize_gamma(q, 1, "wfb")[1], rel=1e-9)


class TestNearOne:
    """Every threshold solves as q -> 1; P_M in gamma has no d-sized terms that cancel."""

    QS = [1.0 - 10.0 ** -(5 + k / 20) for k in range(221)]  # e = 5, 5.05, ..., 16

    @pytest.mark.filterwarnings("ignore:q = .* is close to 1:RuntimeWarning")
    def test_feedback_threshold_to_q_one(self):
        for q in self.QS:
            sol = solve_wfb(q)
            assert 0.0 < sol.threshold <= 1.0, q
            # one Newton step on P_1 from gamma = 1; its error is O(((1-q)/q)^3)
            newton = 1.0 + (math.exp(-1.0) - 0.5) / (q / (1.0 - q) + 1.0 + math.exp(-1.0))
            assert sol.threshold == pytest.approx(newton, abs=2e-12), q
            assert optimize_gamma(q, 1, Feedback.WFB)[0] == sol.threshold, q
            assert sol.lambda_star == sol.threshold + q / (1.0 - q), q
            assert feedback_gain(q) >= 0.0, q
            assert math.isfinite(percentage_gain(q, 1)), q


def _symbolic_forms():
    """The closed forms and P_M in the symbols q, M, gamma, keyed by setting.

    Each entry is (f, P_M, b): the closed form as aoi_rr_nofb / aoi_maf_wfb
    write it, the first-order condition as analytic._first_order writes it,
    and b, the shift in its squared term.
    """
    q, M, g = sp.symbols("q M gamma", positive=True)
    E = sp.exp(-g)
    d = q / (1 - q)
    m1, m2 = g + E, g**2 + 2 * (g + 1) * E

    def p_m(a, b, c):
        return E - g**2 / 2 + a * (1 - g) - c * (g + b + E) ** 2

    s = m2 + 2 * m1 * d + 2 * q / (1 - q) ** 2
    forms = {
        Feedback.NOFB: (
            m2 / (2 * m1) + ((M - 1) / 2 + M * q / (1 - q)) * m1,
            p_m(0, 0, (q + (M - 1) * (1 + q) / 2) / (1 - q)),
            0,
        ),
        Feedback.WFB: (s / (2 * (m1 + d)) + (M - 1) * (m1 + d) / 2, p_m(d, d, sp.Rational(1, 2) * (M - 1)), d),
    }
    return (q, M, g), forms


class TestSymbolicCertificates:
    """sympy derives, in q, M and gamma, the facts the threshold solver rests on."""

    CELLS = [(q, M, g) for q in (0.0, 0.3, 0.9) for M in (1, 2, 5) for g in (0.0, 0.4, 1.3)]

    @pytest.mark.parametrize("setting", list(Feedback))
    def test_symbols_are_the_code(self, setting):
        (q, M, g), forms = _symbolic_forms()
        f, pm, _ = forms[setting]
        form = aoi_rr_nofb if setting is Feedback.NOFB else aoi_maf_wfb
        f_num, pm_num = sp.lambdify((q, M, g), f), sp.lambdify((q, M, g), pm)
        for cell in self.CELLS:
            assert form(*cell) == pytest.approx(f_num(*cell), rel=1e-13), cell
            assert analytic._first_order(cell[0], cell[1], setting)(cell[2]) == pytest.approx(
                pm_num(*cell), rel=1e-13, abs=1e-13
            ), cell

    @pytest.mark.parametrize("setting", list(Feedback))
    def test_derivative_factors_through_p_m(self, setting):
        # f'(gamma) = -(1 - e^-gamma) P_M / (gamma + b + e^-gamma)^2, the factor
        # 1/m1^2 without feedback and 1/(m1 + d)^2 with it
        (q, M, g), forms = _symbolic_forms()
        f, pm, b = forms[setting]
        E = sp.exp(-g)
        assert sp.simplify(sp.diff(f, g) + (1 - E) * pm / (g + b + E) ** 2) == 0

    def test_zero_threshold_rule_is_p_m_at_zero(self):
        (q, M, g), forms = _symbolic_forms()
        p0 = {s: forms[s][1].subs(g, 0) for s in Feedback}
        # positive multiples of P_M(0): the integer rules of _zero_threshold_optimal
        assert sp.simplify(2 * (1 - q) * p0[Feedback.NOFB] - (3 * (1 - q) - M * (1 + q))) == 0
        assert sp.simplify(2 * (1 - q) ** 2 * p0[Feedback.WFB] - (3 - 2 * q - M)) == 0
        for qf in (0.0, 0.1, 0.2, math.nextafter(0.2, 0.0), 0.3, 0.5, math.nextafter(0.5, 0.0), 0.7):
            exact = sp.Rational(*qf.as_integer_ratio())
            for m in range(1, 9):
                for setting in Feedback:
                    zero = bool(p0[setting].subs({q: exact, M: m}) <= 0)
                    assert _zero_threshold_optimal(qf, m, setting) is zero, (qf, m, setting)

    def test_root_functions_are_p_1(self):
        # p_nofb and p_wfb as the lambda-form derivation writes them
        (q, M, g), forms = _symbolic_forms()
        p1 = {s: forms[s][1].subs(M, 1) for s in Feedback}
        lam, E, d = sp.Symbol("lam", positive=True), sp.exp(-g), q / (1 - q)
        nofb = ((1 - q) * (E - g**2 / 2) - q * (g + E) ** 2) / (1 - q) ** 2
        upper = sp.exp(-(lam - d)) - lam**2 / 2 + (2 * q - q**2) / (2 * (1 - q) ** 2)
        lower = 1 - lam / (1 - q) + (2 * q - q**2) / (1 - q) ** 2
        assert sp.simplify(nofb - p1[Feedback.NOFB] / (1 - q)) == 0
        assert sp.simplify(upper.subs(lam, g + d) - p1[Feedback.WFB]) == 0
        assert sp.simplify(lower - (1 + d) * (1 - (lam - d))) == 0
        nofb_num, upper_num, lower_num = (sp.lambdify(args, e) for args, e in
                                          (((q, g), nofb), ((q, lam), upper), ((q, lam), lower)))
        for qf in (0.0, 0.3, 0.9):
            dq = qf / (1.0 - qf)
            for x in (0.0, 0.4, 1.3):
                assert p_nofb(x, qf) == pytest.approx(nofb_num(qf, x), rel=1e-12, abs=1e-12)
                assert p_wfb(x + dq, qf) == pytest.approx(upper_num(qf, x + dq), rel=1e-12, abs=1e-12)
                assert p_wfb(x * dq / 2, qf) == pytest.approx(lower_num(qf, x * dq / 2), rel=1e-12, abs=1e-12)


class TestAoiRrNofb:
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.7])
    def test_single_source_greedy_value(self, q):
        assert aoi_rr_nofb(q, 1, 0.0) == pytest.approx(1.0 / (1.0 - q), rel=1e-12)

    def test_fixed_point_at_q_zero(self):
        # where e^-g = g^2/2 the ratio collapses to g itself
        assert aoi_rr_nofb(0.0, 1, ROOT_Q0) == pytest.approx(ROOT_Q0, abs=1e-9)

    def test_two_sources_greedy(self):
        assert aoi_rr_nofb(0.3, 2, 0.0) == pytest.approx(33.0 / 14.0, rel=1e-12)

    def test_increasing_in_m(self):
        for q, g in [(0.1, 0.0), (0.3, 0.4), (0.6, 1.0)]:
            vals = [aoi_rr_nofb(q, m, g) for m in range(1, 9)]
            assert np.all(np.diff(vals) > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            aoi_rr_nofb(0.3, 0, 0.0)
        with pytest.raises(ValueError):
            aoi_rr_nofb(0.3, 1, -0.1)


class TestAoiMafWfb:
    def test_no_erasures_equals_rr(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 10))
            g = float(rng.uniform(0.0, 3.0))
            assert aoi_maf_wfb(0.0, m, g) == pytest.approx(aoi_rr_nofb(0.0, m, g), rel=1e-12)

    def test_single_source_at_optimum_recovers_lambda_star(self):
        sol = solve_wfb(0.5)
        assert aoi_maf_wfb(0.5, 1, sol.threshold) == pytest.approx(sol.lambda_star, rel=1e-10)
        assert aoi_maf_wfb(0.5, 1, 0.9435) == pytest.approx(1.9435, abs=1e-3)

    def test_two_sources_greedy(self):
        assert aoi_maf_wfb(0.3, 2, 0.0) == pytest.approx(15.0 / 7.0, rel=1e-12)

    def test_increasing_in_m(self):
        for q, g in [(0.1, 0.0), (0.3, 0.4), (0.6, 1.0)]:
            vals = [aoi_maf_wfb(q, m, g) for m in range(1, 9)]
            assert np.all(np.diff(vals) > 0.0)


class TestOptimizeGamma:
    def test_q_zero_single_source(self):
        g, aoi = optimize_gamma(0.0, 1, Feedback.NOFB)
        assert g == pytest.approx(ROOT_Q0, abs=1e-6)
        assert aoi == pytest.approx(ROOT_Q0, abs=1e-9)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.45])
    def test_single_source_matches_nofb_solver(self, q):
        sol = solve_nofb(q)
        g, aoi = optimize_gamma(q, 1, Feedback.NOFB)
        assert g == sol.threshold
        assert aoi == pytest.approx(sol.lambda_star, rel=1e-9)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.8])
    def test_single_source_matches_wfb_solver(self, q):
        sol = solve_wfb(q)
        g, aoi = optimize_gamma(q, 1, Feedback.WFB)
        assert g == sol.threshold
        assert aoi == pytest.approx(sol.lambda_star, rel=1e-9)

    def test_single_source_threshold_is_the_solvers_on_a_grid(self):
        # one bisection of one root function: not close, identical
        for k in range(999):
            q = k / 1000
            assert optimize_gamma(q, 1, Feedback.NOFB)[0] == solve_nofb(q).threshold, q
            assert optimize_gamma(q, 1, Feedback.WFB)[0] == solve_wfb(q).threshold, q

    def test_first_order_condition_changes_sign_at_the_optimum(self):
        # P_M rebuilt here from the public root functions; gamma* must sit at
        # its sign change and beat every nearby threshold and a dense scan
        scan = np.concatenate((np.geomspace(1e-8, 1.0, 400), np.linspace(1.0, 50.0, 400)))
        cells = 0
        for k in range(99):
            q = k / 100
            d = q / (1.0 - q)
            for M in range(1, 9):
                for setting in Feedback:
                    g, aoi = optimize_gamma(q, M, setting)
                    if g == 0.0:
                        continue
                    cells += 1
                    if setting is Feedback.NOFB:
                        f = lambda x: aoi_rr_nofb(q, M, x)
                        c = (M - 1) * (1 + q) / (2 * (1 - q) ** 2)
                        pm = lambda x: p_nofb(x, q) - c * (x + math.exp(-x)) ** 2
                        x = g
                    else:
                        f = lambda x: aoi_maf_wfb(q, M, x)
                        pm = lambda x: p_wfb(x, q) - (M - 1) / 2 * (x + math.exp(-(x - d))) ** 2
                        x = g + d
                    h = 1e-10 * (1.0 + x)
                    assert pm(x - h) > 0.0 > pm(x + h), (q, M, setting)
                    near = [g + s * t for t in (1e-8, 1e-7, 1e-6, 1e-5) for s in (-1, 1) if g + s * t >= 0.0]
                    assert aoi <= min(f(float(t)) for t in np.concatenate((near, scan))) * (1 + 1e-15)
        assert cells == 219

    @pytest.mark.parametrize("edge,M,setting", [(0.5, 1, "nofb"), (0.2, 2, "nofb"), (0.5, 2, "wfb")])
    def test_floats_just_below_a_zero_threshold_boundary(self, edge, M, setting):
        form = aoi_rr_nofb if setting == "nofb" else aoi_maf_wfb
        q = edge
        for _ in range(2000):
            q = math.nextafter(q, 0.0)
            g, aoi = optimize_gamma(q, M, setting)
            assert g >= 0.0 and aoi <= form(q, M, 0.0), q

    def test_greedy_single_source_above_half(self):
        g, aoi = optimize_gamma(0.6, 1, Feedback.NOFB)
        assert g == 0.0
        assert aoi == pytest.approx(2.5, rel=1e-12)

    def test_boundary_hit_for_many_sources(self):
        # enough sources always pushes the optimal threshold to zero
        g_n, _ = optimize_gamma(0.3, 3, Feedback.NOFB)
        assert g_n == 0.0
        g_w, _ = optimize_gamma(0.3, 4, Feedback.WFB)
        assert g_w == 0.0
        g8, _ = optimize_gamma(0.3, 8, Feedback.WFB)
        assert g8 == 0.0

    def test_interior_optimum_two_sources_wfb(self):
        g, aoi = optimize_gamma(0.3, 2, Feedback.WFB)
        assert g == pytest.approx(0.253934, abs=1e-4)
        assert aoi <= aoi_maf_wfb(0.3, 2, 0.0)

    def test_zero_threshold_exactly_by_curvature_rule(self):
        # gamma* is exactly 0 iff the curvature at 0 is nonnegative:
        # M(1+q) >= 3(1-q) without feedback, M >= 3 - 2q with it
        pairs = 0
        for i in range(99):
            q = i / 100
            x = Fraction(q)
            for M in range(1, 8):
                rules = {Feedback.NOFB: M * (1 + x) >= 3 * (1 - x), Feedback.WFB: M >= 3 - 2 * x}
                for setting, zero in rules.items():
                    g, _ = optimize_gamma(q, M, setting)
                    assert (g == 0.0) == zero, (q, M, setting, g)
                pairs += 1
        assert pairs == 693

    @pytest.mark.parametrize("q,M,setting", [(0.2, 2, "nofb"), (0.5, 1, "nofb"), (0.5, 2, "wfb"),
                                             (0.0, 3, "nofb"), (0.0, 3, "wfb")])
    def test_rational_boundary_points_agree_with_grid_scan(self, q, M, setting):
        # the curvature vanishes here, so no float comparison may decide them
        assert optimize_gamma(q, M, setting)[0] == 0.0
        assert grid_oracle_gamma(q, M, setting, 1e-4) == 0.0

    def test_returned_aoi_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = float(rng.uniform(0.0, 0.9))
            m = int(rng.integers(1, 7))
            setting = Feedback.NOFB if rng.random() < 0.5 else Feedback.WFB
            g, aoi = optimize_gamma(q, m, setting)
            direct = aoi_rr_nofb(q, m, g) if setting is Feedback.NOFB else aoi_maf_wfb(q, m, g)
            assert aoi == pytest.approx(direct, rel=1e-12)


class TestZeroThresholdRule:
    """_zero_threshold_optimal against the closed forms it decides for."""

    # Both sides allow 1e-12 relative for rounding. q lies on a 1e-3 grid,
    # where a positive threshold gains at least 2e-10 relative wherever it
    # gains at all; on a finer grid the gain next to a boundary drops
    # below rounding, and no evaluation of f could tell the answers apart.
    # The examples are the boundaries, where the curvature at 0 is zero
    # (exactly so for q = 0 and 0.5; float 0.2 lies just above 1/5).
    @given(
        q=st.integers(0, 990).map(lambda k: k / 1000),
        M=st.integers(1, 8),
        setting=st.sampled_from(list(Feedback)),
    )
    @example(q=0.2, M=2, setting=Feedback.NOFB)
    @example(q=0.5, M=2, setting=Feedback.WFB)
    @example(q=0.5, M=1, setting=Feedback.NOFB)
    @example(q=0.0, M=3, setting=Feedback.NOFB)
    @example(q=0.0, M=3, setting=Feedback.WFB)
    def test_rule_matches_the_closed_form(self, q, M, setting):
        form = aoi_rr_nofb if setting is Feedback.NOFB else aoi_maf_wfb
        f = lambda g: form(q, M, g)
        f0 = f(0.0)
        scan = np.concatenate((np.geomspace(1e-8, 1.0, 1000), np.linspace(1.0, 50.0, 1000)))
        best = min(f(float(g)) for g in scan)
        if _zero_threshold_optimal(q, M, setting):
            assert best >= f0 * (1.0 - 1e-12)
        else:
            assert best < f0 * (1.0 - 1e-12)


class TestBaselines:
    def test_values(self):
        assert baseline_infinite_battery(0.0, Feedback.NOFB) == 0.5
        assert baseline_infinite_battery(0.5, Feedback.NOFB) == pytest.approx(1.5, rel=1e-12)
        assert baseline_infinite_battery(0.5, Feedback.WFB) == pytest.approx(1.0, rel=1e-12)

    def test_unit_battery_dominates_baselines(self):
        for q in np.arange(0.0, 0.95, 0.05):
            q = float(q)
            assert solve_nofb(q).lambda_star >= baseline_infinite_battery(q, Feedback.NOFB) - 1e-12
            assert solve_wfb(q).lambda_star >= baseline_infinite_battery(q, Feedback.WFB) - 1e-12

    def test_greedy_is_an_upper_bound_nofb(self):
        for q in np.arange(0.0, 0.95, 0.05):
            q = float(q)
            assert solve_nofb(q).lambda_star <= 1.0 / (1.0 - q) + 1e-12


class TestGains:
    def test_gain_zero_without_erasures(self):
        assert abs(feedback_gain(0.0)) < 1e-9
        assert abs(percentage_gain(0.0, 3)) < 1e-9

    def test_gain_nonnegative_and_peaks_mid_range(self):
        grid = np.arange(0.0, 0.95, 0.05)
        gains = np.array([feedback_gain(float(q)) for q in grid])
        assert np.all(gains >= -1e-12)
        peak_q = float(grid[int(np.argmax(gains))])
        assert 0.25 <= peak_q <= 0.55

    def test_percentage_gain_large_m_limit(self):
        val = percentage_gain(0.3, 200)
        assert val == pytest.approx(22.8999, abs=1e-3)
        assert abs(val - 0.3 / 1.3 * 100.0) < 1.0


class TestNearOneWarning:
    def test_warns_close_to_one(self):
        with pytest.warns(RuntimeWarning):
            p_nofb(0.1, 0.9995)
        with pytest.warns(RuntimeWarning):
            aoi_rr_nofb(0.9995, 1, 0.0)

    def test_silent_below_guard(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aoi_rr_nofb(0.99, 1, 0.0)
