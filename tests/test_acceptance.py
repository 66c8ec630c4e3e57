"""Acceptance gate: one test per shipped guarantee, one printed line each.

Each test exercises a user-visible promise of the package end to end and
prints `criterion NN: PASS/FAIL - detail` through the shared fixture, so
a plain pytest run doubles as the acceptance report.
"""

import time

import numpy as np

from aoi_erasure.analytic import (
    aoi_maf_wfb,
    aoi_rr_nofb,
    baseline_infinite_battery,
    feedback_gain,
    optimize_gamma,
    percentage_gain,
    solve_nofb,
    solve_wfb,
)
from aoi_erasure.simulator import ATTEMPT, ERASURE, SUCCESS, SimConfig, run_simulation
from aoi_erasure.stats import validate
from gamma_oracle import grid_oracle_gamma, sim_gamma_curve

SEED = 20260817
# root of e^(-x) = x^2 / 2, bisected independently to 48 bits
ROOT_Q0 = 0.9012010317296648

QS_GRID = np.round(np.arange(0.0, 0.951, 0.05), 2)


def _sim_mean(q, M, setting, gamma, n, seed):
    res, _, _ = run_simulation(SimConfig(q, M, setting, gamma, target_epochs=n, seed=seed))
    return res.mean_aoi


def test_01_greedy_regime_exact_and_simulated(criterion):
    t0 = time.perf_counter()
    worst_exact = 0.0
    worst_sim = 0.0
    for q in (0.5, 0.6, 0.75):
        lam = 1.0 / (1.0 - q)
        sol = solve_nofb(q)
        worst_exact = max(worst_exact, abs(sol.lambda_star - lam))
        sim = _sim_mean(q, 1, "nofb", 0.0, 100000, SEED)
        worst_sim = max(worst_sim, abs(sim - lam) / lam)
    elapsed = time.perf_counter() - t0
    ok = worst_exact == 0.0 and worst_sim <= 0.01 and elapsed < 5.0
    criterion(
        1,
        ok,
        f"greedy lambda exact to {worst_exact:.1e}, sim rel err {worst_sim:.2%} "
        f"at 1e5 epochs, {elapsed:.2f}s",
    )


def test_02_settings_coincide_without_erasures(criterion):
    a = solve_nofb(0.0).lambda_star
    b = solve_wfb(0.0).lambda_star
    gap = abs(a - b)
    off = max(abs(a - ROOT_Q0), abs(b - ROOT_Q0))
    ok = gap <= 1e-8 and off <= 1e-8
    criterion(2, ok, f"q=0 solvers agree to {gap:.1e}, both within {off:.1e} of the erasure-free root")


def test_03_simulation_matches_closed_forms_on_grid(criterion):
    t0 = time.perf_counter()
    fails = []
    n_cells = 0
    for q in (0.1, 0.3, 0.5, 0.7):
        for M in (1, 2, 4, 8):
            for setting in ("nofb", "wfb"):
                gstar, _ = optimize_gamma(q, M, setting)
                for gamma in (0.0, gstar):
                    n_cells += 1
                    rec = validate(q, M, setting, gamma, 100000, SEED, rel_tol=0.01)
                    if not rec.passed:
                        fails.append((q, M, setting, round(gamma, 4)))
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120.0
    criterion(3, ok, f"{n_cells - len(fails)}/{n_cells} cells PASS at 1e5 epochs, {elapsed:.1f}s"
              + (f", failing: {fails}" if fails else ""))


def test_04_optimal_value_identities_single_source(criterion):
    worst = 0.0
    for q in np.round(np.arange(0.10, 0.451, 0.05), 2):
        sol = solve_nofb(q)
        worst = max(worst, abs(aoi_rr_nofb(q, 1, sol.threshold) - sol.lambda_star) / sol.lambda_star)
    for q in np.round(np.arange(0.10, 0.901, 0.05), 2):
        sol = solve_wfb(q)
        worst = max(worst, abs(aoi_maf_wfb(q, 1, sol.threshold) - sol.lambda_star) / sol.lambda_star)
    ok = worst <= 1e-6
    criterion(4, ok, f"multi-source forms at M=1 reproduce the solver optima, worst rel gap {worst:.1e}")


def test_05_source_count_where_waiting_stops_paying(criterion):
    # contract under test: at q = 0.3 the optimizer first returns a zero
    # threshold at M = 3 without feedback and M = 4 with feedback
    def first_zero(setting):
        for M in range(1, 9):
            gstar, _ = optimize_gamma(0.3, M, setting)
            if gstar == 0.0:
                return M
        return None

    m_nofb = first_zero("nofb")
    m_wfb = first_zero("wfb")
    ok = (m_nofb, m_wfb) == (3, 4)
    criterion(
        5,
        ok,
        f"expected first zero-threshold source counts (3, 4) at q=0.3, measured "
        f"({m_nofb}, {m_wfb}) for (no-feedback, feedback)",
    )


def test_06_optimal_values_monotone_in_q(criterion):
    slack = 1e-9
    nofb = [solve_nofb(q) for q in QS_GRID]
    wfb = [solve_wfb(q) for q in QS_GRID]
    lam_nofb = [s.lambda_star for s in nofb]
    lam_wfb = [s.lambda_star for s in wfb]
    thr_nofb = [s.threshold for s, q in zip(nofb, QS_GRID) if q < 0.5]
    ok_lam = all(b >= a - slack for a, b in zip(lam_nofb, lam_nofb[1:]))
    ok_thr = all(b <= a + slack for a, b in zip(thr_nofb, thr_nofb[1:]))
    ok_wfb = all(b >= a - slack for a, b in zip(lam_wfb, lam_wfb[1:]))
    ok = ok_lam and ok_thr and ok_wfb
    criterion(
        6,
        ok,
        "on a 0.05 q-grid: no-feedback optimum nondecreasing "
        f"({ok_lam}), its threshold nonincreasing below 0.5 ({ok_thr}), "
        f"feedback optimum nondecreasing ({ok_wfb})",
    )


def test_07_unit_battery_never_beats_infinite_battery(criterion):
    worst = -np.inf
    for q in QS_GRID:
        margin_n = solve_nofb(q).lambda_star - baseline_infinite_battery(q, "nofb")
        margin_w = solve_wfb(q).lambda_star - baseline_infinite_battery(q, "wfb")
        worst = max(worst, -min(margin_n, margin_w))
    ok = worst <= 1e-12
    criterion(7, ok, f"optima stay above both infinite-battery baselines, smallest margin {-worst:.1e}")


def test_08_feedback_gain_shape(criterion):
    gains = np.array([feedback_gain(q) for q in QS_GRID])
    q_peak = float(QS_GRID[int(np.argmax(gains))])
    ok = bool(np.all(gains >= -1e-12)) and 0.25 <= q_peak <= 0.55
    criterion(8, ok, f"gain nonnegative on the grid, peak at q={q_peak:.2f} within [0.25, 0.55]")


def test_09_many_source_gain_limit(criterion):
    limit = 100.0 * 0.3 / 1.3
    pg = percentage_gain(0.3, 200)
    gap = abs(pg - limit)
    ok = gap < 1.0
    criterion(9, ok, f"percentage gain at M=200 is {pg:.2f}%, {gap:.2f} points from the {limit:.2f}% limit")


def test_10_optimizer_agrees_with_brute_force(criterion):
    rng = np.random.default_rng(SEED)
    step = 1e-3
    worst = 0.0
    for i in range(12):
        q = float(rng.uniform(0.02, 0.72))
        M = int(rng.integers(1, 9))
        setting = ("nofb", "wfb")[i % 2]
        g_scan = grid_oracle_gamma(q, M, setting, step)
        g_opt, _ = optimize_gamma(q, M, setting)
        worst = max(worst, abs(g_scan - g_opt))
    scan_ok = worst <= step + 1e-9

    band_ok = True
    for q, M in ((0.5, 1), (0.3, 2)):
        gstar, _ = optimize_gamma(q, M, "wfb")
        grid = list(np.arange(0.0, 2.0001, 0.1)) + [gstar]
        ests = sim_gamma_curve(q, M, "wfb", grid, n_epochs=10000, seed=SEED)
        j = int(np.argmin([e.point for e in ests]))
        e_star = ests[-1]
        band_ok &= e_star.point - e_star.ci_half_width <= ests[j].point + ests[j].ci_half_width
    ok = scan_ok and bool(band_ok)
    criterion(
        10,
        ok,
        f"12 random cells: 1e-3 grid scan within {worst:.1e} of the optimizer; "
        f"closed-form optimum inside the simulated minimum's CI band: {bool(band_ok)}",
    )


def test_11_traced_runs_keep_physical_invariants(criterion):
    cells = [
        (0.3, 1, "nofb", 0.4705, 2),
        (0.3, 2, "nofb", 0.3, 2),
        (0.5, 1, "wfb", 0.9438, 3),
        (0.3, 3, "wfb", 0.25, 4),
    ]
    checks = []
    worst_att = 0.0
    n_events = 0
    for q, M, setting, gamma, seed in cells:
        mk = lambda **kw: SimConfig(q, M, setting, gamma, target_epochs=10000, seed=seed,
                                      trace=True, **kw)
        _, epochs, log = run_simulation(mk())
        log.check_invariants()
        n_events += len(log.events)
        att = epochs.attempts.astype(np.float64)
        rel = abs(att.mean() - 1.0 / (1.0 - q)) * (1.0 - q)
        worst_att = max(worst_att, rel)
        checks.append(rel <= 0.01)

        _, _, log2 = run_simulation(mk())
        checks.append(log.to_lines() == log2.to_lines())

        if setting == "nofb":
            _, _, log3 = run_simulation(mk(erasure_seed=SEED + 1))
            at = lambda lg: [(e.time, e.source_id) for e in lg.events if e.kind == ATTEMPT]
            ta, tb = at(log), at(log3)
            n = min(len(ta), len(tb))
            outcomes = lambda lg: [e.kind for e in lg.events if e.kind in (SUCCESS, ERASURE)]
            checks.append(n > 0 and ta[:n] == tb[:n])
            checks.append(outcomes(log)[:n] != outcomes(log3)[:n])
    ok = all(checks)
    criterion(
        11,
        ok,
        f"4 traced configs at 1e4 epochs: battery/causality audit over {n_events} events, "
        f"attempts per epoch within {worst_att:.2%} of 1/(1-q), logs byte-identical per seed, "
        f"attempt times blind to erasure reshuffling without feedback",
    )
